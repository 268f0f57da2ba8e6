"""Exception hierarchy.

Input errors (bad files, unknown columns, unparsable cells) derive from
:class:`InputError`; failures of an analysis precondition derive from
:class:`AnalysisError`. The CLI maps the two branches to distinct exit codes.
"""


class ClusterlabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ClusterlabError):
    """A problem with input data or its declared format."""


class AnalysisError(ClusterlabError):
    """An analysis precondition was violated."""


# -- tabular ingestion ------------------------------------------------------

#: the most characters of an offending token that a message quotes
_QUOTED = 40


def quoted(token: str) -> str:
    """``repr(token)`` for a message: its first 40 characters and its length
    when it is longer, so that one huge cell makes no huge message."""
    if len(token) <= _QUOTED:
        return repr(token)
    return f"{token[:_QUOTED]!r}… ({len(token)} characters)"


class MalformedRowError(InputError):
    def __init__(self, line_number, expected, got):
        self.line_number = line_number
        self.expected = expected
        self.got = got
        super().__init__(
            f"line {line_number}: expected {expected} fields, got {got}"
        )


class NonNumericCellError(InputError):
    def __init__(self, line_number, column, token):
        self.line_number = line_number
        self.column = column
        self.token = token
        super().__init__(
            f"line {line_number}, column {column!r}: cannot parse {quoted(token)} as a number"
        )


class NonFiniteCellError(InputError):
    """A cell reads as NaN or infinity without being the missing marker."""

    def __init__(self, line_number, column, token):
        self.line_number = line_number
        self.column = column
        self.token = token
        super().__init__(
            f"line {line_number}, column {column!r}: {quoted(token)} is not a finite "
            "number (mark missing cells with the missing marker)"
        )


class InvalidEncodingError(InputError):
    def __init__(self, offset, reason):
        self.offset = offset
        super().__init__(f"input is not valid UTF-8 at byte offset {offset}: {reason}")


class ArffSyntaxError(InputError):
    """ARFF document is missing sections or contains an invalid declaration."""


class UnsupportedAttributeTypeError(InputError):
    """ARFF attribute type outside the supported numeric/nominal subset."""


class UnwritableNameError(InputError, ValueError):
    """A table or column name that ARFF cannot hold; it came with the input."""


class DuplicateNameError(InputError, ValueError):
    """Two columns of a table share a name; the names came with the input."""


class UnknownColumnError(InputError):
    def __init__(self, column, available):
        self.column = column
        super().__init__(
            f"no column named {column!r}; available: {', '.join(available)}"
        )


class InvalidClassValueError(InputError):
    def __init__(self, value, row=None):
        self.value, self.row = value, row
        where = f" (row {row})" if row is not None else ""
        super().__init__(f"class value {value!r}{where} is not 2 or 4")


# -- distances --------------------------------------------------------------

class DimensionMismatchError(AnalysisError):
    def __init__(self, len_a, len_b):
        super().__init__(f"vectors have different lengths: {len_a} vs {len_b}")


# -- algorithms -------------------------------------------------------------

class EmptyDatasetError(AnalysisError):
    """The operation needs at least one data point."""


class TooFewPointsError(AnalysisError):
    def __init__(self, n, k):
        super().__init__(f"cannot form {k} clusters from {n} points")


class MissingCenterError(AnalysisError):
    def __init__(self, label):
        super().__init__(f"label {label} has no matching center")


class InvalidMedoidError(AnalysisError):
    """Medoid indices must be distinct and within range."""


class SampleTooLargeError(AnalysisError):
    def __init__(self, m, n):
        super().__init__(f"sample size {m} exceeds n - 1 = {n - 1}")


class SingleClusterError(AnalysisError):
    """Silhouette needs at least two distinct clusters."""


class NoLabelsError(AnalysisError):
    """Cluster naming needs a class label for every point."""


class NotFittedError(ClusterlabError):
    """Estimator method called before fit()."""
