"""Tabular ingestion (CSV and an ARFF subset) and the preprocessing pipeline.

The pipeline mirrors the standard cleanup for the Wisconsin breast-cancer
style of file: drop rows with missing cells, strip the identifier column,
split off the 2/4-coded class column, then min-max normalize each remaining
feature onto [0, 1].

Both formats read their data rows by one grammar (see :func:`_rows`). A row
is a line ended by ``\n`` or ``\r\n``; a line of whitespace is blank, and so
is a ``%`` comment in ARFF. Its cells lie between delimiters, and each,
stripped of whitespace, is the missing marker, a value of its nominal
domain, or a finite number as numpy's C reader reads one: as ``float``
does, bit for bit, but without underscores or non-ASCII digits. numpy's
``np.loadtxt`` reads the rows. When it cannot, one scan of the text by the
same grammar words the error: the first refused character, sparse or ragged
row, non-number or value outside its domain, and only when there is none,
the first cell that reads as NaN or infinity.

The grammar refuses what it would not read the same everywhere: a data row
holding a ``\r`` outside ``\r\n``, another line boundary of
``str.splitlines`` or ``\x1f``, or in CSV a quote; and before any parse, a
delimiter that is a quote, a line boundary or a letter of ``nan``, and a
missing marker holding whitespace, a quote or the delimiter.

The CSV header is the first record of ``csv.reader`` that is not blank, so a
quoted name may hold the delimiter or a line break; error line numbers count
lines. The ARFF declarations are read line by line up to ``@data``.

All values are immutable after construction and safe to share across threads.
Row order is preserved by every operation in this module.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from ._parallel import fork_map
from .exceptions import (
    ArffSyntaxError,
    DuplicateNameError,
    InputError,
    InvalidClassValueError,
    InvalidEncodingError,
    MalformedRowError,
    NonFiniteCellError,
    NonNumericCellError,
    UnknownColumnError,
    UnsupportedAttributeTypeError,
    UnwritableNameError,
    quoted,
)

BENIGN = "benign"
MALIGNANT = "malignant"


@dataclass(frozen=True)
class CsvFormat:
    """Declares how a delimiter-separated file is laid out."""

    has_header: bool = False
    delimiter: str = ","
    missing: str = "?"


@dataclass(frozen=True)
class RawTable:
    """A parsed numeric table; NaN cells mark missing values."""

    column_names: tuple[str, ...]
    cells: np.ndarray  # (n_rows, n_cols) float64

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.float64)
        if cells.ndim != 2:
            raise ValueError(f"cells must be 2-D, got shape {cells.shape}")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if len(self.column_names) != cells.shape[1]:
            raise ValueError(
                f"{len(self.column_names)} column names for {cells.shape[1]} columns"
            )
        if len(set(self.column_names)) != len(self.column_names):
            name = next(n for i, n in enumerate(self.column_names) if n in self.column_names[:i])
            raise DuplicateNameError(f"column names must be unique, but {name!r} repeats")
        self.cells.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def n_cols(self) -> int:
        return self.cells.shape[1]

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.cells)

    def column(self, name: str) -> np.ndarray:
        return self.cells[:, self.column_index(name)]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise UnknownColumnError(name, self.column_names) from None

    def __eq__(self, other):
        if not isinstance(other, RawTable):
            return NotImplemented
        return self.column_names == other.column_names and np.array_equal(
            self.cells, other.cells, equal_nan=True
        )

    def __hash__(self):  # pragma: no cover - identity hashing is enough
        return id(self)


@dataclass(frozen=True)
class Dataset:
    """Analysis-ready feature matrix with optional class labels."""

    features: np.ndarray  # (n, d) float64, no missing values
    row_ids: tuple
    feature_names: tuple[str, ...]
    labels: tuple[str, ...] | None = None
    normalized: bool = False

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if feats.ndim != 2:
            raise ValueError("features must be 2-D")
        if np.isnan(feats).any():
            raise ValueError("features contain missing values")
        if len(self.row_ids) != feats.shape[0]:
            raise ValueError("row_ids length does not match feature rows")
        if len(self.feature_names) != feats.shape[1]:
            raise ValueError("feature_names length does not match feature columns")
        if self.labels is not None and len(self.labels) != feats.shape[0]:
            raise ValueError("labels length does not match feature rows")
        if self.normalized and feats.size:
            if feats.min() < 0.0 or feats.max() > 1.0:
                raise ValueError("normalized features must lie in [0, 1]")
        self.features.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class PreprocessReport:
    rows_before: int
    rows_after: int
    rows_dropped: int
    dropped_row_ids: tuple = ()
    columns_dropped: tuple[str, ...] = ()
    norm_params: dict = field(default_factory=dict)  # feature name -> (min, max)

    def __post_init__(self):
        if self.rows_before - self.rows_dropped != self.rows_after:
            raise ValueError("rows_before - rows_dropped must equal rows_after")


# -- the data-row grammar -----------------------------------------------------

def _read_text(source) -> str:
    """The text of ``source``: a str as it is, else its bytes decoded as
    UTF-8. A ``Path`` or a file is read here, so that its bytes live only
    until they are decoded, and the caller holds the text alone."""
    if isinstance(source, Path):
        source = source.read_bytes()
    elif not isinstance(source, (str, bytes)):
        source = source.read()
    if isinstance(source, str):
        return source
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncodingError(exc.start, exc.reason) from None


#: the line boundaries of ``str.splitlines`` other than ``\n`` and ``\r``, and
#: ``\x1f`` with them: no data row may hold one, nor a ``\r`` outside ``\r\n``
_ODD_ENDS = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"

#: the characters of data text in one parse item; items end at a line end
_PARSE_CHUNK = 1 << 20


def _value(token: str, marker: str, domain: dict | None) -> float:
    """One cell, stripped, by the one rule that the reader's converters and
    :func:`_scan` share: NaN for the ``marker``, the index of a nominal value
    in its ``domain`` (quotes stripped too), else a finite number as numpy's
    reader reads it. That is ``float``, which it matches bit for bit, without
    underscores or non-ASCII digits. Raises KeyError for a value outside the
    domain, ValueError for a non-number and ArithmeticError for a number that
    is not finite."""
    token = token.strip()
    if domain is not None:
        token = token.strip("'\"")
    if token == marker:
        return math.nan
    if domain is not None:
        return float(domain[token])
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    if not math.isfinite(value := float(token)):
        raise ArithmeticError(token)
    return value


def _rows(body: str, delimiter: str, marker: str, names, first_line: int, nominal) -> np.ndarray:
    """The cells of the data rows ``body``, marker cells NaN: ``len(names)``
    columns, or as many as the first row has when ``names`` is None.
    ``nominal`` maps each nominal ARFF column to its domain; it is None for
    CSV, where a data row may not hold a ``"`` and ``%`` starts no comment.
    ``first_line`` is the number of the body's first line.

    The body is cut after a ``\\n`` into items of about :data:`_PARSE_CHUNK`
    characters, which :func:`._parallel.fork_map` hands to
    :func:`_item_cells`. A cut there splits no row, so the items read
    exactly as the whole would. When an item fails, or the items disagree on
    the column count, :func:`_scan` reads the whole body to word the error.
    """
    refused = _ODD_ENDS if nominal is not None else '"' + _ODD_ENDS
    converters = (partial(_value, marker=marker, domain=None) if not nominal else
                  {col: partial(_value, marker=marker, domain=nominal.get(col))
                   for col in range(len(names))})
    starts = [0]
    while 0 < (end := body.find("\n", starts[-1] + _PARSE_CHUNK) + 1) < len(body):
        starts.append(end)
    starts.append(len(body))
    parts = fork_map(lambda i: _item_cells(body[starts[i]:starts[i + 1]], delimiter, marker,
                                           refused, nominal is not None, converters,
                                           bool(nominal) or not marker),
                     range(len(starts) - 1))
    if all(cells is not None for cells in parts):
        parts = [cells for cells in parts if len(cells)]
        width = len(names) if names is not None else parts[0].shape[1] if parts else 0
        if all(cells.shape[1] == width for cells in parts):
            return parts[0] if len(parts) == 1 else np.concatenate([np.empty((0, width)), *parts])
    _scan(body, delimiter, marker, names, first_line, nominal, refused)


def _item_cells(text, delimiter, marker, refused, comments, converters, whole):
    """The cells of one item of :func:`_rows`, none for a blank text, or None
    when the item holds an error for :func:`_scan` to word.

    A C-speed search refuses the item first. Unless every cell is to be read
    ``whole``, numpy's own number reader then reads it with every marker
    replaced by ``nan``, and once more without the lines of whitespace (and,
    with ``comments``, ARFF's ``%`` lines), which numpy rejects. A marker
    that follows a sign or lands inside a number cannot pass both the sign
    check and the count of non-finite cells against the count of markers;
    such an item is read by the ``converters`` instead, every cell whole.
    """
    if any(ch in text for ch in refused) or text.count("\r") != text.count("\r\n"):
        return None
    markers = 0 if whole else text.count(marker)
    if not (whole or markers and (f"-{marker}" in text or f"+{marker}" in text)):
        cells = _loadtxt(text, delimiter, marker)
        if cells is None and (kept := _without_blanks(text, comments)) != text:
            cells = _loadtxt(kept, delimiter, marker)
        if cells is not None and np.count_nonzero(~np.isfinite(cells)) == markers:
            return cells
        if not markers:  # numpy read every cell as the converters would
            return None
    return _loadtxt(_without_blanks(text, comments), delimiter, "", converters)


def _without_blanks(text, comments):
    """``text`` without its lines of whitespace, and with ``comments``
    without its ``%`` lines."""
    return "\n".join(line for line in text.split("\n") if not line.isspace()
                     and not (comments and line.lstrip().startswith("%")))


def _loadtxt(text, delimiter, marker, converters=None):
    """``text`` by ``np.loadtxt``, each ``marker`` replaced by ``nan``; none
    for a blank text, or None if it raises."""
    if text.isspace() or not text:  # numpy warns of no data
        return np.empty((0, 0))
    try:  # the replaced text is gone before numpy parses its bytes
        return np.loadtxt(io.BytesIO((text.replace(marker, "nan") if marker else text).encode()),
                          delimiter=delimiter, comments=None, ndmin=2, encoding="utf-8",
                          dtype=np.float64, converters=converters)
    except ValueError:
        return None


def _scan(body, delimiter, marker, names, first_line, nominal, refused):
    """Raise the error of the data rows that :func:`_rows` could not read,
    by the same grammar, line by line: the first refused character, sparse
    ARFF row, ragged row, non-number or value outside its nominal domain,
    and only when there is none, the first cell that is NaN or infinite
    without being the marker."""
    n_cols = None if names is None else len(names)
    bad = None
    for line_no, line in enumerate(body.replace("\r\n", "\n").split("\n"), start=first_line):
        if ch := next((ch for ch in refused + "\r" if ch in line), None):
            raise InputError(f"line {line_no}: a data row may not hold {ch!r}")
        row = line.strip()
        if not row or nominal is not None and row.startswith("%"):
            continue
        if nominal is not None and row.startswith("{"):
            raise ArffSyntaxError(f"line {line_no}: sparse ARFF rows are not supported")
        tokens = line.split(delimiter)
        n_cols = n_cols or len(tokens)
        if len(tokens) != n_cols:
            raise MalformedRowError(line_no, n_cols, len(tokens))
        for col, token in enumerate(tokens):
            name = names[col] if names is not None else f"col{col}"
            try:
                _value(token, marker, nominal.get(col) if nominal else None)
            except KeyError as exc:
                raise ArffSyntaxError(f"line {line_no}: {quoted(exc.args[0])} not in the nominal "
                                      f"domain of {name!r}") from None
            except ValueError:
                raise NonNumericCellError(line_no, name, token.strip()) from None
            except ArithmeticError:
                bad = bad or (line_no, name, token.strip())
    raise NonFiniteCellError(*bad) if bad else InputError(
        f"line {first_line} on: the data rows could not be read")


# -- CSV ----------------------------------------------------------------------

def parse_csv(source, fmt: CsvFormat = CsvFormat()) -> RawTable:
    """Parse delimiter-separated text into a :class:`RawTable`.

    ``source`` may be bytes, a string, a ``Path`` or a file-like object.
    Cells equal to ``fmt.missing`` become missing; everything else must
    parse as a finite number. Without a header, columns are named col0,
    col1, ...
    """
    text = _read_text(source)
    delimiter, marker = fmt.delimiter, fmt.missing
    if len(delimiter) != 1:
        raise InputError(f"the delimiter must be one character, got {delimiter!r}")
    if delimiter in f"\"'\r\n{_ODD_ENDS}na":
        raise InputError(f"the delimiter {delimiter!r} is a quote, a line boundary or a "
                         "letter of 'nan'")
    if any(ch.isspace() or ch in f"\"'{delimiter}" for ch in marker):
        raise InputError(f"the missing marker {marker!r} holds whitespace, a quote or the "
                         "delimiter")
    names, ends = None, [0]
    if fmt.has_header:
        def lines():  # the lines of text, ends kept, noting where each ends
            while ends[-1] < len(text):
                ends.append(text.find("\n", ends[-1]) + 1 or len(text))
                yield text[ends[-2]:ends[-1]]

        reader = csv.reader(lines(), delimiter=delimiter)
        try:
            record = next((r for r in reader if len(r) > 1 or r and r[0].strip()), None)
        except csv.Error as exc:  # a bare \r, or a field past csv's size limit
            raise InputError(f"line {reader.line_num}: {str(exc).partition(' - ')[0]}") from None
        names = None if record is None else tuple(tok.strip() for tok in record)
    cells = _rows(text[ends[-1]:], delimiter, marker, names, len(ends), None)
    return RawTable(names or tuple(f"col{i}" for i in range(cells.shape[1])), cells)


# -- ARFF subset -------------------------------------------------------------

_ARFF_NAME = r"(?:'([^']*)'|\"([^\"]*)\"|(\S+))"
_RELATION_RE = re.compile(rf"^@relation\s+{_ARFF_NAME}\s*$", re.IGNORECASE)
_ATTRIBUTE_RE = re.compile(rf"^@attribute\s+{_ARFF_NAME}\s+(.+)$", re.IGNORECASE)
_DATA_RE = re.compile(r"^@data\s*$", re.IGNORECASE)
#: the line boundaries of ``str.splitlines``
_LINE_END = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


def _unquote(match_groups) -> str:
    return next(g for g in match_groups if g is not None)


def parse_arff(source) -> RawTable:
    """Parse the numeric/nominal ARFF subset into a :class:`RawTable`.

    Nominal values are mapped to their declaration index. String, date and
    relational attributes are rejected; so are sparse data rows. ``?``
    marks a missing cell; every other numeric cell must be finite.
    """
    names, nominal, data, line_no = _arff_header(_read_text(source))
    return RawTable(names, _rows(data, ",", "?", names, line_no + 1, nominal))


def _arff_header(text):
    """Read the declarations up to ``@data``.

    Returns the attribute names, the nominal domains by column, the text
    after the ``@data`` line and that line's number. Lines are those of
    ``text.splitlines()``, found one at a time so that the data section is
    not split here.
    """
    names: list[str] = []
    nominal: dict[int, dict[str, int]] = {}
    saw_relation = False
    start = line_no = 0
    while start < len(text):
        line_no += 1
        end = _LINE_END.search(text, start)
        line = text[start:end.start() if end else len(text)].strip()
        start = end.end() if end else len(text)
        if not line or line.startswith("%"):
            continue
        if _RELATION_RE.match(line):
            saw_relation = True
            continue
        if m := _ATTRIBUTE_RE.match(line):
            _declare_attribute(_unquote(m.groups()[:3]), m.group(4).strip(), names, nominal,
                               line_no)
            continue
        if _DATA_RE.match(line):
            if not saw_relation:
                raise ArffSyntaxError("@data before @relation")
            if not names:
                raise ArffSyntaxError("@data with no @attribute declarations")
            return tuple(names), nominal, text[start:], line_no
        raise ArffSyntaxError(f"line {line_no}: unrecognized declaration {quoted(line)}")
    raise ArffSyntaxError("missing @data section")


def _declare_attribute(name, decl, names, nominal, line_no):
    if decl.startswith("{"):
        if not decl.endswith("}"):
            raise ArffSyntaxError(f"line {line_no}: unterminated nominal domain")
        values = [v.strip().strip("'\"") for v in decl[1:-1].split(",")]
        if any(not v for v in values):
            raise ArffSyntaxError(f"line {line_no}: empty nominal value")
        nominal[len(names)] = {v: i for i, v in enumerate(values)}
    elif decl.lower() not in ("numeric", "real", "integer"):
        raise UnsupportedAttributeTypeError(f"line {line_no}: attribute type {decl!r} is not "
                                            "supported")
    names.append(name)


_FORMAT_BLOCK = 4096


def format_table(head: list[str], cells: np.ndarray, missing: str = "nan") -> list[bytes]:
    """``head``, then a line per row of ``cells``, as chunks of bytes for a
    file to be written from: the head's lines, then one chunk per block of
    rows. Each float is written by ``repr``, which reads back to the same
    float64, comma-separated, and NaN as ``missing`` (``repr`` spells no
    other float with "nan"). The blocks are the items of
    :func:`._parallel.fork_map`, so that one block per process holds Python
    floats at a time. The chunks are not joined, so a writer that writes
    them one after another holds the file's bytes once."""
    row = ",".join(["%r"] * cells.shape[1]) + "\n"  # %r is repr
    blocks = [cells[start:start + _FORMAT_BLOCK] for start in range(0, len(cells), _FORMAT_BLOCK)]
    lines = fork_map(lambda block: (row * len(block) % tuple(block.ravel().tolist()))
                     .replace("nan", missing).encode(), blocks)
    return ["".join(line + "\n" for line in head).encode(), *lines]


def write_arff(table: RawTable, relation_name: str = "data") -> bytes:
    """Serialize a table as ARFF with all-numeric attributes; NaN becomes "?".

    Raises :class:`UnwritableNameError`, a ValueError and an input error,
    for a name that ``parse_arff`` could not read back: one that holds a
    ``str.splitlines`` line boundary, or needs quotes and holds both quote
    characters.
    """
    return b"".join(_arff_chunks(table, relation_name))


def _arff_chunks(table: RawTable, relation_name: str) -> list[bytes]:
    """The bytes of :func:`write_arff`, as :func:`format_table`'s chunks."""
    head = [f"@relation {_quote_name(relation_name)}"]
    head += [f"@attribute {_quote_name(name)} numeric" for name in table.column_names]
    return format_table(head + ["@data"], table.cells, missing="?")


def _quote_name(name: str) -> str:
    """``name`` as an ARFF name: bare unless it is empty, holds whitespace or
    a comma, or starts with a quote; then in the quote character it lacks.
    Every line boundary is whitespace, so only a quoted name can hold one."""
    if name and name[0] not in "'\"" and not any(ch.isspace() or ch == "," for ch in name):
        return name
    for quote in "'\"":
        if quote not in name and not _LINE_END.search(name):
            return f"{quote}{name}{quote}"
    raise UnwritableNameError(f"cannot write the name {name!r} to ARFF: it holds a line boundary, "
                     "or needs quoting and holds both quote characters")


# -- preprocessing ----------------------------------------------------------

def drop_missing_rows(table: RawTable) -> tuple[RawTable, list[int]]:
    """Remove all rows containing at least one missing cell.

    Returns the filtered table and the original indices of the dropped rows.
    Order of the surviving rows is unchanged.
    """
    incomplete = table.missing_mask().any(axis=1)
    dropped = np.flatnonzero(incomplete)
    kept = table.cells[~incomplete]
    return RawTable(table.column_names, kept), [int(i) for i in dropped]


def build_dataset(
    table: RawTable,
    id_column: str | None = None,
    label_column: str | None = None,
    normalize: bool = True,
) -> tuple[Dataset, PreprocessReport]:
    """Turn a missing-free table into a feature matrix.

    The id column (if any) supplies row identifiers and is dropped; the label
    column (if any) must be coded 2/4 and is decoded to benign/malignant.
    A table with no other column is refused with :class:`InputError`.
    With ``normalize``, each remaining column is mapped by
    (x - min) / (max - min) using its observed extremes; constant columns
    map to 0.0, and a column whose max - min overflows float64 is refused
    with :class:`InputError`.

    The features are one copy of the kept columns, in C order, as
    ``np.take`` makes it: ``cells[:, keep]`` is in F order, and the order
    sets the bits of every later sum down the columns, so it would need a
    second copy to match.
    """
    if table.missing_mask().any():
        raise ValueError("table still has missing cells; drop or impute them first")

    drop_idx = []
    columns_dropped = []
    row_ids: tuple
    if id_column is not None:
        idx = table.column_index(id_column)
        row_ids = _row_ids(table.cells[:, idx])
        drop_idx.append(idx)
        columns_dropped.append(id_column)
    else:
        row_ids = tuple(range(table.n_rows))

    labels = None
    if label_column is not None:
        idx = table.column_index(label_column)
        labels = _decode_labels(table.cells[:, idx], row_ids)
        drop_idx.append(idx)
        columns_dropped.append(label_column)

    keep = [i for i in range(table.n_cols) if i not in drop_idx]
    if not keep:
        raise InputError("the table has no feature column besides its id and class columns")
    features = np.take(table.cells, keep, axis=1)
    feature_names = tuple(table.column_names[i] for i in keep)

    norm_params = {}
    if normalize and features.shape[0] > 0:
        for j, name in enumerate(feature_names):
            lo = float(features[:, j].min())
            hi = float(features[:, j].max())
            norm_params[name] = (lo, hi)
            if hi - lo == math.inf:
                raise InputError(f"feature {name!r} spans {lo!r} to {hi!r}: the width of that "
                                 "range overflows float64, so it cannot be normalised")
            if hi > lo:
                features[:, j] = (features[:, j] - lo) / (hi - lo)
            else:
                features[:, j] = 0.0

    dataset = Dataset(
        features=features,
        row_ids=row_ids,
        feature_names=feature_names,
        labels=labels,
        normalized=bool(normalize),
    )
    report = PreprocessReport(
        rows_before=table.n_rows,
        rows_after=table.n_rows,
        rows_dropped=0,
        dropped_row_ids=(),
        columns_dropped=tuple(columns_dropped),
        norm_params=norm_params,
    )
    return dataset, report


def _row_ids(values) -> tuple:
    """An id column's cells as row ids: an int when a cell is integral,
    else the float. A column of integral cells below 2**63 in magnitude
    converts at once; any other is converted in blocks, so that one block's
    Python floats exist at a time (see :func:`format_table`)."""
    if (np.abs(values) < 2.0 ** 63).all() and (np.trunc(values) == values).all():
        return tuple(values.astype(np.int64).tolist())
    return tuple(int(v) if v.is_integer() else v
                 for start in range(0, len(values), _FORMAT_BLOCK)
                 for v in values[start:start + _FORMAT_BLOCK].tolist())


def _decode_labels(values: np.ndarray, row_ids) -> tuple[str, ...]:
    """The class names of a column coded as the source data codes them:
    2 = benign, 4 = malignant. A bad value is named with its row id. Every
    row holds one of the two names' str objects, not a str of its own."""
    benign = values == 2.0
    bad = np.flatnonzero(~benign & (values != 4.0))
    if bad.size:
        raise InvalidClassValueError(float(values[bad[0]]), row=row_ids[bad[0]])
    return tuple(np.array([MALIGNANT, BENIGN], dtype=object)[benign.view(np.int8)].tolist())


def _export_table(data: Dataset) -> RawTable:
    """A dataset as a writable table: its features, then its labels coded
    back to 2/4 as a ``class`` column."""
    names = list(data.feature_names)
    cells = data.features
    if data.labels is not None:
        codes = np.where(np.array(data.labels, dtype=str) == BENIGN, 2.0, 4.0)
        cells = np.column_stack([cells, codes])
        names.append("class")
    return RawTable(tuple(names), cells)


def preprocess(
    table: RawTable,
    id_column: str | None = None,
    label_column: str | None = None,
    normalize: bool = True,
) -> tuple[Dataset, PreprocessReport]:
    """Full cleanup: drop incomplete rows, then :func:`build_dataset`.

    Dropped rows, and the row of a bad class value, are named by their
    id-column value when an id column is named, otherwise by their data
    row's index in ``table``, before the drop.
    """
    kept, dropped_idx = drop_missing_rows(table)
    try:
        dataset, report = build_dataset(kept, id_column, label_column, normalize)
    except InvalidClassValueError as error:
        if id_column is not None:
            raise
        row = np.delete(np.arange(table.n_rows), dropped_idx)[error.row]  # kept -> table rows
        raise InvalidClassValueError(error.value, row=int(row)) from None
    if id_column is not None:
        dropped_ids = _row_ids(table.column(id_column)[dropped_idx])
    else:
        dropped_ids = tuple(dropped_idx)
    return dataset, replace(report, rows_before=table.n_rows, rows_dropped=len(dropped_idx),
                            dropped_row_ids=dropped_ids)
