"""Tabular ingestion (CSV and an ARFF subset) and the preprocessing pipeline.

The pipeline mirrors the standard cleanup for the Wisconsin breast-cancer
style of file: drop rows with missing cells, strip the identifier column,
split off the 2/4-coded class column, then min-max normalize each remaining
feature onto [0, 1].

Parsing screens, then decides. The per-cell parsers (``csv.reader`` or the
ARFF row parser, then ``float`` on every cell) are the reference. They read
the text once and raise at the first malformed row or non-numeric cell; the
first cell that reads as NaN or infinity without being the missing marker is
reported only if the text holds no such error. A numeric table of the common
shape is instead read by numpy's C reader:

- **Screen.** C-speed ``str`` searches put the text in doubt when it holds a
  quote, a ``str.splitlines`` line boundary that ``csv`` and numpy read as
  an ordinary character (``\x0b \x0c \x1c-\x1e \x85 \u2028 \u2029``, and
  ``\x1f`` with them), or a ``\r`` outside ``\r\n``; when the delimiter is
  not one character, is whitespace or one of those characters; when the
  missing marker is empty, holds whitespace or the delimiter, or follows a
  sign (``-?`` would read as ``-nan``); when an ARFF header declares a
  nominal attribute; and when there are no data rows (numpy warns on empty
  input). NUL, ARFF's sparse rows and comments (``{``, ``%``) and a
  delimiter that a number may hold need no screen: numpy splits a row where
  ``csv`` does, and rejects every cell they leave unlike a number.
- **Decide.** Otherwise every marker becomes ``nan`` and ``np.loadtxt``
  parses the rest. Its C reader converts each token with
  ``PyOS_string_to_double``, the routine behind ``float``, so every cell it
  accepts has the bits ``float`` gives it; of what ``float`` accepts it
  rejects only underscores (``1_0``) and non-ASCII digits. It also rejects
  whitespace-only lines, which the per-cell parsers skip, so when it raises
  it reads the text once more without them. A table of ragged rows, such a
  token or any other non-number makes it raise again, and a count of
  non-finite cells that differs from the count of markers (a ``nan``,
  ``inf`` or ``1e999`` cell) means a cell the reference rejects. Either way
  the reference parser reads the whole text again, so every error, message
  and line number is its own. Both steps run on items of the text cut at
  line ends, on every usable CPU (see :func:`_decide`).

Only data rows go to numpy: the CSV header names and the ARFF declarations
are read from the original text on both paths. A CSV header line may hold
quotes: ``csv.reader`` reads that one line, and the rest is screened alone.

All values are immutable after construction and safe to share across threads.
Row order is preserved by every operation in this module.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._parallel import fork_map
from .exceptions import (
    ArffSyntaxError,
    InputError,
    InvalidClassValueError,
    InvalidEncodingError,
    MalformedRowError,
    NonFiniteCellError,
    NonNumericCellError,
    UnknownColumnError,
    UnsupportedAttributeTypeError,
    UnwritableNameError,
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
            raise ValueError("column names must be unique")
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


# -- CSV --------------------------------------------------------------------

def _read_text(source) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source, Path):
        source = source.read_bytes()
    elif not isinstance(source, bytes):
        source = source.read()
        if isinstance(source, str):
            return source
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncodingError(exc.start, exc.reason) from None


#: characters that put a text in doubt: quotes, and the line boundaries of
#: ``str.splitlines`` that ``csv`` and numpy read as ordinary characters
_DOUBTFUL = "\"'\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def _screened(text: str, doubtful: str = _DOUBTFUL) -> bool:
    """Whether ``text`` holds no character of ``doubtful`` and no ``\\r``
    outside ``\\r\\n``, the line ends on which ``csv``, ``str.splitlines``
    and numpy agree."""
    return not any(c in text for c in doubtful) and text.count("\r") == text.count("\r\n")


def _plain_format(delimiter: str, marker: str) -> bool:
    """Whether the delimiter is one character that is no whitespace and no
    character of :data:`_DOUBTFUL`, and the marker is not empty and holds
    neither whitespace nor the delimiter."""
    return (len(delimiter) == 1 and not delimiter.isspace() and delimiter not in _DOUBTFUL
            and marker != "" and not any(c.isspace() or c == delimiter for c in marker))


#: the characters of data text in one parse item; items end at a line end
_PARSE_CHUNK = 1 << 20


def _decide(body: str, delimiter: str, marker: str, n_cols: int | None):
    """The cells of ``body`` as numpy's C reader parses them, marker cells
    NaN, or None when the per-cell parser must read the text.

    The text is cut after a ``\n`` into items of about :data:`_PARSE_CHUNK`
    characters, which :func:`._parallel.fork_map` hands to
    :func:`_chunk_cells`. A cut after ``\n`` splits no cell, no ``\r\n``
    pair and no signed marker, so the items pass its tests exactly when the
    whole text would, and their cells stack to the whole text's when each
    has as many columns as the first, or ``n_cols``.
    """
    if not body or body.isspace():
        return None
    starts = [0]
    while 0 < (end := body.find("\n", starts[-1] + _PARSE_CHUNK) + 1) < len(body):
        starts.append(end)
    starts.append(len(body))
    parts = fork_map(lambda i: _chunk_cells(body[starts[i]:starts[i + 1]], delimiter, marker),
                     range(len(starts) - 1))
    if any(cells is None for cells in parts):
        return None
    parts = [cells for cells in parts if len(cells)]
    width = parts[0].shape[1] if n_cols is None else n_cols
    if any(cells.shape[1] != width for cells in parts):
        return None
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _chunk_cells(text, delimiter, marker):
    """The cells of one item of :func:`_decide`, none for a text of only
    whitespace, or None when the text is in doubt or numpy's reader rejects it.

    With a plain format, a marker that follows no sign can only become a
    number by being a whole cell, so replacing it with ``nan`` makes exactly
    the marker cells NaN; the count check then finds any other non-finite
    cell. Without the marker neither signed form can occur, so the scans
    for them and the count are skipped.
    """
    if not _screened(text):
        return None
    if text.isspace():  # the per-cell parsers skip it, numpy warns of no data
        return np.empty((0, 0))
    markers = text.count(marker) if marker in text else 0
    if markers and (f"-{marker}" in text or f"+{marker}" in text):
        return None
    cells = _loadtxt(text, delimiter, marker)
    if cells is None:  # once more without the whitespace-only lines, which
        # numpy rejects and the per-cell parsers skip
        kept = "\n".join(line for line in text.split("\n") if not line.isspace())
        cells = None if kept == text else _loadtxt(kept, delimiter, marker)
    if cells is None or np.count_nonzero(~np.isfinite(cells)) != markers:
        return None
    return cells


def _loadtxt(body, delimiter, marker):
    """``body`` by ``np.loadtxt``, marker cells NaN, or None if it raises."""
    try:
        return np.loadtxt(io.BytesIO(body.replace(marker, "nan").encode()),
                          delimiter=delimiter, comments=None, ndmin=2,
                          encoding="utf-8", dtype=np.float64)
    except ValueError:
        return None


def _table(names, rows, bad) -> RawTable:
    """Stack parsed rows into a table, or raise for ``bad``, the first cell
    that read as NaN or infinity without being the missing marker; a later
    malformed row or non-numeric cell has already raised while parsing."""
    if bad:
        line_no, col, token = bad[0]
        raise NonFiniteCellError(line_no, names[col], token)
    cells = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    return RawTable(column_names=names, cells=cells)


def _cell(token, marker, line_no, col, names, bad) -> float:
    """``token`` by ``float``, NaN when it is the ``marker``. A non-numeric
    token raises; the first non-finite one goes into the list ``bad`` as
    (line, column, token), and parsing reads on."""
    if token == marker:
        return math.nan
    try:
        value = float(token)
    except ValueError:
        raise NonNumericCellError(line_no, names[col] if names else f"col{col}", token) from None
    if not bad and not math.isfinite(value):
        bad.append((line_no, col, token))
    return value


def parse_csv(source, fmt: CsvFormat = CsvFormat()) -> RawTable:
    """Parse delimiter-separated text into a :class:`RawTable`.

    ``source`` may be bytes, a string, a ``Path`` or a file-like object.
    Cells equal to ``fmt.missing`` become missing; everything else must
    parse as a finite number. Without a header, columns are named col0,
    col1, ...
    """
    text = _read_text(source)
    table = _fast_csv(text, fmt)
    return _csv_table(text, fmt) if table is None else table


def _fast_csv(text, fmt) -> RawTable | None:
    if not _plain_format(fmt.delimiter, fmt.missing):
        return None
    names, body = None, text
    if fmt.has_header:
        # csv.reader skips lines of whitespace; the header holds the first
        # other character
        first = len(text) - len(text.lstrip())
        start = text.rfind("\n", 0, first) + 1
        end = text.find("\n", first)
        end = len(text) if end < 0 else end
        names = _header_names(text[start:end + 1], fmt.delimiter)
        if names is None or not _screened(text[:start]):
            return None
        body = text[end + 1:]
    cells = _decide(body, fmt.delimiter, fmt.missing, None if names is None else len(names))
    if cells is None:
        return None
    if names is None:
        names = tuple(f"col{i}" for i in range(cells.shape[1]))
    return RawTable(names, cells)


def _header_names(line, delimiter):
    """The names on the CSV header ``line`` (with its line end) as
    :func:`_csv_table` reads them, or None when the line is in doubt: it
    holds a character of :data:`_DOUBTFUL` other than a quote, a quoted name
    runs on past the line, a name is longer than csv's field-size limit, or
    the reference would skip the line as blank."""
    if not _screened(line, _DOUBTFUL.replace('"', "").replace("'", "")):
        return None
    reader = csv.reader((line, ""), delimiter=delimiter)
    try:
        record = next(reader)  # reads the second, empty line only inside quotes
    except csv.Error:  # the reference reports it
        return None
    if reader.line_num > 1 or len(record) == 1 and not record[0].strip():
        return None
    return tuple(tok.strip() for tok in record)


def _csv_table(text, fmt) -> RawTable:
    """The reference path: ``csv.reader``, then ``float`` on every cell."""
    if len(fmt.delimiter) != 1:
        raise InputError(f"the delimiter must be one character, got {fmt.delimiter!r}")
    names = n_cols = None
    rows = []
    bad = []
    reader = csv.reader(io.StringIO(text), delimiter=fmt.delimiter)
    try:
        for line_no, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and record[0].strip() == ""):
                continue  # blank line
            if names is None and fmt.has_header:
                names = tuple(tok.strip() for tok in record)
                n_cols = len(names)
                continue
            if n_cols is None:
                n_cols = len(record)
            if len(record) != n_cols:
                raise MalformedRowError(line_no, n_cols, len(record))
            rows.append([_cell(tok.strip(), fmt.missing, line_no, col, names, bad)
                         for col, tok in enumerate(record)])
    except csv.Error as exc:  # a bare \r line end, or a field past csv's size limit
        raise InputError(f"line {reader.line_num}: {str(exc).partition(' - ')[0]}") from None
    if names is None:
        names = tuple(f"col{i}" for i in range(n_cols or 0))
    return _table(names, rows, bad)


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
    if not nominal:
        cells = _decide(data, ",", "?", len(names))
        if cells is not None:
            return RawTable(names, cells)
    return _arff_table(data, line_no, names, nominal)


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
        m = _ATTRIBUTE_RE.match(line)
        if m:
            name = _unquote(m.groups()[:3])
            decl = m.group(4).strip()
            _declare_attribute(name, decl, names, nominal, line_no)
            continue
        if _DATA_RE.match(line):
            if not saw_relation:
                raise ArffSyntaxError("@data before @relation")
            if not names:
                raise ArffSyntaxError("@data with no @attribute declarations")
            return tuple(names), nominal, text[start:], line_no
        raise ArffSyntaxError(f"line {line_no}: unrecognized declaration {line!r}")
    raise ArffSyntaxError("missing @data section")


def _arff_table(data, data_line_no, names, nominal) -> RawTable:
    """The reference path: each row of the data section by
    :func:`_parse_arff_row`."""
    rows: list[list[float]] = []
    bad: list = []
    for line_no, raw_line in enumerate(data.splitlines(), start=data_line_no + 1):
        line = raw_line.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("{"):
            raise ArffSyntaxError(
                f"line {line_no}: sparse ARFF rows are not supported"
            )
        rows.append(_parse_arff_row(line, line_no, names, nominal, bad))
    return _table(names, rows, bad)


def _declare_attribute(name, decl, names, nominal, line_no):
    if decl.startswith("{"):
        if not decl.endswith("}"):
            raise ArffSyntaxError(f"line {line_no}: unterminated nominal domain")
        values = [v.strip().strip("'\"") for v in decl[1:-1].split(",")]
        if any(not v for v in values):
            raise ArffSyntaxError(f"line {line_no}: empty nominal value")
        nominal[len(names)] = {v: i for i, v in enumerate(values)}
    elif decl.lower() in ("numeric", "real", "integer"):
        pass
    else:
        raise UnsupportedAttributeTypeError(
            f"line {line_no}: attribute type {decl!r} is not supported"
        )
    names.append(name)


def _parse_arff_row(line, line_no, names, nominal, bad):
    tokens = [t.strip() for t in line.split(",")]
    if len(tokens) != len(names):
        raise MalformedRowError(line_no, len(names), len(tokens))
    values = []
    for col, token in enumerate(tokens):
        token = token.strip("'\"")
        if col not in nominal or token == "?":
            values.append(_cell(token, "?", line_no, col, names, bad))
            continue
        try:
            values.append(float(nominal[col][token]))
        except KeyError:
            raise ArffSyntaxError(
                f"line {line_no}: {token!r} not in the nominal domain of "
                f"{names[col]!r}"
            ) from None
    return values


_FORMAT_BLOCK = 4096


def format_table(head: list[str], cells: np.ndarray, missing: str = "nan") -> bytes:
    """``head``, then a line per row of ``cells``: each float by ``repr``,
    which reads back to the same float64, comma-separated, and NaN as
    ``missing`` (``repr`` spells no other float with "nan"). Rows are
    formatted in blocks, the items of :func:`._parallel.fork_map`, so that
    one block per process holds Python floats at a time."""
    row = ",".join(["%r"] * cells.shape[1]) + "\n"  # %r is repr
    blocks = [cells[start:start + _FORMAT_BLOCK] for start in range(0, len(cells), _FORMAT_BLOCK)]
    lines = fork_map(lambda block: (row * len(block) % tuple(block.ravel().tolist()))
                     .replace("nan", missing).encode(), blocks)
    return b"".join(["".join(line + "\n" for line in head).encode(), *lines])


def write_arff(table: RawTable, relation_name: str = "data") -> bytes:
    """Serialize a table as ARFF with all-numeric attributes; NaN becomes "?".

    Raises :class:`UnwritableNameError`, a ValueError and an input error,
    for a name that ``parse_arff`` could not read back: one that holds a
    ``str.splitlines`` line boundary, or needs quotes and holds both quote
    characters.
    """
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
        labels = _decode_labels(table.cells[:, idx])
        drop_idx.append(idx)
        columns_dropped.append(label_column)

    keep = [i for i in range(table.n_cols) if i not in drop_idx]
    if not keep:
        raise InputError("the table has no feature column besides its id and class columns")
    features = table.cells[:, keep].copy()
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


def _decode_labels(values: np.ndarray) -> tuple[str, ...]:
    """The class names of a column coded as the source data codes them:
    2 = benign, 4 = malignant."""
    benign = values == 2.0
    bad = np.flatnonzero(~benign & (values != 4.0))
    if bad.size:
        raise InvalidClassValueError(values[bad[0]], line=int(bad[0]))
    return tuple(np.where(benign, BENIGN, MALIGNANT).tolist())


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

    Dropped rows are reported by their id-column value when an id column is
    named, otherwise by their original row index.
    """
    kept, dropped_idx = drop_missing_rows(table)
    dataset, report = build_dataset(kept, id_column, label_column, normalize)
    if id_column is not None:
        dropped_ids = _row_ids(table.column(id_column)[dropped_idx])
    else:
        dropped_ids = tuple(dropped_idx)
    return dataset, replace(report, rows_before=table.n_rows, rows_dropped=len(dropped_idx),
                            dropped_row_ids=dropped_ids)
