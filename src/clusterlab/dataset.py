"""Tabular ingestion (CSV and an ARFF subset) and the preprocessing pipeline.

The pipeline mirrors the standard cleanup for the Wisconsin breast-cancer
style of file: drop rows with missing cells, strip the identifier column,
split off the 2/4-coded class column, then min-max normalize each remaining
feature onto [0, 1].

All values are immutable after construction and safe to share across threads.
Row order is preserved by every operation in this module.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import (
    ArffSyntaxError,
    InvalidClassValueError,
    InvalidEncodingError,
    MalformedRowError,
    NonFiniteCellError,
    NonNumericCellError,
    UnknownColumnError,
    UnsupportedAttributeTypeError,
)

BENIGN = "benign"
MALIGNANT = "malignant"

#: class column coding used by the source data: 2 = benign, 4 = malignant
CLASS_CODES = {2.0: BENIGN, 4.0: MALIGNANT}


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


def _table(names, rows, markers, rescan) -> RawTable:
    """Stack parsed rows into a table, rejecting cells that read as NaN or
    infinity without being the missing marker.

    ``markers`` lists one entry per marker cell, so a table is valid exactly
    when it has that many non-finite cells: one vectorized count checks it
    at no cost per cell. Only when the count is off does ``rescan`` parse
    the text again, checking every cell, to raise at the first offending one.
    """
    cells = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    if np.count_nonzero(~np.isfinite(cells)) != len(markers):
        rescan()
    return RawTable(column_names=names, cells=cells)


def _check_finite(tokens, values, marker, line_no, names):
    for col, (token, value) in enumerate(zip(tokens, values)):
        if not math.isfinite(value) and token != marker:
            col_name = names[col] if names else f"col{col}"
            raise NonFiniteCellError(line_no, col_name, token)


def parse_csv(source, fmt: CsvFormat = CsvFormat()) -> RawTable:
    """Parse delimiter-separated text into a :class:`RawTable`.

    ``source`` may be bytes, a string, a ``Path`` or a file-like object.
    Cells equal to ``fmt.missing`` become missing; everything else must
    parse as a finite number. Without a header, columns are named col0,
    col1, ...
    """
    text = _read_text(source)
    names, rows, markers = _csv_rows(text, fmt, _parse_record)
    return _table(names, rows, markers,
                  lambda: _csv_rows(text, fmt, _parse_finite_record))


def _csv_rows(text, fmt, parse_record):
    reader = csv.reader(io.StringIO(text), delimiter=fmt.delimiter)
    names = None
    rows = []
    markers = []
    n_cols = None
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
        rows.append(parse_record(record, line_no, names, fmt.missing, markers))

    if n_cols is None:  # entirely empty input
        n_cols = 0
    if names is None:
        names = tuple(f"col{i}" for i in range(n_cols))
    return names, rows, markers


def _parse_record(record, line_no, names, missing_marker, markers):
    values = []
    for col, token in enumerate(record):
        token = token.strip()
        if token == missing_marker:
            values.append(math.nan)
            markers.append(col)
            continue
        try:
            values.append(float(token))
        except ValueError:
            col_name = names[col] if names else f"col{col}"
            raise NonNumericCellError(line_no, col_name, token) from None
    return values


def _parse_finite_record(record, line_no, names, missing_marker, markers):
    values = _parse_record(record, line_no, names, missing_marker, markers)
    _check_finite([t.strip() for t in record], values, missing_marker, line_no, names)
    return values


# -- ARFF subset -------------------------------------------------------------

_ARFF_NAME = r"(?:'([^']*)'|\"([^\"]*)\"|(\S+))"
_RELATION_RE = re.compile(rf"^@relation\s+{_ARFF_NAME}\s*$", re.IGNORECASE)
_ATTRIBUTE_RE = re.compile(rf"^@attribute\s+{_ARFF_NAME}\s+(.+)$", re.IGNORECASE)
_DATA_RE = re.compile(r"^@data\s*$", re.IGNORECASE)


def _unquote(match_groups) -> str:
    return next(g for g in match_groups if g is not None)


def parse_arff(source) -> RawTable:
    """Parse the numeric/nominal ARFF subset into a :class:`RawTable`.

    Nominal values are mapped to their declaration index. String, date and
    relational attributes are rejected; so are sparse data rows. ``?``
    marks a missing cell; every other numeric cell must be finite.
    """
    text = _read_text(source)
    names, rows, markers = _arff_rows(text, _parse_arff_row)
    return _table(names, rows, markers,
                  lambda: _arff_rows(text, _parse_finite_arff_row))


def _arff_rows(text, parse_row):
    names: list[str] = []
    nominal: dict[int, dict[str, int]] = {}
    rows: list[list[float]] = []
    markers: list[int] = []
    saw_relation = False
    in_data = False

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
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
                in_data = True
                continue
            raise ArffSyntaxError(f"line {line_no}: unrecognized declaration {line!r}")
        else:
            if line.startswith("{"):
                raise ArffSyntaxError(
                    f"line {line_no}: sparse ARFF rows are not supported"
                )
            rows.append(parse_row(line, line_no, names, nominal, markers))

    if not in_data:
        raise ArffSyntaxError("missing @data section")
    return tuple(names), rows, markers


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


def _parse_arff_row(line, line_no, names, nominal, markers):
    tokens = [t.strip() for t in line.split(",")]
    if len(tokens) != len(names):
        raise MalformedRowError(line_no, len(names), len(tokens))
    values = []
    for col, token in enumerate(tokens):
        token = token.strip("'\"")
        if token == "?":
            values.append(math.nan)
            markers.append(col)
        elif col in nominal:
            try:
                values.append(float(nominal[col][token]))
            except KeyError:
                raise ArffSyntaxError(
                    f"line {line_no}: {token!r} not in the nominal domain of "
                    f"{names[col]!r}"
                ) from None
        else:
            try:
                values.append(float(token))
            except ValueError:
                raise NonNumericCellError(line_no, names[col], token) from None
    return values


def _parse_finite_arff_row(line, line_no, names, nominal, markers):
    values = _parse_arff_row(line, line_no, names, nominal, markers)
    tokens = [t.strip().strip("'\"") for t in line.split(",")]
    _check_finite(tokens, values, "?", line_no, names)
    return values


def _needs_quoting(name: str) -> bool:
    return any(ch.isspace() for ch in name) or name == "" or "," in name


def write_arff(table: RawTable, relation_name: str = "data") -> bytes:
    """Serialize a table as ARFF with all-numeric attributes; NaN becomes "?"."""
    out = [f"@relation {_quote_name(relation_name)}"]
    for name in table.column_names:
        out.append(f"@attribute {_quote_name(name)} numeric")
    out.append("@data")
    for row in table.cells:
        out.append(",".join("?" if math.isnan(v) else repr(float(v)) for v in row))
    return ("\n".join(out) + "\n").encode("utf-8")


def _quote_name(name: str) -> str:
    return f"'{name}'" if _needs_quoting(name) else name


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
    With ``normalize``, each remaining column is mapped by
    (x - min) / (max - min) using its observed extremes; constant columns
    map to 0.0.
    """
    if table.missing_mask().any():
        raise ValueError("table still has missing cells; drop or impute them first")

    drop_idx = []
    columns_dropped = []
    row_ids: tuple
    if id_column is not None:
        idx = table.column_index(id_column)
        ids = table.cells[:, idx]
        row_ids = tuple(int(v) if float(v).is_integer() else float(v) for v in ids)
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
    features = table.cells[:, keep].copy()
    feature_names = tuple(table.column_names[i] for i in keep)

    norm_params = {}
    if normalize and features.shape[0] > 0:
        for j, name in enumerate(feature_names):
            lo = float(features[:, j].min())
            hi = float(features[:, j].max())
            norm_params[name] = (lo, hi)
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


def _decode_labels(values: np.ndarray) -> tuple[str, ...]:
    labels = []
    for row, v in enumerate(values):
        code = CLASS_CODES.get(float(v))
        if code is None:
            raise InvalidClassValueError(v, line=row)
        labels.append(code)
    return tuple(labels)


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
        id_col = table.column(id_column)
        dropped_ids = tuple(
            int(v) if float(v).is_integer() else float(v)
            for v in id_col[dropped_idx]
        )
    else:
        dropped_ids = tuple(dropped_idx)

    report = PreprocessReport(
        rows_before=table.n_rows,
        rows_after=kept.n_rows,
        rows_dropped=len(dropped_idx),
        dropped_row_ids=dropped_ids,
        columns_dropped=report.columns_dropped,
        norm_params=report.norm_params,
    )
    return dataset, report
