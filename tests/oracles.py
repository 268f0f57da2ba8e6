"""Brute-force oracles that the fast paths are checked against. They share
no code with the package's kernels: the distance loops, and the per-cell
CSV and ARFF readers that referee numpy's reading of the data rows."""

import csv
import io
import math

import numpy as np

from clusterlab import dataset
from clusterlab.dataset import RawTable
from clusterlab.distances import Metric
from clusterlab.exceptions import (ArffSyntaxError, InputError, MalformedRowError,
                                   NonFiniteCellError, NonNumericCellError, quoted)


def row_distances(X, y, metric=Metric.EUCLIDEAN):
    """Distances from every row of ``X`` to the point ``y``: coordinate
    differences, then numpy's sum over each row."""
    diff = np.asarray(X, dtype=np.float64) - np.asarray(y, dtype=np.float64).reshape(-1)
    metric = Metric.coerce(metric)
    if metric is Metric.MANHATTAN:
        return np.abs(diff).sum(axis=1)
    sq = (diff * diff).sum(axis=1)
    return sq if metric is Metric.SQEUCLIDEAN else np.sqrt(sq)


def nearest_neighbor(query, X, exclude=None, metric=Metric.EUCLIDEAN):
    """Index and distance of the row of ``X`` closest to ``query``, by
    :func:`row_distances` on every row; ties break toward the lowest index,
    and ``exclude`` leaves one row out. Hopkins' oracle."""
    dists = row_distances(X, query, metric)
    if exclude is not None:
        dists[exclude] = np.inf
    idx = int(np.argmin(dists))
    return idx, float(dists[idx])


# -- ingestion: the per-cell readers -------------------------------------------

def _table(names, rows, bad):
    """Stack parsed rows into a table, or raise for ``bad``, the first cell
    that read as NaN or infinity without being the missing marker; a later
    malformed row or non-numeric cell has already raised while parsing."""
    if bad:
        line_no, col, token = bad[0]
        raise NonFiniteCellError(line_no, names[col], token)
    cells = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    return RawTable(column_names=names, cells=cells)


def _cell(token, marker, line_no, col, names, bad):
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


def reference_parse_csv(text, fmt):
    """``csv.reader``, then ``float`` on every cell; lines are numbered by
    csv record."""
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
                f"line {line_no}: {quoted(token)} not in the nominal domain of {names[col]!r}"
            ) from None
    return values


def reference_parse_arff(source):
    """The whole text split by ``str.splitlines``, the declarations read by
    the package's header rules and every data row by the per-cell row
    parser."""
    text = dataset._read_text(source)
    names, nominal, rows, bad = [], {}, [], []
    saw_relation = in_data = False
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("%"):
            continue
        if in_data:
            if line.startswith("{"):
                raise ArffSyntaxError(f"line {line_no}: sparse ARFF rows are not supported")
            rows.append(_parse_arff_row(line, line_no, names, nominal, bad))
        elif dataset._RELATION_RE.match(line):
            saw_relation = True
        elif m := dataset._ATTRIBUTE_RE.match(line):
            dataset._declare_attribute(dataset._unquote(m.groups()[:3]),
                                       m.group(4).strip(), names, nominal, line_no)
        elif dataset._DATA_RE.match(line):
            if not saw_relation:
                raise ArffSyntaxError("@data before @relation")
            if not names:
                raise ArffSyntaxError("@data with no @attribute declarations")
            in_data = True
        else:
            raise ArffSyntaxError(f"line {line_no}: unrecognized declaration {quoted(line)}")
    if not in_data:
        raise ArffSyntaxError("missing @data section")
    return _table(tuple(names), rows, bad)
