import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlab import (
    BENIGN,
    MALIGNANT,
    CsvFormat,
    RawTable,
    build_dataset,
    drop_missing_rows,
    parse_arff,
    parse_csv,
    preprocess,
    write_arff,
)
from clusterlab import dataset
from clusterlab.exceptions import (
    ArffSyntaxError,
    InputError,
    InvalidClassValueError,
    InvalidEncodingError,
    MalformedRowError,
    NonFiniteCellError,
    NonNumericCellError,
    UnknownColumnError,
    UnsupportedAttributeTypeError,
)
from oracles import reference_parse_arff, reference_parse_csv
from test_parallel import with_cpus


class TestParseCsv:
    def test_single_row(self):
        table = parse_csv(b"1000025,5,1,1,1,2,1,3,1,1,2\n")
        assert table.n_rows == 1
        assert table.n_cols == 11
        assert table.cells[0].tolist() == [
            1000025, 5, 1, 1, 1, 2, 1, 3, 1, 1, 2
        ]
        assert not table.missing_mask().any()

    def test_header_only(self):
        table = parse_csv(b"a,b,c\n", CsvFormat(has_header=True))
        assert table.n_rows == 0
        assert table.column_names == ("a", "b", "c")

    def test_empty_input(self):
        table = parse_csv(b"")
        assert table.n_rows == 0
        assert table.n_cols == 0

    def test_missing_marker(self):
        table = parse_csv(b"1,?,3\n?,5,6\n")
        mask = table.missing_mask()
        assert mask.tolist() == [[False, True, False], [True, False, False]]

    def test_custom_marker_and_delimiter(self):
        table = parse_csv(b"1;NA;3\n", CsvFormat(delimiter=";", missing="NA"))
        assert math.isnan(table.cells[0, 1])
        assert table.cells[0, 2] == 3.0

    def test_default_column_names(self):
        table = parse_csv(b"1,2\n")
        assert table.column_names == ("col0", "col1")

    def test_malformed_row_reports_line(self):
        with pytest.raises(MalformedRowError) as exc:
            parse_csv(b"1,2,3\n4,5\n")
        assert exc.value.line_number == 2
        assert exc.value.expected == 3
        assert exc.value.got == 2

    def test_non_numeric_cell_reports_position(self):
        with pytest.raises(NonNumericCellError) as exc:
            parse_csv(b"1,2\n3,abc\n")
        assert exc.value.line_number == 2
        assert exc.value.token == "abc"

    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_reports_position(self, token):
        doc = f"a,b\n1,2\n\n3,?\n4,{token}\n".encode()
        with pytest.raises(NonFiniteCellError) as exc:
            parse_csv(doc, CsvFormat(has_header=True))
        assert exc.value.line_number == 5
        assert exc.value.column == "b"

    def test_nan_as_the_declared_marker_is_missing(self):
        table = parse_csv(b"1,nan\n", CsvFormat(missing="nan"))
        assert table.missing_mask().tolist() == [[False, True]]

    def test_invalid_utf8_reports_offset(self):
        with pytest.raises(InvalidEncodingError) as exc:
            parse_csv(b"1,2\n\xc3\x28,4\n")
        assert exc.value.offset == 4

    def test_invalid_utf8_from_path_and_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe1,2\n")
        with pytest.raises(InvalidEncodingError):
            parse_csv(path)
        with open(path, "rb") as handle, pytest.raises(InvalidEncodingError):
            parse_csv(handle)

    def test_blank_lines_skipped(self):
        table = parse_csv(b"1,2\n\n3,4\n")
        assert table.n_rows == 2

    def test_synthetic_file_shape(self, synth_csv):
        table = parse_csv(synth_csv)
        assert table.n_rows == 699
        assert table.n_cols == 11

    @pytest.mark.parametrize("delimiter", ["::", "", "\\t"])
    def test_delimiter_of_other_than_one_character(self, delimiter):
        with pytest.raises(InputError, match="^the delimiter must be one character, got "):
            parse_csv(b"1,2\n", CsvFormat(delimiter=delimiter))

    @pytest.mark.parametrize("doc, has_header, message", [
        (b"1,2\r3,4\n", False, "line 1: a data row may not hold '\\r'"),
        (b"1,2\n3,4\r5,6\r\n", False, "line 2: a data row may not hold '\\r'"),
        (b"1,2\n" + b"1" * 200_000 + b",3\n", False, "line 2, column 'col0': '111"),
        (b"x" * 200_000 + b",b\n1,2\n", True, "line 1: field larger than field limit"),
    ], ids=["bare-cr", "bare-cr-after-crlf", "huge-field", "huge-header"])
    def test_what_csv_cannot_read_reports_its_line(self, doc, has_header, message):
        with pytest.raises(InputError) as exc:
            parse_csv(doc, CsvFormat(has_header=has_header))
        assert str(exc.value).startswith(message)


class TestArff:
    MINIMAL = b"""% comment line
@relation toy
@attribute width numeric
@attribute height numeric
@data
1,2
3,?
5,6
"""

    def test_minimal_document(self):
        table = parse_arff(self.MINIMAL)
        assert table.n_rows == 3
        assert table.n_cols == 2
        assert table.column_names == ("width", "height")
        assert math.isnan(table.cells[1, 1])

    def test_nominal_maps_to_declaration_index(self):
        doc = b"@relation r\n@attribute f numeric\n@attribute class {2,4}\n@data\n1,2\n9,4\n3,2\n"
        table = parse_arff(doc)
        assert table.cells[:, 1].tolist() == [0.0, 1.0, 0.0]

    def test_quoted_names(self):
        doc = b"@relation 'my data'\n@attribute 'Clump Thickness' numeric\n@attribute x numeric\n@data\n1,2\n"
        table = parse_arff(doc)
        assert table.column_names == ("Clump Thickness", "x")

    def test_missing_data_section(self):
        with pytest.raises(ArffSyntaxError):
            parse_arff(b"@relation r\n@attribute a numeric\n")

    def test_missing_relation(self):
        with pytest.raises(ArffSyntaxError):
            parse_arff(b"@attribute a numeric\n@data\n1\n")

    def test_unsupported_type(self):
        with pytest.raises(UnsupportedAttributeTypeError):
            parse_arff(b"@relation r\n@attribute s string\n@data\n'x'\n")

    def test_sparse_rows_rejected(self):
        with pytest.raises(ArffSyntaxError):
            parse_arff(b"@relation r\n@attribute a numeric\n@data\n{0 1}\n")

    def test_unknown_nominal_value(self):
        with pytest.raises(ArffSyntaxError):
            parse_arff(b"@relation r\n@attribute c {a,b}\n@data\nz\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_reports_position(self, token):
        doc = f"@relation r\n@attribute a numeric\n@attribute b numeric\n@data\n1,?\n% note\n{token},2\n"
        with pytest.raises(NonFiniteCellError) as exc:
            parse_arff(doc.encode())
        assert exc.value.line_number == 7
        assert exc.value.column == "a"

    def test_invalid_utf8_reports_offset(self):
        doc = b"@relation r\n@attribute a numeric\n@data\n1\n\xe9\n"
        with pytest.raises(InvalidEncodingError) as exc:
            parse_arff(doc)
        assert exc.value.offset == len(b"@relation r\n@attribute a numeric\n@data\n1\n")

    def test_write_empty_table(self):
        table = RawTable(("a", "b"), np.empty((0, 2)))
        text = write_arff(table, "empty").decode()
        assert "@relation empty" in text
        assert text.count("@attribute") == 2
        assert text.strip().endswith("@data")

    def test_write_missing_becomes_question_mark(self):
        table = RawTable(("a", "b"), np.array([[1.0, math.nan]]))
        text = write_arff(table).decode()
        assert text.count("?") == 1

    def test_round_trip_identity(self):
        table = RawTable(
            ("Clump Thickness", "x2"),
            np.array([[1.5, math.nan], [-3.25, 1e-17], [7.0, 2.0]]),
        )
        assert parse_arff(write_arff(table, "t")) == table


class TestErrorPrecedence:
    """A non-finite cell is reported only when the whole text parses
    without another error; the first one in file order is the one named."""

    ARFF_HEAD = "@relation r\n@attribute a numeric\n@attribute b numeric\n@data\n"
    NOMINAL_HEAD = "@relation r\n@attribute a numeric\n@attribute c {2,4}\n@data\n"

    @pytest.mark.parametrize("token", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize("later,error,line,column", [
        ("x,2\n", NonNumericCellError, 4, "col0"),
        ("1,2,3\n", MalformedRowError, 4, None),
        ("1\n", MalformedRowError, 4, None),
    ])
    def test_a_later_csv_error_wins(self, token, later, error, line, column):
        with pytest.raises(error) as exc:
            parse_csv(f"1,2\n{token},2\n\n{later}".encode())
        assert exc.value.line_number == line
        assert getattr(exc.value, "column", None) == column

    @pytest.mark.parametrize("token", ["nan", "inf", "1e999"])
    def test_a_non_numeric_cell_later_in_the_row_wins(self, token):
        with pytest.raises(NonNumericCellError) as exc:
            parse_csv(f"a,b\n{token},x\n".encode(), CsvFormat(has_header=True))
        assert (exc.value.line_number, exc.value.column) == (2, "b")

    @pytest.mark.parametrize("token", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize("head,later,error,message", [
        (ARFF_HEAD, "x,2\n", NonNumericCellError, "line 7, column 'a'"),
        (ARFF_HEAD, "1,2,3\n", MalformedRowError, "line 7: expected 2 fields, got 3"),
        (ARFF_HEAD, "{0 1}\n", ArffSyntaxError, "line 7: sparse"),
        (NOMINAL_HEAD, "1,3\n", ArffSyntaxError, "line 7: '3' not in the nominal domain of 'c'"),
    ])
    def test_a_later_arff_error_wins(self, token, head, later, error, message):
        with pytest.raises(error) as exc:
            parse_arff(f"{head}1,2\n{token},2\n{later}".encode())
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("first,second", [("nan", "inf"), ("1e999", "nan"), ("-inf", "1e999")])
    def test_the_first_non_finite_csv_cell_is_reported(self, first, second):
        for text, line, column in [(f"a,b\n1,2\n3,{first}\n{second},4\n", 3, "b"),
                                   (f"a,b\n{first},{second}\n", 2, "a")]:
            with pytest.raises(NonFiniteCellError) as exc:
                parse_csv(text.encode(), CsvFormat(has_header=True))
            assert (exc.value.line_number, exc.value.column, exc.value.token) == (
                line, column, first)

    @pytest.mark.parametrize("first,second", [("nan", "inf"), ("1e999", "nan"), ("-inf", "1e999")])
    def test_the_first_non_finite_arff_cell_is_reported(self, first, second):
        with pytest.raises(NonFiniteCellError) as exc:
            parse_arff(f"{self.ARFF_HEAD}1,?\n% note\n2,{first}\n{second},3\n".encode())
        assert (exc.value.line_number, exc.value.column, exc.value.token) == (7, "b", first)


names_strategy = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="_- "),
        min_size=1,
        max_size=12,
    ).map(str.strip).filter(lambda s: s),
    min_size=1,
    max_size=6,
    unique=True,
)


@st.composite
def raw_tables(draw):
    names = draw(names_strategy)
    n_rows = draw(st.integers(min_value=0, max_value=8))
    finite = st.floats(
        allow_nan=False, allow_infinity=False, width=64,
        min_value=-1e12, max_value=1e12,
    )
    cell = st.one_of(finite, st.just(math.nan))
    cells = [
        [draw(cell) for _ in range(len(names))] for _ in range(n_rows)
    ]
    return RawTable(tuple(names), np.array(cells, dtype=float).reshape(n_rows, len(names)))


@settings(max_examples=60, deadline=None)
@given(raw_tables())
def test_arff_round_trip_property(table):
    assert parse_arff(write_arff(table, "prop")) == table


class TestArffNames:
    def test_name_with_apostrophe_round_trips(self):
        table = RawTable(("it's a", "b"), np.array([[1.0, 2.0]]))
        text = write_arff(table).decode()
        assert "@attribute \"it's a\" numeric" in text
        assert parse_arff(text) == table

    @pytest.mark.parametrize("name", ["'a'", '"a"', "'", "a'b"])
    def test_name_with_quotes_round_trips(self, name):
        table = RawTable((name,), np.array([[1.0]]))
        assert parse_arff(write_arff(table)) == table

    def test_name_needing_both_quotes_is_refused(self):
        name = "it's \"a\""
        with pytest.raises(ValueError) as exc:
            write_arff(RawTable((name,), np.array([[1.0]])))
        assert repr(name) in str(exc.value)


def _needs_quotes(name):
    return name[0] in "'\"" or "," in name or " " in name


def _breaks_a_line(name):
    return len(f"x{name}x".splitlines()) > 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="ab ,'\"\n\r\x0b\x85\u2028", min_size=1, max_size=6),
                min_size=1, max_size=4, unique=True))
def test_arff_names_round_trip_or_are_refused(names):
    table = RawTable(tuple(names), np.arange(len(names), dtype=float).reshape(1, -1))
    if any(_breaks_a_line(n) or _needs_quotes(n) and "'" in n and '"' in n for n in names):
        with pytest.raises(ValueError):
            write_arff(table)
    else:
        assert parse_arff(write_arff(table)) == table


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_format_table_writes_repr_of_every_cell(monkeypatch, cpus):
    with_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(3)
    cells = rng.standard_normal((2 * dataset._FORMAT_BLOCK + 5, 3)) * 10.0 ** rng.integers(-30, 30, 3)
    cells[7, 1] = math.nan
    cells[-1, 0] = -0.0
    expected = "h\n" + "".join(
        ",".join("?" if math.isnan(v) else repr(float(v)) for v in row) + "\n" for row in cells
    )
    chunks = dataset.format_table(["h"], cells, missing="?")
    assert len(chunks) == 4  # the head, then one chunk per block of rows
    assert b"".join(chunks) == expected.encode()


# -- numpy's reading against the per-cell readers --------------------------------

def _outcome(parse, *args):
    """A table as names, shape and cell bits, or an error as type and message."""
    try:
        table = parse(*args)
    except Exception as exc:  # the error is the outcome under comparison
        return type(exc), str(exc)
    return table.column_names, table.cells.shape, table.cells.tobytes()


#: the line boundaries of str.splitlines besides \n and \r\n, and \x1f
ODD_SEPARATORS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                  "\u2028", "\u2029"]


def _numpy_reads(token):
    """Whether numpy's reader reads ``token`` as a number: ``float`` does,
    and it holds no underscore and no non-ASCII digit."""
    try:
        float(token)
    except ValueError:
        return False
    return token.isascii() and "_" not in token


def first_event(body, first_line, delimiter, marker, n_cols, nominal=None):
    """(error type, line) of the first data line that must raise, whatever
    the oracle says of it: a character no data row may hold (a bare \\r, an
    odd separator, in CSV a quote), a sparse or ragged row, or a cell that is
    neither the marker, a number numpy reads nor a value of its nominal
    domain; in ARFF a quoted numeric cell is no number. None when no line
    must raise. ``nominal`` is None for CSV."""
    refused = "".join(ODD_SEPARATORS) + ('"' if nominal is None else "")
    for line_no, line in enumerate(body.replace("\r\n", "\n").split("\n"), first_line):
        if any(ch in line for ch in refused):
            return InputError, line_no
        row = line.strip()
        if not row or nominal is not None and row.startswith("%"):
            continue
        if nominal is not None and row.startswith("{"):
            return ArffSyntaxError, line_no
        tokens = [token.strip() for token in line.split(delimiter)]
        n_cols = n_cols or len(tokens)
        if len(tokens) != n_cols:
            return MalformedRowError, line_no
        for col, token in enumerate(tokens):
            if nominal is not None and col in nominal:
                if token.strip("'\"") not in {**nominal[col], marker: None}:
                    return ArffSyntaxError, line_no
            elif token != marker and not _numpy_reads(token):
                return NonNumericCellError, line_no
    return None


def assert_outcome(got, want, event):
    """The program's outcome ``got`` is the oracle's ``want``, or the error
    of ``event``, the first line that must raise, naming that line. Every
    error is an input error."""
    if isinstance(got[0], type):
        assert issubclass(got[0], InputError), got
    if got == want:
        return
    assert event is not None, (got, want)
    error, line = event
    assert got[0] is error and got[1].startswith((f"line {line}:", f"line {line},")), (
        got, want, event)


def refused_format(fmt):
    """Whether ``fmt`` is refused before any parse."""
    delimiter, marker = fmt.delimiter, fmt.missing
    return len(delimiter) == 1 and (
        delimiter in "\"'\n" + "".join(ODD_SEPARATORS) + "na"
        or any(ch.isspace() or ch in "\"'" + delimiter for ch in marker))


def header_span(text, delimiter):
    """The lines and the csv records that ``csv.reader`` reads up to the
    first record that is not blank, and that record's width (None if there
    is none, or csv raises, as the program then does too)."""
    reader, records = csv.reader(io.StringIO(text), delimiter=delimiter), 0
    try:
        for record in reader:
            records += 1
            if len(record) > 1 or record and record[0].strip():
                return reader.line_num, records, len(record)
    except csv.Error:
        pass
    return reader.line_num, records, None


def check_csv(text, fmt):
    """``parse_csv`` reads ``text`` as the per-cell reader does, but for the
    deliberate changes: a refused format, the first line that must raise,
    lines of whitespace after the header that are blank, and lines that are
    numbered as lines, not as csv records."""
    got = _outcome(parse_csv, text, fmt)
    if len(fmt.delimiter) != 1:
        assert got == _outcome(reference_parse_csv, text, fmt)
        return
    if refused_format(fmt):
        assert got[0] is InputError and got[1].startswith(("the delimiter ", "the missing "))
        return
    lines, records, width = header_span(text, fmt.delimiter) if fmt.has_header else (0, 0, None)
    head, body = text.split("\n")[:lines], text.split("\n")[lines:]
    want = _outcome(reference_parse_csv, "\n".join(
        head + ["" if line.isspace() else line for line in body]), fmt)
    if want[0] in (MalformedRowError, NonNumericCellError, NonFiniteCellError):
        want = want[0], re.sub(r"^line (\d+)", lambda m: f"line {int(m[1]) + lines - records}",
                               want[1])
    assert_outcome(got, want, first_event("\n".join(body), lines + 1, fmt.delimiter,
                                          fmt.missing, width))


def check_arff(text):
    """``parse_arff`` reads ``text`` as the per-cell reader does, or raises
    at the first line that must raise."""
    got, want, event = _outcome(parse_arff, text), _outcome(reference_parse_arff, text), None
    if got != want:
        names, nominal, data, line_no = dataset._arff_header(text)
        event = first_event(data, line_no + 1, ",", "?", len(names), nominal)
    assert_outcome(got, want, event)


ODD_TOKENS = ["-?", "+?", " ? ", "??", "1?", "1_0", "\u0661", "nan", "-nan", "inf",
              "-Infinity", "1e999", "-1e999", "1e-400", "4.9e-324", "0x10", '"1"',
              "'2'", "", " ", " 7 ", "abc", "{0 1}", "% c", "\x00"]
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e5", "-2.5E-3", ".5", "5.", "+3", "0", "-0", "1e308", "12345678901234567890"]),
)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-.eEinfatyINFATY_ x\x00\t\u3000\u0661\uff11", min_size=1,
               max_size=8) | numbers)
def test_the_cell_rule_reads_what_numpy_reads(token):
    try:
        want = np.loadtxt([token], delimiter=",", comments=None, ndmin=2)[0, 0]
    except ValueError:
        want = ValueError
    try:
        got = dataset._value(token, "?", None)
    except (ValueError, ArithmeticError) as exc:
        got = type(exc)
    if want is ValueError or not np.isfinite(want):
        assert got is (ValueError if want is ValueError else ArithmeticError)
    else:
        assert np.float64(got).tobytes() == want.tobytes()


@st.composite
def documents(draw, delimiter, marker, header_names=None):
    """Lines of cells. Clean documents hold numbers, the marker and blank
    lines, ended by \\n or \\r\\n; the others add ragged rows, odd tokens,
    whitespace-only lines and every other line boundary."""
    clean = draw(st.booleans())
    separators = st.sampled_from(["\n", "\r\n"] if clean else ["\n", "\r\n", *ODD_SEPARATORS])
    cells = numbers | st.just(marker) if clean else numbers | st.sampled_from([marker, *ODD_TOKENS])
    n_cols = draw(st.integers(1, 4))
    lines = [] if header_names is None else [
        delimiter.join(draw(header_names) for _ in range(n_cols))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 4 + ["blank"] + ([] if clean else ["odd"])))
        if kind == "blank":
            lines.append("")
            continue
        width = draw(st.sampled_from([n_cols] if kind == "row" else [n_cols - 1, n_cols + 1]))
        line = delimiter.join(draw(cells) for _ in range(width))
        if kind == "odd":
            line = draw(st.sampled_from([line + delimiter, "   ", "\t", line]))
        lines.append(line)
    text = "".join(line + draw(separators) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


#: header names with quotes, among them ones that span lines, never close
#: or read as blank
QUOTED_NAMES = ["it's", '"it\'s"', '"a,b"', '"x""y"', '" q "r', '"two\nlines"', '"open',
                '""', '" "']


@st.composite
def csv_cases(draw):
    fmt = CsvFormat(has_header=draw(st.booleans()),
                    delimiter=draw(st.sampled_from([",", ",", ";", "|", "\t", "e", ".", "-", "n",
                                                    "a", "1", "\0", "::", ""])),
                    missing=draw(st.sampled_from(["?", "?", "NA", "na", "n", "e", "1", ".", "inf",
                                                  "x", "", "-", "a b"])))
    names = (st.sampled_from(["a", "b", "?", "NA", " c ", "-?", "\x00", *QUOTED_NAMES])
             if fmt.has_header else None)
    return draw(documents(fmt.delimiter, fmt.missing, names)), fmt


@st.composite
def arff_texts(draw):
    attributes = st.sampled_from(["numeric"] * 4 + ["real", "INTEGER", "{2,4}", "string"])
    head = ["% made up", "@relation r"] + [
        f"@attribute a{i} {draw(attributes)}" for i in range(draw(st.integers(1, 4)))
    ] + ["@data"]
    if not draw(st.integers(0, 9)):
        del head[draw(st.integers(0, len(head) - 1))]
    body = draw(documents(",", "?"))
    return "\n".join(head) + draw(st.sampled_from(["\n", "\r\n", *ODD_SEPARATORS])) + body


@settings(max_examples=400, deadline=None)
@given(csv_cases())
def test_csv_reads_as_the_per_cell_reader_or_a_listed_change(case):
    check_csv(*case)


@settings(max_examples=400, deadline=None)
@given(arff_texts())
def test_arff_reads_as_the_per_cell_reader_or_a_listed_change(text):
    check_arff(text)


CSV_EDGE_CASES = [
    "1,-?\n", "1,+?\n", "-?,2\n", "1,?,3\n?,5,6\n",
    "1,2\n\n3,4\n", "1,2\n   \n3,4\n", "5\n \n6\n", "1,2\r\n3,?\r\n", "1,2\r3,4\n",
    "1,2,\n3,4,\n", "1e5,-2.5E-3\n", "1_0,2\n", "\u0661,2\n", "nan,2\n", "inf,2\n",
    "1e999,2\n", "\"1\",2\n", "'1',2\n", "", "\n\n", "1,2", "1,2\n3\n", "\x001,2\n",
    *(f"1,2{sep}3,4\n" for sep in ODD_SEPARATORS),
]


@pytest.mark.parametrize("text", CSV_EDGE_CASES)
@pytest.mark.parametrize("has_header", [False, True])
def test_csv_edge_cases_match_the_per_cell_path(text, has_header):
    check_csv("a,b\n" * has_header + text, CsvFormat(has_header=has_header))


@pytest.mark.parametrize("text,fmt", [
    ("a,?\n1,?\n", CsvFormat(has_header=True)),
    ("a,b\n", CsvFormat(has_header=True)),
    ("\n  \na,a\n1,2\n", CsvFormat(has_header=True)),
    ("1;NA;3\n", CsvFormat(delimiter=";", missing="NA")),
    ("1,nan\n", CsvFormat(missing="nan")),
    ("1,,3\n", CsvFormat(missing="")),
    ("1 2\n", CsvFormat(delimiter=" ")),
    ("1::2\n", CsvFormat(delimiter="::")),
    ("a,b\n1,2\n", CsvFormat(has_header=True, delimiter="")),
    ("1\n\n2\n", CsvFormat(delimiter="\n")),
    ("1, ?\n", CsvFormat(missing=" ?")),
    ("1,?,?\n", CsvFormat(missing="?,?")),
    ('"a,b"\n1,2\n', CsvFormat(has_header=True)),
    ('"it\'s",b\n1,2\n3,?\n', CsvFormat(has_header=True)),
    ('"a\nb",c\n1,2\n', CsvFormat(has_header=True)),
    ('"a,b\n1,2\n', CsvFormat(has_header=True)),
    ('"a\n1\n2\n', CsvFormat(has_header=True)),
    (' \r \n"a",b\n1,2\n', CsvFormat(has_header=True)),
    ('"a,b"\n1\n"2"\n', CsvFormat(has_header=True)),
    ('""\n1\n', CsvFormat(has_header=True)),
    (' \n"x;y";z\r\n1;2\r\n', CsvFormat(has_header=True, delimiter=";")),
    ("a,b\rc\n1,2\n", CsvFormat(has_header=True)),
    ("\n7\n3\n", CsvFormat(has_header=True)),
])
def test_csv_formats_match_the_per_cell_path(text, fmt):
    check_csv(text, fmt)


ARFF_HEAD = "@relation r\n@attribute a numeric\n@attribute b numeric\n@data\n"


@pytest.mark.parametrize("text", [
    ARFF_HEAD + "1,?\n-?,2\n", ARFF_HEAD + "1,+?\n", ARFF_HEAD + "{0 1}\n",
    ARFF_HEAD + "1,2\n% note\n3,4\n", ARFF_HEAD + "1,2\r\n\r\n3,4\r\n",
    ARFF_HEAD + "1,2\n3,4,\n", ARFF_HEAD + "'1',2\n", ARFF_HEAD + "1,2,3\n4,5,6\n",
    ARFF_HEAD + "nan,1\n", ARFF_HEAD, ARFF_HEAD + "\n  \n", ARFF_HEAD + "1,2\x00\n",
    ARFF_HEAD + "1,{\n", ARFF_HEAD + "1,2%c\n",
    "@relation r\n@attribute a numeric\n@attribute c {2,4}\n@data\n1,4\n?,2\n",
    *(ARFF_HEAD.replace("\n", sep) + "1,2" + sep + "3,4\n" for sep in ODD_SEPARATORS),
    *(ARFF_HEAD + "1,2" + sep + "3,4\n" for sep in ODD_SEPARATORS),
    *(ARFF_HEAD + "1" + sep + ",2\n" for sep in ODD_SEPARATORS),
])
def test_arff_edge_cases_match_the_per_cell_path(text):
    check_arff(text)


WHITESPACE_LINES = ["   ", "\t", " \t ", "\u00a0", "\u3000"]


@pytest.mark.parametrize("blank", WHITESPACE_LINES)
@pytest.mark.parametrize("rows", [
    "1,2\n{b}\n3,?\n", "{b}\n1,2\n3,4", "1,2\n3,4\n{b}", "1,2\r\n{b}\r\n3,4\r\n",
    "1,2\n{b}\n{b}\n\n3,4\n", "1,2\n{b}\n3\n", "1,2\n{b}\nx,4\n", "1,2\n{b}\nnan,4\n",
    "{b},2\n3,4\n", "{b}\n",
])
def test_whitespace_only_lines_match_the_per_cell_path(blank, rows):
    text = rows.format(b=blank)
    for has_header in (False, True):
        assert _outcome(parse_csv, "a,b\n" * has_header + text, CsvFormat(has_header=has_header)
                        ) == _outcome(reference_parse_csv, "a,b\n" * has_header + text,
                                      CsvFormat(has_header=has_header))
    assert _outcome(parse_arff, ARFF_HEAD + text) == _outcome(reference_parse_arff,
                                                              ARFF_HEAD + text)


def test_wbc_shaped_tables_match_the_per_cell_reader(synth_csv):
    expected = reference_parse_csv(synth_csv.decode(), CsvFormat())
    assert expected.missing_mask().sum() == 16
    table = parse_csv(synth_csv)
    assert table == expected
    assert parse_arff(write_arff(table, "wbc")) == expected
    assert parse_csv(synth_csv.replace(b"?", b"NA"), CsvFormat(missing="NA")) == expected


class TestKeptInputs:
    """Inputs that numpy reads as the per-cell reader does."""

    def test_tab_delimited(self, synth_csv):
        fmt = CsvFormat(delimiter="\t")
        text = synth_csv.decode().replace(",", "\t")
        assert _outcome(parse_csv, text, fmt) == _outcome(reference_parse_csv, text, fmt)
        assert parse_csv(text, fmt) == parse_csv(synth_csv)

    def test_an_empty_marker(self):
        for text in ["1,,3\n,5,6\n", "a,b\n1,\n,\n", "7\n\n  \n8\n", "\n", "1, ,2\r\n3,4,\r\n"]:
            fmt = CsvFormat(missing="", has_header=text.startswith("a"))
            assert _outcome(parse_csv, text, fmt) == _outcome(reference_parse_csv, text, fmt)
        assert parse_csv("1,,3\n,5,6\n", CsvFormat(missing="")).missing_mask().tolist() == [
            [False, True, False], [True, False, False]]

    @pytest.mark.parametrize("text, marker", [
        ("1,e\n1e5,2\n2.5e-3,e\n", "e"), ("1,-999\n-9990,2\n-999,9990\n", "-999"),
        ("1,.\n1.5,.5\n", "."), ("1,1\n11,-1\n", "1"), ("inf,1\n2,infinity\n", "inf"),
        ("1,-999\n--999,2\n", "-999"), ("1,e\nnan,2\n", "e"), ("1,e\n1e5,x\n", "e")])
    def test_a_marker_that_collides_with_a_number(self, text, marker, monkeypatch):
        fmt = CsvFormat(missing=marker)
        for size in (1, 5, len(text)):
            monkeypatch.setattr(dataset, "_PARSE_CHUNK", size)
            assert _outcome(parse_csv, text, fmt) == _outcome(reference_parse_csv, text, fmt)

    def test_quoted_nominal_values(self):
        text = ("@relation r\n@attribute a numeric\n@attribute 'c' {'x y', \"b\", 2}\n@data\n"
                "1,'x y'\n% note\n?, \"b\" \n3,2\n4,'2'\n5,?\n6,'?'\n")
        assert _outcome(parse_arff, text) == _outcome(reference_parse_arff, text)
        cells = parse_arff(text).cells
        assert cells[:4, 1].tolist() == [0.0, 1.0, 2.0, 2.0]
        assert np.isnan(cells[4:, 1]).all()

    def test_a_header_that_spans_lines(self):
        text = '"two\nlines",c\n1,2\n3,x\n'
        fmt = CsvFormat(has_header=True)
        assert parse_csv('"two\nlines",c\n1,2\n', fmt).column_names == ("two\nlines", "c")
        with pytest.raises(NonNumericCellError) as exc:
            parse_csv(text, fmt)
        assert (exc.value.line_number, exc.value.column) == (4, "c")
        assert _outcome(reference_parse_csv, text, fmt)[1].startswith("line 3,")


class TestRefusedInputs:
    """Each deliberate refusal raises one input error naming its line."""

    @pytest.mark.parametrize("text, fmt, message", [
        ("1,2\n3\x0b,4\n", CsvFormat(), "line 2: a data row may not hold '\\x0b'"),
        ("1,2\n", CsvFormat(missing="N A"), "the missing marker 'N A' holds "),
        ("1,2\n", CsvFormat(missing="'?'"), "the missing marker \"'?'\" holds "),
        ("1,2\n", CsvFormat(missing="?,"), "the missing marker '?,' holds "),
        ("1,2\n", CsvFormat(delimiter='"'), "the delimiter '\"' is a quote"),
        ("1,2\n", CsvFormat(delimiter="\n"), "the delimiter '\\n' is a quote"),
        ("1,2\n", CsvFormat(delimiter="n"), "the delimiter 'n' is a quote"),
        ("1,2\n", CsvFormat(delimiter="a"), "the delimiter 'a' is a quote"),
    ])
    def test_csv(self, text, fmt, message):
        with pytest.raises(InputError) as exc:
            parse_csv(text, fmt)
        assert type(exc.value) is InputError and str(exc.value).startswith(message)

    @pytest.mark.parametrize("row, error, message", [
        ("'1',2", NonNumericCellError, "line 6, column 'a': cannot parse \"'1'\""),
        ("1,\"?\"", NonNumericCellError, "line 6, column 'b': cannot parse '\"?\"'"),
        ("1,2\u20283,4", InputError, "line 6: a data row may not hold '\\u2028'"),
    ])
    def test_arff(self, row, error, message):
        with pytest.raises(error) as exc:
            parse_arff(f"{ARFF_HEAD}1,2\n{row}\n")
        assert type(exc.value) is error and str(exc.value).startswith(message)

    @pytest.mark.parametrize("length, shown", [(40, repr("x" * 40)),
                                               (41, f"{'x' * 40!r}… (41 characters)")])
    def test_a_long_token_is_quoted_cut_and_kept_whole(self, length, shown):
        with pytest.raises(NonNumericCellError) as exc:
            parse_csv(f"1,{'x' * length}\n", CsvFormat())
        assert exc.value.token == "x" * length
        assert str(exc.value) == f"line 1, column 'col1': cannot parse {shown} as a number"

    def test_a_line_of_whitespace_is_blank_whatever_the_delimiter(self):
        fmt = CsvFormat(delimiter="\t")
        assert parse_csv("1\t2\n \t \n\t\n3\t?\n", fmt).cells.shape == (2, 2)
        assert parse_csv("1 2\n   \n3 4\n", CsvFormat(delimiter=" ")).cells.shape == (2, 2)


def arff_head(n_cols):
    return "@relation r\n" + "".join(f"@attribute a{i} numeric\n" for i in range(n_cols)) + "@data\n"


class TestChunkedParse:
    """Data text cut into parse items of every size from one character up:
    each parse gives the per-cell reader's table or error."""

    @staticmethod
    def outcomes(monkeypatch, text, n_cols, cpus=1):
        """The CSV and ARFF outcomes of ``text`` at every item size, checked
        against the per-cell reader's."""
        fmt = CsvFormat()
        expected = (_outcome(reference_parse_csv, text, fmt),
                    _outcome(reference_parse_arff, arff_head(n_cols) + text))
        with monkeypatch.context() as patch:
            with_cpus(patch, cpus)
            for size in range(1, len(text) + 2):
                patch.setattr(dataset, "_PARSE_CHUNK", size)
                assert (_outcome(parse_csv, text, fmt),
                        _outcome(parse_arff, arff_head(n_cols) + text)) == expected
        return expected

    @pytest.mark.parametrize("blank", ["  ", "\t", "\u3000"])
    def test_a_whitespace_only_line_at_every_cut(self, monkeypatch, blank):
        rows = [f"{i},{i + 0.5}" for i in range(6)]
        for at in range(len(rows) + 1):
            text = "\n".join(rows[:at] + [blank] + rows[at:]) + "\n"
            assert self.outcomes(monkeypatch, text, 2)[0][1] == (6, 2)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("tail", ["\n\n\n", " \n\t\n\n", "   "])
    def test_a_tail_of_blank_lines(self, monkeypatch, tail, cpus):
        text = "".join(f"{i},-{i}e3\n" for i in range(10)) + tail
        assert self.outcomes(monkeypatch, text, 2, cpus=cpus)[0][1] == (10, 2)

    @pytest.mark.parametrize("later", ["1,2,3", "4", "5,?,6"])
    def test_a_later_item_with_another_column_count(self, monkeypatch, later):
        text = "1,2\n" * 5 + f"{later}\n" * 5
        expected = self.outcomes(monkeypatch, text, 2)
        assert expected[0] == (MalformedRowError, str(MalformedRowError(6, 2, later.count(",") + 1)))
        assert expected[1][0] is MalformedRowError

    @pytest.mark.parametrize("text, n_cols", [
        ("1,2\r\n3,?\r\n\r\n?,4\r\n", 2),
        ("?,?\n1,2\n?,3\n", 2),
        ("1\n?\n2.5\n\n-3\n", 1),
        ("1,2\n3,4\n5,-?\n", 2),
        ("1,2\n3,4\n+?,5\n", 2),
        ("1,2\n3,4\n5,nan\n", 2),
        ("1,2\n3,4\n5,x\n", 2),
    ])
    def test_line_ends_markers_and_one_column(self, monkeypatch, text, n_cols):
        self.outcomes(monkeypatch, text, n_cols)


def old_row_ids(values):
    """``dataset._row_ids`` one value at a time, as it was before the
    integral columns were converted at once."""
    return tuple(int(v) if v.is_integer() else v for v in values.tolist())


@pytest.mark.parametrize("values", [
    [1_000_000.0, 1_000_001.0, 7.0], [-0.0, 0.0, -5.0], [2.0 ** 63 - 1024, -(2.0 ** 63 - 1024)],
    [2.0 ** 63, 1.0], [-(2.0 ** 63), 1.0], [math.nan, 3.0], [math.inf, 3.0], [-math.inf],
    [1.5, 2.0], [2.0, 1e300], [], list(range(5000)),
])
def test_row_ids_match_the_per_value_conversion(values):
    values = np.array(values, dtype=np.float64)
    assert [(type(v), repr(v)) for v in dataset._row_ids(values)] == [
        (type(v), repr(v)) for v in old_row_ids(values)]


class TestDropMissingRows:
    def test_counts_add_up(self, synth_table):
        kept, dropped = drop_missing_rows(synth_table)
        assert kept.n_rows + len(dropped) == synth_table.n_rows
        assert len(dropped) == 16
        assert not kept.missing_mask().any()

    def test_no_missing_is_identity(self):
        table = parse_csv(b"1,2\n3,4\n")
        kept, dropped = drop_missing_rows(table)
        assert kept == table
        assert dropped == []

    def test_all_rows_missing(self):
        table = parse_csv(b"?,2\n3,?\n")
        kept, dropped = drop_missing_rows(table)
        assert kept.n_rows == 0
        assert dropped == [0, 1]

    def test_order_preserved(self):
        table = parse_csv(b"1,1\n?,2\n3,3\n?,4\n5,5\n")
        kept, dropped = drop_missing_rows(table)
        assert kept.cells[:, 0].tolist() == [1.0, 3.0, 5.0]
        assert dropped == [1, 3]


class TestBuildDataset:
    def test_min_max_formula(self):
        table = parse_csv(b"2\n4\n6\n")
        data, _ = build_dataset(table, normalize=True)
        assert data.features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        table = parse_csv(b"5,1\n5,2\n")
        data, _ = build_dataset(table, normalize=True)
        assert data.features[:, 0].tolist() == [0.0, 0.0]

    def test_normalized_extremes_are_exact(self, synth_table):
        kept, _ = drop_missing_rows(synth_table)
        data, _ = build_dataset(kept, id_column="col0", label_column="col10")
        assert data.features.min(axis=0).tolist() == [0.0] * data.d
        assert data.features.max(axis=0).tolist() == [1.0] * data.d

    def test_label_decoding(self):
        table = parse_csv(b"1,10,2\n2,20,4\n3,30,2\n")
        data, _ = build_dataset(table, id_column="col0", label_column="col2")
        assert data.labels == (BENIGN, MALIGNANT, BENIGN)
        assert data.row_ids == (1, 2, 3)
        assert data.feature_names == ("col1",)

    def test_invalid_class_value(self):
        table = parse_csv(b"1,3\n")
        with pytest.raises(InvalidClassValueError):
            build_dataset(table, label_column="col1")

    def test_invalid_class_value_names_the_first_bad_row(self):
        table = parse_csv(b"2\n4\n3\n5\n")
        with pytest.raises(InvalidClassValueError) as exc:
            build_dataset(table, label_column="col0")
        assert str(exc.value) == "class value 3.0 (row 2) is not 2 or 4"

    def test_invalid_class_value_names_the_data_row_before_the_drop(self):
        # without an id column, the row is numbered as dropped_row_ids numbers
        # rows: the file's third data row is row 2, though the second was dropped
        doc = b"1,2,5,2\n2,3,?,4\n3,4,5,3\n"
        with pytest.raises(InvalidClassValueError) as exc:
            preprocess(parse_csv(doc), label_column="col3")
        assert str(exc.value) == "class value 3.0 (row 2) is not 2 or 4"
        data, report = preprocess(parse_csv(doc.replace(b"5,3", b"5,4")), label_column="col3")
        assert (report.dropped_row_ids, data.row_ids) == ((1,), (0, 1))
        with pytest.raises(InvalidClassValueError) as exc:  # with one, by its id
            preprocess(parse_csv(doc), id_column="col0", label_column="col3")
        assert str(exc.value) == "class value 3.0 (row 3) is not 2 or 4"

    def test_unknown_column(self):
        table = parse_csv(b"1,2\n")
        with pytest.raises(UnknownColumnError):
            build_dataset(table, id_column="nope")

    def test_missing_cells_rejected(self):
        table = parse_csv(b"1,?\n")
        with pytest.raises(ValueError):
            build_dataset(table)

    def test_no_normalize(self):
        table = parse_csv(b"2\n6\n")
        data, report = build_dataset(table, normalize=False)
        assert data.features[:, 0].tolist() == [2.0, 6.0]
        assert not data.normalized
        assert report.norm_params == {}

    def test_norm_params_record_observed_extremes(self):
        table = parse_csv(b"2,1\n4,9\n")
        _, report = build_dataset(table, normalize=True)
        assert report.norm_params == {"col0": (2.0, 4.0), "col1": (1.0, 9.0)}


class TestPreprocess:
    def test_full_pipeline_counts(self, synth_data):
        data, report = synth_data
        assert report.rows_before == 699
        assert report.rows_after == 683
        assert report.rows_dropped == 16
        assert report.rows_before - report.rows_dropped == report.rows_after
        assert data.d == 9
        assert len(report.dropped_row_ids) == 16

    def test_class_counts(self, synth_data):
        data, _ = synth_data
        assert data.labels.count(BENIGN) == 444
        assert data.labels.count(MALIGNANT) == 239

    def test_dropped_ids_come_from_id_column(self):
        table = parse_csv(b"11,1,2\n22,?,2\n33,3,4\n")
        _, report = preprocess(table, id_column="col0", label_column="col2")
        assert report.dropped_row_ids == (22,)

    def test_dropped_ids_are_indices_without_id_column(self):
        table = parse_csv(b"1,2\n?,2\n3,4\n")
        _, report = preprocess(table, label_column="col1")
        assert report.dropped_row_ids == (1,)
