import math

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
        (b"1,2\r3,4\n", False, "line 1: new-line character seen in unquoted field"),
        (b"1,2\n3,4\r5,6\r\n", False, "line 2: new-line character seen in unquoted field"),
        (b"1,2\n" + b"1" * 200_000 + b",3\n", False, "line 2: field larger than field limit"),
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
    assert dataset.format_table(["h"], cells, missing="?") == expected.encode()


# -- the fast path against the per-cell path ---------------------------------

def reference_parse_arff(source):
    """``parse_arff`` before the fast path: the whole text split by
    ``str.splitlines``, every data row read by the per-cell row parser."""
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
            rows.append(dataset._parse_arff_row(line, line_no, names, nominal, bad))
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
            raise ArffSyntaxError(f"line {line_no}: unrecognized declaration {line!r}")
    if not in_data:
        raise ArffSyntaxError("missing @data section")
    return dataset._table(tuple(names), rows, bad)


def _outcome(parse, *args):
    """A table as names, shape and cell bits, or an error as type and message."""
    try:
        table = parse(*args)
    except Exception as exc:  # the error is the outcome under comparison
        return type(exc), str(exc)
    return table.column_names, table.cells.shape, table.cells.tobytes()


def assert_csv_paths_agree(text, fmt):
    assert _outcome(parse_csv, text, fmt) == _outcome(dataset._csv_table, text, fmt)


def assert_arff_paths_agree(text):
    assert _outcome(parse_arff, text) == _outcome(reference_parse_arff, text)


#: the line boundaries of str.splitlines besides \n and \r\n, and \x1f
ODD_SEPARATORS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                  "\u2028", "\u2029"]
ODD_TOKENS = ["-?", "+?", " ? ", "??", "1?", "1_0", "١", "nan", "-nan", "inf",
              "-Infinity", "1e999", "-1e999", "1e-400", "4.9e-324", "0x10", '"1"',
              "'2'", "", " ", " 7 ", "abc", "{0 1}", "% c", "\x00"]
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e5", "-2.5E-3", ".5", "5.", "+3", "0", "-0", "1e308", "12345678901234567890"]),
)


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
def test_csv_fast_path_matches_the_per_cell_path(case):
    assert_csv_paths_agree(*case)


@settings(max_examples=400, deadline=None)
@given(arff_texts())
def test_arff_fast_path_matches_the_per_cell_path(text):
    assert_arff_paths_agree(text)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3,
                         max_size=3), min_size=1, max_size=8))
def test_clean_numeric_tables_take_the_fast_path(rows):
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    fast = dataset._fast_csv(text, CsvFormat())
    assert fast is not None
    assert _outcome(lambda: fast) == _outcome(dataset._csv_table, text, CsvFormat())


CSV_EDGE_CASES = [
    "1,-?\n", "1,+?\n", "-?,2\n", "1,?,3\n?,5,6\n",
    "1,2\n\n3,4\n", "1,2\n   \n3,4\n", "5\n \n6\n", "1,2\r\n3,?\r\n", "1,2\r3,4\n",
    "1,2,\n3,4,\n", "1e5,-2.5E-3\n", "1_0,2\n", "١,2\n", "nan,2\n", "inf,2\n",
    "1e999,2\n", "\"1\",2\n", "'1',2\n", "", "\n\n", "1,2", "1,2\n3\n", "\x001,2\n",
    *(f"1,2{sep}3,4\n" for sep in ODD_SEPARATORS),
]


@pytest.mark.parametrize("text", CSV_EDGE_CASES)
@pytest.mark.parametrize("has_header", [False, True])
def test_csv_edge_cases_match_the_per_cell_path(text, has_header):
    assert_csv_paths_agree("a,b\n" * has_header + text, CsvFormat(has_header=has_header))


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
    assert_csv_paths_agree(text, fmt)


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
    assert_arff_paths_agree(text)


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
        assert_csv_paths_agree("a,b\n" * has_header + text, CsvFormat(has_header=has_header))
    assert_arff_paths_agree(ARFF_HEAD + text)


@pytest.mark.parametrize("blank", WHITESPACE_LINES)
def test_whitespace_only_lines_keep_the_fast_path(blank, monkeypatch):
    def refuse(*args):
        raise AssertionError("the per-cell parser ran")

    text = f"1,2\n{blank}\n3,?\r\n{blank}\r\n5,6\n{blank}"
    expected = _outcome(dataset._csv_table, "a,b\n" + text, CsvFormat(has_header=True))
    expected_arff = _outcome(reference_parse_arff, ARFF_HEAD + text)
    monkeypatch.setattr(dataset, "_csv_table", refuse)
    monkeypatch.setattr(dataset, "_arff_table", refuse)
    assert _outcome(parse_csv, "a,b\n" + text, CsvFormat(has_header=True)) == expected
    assert _outcome(parse_arff, ARFF_HEAD + text) == expected_arff
    assert expected[1] == (3, 2)


def test_quoted_header_keeps_the_fast_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the per-cell parser ran")

    text = '"it\'s","a,b",\'c\'\n1,2,?\r\n4,5,6\n'
    expected = _outcome(dataset._csv_table, text, CsvFormat(has_header=True))
    monkeypatch.setattr(dataset, "_csv_table", refuse)
    assert _outcome(parse_csv, text, CsvFormat(has_header=True)) == expected
    assert expected[0] == ("it's", "a,b", "'c'")


def test_wbc_shaped_tables_take_the_fast_path(synth_csv, monkeypatch):
    def refuse(*args):
        raise AssertionError("the per-cell parser ran")

    expected = dataset._csv_table(synth_csv.decode(), CsvFormat())
    assert expected.missing_mask().sum() == 16
    monkeypatch.setattr(dataset, "_csv_table", refuse)
    monkeypatch.setattr(dataset, "_arff_table", refuse)
    table = parse_csv(synth_csv)
    assert table == expected
    assert parse_arff(write_arff(table, "wbc")) == expected
    assert parse_csv(synth_csv.replace(b"?", b"NA"), CsvFormat(missing="NA")) == expected


def per_cell_arff(text):
    """``text`` read by the per-cell ARFF path alone."""
    names, nominal, data, line_no = dataset._arff_header(text)
    return dataset._arff_table(data, line_no, names, nominal)


def arff_head(n_cols):
    return "@relation r\n" + "".join(f"@attribute a{i} numeric\n" for i in range(n_cols)) + "@data\n"


class TestChunkedParse:
    """Data text cut into parse items of every size from one character up:
    each parse gives the per-cell path's table or error, and a text the
    fast path reads whole is read by it in items too."""

    @staticmethod
    def outcomes(monkeypatch, text, n_cols, fast, cpus=1):
        """The CSV and ARFF outcomes of ``text`` at every item size, checked
        against the per-cell path's; with ``fast``, that path never runs."""
        fmt = CsvFormat()
        expected = (_outcome(dataset._csv_table, text, fmt),
                    _outcome(per_cell_arff, arff_head(n_cols) + text))
        with monkeypatch.context() as patch:
            with_cpus(patch, cpus)
            if fast:
                def refuse(*args):
                    raise AssertionError("the per-cell parser ran")

                patch.setattr(dataset, "_csv_table", refuse)
                patch.setattr(dataset, "_arff_table", refuse)
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
            assert self.outcomes(monkeypatch, text, 2, fast=True)[0][1] == (6, 2)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("tail", ["\n\n\n", " \n\t\n\n", "   "])
    def test_a_tail_of_blank_lines(self, monkeypatch, tail, cpus):
        text = "".join(f"{i},-{i}e3\n" for i in range(10)) + tail
        assert self.outcomes(monkeypatch, text, 2, fast=True, cpus=cpus)[0][1] == (10, 2)

    @pytest.mark.parametrize("later", ["1,2,3", "4", "5,?,6"])
    def test_a_later_item_with_another_column_count(self, monkeypatch, later):
        text = "1,2\n" * 5 + f"{later}\n" * 5
        expected = self.outcomes(monkeypatch, text, 2, fast=False)
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
        fast = not any(s in text for s in ("-?", "+?", "nan", "x"))
        self.outcomes(monkeypatch, text, n_cols, fast)


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
        assert str(exc.value) == "class value np.float64(3.0) (row 2) is not 2 or 4"

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
