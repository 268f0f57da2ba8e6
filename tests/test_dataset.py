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
from clusterlab.exceptions import (
    ArffSyntaxError,
    InvalidClassValueError,
    InvalidEncodingError,
    MalformedRowError,
    NonFiniteCellError,
    NonNumericCellError,
    UnknownColumnError,
    UnsupportedAttributeTypeError,
)


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
