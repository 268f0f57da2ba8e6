import json
import subprocess
import sys
import warnings

import pytest

from clusterlab import parse_arff, validate_report_dict
from clusterlab.cli import main

ARTIFACTS = [
    "report.json",
    "report.md",
    "scatter_kmeans.svg",
    "scatter_pam.svg",
    "silhouette_pam.svg",
    "sweep.svg",
    "scatter_kmeans.csv",
    "scatter_pam.csv",
    "silhouette_pam.csv",
    "sweep.csv",
]


def run_cli(*argv):
    return main(list(argv))


class TestUsageAndErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli() == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, synth_csv_path):
        assert run_cli("inspect", str(synth_csv_path), "--bogus") == 1

    def test_missing_file_exit_2_names_file(self, capsys):
        assert run_cli("inspect", "no-such-file.csv") == 2
        assert "no-such-file.csv" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert run_cli("inspect", str(bad)) == 2
        assert "fields" in capsys.readouterr().err

    def test_analysis_error_exit_3(self, synth_csv_path, capsys):
        code = run_cli("kmeans", str(synth_csv_path), "--k", "100000")
        assert code == 3
        assert "analysis error" in capsys.readouterr().err

    def test_bad_sweep_range_exit_3(self, synth_csv_path, capsys):
        code = run_cli("sweep", str(synth_csv_path), "--k-min", "2",
                       "--k-max", "100000")
        assert code == 3
        assert "k range" in capsys.readouterr().err

    def test_sweep_range_is_checked_before_the_distance_matrix(
            self, synth_csv_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr("clusterlab.pipeline.physical_memory", lambda: 1_000_000)
        monkeypatch.setattr("clusterlab.pipeline.pairwise_distances",
                            lambda *args: built.append(args))
        code = run_cli("sweep", str(synth_csv_path), "--k-max", "100000")
        assert code == 3
        assert "k range [2, 100000] must lie within [2, 682]" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("flags", [
        ("--k-max", "2"),
        ("--k-min", "5", "--k-max", "5"),
        ("--k-max", "100000"),
        ("--k", "1"),
        ("--m", "100000"),
        ("--trials", "0"),
        ("--hopkins-power", "0"),
        ("--max-swap-iters", "-1"),
    ])
    def test_bad_analyze_settings_write_nothing(self, synth_csv_path, tmp_path,
                                                capsys, flags):
        out = tmp_path / "results"
        assert run_cli("analyze", str(synth_csv_path), "--out", str(out), *flags) == 3
        assert "analysis error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("tendency", "--hopkins-power", "0"), "power must be at least 1"),
        (("tendency", "--hopkins-power", "-1"), "power must be at least 1"),
        (("pam", "--max-swap-iters", "-1"), "max_swap_iters must be non-negative"),
        (("silhouette", "--max-swap-iters", "-1"), "max_swap_iters must be non-negative"),
    ])
    def test_out_of_range_setting_exit_3(self, synth_csv_path, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero warning on the way
            assert run_cli(argv[0], str(synth_csv_path), *argv[1:]) == 3
        assert message in capsys.readouterr().err

    def test_distance_matrix_beyond_memory_is_refused(self, synth_csv_path, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr("clusterlab.pipeline.physical_memory", lambda: 1_000_000)
        for command in ("pam", "analyze"):
            out = tmp_path / command
            assert run_cli(command, str(synth_csv_path), "--out", str(out)) == 3
            assert "683 points need 5.6 MB" in capsys.readouterr().err
            assert not out.exists()
        out = tmp_path / "tendency"
        assert run_cli("tendency", str(synth_csv_path), "--trials", "2",
                       "--out", str(out)) == 0
        assert (out / "tendency.json").is_file()

    def test_invalid_utf8_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n3,\xff\xfe\n")
        assert run_cli("inspect", str(bad)) == 2
        assert "byte offset 6" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_exit_2(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1,2,3\n4,5,{cell}\n")
        assert run_cli("inspect", str(bad)) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'col2'" in err

    def test_same_id_and_label_column_rejected(self, tmp_path, capsys):
        f = tmp_path / "one.csv"
        f.write_text("1\n2\n")
        assert run_cli("inspect", str(f)) == 0  # inspect does not split columns
        assert run_cli("kmeans", str(f), "--id-column", "0", "--label-column", "0") == 2

    def test_version(self, capsys):
        assert run_cli("--version") == 0
        assert "clusterlab" in capsys.readouterr().out


class TestInspect:
    def test_summary_counts(self, synth_csv_path, capsys):
        assert run_cli("inspect", str(synth_csv_path), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == 699
        assert doc["columns"] == 11
        assert doc["rows_with_missing"] == 16
        assert doc["missing_per_column"] == {"col6": 16}

    def test_human_readable(self, synth_csv_path, capsys):
        assert run_cli("inspect", str(synth_csv_path)) == 0
        out = capsys.readouterr().out
        assert "rows: 699" in out
        assert "missing cells: 16" in out


class TestPreprocess:
    def test_writes_csv_and_report(self, synth_csv_path, tmp_path, capsys):
        out = tmp_path / "prep"
        assert run_cli("preprocess", str(synth_csv_path), "--out", str(out)) == 0
        cleaned = (out / "preprocessed.csv").read_text().splitlines()
        assert cleaned[0].split(",")[:2] == ["col1", "col2"]
        assert len(cleaned) == 1 + 683
        report = json.loads((out / "preprocess.json").read_text())
        assert report["rows_dropped"] == 16
        assert len(report["dropped_row_ids"]) == 16

    def test_arff_export_parses_back(self, synth_csv_path, tmp_path):
        out = tmp_path / "prep"
        assert run_cli("preprocess", str(synth_csv_path), "--out", str(out),
                       "--export", "arff") == 0
        table = parse_arff((out / "preprocessed.arff").read_bytes())
        assert table.n_rows == 683
        assert table.n_cols == 10  # 9 features + class
        assert table.column_names[-1] == "class"

    def test_stdout_json_without_out(self, synth_csv_path, capsys):
        assert run_cli("preprocess", str(synth_csv_path)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows_after"] == 683


class TestTendency:
    def test_deterministic_stdout(self, synth_csv_path, capsys):
        args = ("tendency", str(synth_csv_path), "--m", "68", "--trials", "10",
                "--seed", "7")
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["m"] == 68
        assert doc["trials"] == 10
        assert 0.0 <= doc["h"] <= 1.0


class TestAlgorithms:
    def test_kmeans_json(self, synth_csv_path, capsys):
        assert run_cli("kmeans", str(synth_csv_path), "--k", "2", "--seed", "1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["sizes"]) == [239, 444]
        assert doc["naming"] is not None
        assert doc["label_agreement"] == 1.0

    def test_pam_json(self, synth_csv_path, capsys):
        assert run_cli("pam", str(synth_csv_path), "--k", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["medoid_indices"]) == 2
        assert doc["silhouette_overall"] > 0.3

    def test_silhouette_kmeans(self, synth_csv_path, capsys):
        assert run_cli("silhouette", str(synth_csv_path), "--algorithm", "kmeans",
                       "--seed", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "kmeans"
        assert -1.0 <= doc["overall"] <= 1.0

    def test_sweep_json(self, synth_csv_path, capsys):
        assert run_cli("sweep", str(synth_csv_path), "--k-min", "2", "--k-max", "4",
                       "--seed", "5", "--restarts", "5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ks"] == [2, 3, 4]
        assert doc["best_k"] == 2


@pytest.fixture(scope="module")
def analyze_dir(synth_csv_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    code = main([
        "analyze", str(synth_csv_path), "--k", "2", "--seed", "42",
        "--trials", "10", "--restarts", "10", "--k-max", "6",
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestAnalyze:
    def test_all_artifacts_exist(self, analyze_dir):
        for name in ARTIFACTS:
            assert (analyze_dir / name).is_file(), name

    def test_report_validates_and_is_populated(self, analyze_dir):
        doc = json.loads((analyze_dir / "report.json").read_text())
        validate_report_dict(doc)
        assert 0.0 <= doc["hopkins"]["h"] <= 1.0
        assert sorted(doc["kmeans"]["sizes"]) == [239, 444]
        assert doc["pam"]["silhouette_overall"] > 0.3
        assert doc["sweep"]["best_k"] == 2
        assert doc["config"]["seed"] == 42
        assert doc["preprocessing"]["rows_dropped"] == 16

    def test_svg_counts(self, analyze_dir):
        svg = (analyze_dir / "scatter_kmeans.svg").read_text()
        assert svg.count('class="pt"') == 683
        assert svg.count('class="center"') == 2
        sil = (analyze_dir / "silhouette_pam.svg").read_text()
        assert sil.count('class="bar"') == 683

    def test_plot_csv_data(self, analyze_dir):
        rows = (analyze_dir / "sweep.csv").read_text().splitlines()
        assert rows[0] == "k,avg_silhouette,wss"
        assert len(rows) == 1 + 5  # k in 2..6
        scatter = (analyze_dir / "scatter_kmeans.csv").read_text().splitlines()
        assert scatter[0] == "x,y,cluster,is_center"
        assert len(scatter) == 1 + 683 + 2

    def test_markdown_mentions_sections(self, analyze_dir):
        md = (analyze_dir / "report.md").read_text()
        for heading in ("## Dataset", "## Preprocessing",
                        "## Clustering tendency", "## K-means", "## PAM",
                        "## k sweep", "## Configuration"):
            assert heading in md

    def test_summary_stdout(self, synth_csv_path, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["analyze", str(synth_csv_path), "--seed", "1",
                     "--trials", "5", "--restarts", "5", "--k-max", "3",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "hopkins H" in text
        assert "artifacts written" in text


class TestFlagPaths:
    def test_no_normalize(self, synth_csv_path, capsys):
        assert run_cli("preprocess", str(synth_csv_path), "--no-normalize") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["norm_params"] == {}

    def test_arff_input(self, synth_csv_path, tmp_path, capsys):
        from clusterlab import parse_csv, write_arff

        table = parse_csv(synth_csv_path.read_bytes())
        arff_path = tmp_path / "synthetic.arff"
        arff_path.write_bytes(write_arff(table, "synthetic"))
        assert run_cli("inspect", str(arff_path), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == 699
        assert doc["rows_with_missing"] == 16

    def test_manhattan_metric(self, synth_csv_path, capsys):
        assert run_cli("pam", str(synth_csv_path), "--metric", "manhattan") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["medoid_indices"]) == 2

    def test_label_column_none(self, synth_csv_path, capsys):
        assert run_cli("kmeans", str(synth_csv_path),
                       "--label-column", "none", "--seed", "1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["naming"] is None
        assert doc["label_agreement"] is None

    def test_out_mirrors_json(self, synth_csv_path, tmp_path, capsys):
        out = tmp_path / "mirror"
        assert run_cli("tendency", str(synth_csv_path), "--m", "10",
                       "--trials", "3", "--seed", "2", "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert (out / "tendency.json").read_text() == stdout


@pytest.mark.parametrize("argv, matrices", [
    (("analyze", "--trials", "3", "--restarts", "3", "--k-max", "4"), 1),
    (("tendency", "--trials", "3"), 0),
    (("kmeans", "--restarts", "3"), 0),
    (("pam",), 1),
    (("silhouette", "--algorithm", "kmeans", "--restarts", "3"), 1),
    (("sweep", "--algorithm", "pam", "--k-max", "4"), 1),
])
def test_one_distance_matrix_per_run(synth_csv_path, tmp_path, monkeypatch, argv, matrices):
    """A run builds its pairwise distance matrix at most once, only when a
    stage needs it, and every stage shares one dense expansion of it."""
    from clusterlab import DistanceMatrix, kmedoids, pipeline, validation

    built, dense = [], []
    compute, expand = pipeline.pairwise_distances, DistanceMatrix.square

    def counting_compute(*args, **kwargs):
        built.append(compute(*args, **kwargs))
        return built[-1]

    def recording_expand(self):
        dense.append(expand(self))
        return dense[-1]

    for module in (pipeline, validation, kmedoids):
        monkeypatch.setattr(module, "pairwise_distances", counting_compute)
    monkeypatch.setattr(DistanceMatrix, "square", recording_expand)
    assert run_cli(argv[0], str(synth_csv_path), "--seed", "1",
                   "--out", str(tmp_path / "out"), *argv[1:]) == 0
    assert len(built) == matrices
    assert len(dense) >= matrices and all(d is dense[0] for d in dense)


def test_console_script_entry_point(synth_csv_path):
    proc = subprocess.run(
        [sys.executable, "-m", "clusterlab.cli", "inspect", str(synth_csv_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "rows: 699" in proc.stdout
