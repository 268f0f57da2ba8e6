import errno
import json
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from clusterlab import _parallel, dataset, parse_arff, validate_report_dict
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


#: the one stderr line of a run on features outside the float64 domain
OUT_OF_RANGE = ("analysis error: the features are too large for float64: their squared "
                "distances or the sums of those could overflow; normalise the data")
MANHATTAN_OUT_OF_RANGE = OUT_OF_RANGE.replace("squared", "Manhattan")

_GRID = np.random.default_rng(6).integers(0, 10, (30, 3))
#: tables of 30 x 3 rows whose distances or sums of them overflow float64,
#: each with the metric it is run on: the squared metrics refuse the 1e154
#: table (Manhattan accepts it), and Manhattan the two others
OVERFLOWING = {
    "1e154": (_GRID * 1e154, None),
    "1e306-manhattan": (_GRID * 1e306, "manhattan"),
    "1.7e308-manhattan": (np.column_stack([_GRID[:, 0], 1.7e308 * (-1.0) ** np.arange(30),
                                           _GRID[:, 2]]), "manhattan"),
}


#: the analysis runs that fit PAM, and those that fit K-means alone
PAM_RUNS = [("pam",), ("silhouette",), ("sweep", "--algorithm", "pam"), ("analyze",)]
KMEANS_RUNS = [("silhouette", "--algorithm", "kmeans"), ("sweep",)]


def run_cli(*argv):
    return main(list(argv))


def _table_file(path, X):
    """Write the features ``X`` as a CSV with an id column before them and
    a class column after, as the CLI's defaults expect; return its path."""
    path.write_text("".join(f"{i}," + ",".join(map(repr, row)) + ",2\n"
                            for i, row in enumerate(X.tolist(), 1)))
    return str(path)


class TestUsageAndErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli() == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, synth_csv_path):
        assert run_cli("inspect", str(synth_csv_path), "--bogus") == 1

    def test_missing_file_exit_2_names_file(self, capsys):
        assert run_cli("inspect", "no-such-file.csv") == 2
        assert "no-such-file.csv" in capsys.readouterr().err

    def test_directory_as_input_exit_2_names_it(self, tmp_path, capsys):
        assert run_cli("inspect", str(tmp_path)) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path}: Is a directory"]

    @pytest.mark.parametrize("command", ["kmeans", "analyze"])
    def test_output_under_a_file_exit_2_names_it(self, synth_csv_path, tmp_path, capsys,
                                                 command):
        out = tmp_path / "file" / "out"
        out.parent.write_text("")
        assert run_cli(command, str(synth_csv_path), "--seed", "1", "--restarts", "1",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {out}: Not a directory"]

    def test_negative_seed_exit_3_naming_it(self, synth_csv_path, tmp_path, capsys):
        assert run_cli("kmeans", str(synth_csv_path), "--seed", "-1", "--restarts", "2") == 3
        assert capsys.readouterr().err.splitlines() == [
            "analysis error: seed must be non-negative, got -1"]
        out = tmp_path / "results"
        assert run_cli("analyze", str(synth_csv_path), "--seed", "-1", "--out", str(out)) == 3
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

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
        monkeypatch.setattr("clusterlab.distances.physical_memory", lambda: 1_000_000)
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

    @pytest.mark.parametrize("doc, flags, message", [
        (b"1,2\n", ("--delimiter", "::"), "the delimiter must be one character, got '::'"),
        (b"1,2\n", ("--delimiter", ""), "the delimiter must be one character, got ''"),
        (b"1,2\n", ("--delimiter", "\\t"), "the delimiter must be one character, got '\\\\t'"),
        (b"1,2\r3,4\n", (), "line 1: a data row may not hold '\\r'"),
        (b"1,2\n" + b"1" * 200_000 + b",3\n", (), f"line 2, column 'col0': {'1' * 40!r}… "
         "(200000 characters) is not a finite number (mark missing cells with the missing "
         "marker)"),
    ], ids=["two-characters", "empty", "backslash-t", "bare-cr", "huge-field"])
    @pytest.mark.parametrize("command", ["inspect", "analyze"])
    def test_csv_that_cannot_be_read_exit_2_with_one_line(self, tmp_path, doc, flags, message,
                                                          command):
        f, out = tmp_path / "t.csv", tmp_path / "results"
        f.write_bytes(doc)
        proc = subprocess.run([sys.executable, "-m", "clusterlab.cli", command, str(f), *flags,
                               *(("--out", str(out)) if command == "analyze" else ())],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr.splitlines()) == (2, [f"input error: {message}"])
        assert not out.exists()

    @pytest.mark.parametrize("name, doc, flags, message", [
        ("quote.csv", b'1,2,3\n4,"5",6\n', (), "line 2: a data row may not hold '\"'"),
        ("separator.csv", b"1,2,3\n4,5\x0c,6\n", (), "line 2: a data row may not hold '\\x0c'"),
        ("underscore.csv", b"1,2,3\n4,1_0,6\n", (),
         "line 2, column 'col1': cannot parse '1_0' as a number"),
        ("digit.csv", "1,2,3\n4,\u0665,6\n".encode(), (),
         "line 2, column 'col1': cannot parse '\u0665' as a number"),
        ("quoted.arff", b"@relation r\n@attribute a numeric\n@attribute b numeric\n"
         b"@attribute c numeric\n@data\n1,'2',3\n", (),
         "line 6, column 'b': cannot parse \"'2'\" as a number"),
        ("marker.csv", b"1,2,3\n", ("--missing", "n/a "),
         "the missing marker 'n/a ' holds whitespace, a quote or the delimiter"),
        ("delimiter.csv", b"1n2n3\n", ("--delimiter", "n"),
         "the delimiter 'n' is a quote, a line boundary or a letter of 'nan'"),
        ("duplicate.csv", b"a,a,b\n1,2,3\n", ("--header",),
         "column names must be unique, but 'a' repeats"),
        ("duplicate.arff", b"@relation r\n@attribute a numeric\n@attribute b numeric\n"
         b"@attribute a numeric\n@data\n1,2,3\n", (), "column names must be unique, but 'a' repeats"),
        ("huge-nominal.arff", b"@relation r\n@attribute a numeric\n@attribute c {2,4}\n@data\n1,"
         + b"x" * 200_000 + b"\n", (),
         f"line 5: {'x' * 40!r}… (200000 characters) not in the nominal domain of 'c'"),
        ("huge-declaration.arff", b"@relation r\n" + b"y" * 200_000 + b"\n", (),
         f"line 2: unrecognized declaration {'y' * 40!r}… (200000 characters)"),
    ], ids=["quote", "separator", "underscore", "digit", "quoted-arff", "marker", "delimiter",
            "duplicate", "duplicate-arff", "huge-nominal-arff", "huge-declaration-arff"])
    @pytest.mark.parametrize("command", ["inspect", "analyze"])
    def test_refused_input_exit_2_with_one_line(self, tmp_path, capsys, name, doc, flags, message,
                                                command):
        f, out = tmp_path / name, tmp_path / "results"
        f.write_bytes(doc)
        assert run_cli(command, str(f), *flags,
                       *(("--out", str(out)) if command == "analyze" else ())) == 2
        assert capsys.readouterr().err.splitlines() == [f"input error: {message}"]
        assert not out.exists()

    @staticmethod
    def run_under_rlimit_as(tmp_path, *code):
        """``clusterlab pam`` on a 15,000 x 3 table, whose distance matrix
        needs 1.8 GB, in a child whose address space alone is cut to 1.5 GB;
        ``code`` runs in the child before the CLI."""
        f, out = tmp_path / "big.csv", tmp_path / "results"
        _table_file(f, np.random.default_rng(2).random((15_000, 3)))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,
                                                    resource.getrlimit(resource.RLIMIT_AS)[1]))

        script = "\n".join([*code, "import sys", "from clusterlab.cli import main",
                            "sys.exit(main(sys.argv[1:]))"])
        proc = subprocess.run([sys.executable, "-c", script, "pam", str(f), "--out", str(out)],
                              preexec_fn=limit, capture_output=True, text=True, timeout=300)
        assert not out.exists()
        return proc

    def test_memory_error_exit_3_with_one_line(self, tmp_path):
        # refused before the allocation, naming the limit that refused it;
        # no cgroup limit and ample physical memory, so RLIMIT_AS binds on any host
        proc = self.run_under_rlimit_as(
            tmp_path, "from clusterlab import distances",
            "distances._cgroup_limits = lambda: []",
            "distances.physical_memory = lambda: 1 << 40")
        assert (proc.returncode, len(proc.stderr.splitlines())) == (3, 1)
        assert re.fullmatch(r"analysis error: 15000 points need 2700\.4 MB for their pairwise "
                            r"distance matrix and PAM's float32 copy of it, more than the "
                            r"\d+\.\d MB left under RLIMIT_AS\n", proc.stderr)

    def test_memory_error_backstop(self, tmp_path):
        # with the budget out of the way, numpy's own MemoryError is mapped
        proc = self.run_under_rlimit_as(
            tmp_path, "from clusterlab import distances",
            "distances.memory_budget = lambda: (1 << 62, 'of a budget that does not bind')")
        assert (proc.returncode, len(proc.stderr.splitlines())) == (3, 1)
        assert proc.stderr.startswith("analysis error: out of memory: Unable to allocate 1.68 GiB")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize("argv, flag", [(("kmeans",), "tol"), (("analyze",), "--tol"),
                                            (("silhouette", "--algorithm", "kmeans"), "tol")])
    def test_tol_not_finite_exit_3_before_any_fit(self, synth_csv_path, tmp_path, monkeypatch,
                                                  capsys, argv, flag, tol):
        monkeypatch.setattr("clusterlab.kmeans._restarts", lambda *args: pytest.fail("fitted"))
        out = tmp_path / "results"
        assert run_cli(argv[0], str(synth_csv_path), *argv[1:], "--tol", tol,
                       "--out", str(out)) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"analysis error: {flag} must be non-negative"]
        assert not out.exists()

    def test_objective_made_of_rounding_alone_fits(self, tmp_path, capsys):
        # one feature reading 0 or 1e153: the objective is only the rounding
        # of the means of equal values, 0 in one iteration and 5.19e275 in
        # the next, and rises between Lloyd steps
        X = np.random.default_rng(1).integers(0, 2, (30, 1)) * 1e153
        f = _table_file(tmp_path / "rounding.csv", X)
        assert run_cli("kmeans", f, "--no-normalize", "--k", "3", "--seed", "1",
                       "--restarts", "3", "--init", "random") == 0
        assert json.loads(capsys.readouterr().out)["k"] == 3

    def test_kmeans_pp_overflow_exit_3(self, tmp_path, capsys, monkeypatch):
        # the squared distances to the first seed would sum past the float64
        # range: the rows are refused before any seed is drawn
        monkeypatch.setattr("clusterlab.kmeans._starts", lambda *args: pytest.fail("seeded"))
        X = np.random.default_rng(6).integers(0, 10, (30, 3)) * 1e154
        f = _table_file(tmp_path / "huge.csv", X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            assert run_cli("kmeans", f, "--no-normalize", "--k", "3", "--seed", "1") == 3
        assert capsys.readouterr().err.splitlines() == [OUT_OF_RANGE]

    @pytest.mark.parametrize("table", OVERFLOWING)
    @pytest.mark.parametrize("argv", [
        ("tendency",), ("kmeans",), ("kmeans", "--init", "random"), ("pam",), ("silhouette",),
        ("sweep",), ("sweep", "--algorithm", "pam"), ("analyze",)])
    def test_overflowing_table_exit_3_with_one_line(self, tmp_path, argv, table):
        # every analysis subcommand refuses the table before any distance
        # overflows: no warning, which -W error would turn into a traceback,
        # and no output. A subcommand that forms no Manhattan distance
        # refuses the Manhattan tables by their squared distances.
        X, metric = OVERFLOWING[table]
        f, out = tmp_path / "huge.csv", tmp_path / "results"
        f.write_text("".join(",".join(map(repr, row)) + "\n" for row in X.tolist()))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "clusterlab.cli", *argv,
                               str(f), "--no-normalize", "--id-column", "none",
                               "--label-column", "none", "--seed", "1", "--out", str(out),
                               *(("--metric", metric) if metric else ())],
                              capture_output=True, text=True)
        refusal = (MANHATTAN_OUT_OF_RANGE if metric and argv[0] not in ("tendency", "kmeans")
                   else OUT_OF_RANGE)
        assert (proc.returncode, proc.stderr.splitlines(), proc.stdout) == (3, [refusal], "")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["preprocess", "analyze"])
    def test_feature_range_past_float64_exit_2_with_one_line(self, tmp_path, command):
        # max - min of col1 overflows: the column is refused before any
        # division, so no RuntimeWarning turns into a traceback under -W error
        f, out = tmp_path / "wide.csv", tmp_path / "results"
        f.write_text("1,-1e308,5,2\n2,1e308,6,4\n3,0.0,7,2\n")
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "clusterlab.cli", command,
                               str(f), "--out", str(out)], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr.splitlines(), proc.stdout) == (2, [
            "input error: feature 'col1' spans -1e+308 to 1e+308: the width of that range "
            "overflows float64, so it cannot be normalised"], "")
        assert not out.exists()

    def test_distance_matrix_beyond_memory_is_refused(self, synth_csv_path, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr("clusterlab.distances.physical_memory", lambda: 1_000_000)
        for command in ("pam", "analyze"):
            out = tmp_path / command
            assert run_cli(command, str(synth_csv_path), "--out", str(out)) == 3
            assert "683 points need 5.9 MB" in capsys.readouterr().err
            assert not out.exists()
        out = tmp_path / "tendency"
        assert run_cli("tendency", str(synth_csv_path), "--trials", "2",
                       "--out", str(out)) == 0
        assert (out / "tendency.json").is_file()

    @pytest.mark.parametrize("argv", PAM_RUNS + KMEANS_RUNS)
    def test_memory_bound_is_the_dense_matrix_plus_one_block(self, synth_csv_path, tmp_path,
                                                             monkeypatch, capsys, argv):
        # 8 * 683**2 + 8 * 32768 = 3,994,056 bytes, and a run that fits PAM
        # needs 4 * 683**2 = 1,865,956 more for the matrix's float32 copy.
        # A PAM run is refused before its distances are computed.
        pam = argv in PAM_RUNS
        need, copy = (5_860_012, " and PAM's float32 copy of it") if pam else (3_994_056, "")
        out = tmp_path / "out"
        monkeypatch.setattr("clusterlab.distances.memory_budget",
                            lambda: (need - 1, "of a test budget"))
        with monkeypatch.context() as m:
            if pam:
                m.setattr("clusterlab.pipeline.pairwise_distances",
                          lambda *args: pytest.fail("distances computed"))
            assert run_cli(*argv[:1], str(synth_csv_path), *argv[1:], "--seed", "1",
                           "--out", str(out)) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"analysis error: 683 points need {need / 1e6:.1f} MB for their pairwise distance "
            f"matrix{copy}, more than the {(need - 1) / 1e6:.1f} MB of a test budget"]
        assert not out.exists()
        monkeypatch.setattr("clusterlab.distances.memory_budget",
                            lambda: (need, "of a test budget"))
        assert run_cli(*argv[:1], str(synth_csv_path), *argv[1:], "--seed", "1",
                       "--out", str(out)) == 0
        assert out.is_dir()

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

    @pytest.mark.parametrize("command", ["tendency", "kmeans", "pam", "silhouette", "sweep",
                                         "analyze"])
    def test_table_without_features_exit_2(self, tmp_path, capsys, command):
        f = tmp_path / "ids.csv"
        f.write_text("1,2\n2,4\n3,2\n4,4\n")  # only the id and the class
        out = tmp_path / "out"
        assert run_cli(command, str(f), "--out", str(out)) == 2
        assert "no feature column" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("export,last_line", [("csv", "col1,class"), ("arff", "@data")])
    def test_export_with_every_row_dropped(self, tmp_path, export, last_line):
        src = tmp_path / "t.csv"
        src.write_bytes(b"1,?,2\n2,3,?\n")
        out = tmp_path / "prep"
        assert run_cli("preprocess", str(src), "--out", str(out), "--export", export) == 0
        assert (out / f"preprocessed.{export}").read_text().splitlines()[-1] == last_line

    def test_arff_export_of_a_name_holding_a_line_break_exit_2(self, tmp_path, capsys):
        src, out = tmp_path / "t.csv", tmp_path / "prep"
        src.write_text('id,"two\nlines",class\n1,0.5,2\n2,0.7,4\n')
        assert run_cli("preprocess", str(src), "--header", "--out", str(out),
                       "--export", "arff") == 2
        assert capsys.readouterr().err.splitlines() == [
            "input error: cannot write the name 'two\\nlines' to ARFF: it holds a line "
            "boundary, or needs quoting and holds both quote characters"]
        assert not out.exists()

    def test_csv_export_quotes_the_names_that_need_it(self, tmp_path, capsys):
        src, out = tmp_path / "t.csv", tmp_path / "prep"
        src.write_text('"a,b","say ""hi""","two\nlines",plain\n1,2,3,4\n5,6,7,8\n')
        assert run_cli("preprocess", str(src), "--header", "--id-column", "none",
                       "--label-column", "none", "--out", str(out), "--export", "csv") == 0
        exported = out / "preprocessed.csv"
        assert exported.read_text().startswith('"a,b","say ""hi""","two\nlines",plain\n0.0,')
        capsys.readouterr()
        assert run_cli("inspect", str(exported), "--header", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["column_names"] == ["a,b", 'say "hi"', "two\nlines", "plain"]
        assert doc["rows"] == 2

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


#: analyze runs whose reports take other shapes: the defaults; no id and
#: no class column (null naming, class distribution and agreement); rows
#: all alike (a degenerate Hopkins statistic and PCA); the Manhattan metric
REPORT_SHAPES = {
    "defaults": (),
    "no-id-no-label": ("--id-column", "none", "--label-column", "none"),
    "identical-rows": (),
    "manhattan": ("--metric", "manhattan"),
}


@pytest.mark.parametrize("case", sorted(REPORT_SHAPES))
def test_analyze_report_validates(synth_csv_path, tmp_path, case):
    source = synth_csv_path
    if case == "identical-rows":
        source = tmp_path / "alike.csv"
        source.write_text("".join(f"{i},3,3,3,{2 + 2 * (i % 2)}\n" for i in range(1, 31)))
    out = tmp_path / "out"
    assert run_cli("analyze", str(source), "--seed", "1", "--out", str(out),
                   *REPORT_SHAPES[case]) == 0
    doc = json.loads((out / "report.json").read_text())
    validate_report_dict(doc)
    labelled = case != "no-id-no-label"
    assert (doc["dataset"]["class_distribution"] is not None) == labelled
    assert (doc["kmeans"]["naming"] is not None) == labelled
    assert (doc["kmeans"]["label_agreement"] is not None) == labelled
    assert doc["hopkins"]["degenerate"] == (case == "identical-rows")
    assert doc["config"]["metric"] == ("manhattan" if case == "manhattan" else "euclidean")
    if case == "identical-rows":  # every point projects onto the origin
        rows = (out / "scatter_kmeans.csv").read_text().splitlines()[1:]
        assert {tuple(row.split(",")[:2]) for row in rows} == {("0.0", "0.0")}


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


#: the runs that write files into --out, and the names of those files
WRITING_RUNS = {
    "analyze": (("analyze", "--seed", "1", "--trials", "3", "--restarts", "2", "--k-max", "3"),
                ARTIFACTS),
    "preprocess": (("preprocess",), ["preprocessed.csv", "preprocess.json"]),
    "kmeans": (("kmeans", "--seed", "1", "--restarts", "2"), ["kmeans.json"]),
}


def _fail_a_write(monkeypatch, fail_at):
    """Make the ``fail_at``-th file opened for writing fail, as a full disk
    would, once part of it is written; returns the paths opened so far."""
    calls, path_open = [], Path.open

    def failing_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            calls.append(path)
            if len(calls) == fail_at:
                with path_open(path, mode) as file:
                    file.write(b"part")
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return path_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", failing_open)
    return calls


def _tree(root):
    """Every path below ``root``, each with its bytes (None for a directory)."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def _out_with_old_files(out, names):
    """An existing --out holding an old version of each of ``names`` and a
    file the run does not write."""
    out.mkdir()
    for name in [*names, "keep.txt"]:
        (out / name).write_bytes(b"old " + name.encode())


class TestAtomicOut:
    """A run writes all of its files into --out or none of them."""

    @pytest.mark.parametrize("command", WRITING_RUNS)
    @pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
    def test_a_failed_write_leaves_no_trace(self, synth_csv_path, tmp_path, monkeypatch, capsys,
                                            command, exists):
        argv, names = WRITING_RUNS[command]
        out = tmp_path / "out"
        if exists:
            _out_with_old_files(out, names)
        before, fail_at = _tree(tmp_path), min(3, len(names))  # the third file, or the last
        calls = _fail_a_write(monkeypatch, fail_at)
        assert run_cli(argv[0], str(synth_csv_path), *argv[1:], "--out", str(out)) == 2
        assert len(calls) == fail_at
        assert capsys.readouterr().err.splitlines() == [
            f"error: {calls[-1]}: No space left on device"]
        assert _tree(tmp_path) == before  # no partial --out, no staged file

    def test_a_stage_that_cannot_be_made_leaves_no_out(self, synth_csv_path, tmp_path,
                                                       monkeypatch, capsys):
        def no_space(prefix, dir):
            raise OSError(errno.ENOSPC, "No space left on device", dir)

        monkeypatch.setattr(tempfile, "mkdtemp", no_space)
        out = tmp_path / "out"
        assert run_cli("kmeans", str(synth_csv_path), "--seed", "1", "--restarts", "2",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out}: No space left on device"]
        assert _tree(tmp_path) == {}

    def test_a_failed_write_removes_the_parents_the_run_made(self, synth_csv_path, tmp_path,
                                                             monkeypatch, capsys):
        (tmp_path / "keep.txt").write_bytes(b"mine")
        before = _tree(tmp_path)
        _fail_a_write(monkeypatch, 1)
        assert run_cli("kmeans", str(synth_csv_path), "--seed", "1", "--restarts", "2",
                       "--out", str(tmp_path / "a" / "b" / "out")) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("command", WRITING_RUNS)
    def test_a_directory_target_is_refused_before_any_replace(self, synth_csv_path, tmp_path,
                                                              capsys, command):
        argv, names = WRITING_RUNS[command]
        out = tmp_path / "out"
        _out_with_old_files(out, names)
        (out / names[-1]).unlink()
        (out / names[-1]).mkdir()
        (out / names[-1] / "inside.txt").write_bytes(b"mine")
        before = _tree(tmp_path)
        assert run_cli(argv[0], str(synth_csv_path), *argv[1:], "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / names[-1]}: Is a directory"]
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("command", WRITING_RUNS)
    def test_an_existing_out_keeps_the_files_the_run_does_not_write(
            self, synth_csv_path, tmp_path, command):
        argv, names = WRITING_RUNS[command]
        out, new = tmp_path / "out", tmp_path / "new"
        _out_with_old_files(out, names)
        for target in (out, new):
            assert run_cli(argv[0], str(synth_csv_path), *argv[1:], "--out", str(target)) == 0
        assert _tree(new) == {name: (new / name).read_bytes() for name in names}
        assert _tree(out) == {**_tree(new), "keep.txt": b"old keep.txt"}
        assert sorted(_tree(tmp_path)) == sorted(["out", "new", *(f"{d}/{name}" for d in (
            "out", "new") for name in names), "out/keep.txt"])
        (tmp_path / "made").mkdir()  # a new --out has the mode of a plain mkdir
        assert new.stat().st_mode == (tmp_path / "made").stat().st_mode

    def test_out_dot_writes_into_the_working_directory(self, synth_csv_path, tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "keep.txt").write_bytes(b"mine")
        assert run_cli("kmeans", str(synth_csv_path), "--seed", "1", "--restarts", "2",
                       "--out", ".") == 0
        assert sorted(_tree(tmp_path)) == ["keep.txt", "kmeans.json"]
        assert (tmp_path / "keep.txt").read_bytes() == b"mine"


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


def test_one_parser_serves_every_call_of_a_process(synth_csv_path, capsys):
    # the parser is built once per process: no call leaves a flag, a default
    # or an error behind for the next, so each prints what a fresh process does
    path = str(synth_csv_path)
    calls = [(("--version",), 0), (("tendency", path, "--trials", "x"), 1),
             (("tendency", path, "--trials", "3", "--seed", "4"), 0),
             (("tendency", path, "--seed", "4"), 0)]
    for argv, code in calls:
        assert run_cli(*argv) == code
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "clusterlab.cli", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (code, out)
    assert json.loads(out)["trials"] == 30


def test_console_script_entry_point(synth_csv_path):
    proc = subprocess.run(
        [sys.executable, "-m", "clusterlab.cli", "inspect", str(synth_csv_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "rows: 699" in proc.stdout


def _traced_peak(run):
    """Peak bytes traced by tracemalloc while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_round_trip_holds_each_text_and_table_once(tmp_path, monkeypatch, capsys):
    """``preprocess --export arff``, then ``inspect`` of its ARFF, in one
    process on a 20,000-row WBC-shaped table with a ``?`` in every 50th
    row. ``arff`` is the ARFF's size, ``table`` the cells' bytes as parsed
    and ``chunk`` a parse item's text, ``dataset._PARSE_CHUNK`` characters.

    ``preprocess`` may hold ``arff + table + 2 chunks``: the ARFF's chunks,
    all formatted before the first is written, and the table they are
    formatted from, once each (the dataset is gone, and the chunks are
    never joined); besides them, one block's Python floats, their tuple and
    its text. Before that it holds the CSV's str (its bytes die as they are
    decoded), the parse items' cells and their concatenation: less, since
    the CSV writes a cell in at most 9 characters, a float64 takes 8 bytes
    and ``repr`` writes a normalised feature in about 18.

    ``inspect`` may hold ``2 arff + table + chunk``: the ARFF's bytes and
    their str, while they are decoded; then the str, the parse items'
    cells, their concatenation (two tables, less than one ``arff`` and one
    ``table``) and an item's text, replaced and encoded for numpy."""
    monkeypatch.setattr(_parallel, "_cpus", lambda: 1)
    n, rng = 20_000, np.random.default_rng(5)
    rows = [[str(1_000_000 + i), *(f"{v:.6f}" for v in rng.random(9) * 10), str(c)]
            for i, c in enumerate(rng.choice([2, 4], n))]
    for row in rows[::50]:
        row[3] = "?"
    source, out = tmp_path / "table.csv", tmp_path / "out"
    source.write_text("".join(",".join(row) + "\n" for row in rows))
    preprocessed = _traced_peak(lambda: run_cli("preprocess", str(source), "--export", "arff",
                                                "--out", str(out)))
    written = out / "preprocessed.arff"
    inspected = _traced_peak(lambda: run_cli("inspect", str(written), "--json"))
    assert json.loads(capsys.readouterr().out)["rows"] == n - n // 50
    arff, table, chunk = written.stat().st_size, 8 * n * 11, dataset._PARSE_CHUNK
    assert preprocessed <= arff + table + 2 * chunk
    assert inspected <= 2 * arff + table + chunk
