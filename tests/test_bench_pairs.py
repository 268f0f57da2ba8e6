import json

import pytest

from conftest import load_tool

bench_pairs = load_tool("bench_pairs")

BETTER = {"job_s": "lower", "ok_ratio": "higher"}
BOUNDS = {"job_s": 0.25, "ok_ratio": 0.01}


def runs(job_s, ok_ratio):
    return [{"job_s": j, "ok_ratio": o} for j, o in zip(job_s, ok_ratio)]


def test_summary_of_fixed_runs():
    parent = runs([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 1, 1])
    change = runs([0.5, 2.0, 3.5, 3.0, 4.0], [1, 1, 0.5, 1, 1])
    job, ok = bench_pairs.summarize(parent, change, BETTER, BOUNDS)
    assert job == {"metric": "job_s", "better": "lower", "parent": (2.0, 3.0, 4.0),
                   "change": (2.0, 3.0, 3.5), "parent_iqr": 2.0, "won": 3, "lost": 1,
                   "pairs": 5, "bound": 0.25, "verdict": "unresolved"}
    assert (ok["parent"], ok["change"]) == ((1, 1, 1), (1, 1, 1))
    assert (ok["won"], ok["lost"]) == (0, 1)  # higher is better; the ties count for neither


def test_one_pair_has_no_spread():
    (job,) = bench_pairs.summarize(runs([2.0], [1]), runs([1.0], [1]), {"job_s": "lower"},
                                   BOUNDS)
    assert (job["parent"], job["parent_iqr"], job["won"]) == ((2.0, 2.0, 2.0), 0.0, 1)


def test_table():
    rows = bench_pairs.summarize(runs([1.0, 2.0, 3.0], [1, 1, 1]),
                                 runs([1.5, 1.0, 2.0], [1, 1, 1]), BETTER, BOUNDS)
    assert bench_pairs.format_summary(rows).splitlines()[2:] == [
        "| job_s | lower | 2 [1.5, 2.5] | 1.5 [1.25, 1.75] | 1 | 2 of 3 (1 worse) "
        "| unresolved |",
        "| ok_ratio | higher | 1 [1, 1] | 1 [1, 1] | 0 | 0 of 3 (0 worse) | within bound |"]


@pytest.mark.parametrize("stdout, expected", [
    ('env: {}\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n',
     {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}),
    ("", None),
    ("Traceback (most recent call last):\n  ...\nValueError: boom\n", None),
    ('{"correct": true}\n', None),
    ("[1, 2]\n", None),
])
def test_the_result_is_the_last_line(stdout, expected):
    assert bench_pairs.parse_result(stdout) == expected


def test_a_run_with_no_result_or_an_incorrect_one_exits_1(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "job_s", "better": "lower", "bound": 0.25}]}))
    results = []

    def run_once(checkout, workload, seed, seconds):
        return results.pop(0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2"]
    ok = {"correct": True, "metrics": {"job_s": {"value": 1.0}}}
    results[:] = [ok, ok, ok, {**ok, "correct": False}]
    assert bench_pairs.main(argv) == 1
    assert "correct=false" in capsys.readouterr().out
    results[:] = [ok, ok, None]
    assert bench_pairs.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: w, pair 1, change: the run's last line is not a result\n")
    results[:] = [ok] * 4
    assert bench_pairs.main(argv) == 0
    assert "| job_s | lower | 1 [1, 1] | 1 [1, 1] | 0 | 0 of 2 (0 worse) | within bound |" in (
        capsys.readouterr().out)


def test_several_workloads_run_in_turn_each_with_its_table(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": "job_s", "better": "lower", "bound": 0.25}]}))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(workload)
        return {"correct": workload != "b" or len(calls) > 3,
                "metrics": {"job_s": {"value": float(len(calls))}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    for workloads in (["--workload", "all"], ["--workload", "a", "--workload", "b"]):
        calls.clear()
        # b's first run reads correct: false, so every pair still runs, then it exits 1
        assert bench_pairs.main([str(tmp_path), str(tmp_path), *workloads, "--pairs", "1"]) == 1
        assert calls == ["a", "a", "b", "b"]
        out = capsys.readouterr().out
        assert "b pair 0 parent: job_s=3 correct=false" in out
        assert out.index("\na, 1 pairs") < out.index("b pair 0") < out.index("\nb, 1 pairs")
        assert out.count("| job_s | lower |") == 2


def test_the_env_line_is_read_as_json():
    assert bench_pairs.parse_env('env: {"nproc": 2}\n{"correct": true}\n') == {"nproc": 2}
    assert bench_pairs.parse_env('env: {cut\n') is None
    assert bench_pairs.parse_env('{"correct": true}\n') is None


def test_json_holds_every_run_and_the_summaries(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "job_s", "better": "lower", "bound": 0.25}]}))
    values = iter([2.0, 1.0, 1.5, 3.0])

    def run_once(checkout, workload, seed, seconds):
        return {"correct": True, "env": {"nproc": 2},
                "metrics": {"job_s": {"value": next(values), "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    path = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2",
                             "--seconds", "5", "--json", str(path)]) == 0
    record = json.loads(path.read_text())
    assert (record["pairs"], record["seconds"], record["seed"]) == (2, 5.0, 1)
    (workload,) = record["workloads"].values()
    assert [(run["pair"], run["side"], run["metrics"]["job_s"]["value"])
            for run in workload["runs"]] == [
        (0, "parent", 2.0), (0, "change", 1.0), (1, "change", 1.5), (1, "parent", 3.0)]
    assert all(run["correct"] is True and run["env"] == {"nproc": 2}
               for run in workload["runs"])
    (row,) = workload["summary"]
    assert (row["metric"], row["won"], row["pairs"], row["verdict"]) == ("job_s", 2, 2, "gain")
    assert row["parent"] == [2.25, 2.5, 2.75]
    assert record["code_lines"] == {"parent": 0, "change": 0}  # no src/clusterlab here
    core = bench_pairs.blas_core(tmp_path)
    assert record["blas_core"] == {"parent": core, "change": core}


@pytest.mark.parametrize("coretype", [None, "Haswell"])
def test_the_blas_core_is_read_through_ctypes(tmp_path, monkeypatch, coretype):
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    native = bench_pairs.blas_core(tmp_path)
    if native == "none":
        pytest.skip("numpy loads no OpenBLAS that tells its core name")
    assert native and " " not in native
    if coretype:
        monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        assert bench_pairs.blas_core(tmp_path) == coretype


def test_json_records_each_checkouts_code_lines(tmp_path, monkeypatch, capsys):
    for side, body in (("parent", "x = 1\ny = 2\n"), ("change", '"""doc"""\n\n# note\nx = 1\n')):
        package = tmp_path / side / "src" / "clusterlab"
        package.mkdir(parents=True)
        (package / "m.py").write_text(body)
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "job_s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: {
        "correct": True, "metrics": {"job_s": {"value": 1.0}}})
    path = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                             "w", "--pairs", "1", "--json", str(path)]) == 0
    assert json.loads(path.read_text())["code_lines"] == {"parent": 2, "change": 1}


TEN = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # IQR 0.01


@pytest.mark.parametrize("parent, change, direction, expected", [
    # 9 of 10 pairs better, and the medians apart by more than the IQR
    (TEN, [v - 0.1 for v in TEN[:9]] + [2.0], "lower", "gain"),
    (TEN, [v + 0.1 for v in TEN[:9]] + [0.0], "higher", "gain"),
    # 8 of 10 better: no gain, and inside the bound
    (TEN, [v - 0.1 for v in TEN[:8]] + [2.0, 2.0], "lower", "within bound"),
    # 10 of 10 better, but by less than the parent's IQR
    (TEN, [v - 0.001 for v in TEN], "lower", "within bound"),
    # the change's median worse by more than 25 %, in either direction
    (TEN, [v * 1.3 for v in TEN], "lower", "worse"),
    (TEN, [v * 0.7 for v in TEN], "higher", "worse"),
    (TEN, [v * 1.2 for v in TEN], "lower", "within bound"),
    # the parent's IQR of 0.5 is wider than 25 % of its median of 1.25
    ([0.5, 1.0, 1.5, 2.0] * 2 + [1.0, 1.5], [1.2] * 10, "lower", "unresolved"),
    # ... unless every change run beats every parent run
    # (IQR 0.975, median 1.6, and the change's median 0.61 below it)
    ([1.0, 1.0, 1.0, 1.1, 1.2, 2.0, 2.0, 2.0, 3.0, 3.0], [0.99] * 10, "lower", "within bound"),
    ([0.5, 1.0, 1.5, 2.0] * 2 + [1.0, 1.5], [0.4] * 10, "lower", "gain"),
])
def test_each_verdict_of_fixed_runs(parent, change, direction, expected):
    assert bench_pairs.verdict(parent, change, direction, 0.25) == expected
    (row,) = bench_pairs.summarize(runs(parent, parent), runs(change, change),
                                   {"job_s": direction}, {"job_s": 0.25})
    assert row["verdict"] == expected
