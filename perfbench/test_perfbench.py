"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    generate = WORKLOADS[name].generate
    assert generate(ROOT, 5) == generate(ROOT, 5)
    assert generate(ROOT, 5) != generate(ROOT, 6)


def test_recorded_input_sizes_match_the_default_seed():
    for workload in WORKLOADS.values():
        assert len(workload.generate(ROOT, DEFAULT_SEED)) == workload.input_bytes


@pytest.fixture(scope="module")
def analyze_jobs(tmp_path_factory):
    """One untraced and one traced wbc-analyze job on the same input."""
    from clusterlab import cli

    work = tmp_path_factory.mktemp("wbc")
    workload = WORKLOADS["wbc-analyze"]
    (work / "wbc.data").write_bytes(workload.generate(ROOT, 7))
    argvs = [[a.format(input=str(work / "wbc.data"), out=str(work / "out")) for a in argv]
             for argv in workload.argvs]
    plain = run._run_job(cli, argvs, work / "out")
    tracer = Tracer()
    traced = run._run_job(cli, argvs, work / "out", tracer, 0)
    return workload, plain, traced, tracer


def test_outputs_identical_with_and_without_tracing(analyze_jobs):
    workload, plain, traced, tracer = analyze_jobs
    check = run.Checker(workload, 7, record=False)
    check(*plain[1:])
    check(*traced[1:])
    assert (check.attempted, check.failed) == (2, 0)
    assert plain[2:] == traced[2:]


def test_tracer_restores_the_originals(analyze_jobs):
    from clusterlab import cli, dataset, kmeans

    assert cli.parse_csv is dataset.parse_csv
    assert not hasattr(dataset.parse_csv, "__wrapped__")
    assert not hasattr(kmeans.KMeans.fit, "__wrapped__")


def test_layer_metrics_of_a_traced_job(analyze_jobs):
    *_, tracer = analyze_jobs
    metrics = layer_metrics(tracer)
    assert metrics["kmeans.fit.calls"] == 10  # k=2 plus the 2..10 sweep
    assert metrics["kmeans.restarts"] == 250
    assert metrics["distances.pairwise_distances.calls"] == 2
    assert metrics["tendency.queries"] == 2 * 68 * 30
    assert metrics["tendency.dist_evals"] == 2 * 68 * 30 * 683
    assert metrics["distances.nearest_neighbor.calls"] == 68 * 30
    assert metrics["cli.self_s"] >= 0


@pytest.mark.parametrize("target", ["sweep.svg", "report.json", "stdout"])
def test_one_flipped_output_byte_is_caught(analyze_jobs, target):
    workload, (_, code, stdout, files), *_ = analyze_jobs
    check = run.Checker(workload, 7, record=False)
    check(code, stdout, files)
    if target == "stdout":
        stdout = stdout[:-2] + chr(ord(stdout[-2]) ^ 1) + stdout[-1]
    else:
        data = bytearray(files[target])
        data[len(data) // 2] ^= 1
        files = {**files, target: bytes(data)}
    check(code, stdout, files)
    assert (check.attempted, check.failed) == (2, 1)


def test_reference_is_checked_at_the_default_seed():
    """A full run prints the contract's last line, and at the default seed
    its outputs match the recorded digests."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "table-roundtrip",
         "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= run.MIN_JOBS
    assert set(result["metrics"]) == {"job_ref_s_p50", "peak_rss_mb", "setup_s", "ok_ratio"}


def test_fails_without_a_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wbc-analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric(analyze_jobs):
    *_, tracer = analyze_jobs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [*layer_metrics(tracer), "trace.overhead_ratio"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
