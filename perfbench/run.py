"""clusterlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. One workload: a closed loop with one client drives
``clusterlab.cli.main(argv)`` in this warm interpreter, starting the next
job only when the previous one has finished, for ``--seconds`` seconds (and
at least ``MIN_JOBS`` jobs). Every job's outputs are checked. With
``--trace 0`` jobs run untraced, with the workload's speed probe
(``probes.py``) before the first and after every job, and the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced jobs alternate
and the per-layer metrics are reported. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in its own process, traced and
untraced, and prints both tables (the README's baseline table).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path("perfbench") / "_work"  # relative to ROOT, so outputs name the same paths everywhere
REFERENCE = BENCH / "reference.json"
MIN_JOBS = 3
SETUP_SAMPLES = 5

sys.path.insert(0, str(BENCH))
from probes import PROBES, REF_S  # noqa: E402
from tracer import Tracer, layer_metrics, unit_of  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="at the default seed, store this run's output digests "
                        "in reference.json instead of checking them")
    return p.parse_args(argv)


# -- environment ----------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    import platform
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(f"{index}/type").strip()
        if kind in ("Unified", "Data"):
            caches[f"L{_read(f'{index}/level').strip()}"] = _read(f"{index}/size").strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "cache_per_core": caches,
    }


# -- jobs ----------------------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_job(cli, argvs, out_dir: Path, tracer=None, job_id=None):
    """Run one job; returns (seconds, exit code, stdout, {file: bytes})."""
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    traced = tracer.job(job_id) if tracer else contextlib.nullcontext()
    code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), traced:
        start = time.perf_counter()
        try:
            for argv in argvs:
                code = cli.main(list(argv))
                if code != 0:
                    break
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = "exception"
            traceback.print_exc()
        seconds = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(stderr.getvalue())
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                files[path.relative_to(out_dir).as_posix()] = path.read_bytes()
    return seconds, code, stdout.getvalue(), files


class Checker:
    """Counts a job as failed unless it exits 0, passes its workload's
    check, and yields the same bytes as the first job of the run and, at
    the default seed, as the recorded reference."""

    def __init__(self, workload, seed, record):
        self.workload, self.seed, self.record = workload, seed, record
        self.schema = json.loads((ROOT / "src/clusterlab/schemas/report.schema.json").read_text())
        self.first = None
        self.attempted = self.failed = 0
        references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.reference = references.get(workload.name) if seed == DEFAULT_SEED else None

    def __call__(self, code, stdout, files) -> None:
        digests = {"stdout": _digest(stdout.encode("utf-8")),
                   **{name: _digest(data) for name, data in files.items()}}
        problems = [] if code == 0 else [f"exit code {code}"]
        if not problems:
            try:
                problems += self.workload.check(files, stdout, self.seed, self.schema)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"output unreadable: {exc!r}")
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            problems.append("outputs differ from the first job of the run")
        if self.reference is not None and not self.record and digests != self.reference:
            problems.append(f"outputs differ from {REFERENCE.name} at seed {DEFAULT_SEED}")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"job {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)

    def store_reference(self) -> None:
        references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        references[self.workload.name] = self.first
        REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")


def setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import clusterlab.cli.
    One unmeasured import first, so that writing bytecode is not counted."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-c", "import clusterlab.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_path = work / workload.input_name
    subprocess.run([sys.executable, str(BENCH / "workloads.py"), workload.name,
                    str(args.seed), str(input_path)], check=True)
    out_dir = work / "out"
    argvs = [[a.format(input=input_path.as_posix(), out=out_dir.as_posix()) for a in argv]
             for argv in workload.argvs]

    setup_s = setup_seconds() if args.trace == 0 else None
    from clusterlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's src/")
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload: {workload.name} seed={args.seed} input={workload.input_bytes} bytes "
          f"at seed {DEFAULT_SEED}, n={workload.n} d={workload.d}; "
          f"working set {workload.working_set} vs L2 {env['cache_per_core'].get('L2')}, "
          f"L3 {env['cache_per_core'].get('L3')}")

    check = Checker(workload, args.seed, args.record_reference)
    tracer = Tracer() if args.trace else None
    probe = PROBES[workload.name]
    plain, traced, probe_s = [], [], []
    if not tracer:
        probe()  # unmeasured: the first call pays for page faults
        probe_s.append(probe())
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(plain) < MIN_JOBS:
        seconds, code, stdout, files = _run_job(cli, argvs, out_dir)
        plain.append(seconds)
        check(code, stdout, files)
        if tracer:
            seconds, code, stdout, files = _run_job(cli, argvs, out_dir, tracer, len(traced))
            traced.append(seconds)
            check(code, stdout, files)
        else:
            probe_s.append(probe())
    if args.record_reference and args.seed == DEFAULT_SEED:
        check.store_reference()

    job_s = statistics.median(plain)
    print(f"jobs: {len(plain)} untraced" + (f", {len(traced)} traced" if tracer else "")
          + f"; job_s_p50 = {job_s:.6g} s (wall); failed_ratio = "
          f"{check.failed / check.attempted:.4f} ({check.failed} of {check.attempted})")
    if tracer:
        metrics = {name: (value, unit_of(name)) for name, value in layer_metrics(tracer).items()}
        metrics["trace.overhead_ratio"] = (statistics.median(traced) / job_s - 1, "ratio")
        tracer.write(work / f"spans-seed{args.seed}.json")
    else:
        # each job at the probe's reference speed, from the probes either side of it
        scaled = [REF_S[workload.name] * seconds / ((probe_s[i] + probe_s[i + 1]) / 2)
                  for i, seconds in enumerate(plain)]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "job_ref_s_p50": (statistics.median(scaled), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (setup_s, "s"),
            "ok_ratio": (1 - check.failed / check.attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (work / f"result-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps({"env": env, "job_s": plain, "traced_job_s": traced, "probe_s": probe_s,
                    **result}, indent=2) + "\n")
    return result


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in a fresh process; prints
    one markdown table of end-to-end metrics and one of per-layer metrics."""
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            code = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
            if code != 0:
                raise SystemExit(f"{name} --trace {trace} exited {code}")
            path = WORK / name / f"result-trace{trace}-seed{args.seed}.json"
            results.setdefault(name, {})[trace] = json.loads(path.read_text())
    names = list(WORKLOADS)

    def row(label, unit, values):
        print(f"| {label} | {unit} | " + " | ".join(f"{v:.4g}" for v in values) + " |")

    for trace in (0, 1):
        print(f"\n| metric | unit | {' | '.join(names)} |")
        print("|---|---|" + "---|" * len(names))
        runs = [results[n][trace] for n in names]
        if trace == 0:
            row("jobs", "count", [len(r["job_s"]) for r in runs])
            row("job_s_p50", "s", [statistics.median(r["job_s"]) for r in runs])
            row("failed_ratio", "ratio", [r["failed"] / r["attempted"] for r in runs])
        for key, meta in runs[0]["metrics"].items():
            row(key, meta["unit"], [r["metrics"][key]["value"] for r in runs])
    every = [results[n][t] for n in names for t in (0, 1)]
    return {
        "correct": all(r["correct"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {f"{n}.{key}": meta for n in names for t in (0, 1)
                    for key, meta in results[n][t]["metrics"].items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [p for p in ("src/clusterlab/cli.py", "tests/synthwbc.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a "
              "clusterlab checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
