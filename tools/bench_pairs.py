"""Run the benchmark on two checkouts in alternated pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...] [--pairs 10]
        [--seconds 25] [--seed 1] [--json PATH]

PARENT and CHANGE are two checkouts of clusterlab. ``--workload`` may
repeat, or be ``all``, every workload of the parent's ``BENCHMARK.json``;
the workloads run one after another. Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each, the parent first in even pairs (0, 2, ...) and the change first in odd
ones. It prints every run's end-to-end metrics and its ``correct`` as they
come, then, per workload, one row per metric: both medians and quartiles,
the parent's interquartile range (IQR), in how many pairs the change read
better, and a verdict (see :func:`verdict`). A tie counts for neither side.
Which direction is better comes from ``better`` in the parent's
``BENCHMARK.json``, and each metric's relative bound from ``bound``; so do
the metric names.
``--json PATH`` also writes every run (its pair, side, metrics, ``correct``
and the object of its ``env:`` line), each workload's summary rows with
their verdicts and each
checkout's code-line total of ``src/clusterlab``, as ``tools/code_lines.py``
counts it, to PATH, once every run has given a result.

It exits 1 when a run's last line of output is not a result (it stops
there) or when a run reads ``correct: false`` (it finishes every workload's
pairs first). Needs only the standard library; it reads ``perfbench/`` and
``BENCHMARK.json`` and changes neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout: str) -> dict | None:
    """The JSON result on the last line of a run's output, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or not {"correct", "metrics"} <= result.keys():
        return None
    return result


def parse_env(stdout: str) -> dict | None:
    """The object of a run's ``env:`` line, or None."""
    for line in stdout.splitlines():
        if line.startswith("env: "):
            try:
                return json.loads(line[len("env: "):])
            except json.JSONDecodeError:
                return None
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(p: list[float], c: list[float], direction: str, bound: float) -> str:
    """What the pairs ``zip(p, c)`` of one metric say, ``bound`` being the
    largest change allowed, relative to the parent's median:
      - "gain": the change reads better in at least 9 of 10 pairs, and its
        median is better than the parent's by more than the parent's IQR;
      - "worse": the change's median is worse by more than the bound;
      - "unresolved": the parent's IQR is wider than the bound, unless
        every change run reads better than every parent run;
      - "within bound" otherwise.
    The first that holds is the verdict."""
    sign = 1 if direction == "higher" else -1
    (p1, pm, p3), cm = quartiles(p), quartiles(c)[1]
    won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    if 10 * won >= 9 * len(p) and sign * (cm - pm) > p3 - p1:
        return "gain"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    if p3 - p1 > bound * abs(pm) and not min(sign * b for b in c) > max(sign * a for a in p):
        return "unresolved"
    return "within bound"


def summarize(parent: list[dict], change: list[dict], better: dict[str, str],
              bounds: dict[str, float]) -> list[dict]:
    """One row per metric of ``better`` (name -> "lower" or "higher") over
    the pairs ``zip(parent, change)``, each run a {metric: value} dict, with
    its :func:`verdict` under the metric's relative bound in ``bounds``."""
    rows = []
    for name, direction in better.items():
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1 if direction == "higher" else -1
        p_q, c_q = quartiles(p), quartiles(c)
        rows.append({
            "metric": name,
            "better": direction,
            "parent": p_q,
            "change": c_q,
            "parent_iqr": p_q[2] - p_q[0],
            "won": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "lost": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "pairs": len(p),
            "bound": bounds[name],
            "verdict": verdict(p, c, direction, bounds[name]),
        })
    return rows


def format_summary(rows: list[dict]) -> str:
    """The rows of :func:`summarize` as a markdown table."""
    lines = ["| metric | better | parent median [q1, q3] | change median [q1, q3] "
             "| parent IQR | change better in | verdict |",
             "|---|---|---|---|---|---|---|"]
    for row in rows:
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        lines.append(f"| {row['metric']} | {row['better']} | {p2:.4g} [{p1:.4g}, {p3:.4g}] "
                     f"| {c2:.4g} [{c1:.4g}, {c3:.4g}] | {row['parent_iqr']:.4g} "
                     f"| {row['won']} of {row['pairs']} ({row['lost']} worse) "
                     f"| {row['verdict']} |")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    result = parse_result(proc.stdout) if proc.returncode == 0 else None
    return result and {**result, "env": parse_env(proc.stdout)}


def code_line_total(checkout: Path) -> int:
    """The total that ``tools/code_lines.py`` prints for the checkout's
    ``src/clusterlab``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("code_lines.py")),
                           str(checkout / "src" / "clusterlab")],
                          capture_output=True, text=True, check=True)
    return int(proc.stdout.split()[-2])


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, action="append",
                   help="a workload of BENCHMARK.json, or all; may repeat")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", type=Path, default=None,
                   help="also write every run and the summaries to this file")
    args = p.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w["name"] for w in spec["workloads"]] if "all" in args.workload
                 else args.workload)
    all_correct = True
    record = {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed, "workloads": {}}
    for workload in workloads:
        runs, seen = {"parent": [], "change": []}, []
        for pair in range(args.pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                result = run_once(getattr(args, side), workload, args.seed, args.seconds)
                if result is None:
                    print(f"error: {workload}, pair {pair}, {side}: the run's last line is "
                          "not a result", file=sys.stderr)
                    return 1
                metrics = {name: result["metrics"][name]["value"] for name in better}
                runs[side].append(metrics)
                seen.append({"pair": pair, "side": side, "metrics": result["metrics"],
                             "correct": result["correct"], "env": result.get("env")})
                all_correct &= result["correct"] is True
                print(f"{workload} pair {pair} {side}: " + " ".join(
                    f"{name}={value:.6g}" for name, value in metrics.items())
                    + f" correct={json.dumps(result['correct'])}", flush=True)
        rows = summarize(runs["parent"], runs["change"], better, bounds)
        record["workloads"][workload] = {"runs": seen, "summary": rows}
        print(f"\n{workload}, {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s")
        print(format_summary(rows) + "\n", flush=True)
    if args.json:
        record["code_lines"] = {side: code_line_total(getattr(args, side))
                                for side in ("parent", "change")}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
