"""The four benchmark workloads: seeded input generators, the CLI jobs that
run on them, and the checks that a job's outputs are correct.

Each workload stresses a different layer, so that a change to one layer has
a workload that exercises it and others that bypass it (prediction: no
change there). The program only ever sees the generated file and the fixed
flags below; the benchmark seed feeds the generator alone. The CLI ``--seed``
is a constant so that every job of a run must produce the same bytes.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: seed at which outputs are compared against ``reference.json``
DEFAULT_SEED = 1
#: the seed every job passes to the program itself
CLI_SEED = 42


def _load_synthwbc(root: Path):
    """``tests/synthwbc.py`` of the checkout, imported by path, unmodified."""
    path = root / "tests" / "synthwbc.py"
    spec = importlib.util.spec_from_file_location("synthwbc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _blobs(rng, n: int, d: int, n_blobs: int = 3, min_gap: float = 8.0):
    """``n`` points in ``n_blobs`` unit-variance Gaussian blobs whose centers
    lie at least ``min_gap`` apart, so k = n_blobs is the clear structure at
    every seed. Returns (points, blob index per point), rows shuffled."""
    while True:
        centers = rng.uniform(0.0, 10.0, (n_blobs, d))
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        if gaps[np.triu_indices(n_blobs, 1)].min() >= min_gap:
            break
    blob = rng.permutation(np.arange(n) % n_blobs)
    return centers[blob] + rng.normal(0.0, 1.0, (n, d)), blob


def _csv(rows) -> bytes:
    return ("\n".join(",".join(row) for row in rows) + "\n").encode("ascii")


def blobs_csv(seed: int, n: int, d: int = 9) -> bytes:
    """Feature-only CSV of fresh 3-blob samples: no header, no id or class."""
    points, _ = _blobs(np.random.default_rng(seed), n, d)
    return _csv([f"{v:.6f}" for v in row] for row in points)


#: the one 3-blob sample that blobs-pam-sweep presents under every seed: its
#: 21 SWAP steps over k = 2..10 are the median of fresh samples 0..16
PAM_BASE_SEED = 15


def pam_blobs_csv(seed: int, n: int = 1500, d: int = 9) -> bytes:
    """One fixed 3-blob sample with its rows shuffled and each feature
    permuted and mirrored by ``seed``.

    PAM's work varies with the sample: fresh samples took 17 to 32 SWAP
    steps over k = 2..10, which spread the job time by a quarter and would
    hide the run-to-run noise the benchmark has to resolve. Min-max
    normalization maps every seed's table back to the same geometry up to
    rounding, so every seed does the same PAM work on different bytes.
    """
    points, _ = _blobs(np.random.default_rng(PAM_BASE_SEED), n, d)
    rng = np.random.default_rng(seed)
    mirror = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    points = (points * mirror)[rng.permutation(n)][:, rng.permutation(d)]
    return _csv([f"{v:.6f}" for v in row] for row in points)


#: share of table-roundtrip rows with a '?' cell, dropped by preprocess
ROUNDTRIP_MISSING = 0.02


def roundtrip_csv(seed: int, n: int = 50_000, d: int = 9) -> bytes:
    """WBC-shaped CSV: id, ``d`` features, a 2/4 class column (blob 0 is
    benign), and a '?' in one feature of ``ROUNDTRIP_MISSING`` of the rows."""
    rng = np.random.default_rng(seed)
    points, blob = _blobs(rng, n, d)
    missing = rng.random(n) < ROUNDTRIP_MISSING
    missing_col = rng.integers(0, d, n)
    rows = []
    for i in range(n):
        cells = [f"{v:.6f}" for v in points[i]]
        if missing[i]:
            cells[missing_col[i]] = "?"
        rows.append([str(1_000_000 + i), *cells, "2" if blob[i] == 0 else "4"])
    return _csv(rows)


def roundtrip_rows_after(seed: int, n: int = 50_000) -> int:
    """Rows that survive preprocess: those without a '?' cell."""
    rng = np.random.default_rng(seed)
    _blobs(rng, n, 9)
    return n - int((rng.random(n) < ROUNDTRIP_MISSING).sum())


# -- output checks --------------------------------------------------------------
# Each takes (files, stdout, seed) of one job, where files maps a path relative
# to the job's output directory to its bytes, and returns a list of problems.

def _check_analyze(files, stdout, seed, schema):
    import jsonschema

    expected = {f"{stem}.{ext}" for stem in
                ("scatter_kmeans", "scatter_pam", "silhouette_pam", "sweep")
                for ext in ("svg", "csv")} | {"report.json", "report.md"}
    problems = [f"missing output {name}" for name in sorted(expected - set(files))]
    if "report.json" in files:
        doc = json.loads(files["report.json"])
        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError as exc:
            problems.append(f"report.json fails the schema: {exc.message}")
        shape = (doc["dataset"]["rows"], doc["dataset"]["features"])
        if shape != (683, 9):
            problems.append(f"dataset is {shape[0]}x{shape[1]}, expected 683x9")
    return problems


def _check_pam_sweep(files, stdout, seed, schema):
    doc = json.loads(stdout)
    problems = []
    if doc["ks"] != list(range(2, 11)):
        problems.append(f"swept ks {doc['ks']}, expected 2..10")
    if doc["best_k"] != 3:
        problems.append(f"best k {doc['best_k']} on three blobs")
    return problems


def _check_tendency(files, stdout, seed, schema):
    doc = json.loads(stdout)
    problems = []
    if (doc["m"], doc["trials"]) != (600, 5):
        problems.append(f"m={doc['m']} trials={doc['trials']}, expected 600 and 5")
    if not 0.75 < doc["h"] <= 1.0:
        problems.append(f"Hopkins H = {doc['h']} on three blobs")
    return problems


def _check_roundtrip(files, stdout, seed, schema):
    rows = roundtrip_rows_after(seed)
    prep = json.loads(files["preprocess.json"])
    summary = json.loads(stdout)
    problems = []
    if (prep["rows_before"], prep["rows_after"]) != (50_000, rows):
        problems.append(f"preprocess kept {prep['rows_after']} of "
                        f"{prep['rows_before']} rows, expected {rows} of 50000")
    if (summary["rows"], summary["columns"], summary["missing_cells"]) != (rows, 10, 0):
        problems.append(f"inspect read {summary['rows']}x{summary['columns']} with "
                        f"{summary['missing_cells']} missing, expected {rows}x10 with 0")
    return problems


# -- workload definitions ----------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input_name: str
    #: inputs measured at DEFAULT_SEED (bytes of the generated file, and the
    #: n x d the clustering code sees after preprocessing)
    input_bytes: int
    n: int
    d: int
    #: the largest array the job holds, to read against the L2/L3 sizes
    working_set: str
    generate: Callable[[Path, int], bytes]
    #: CLI calls of one job; "{input}" and "{out}" are filled in per run
    argvs: tuple[tuple[str, ...], ...]
    check: Callable


WORKLOADS = {w.name: w for w in (
    Workload(
        name="wbc-analyze",
        why="the paper's workflow, the only workload that touches every module; "
            "sweep K-means fits dominate",
        input_name="wbc.data", input_bytes=19_757, n=683, d=9,
        working_set="dense D 683x683 float64 = 3.7 MB",
        generate=lambda root, seed: _load_synthwbc(root).synthetic_wbc_csv(seed),
        argvs=(("analyze", "{input}", "--k", "2", "--seed", str(CLI_SEED),
                "--out", "{out}"),),
        check=_check_analyze,
    ),
    Workload(
        name="blobs-pam-sweep",
        why="the O(n^2) PAM path: KMedoids.fit and the dense matrix dominate; "
            "no Lloyd and no Hopkins run",
        input_name="blobs.csv", input_bytes=128_292, n=1500, d=9,
        working_set="dense D 1500x1500 float64 = 18 MB",
        generate=lambda root, seed: pam_blobs_csv(seed),
        argvs=(("sweep", "{input}", "--algorithm", "pam", "--id-column", "none",
                "--label-column", "none", "--seed", str(CLI_SEED)),),
        check=_check_pam_sweep,
    ),
    Workload(
        name="blobs-tendency",
        why="Hopkins nearest-neighbour queries dominate; no n^2 matrix, so any "
            "O(n^2) allocation leaking into this path shows",
        input_name="blobs.csv", input_bytes=490_077, n=6000, d=9,
        working_set="X 6000x9 float64 = 0.43 MB",
        generate=lambda root, seed: blobs_csv(seed, 6000),
        argvs=(("tendency", "{input}", "--trials", "5", "--id-column", "none",
                "--label-column", "none", "--seed", str(CLI_SEED)),),
        check=_check_tendency,
    ),
    Workload(
        name="table-roundtrip",
        why="ingestion and writers alone: CSV parse, preprocess and ARFF write, "
            "then the ARFF read of the same bytes",
        input_name="table.csv", input_bytes=4_576_932, n=49_017, d=9,
        working_set="table 50000x11 float64 = 4.4 MB plus 4.6 MB of text",
        generate=lambda root, seed: roundtrip_csv(seed),
        argvs=(("preprocess", "{input}", "--export", "arff", "--out", "{out}"),
               ("inspect", "{out}/preprocessed.arff", "--json")),
        check=_check_roundtrip,
    ),
)}


if __name__ == "__main__":
    # python3 perfbench/workloads.py WORKLOAD SEED PATH: write one input file.
    # The benchmark generates in a child process so that the generator's
    # memory does not count in the peak RSS of the process that runs the jobs.
    import sys

    name, seed, path = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    path.write_bytes(WORKLOADS[name].generate(Path(__file__).resolve().parent.parent, seed))
