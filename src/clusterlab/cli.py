"""Command-line driver.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 analysis error.
Every run with identical arguments and input bytes writes byte-identical
outputs (seeds are explicit or resolved once and echoed in the report).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._checks import resolve_seed
from .dataset import BENIGN, CsvFormat, RawTable, parse_arff, parse_csv, preprocess, write_arff
from .distances import Metric, pairwise_distances
from .exceptions import AnalysisError, ClusterlabError, InputError
from .kmeans import INIT_KMEANS_PP, INIT_RANDOM, KMeans
from .kmedoids import KMedoids
from .projection import PCA2D
from .report import (
    AnalysisReport,
    dataset_section,
    emit_report,
    hopkins_section,
    kmeans_section,
    name_clusters,
    pam_section,
    preprocessing_section,
    silhouette_section,
    sweep_section,
)
from .svgplot import scatter_svg, silhouette_svg, sweep_svg
from .tendency import default_sample_size, hopkins_statistic
from .validation import silhouette_report, sweep_k


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this tool reserves 2 for input
    errors, so usage errors exit 1 instead."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_options(p):
    p.add_argument("input", help="input table (CSV or ARFF)")
    p.add_argument("--format", choices=["csv", "arff"],
                   help="input format (default: by file extension)")
    p.add_argument("--delimiter", default=",", help="CSV delimiter (default ,)")
    p.add_argument("--header", action="store_true",
                   help="first CSV line is a header")
    p.add_argument("--missing", default="?",
                   help="CSV missing-value marker (default ?)")
    p.add_argument("--id-column", default="0",
                   help="id column name or index, or 'none' (default: first column)")
    p.add_argument("--label-column", default="-1",
                   help="class column name or index, or 'none' (default: last column)")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip min-max normalization")
    p.add_argument("--json", action="store_true", help="print JSON to stdout")


def _add_common_options(p):
    p.add_argument("--metric", default="euclidean",
                   choices=[m.value for m in Metric], help="distance metric")
    p.add_argument("--seed", type=int, default=None, help="random seed")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for the sweep (never changes results)")


def build_parser() -> _Parser:
    parser = _Parser(prog="clusterlab", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"clusterlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a raw table")
    _add_io_options(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("preprocess", help="clean, normalize and export")
    _add_io_options(p)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--export", choices=["csv", "arff"], default="csv",
                   help="cleaned-table export format")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("tendency", help="Hopkins clustering-tendency statistic")
    _add_io_options(p)
    _add_common_options(p)
    p.add_argument("--m", type=int, default=None,
                   help="points per trial (default: 10%% of n)")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--hopkins-power", type=int, default=1,
                   help="distance exponent (pass the dimension for the d-power variant)")
    p.add_argument("--out", default=None,
                   help="directory to also write tendency.json into")
    p.set_defaults(func=cmd_tendency)

    for name, fn in (("kmeans", cmd_kmeans), ("pam", cmd_pam),
                     ("silhouette", cmd_silhouette)):
        p = sub.add_parser(name, help=f"run {name} at a fixed k")
        _add_io_options(p)
        _add_common_options(p)
        p.add_argument("--k", type=int, default=2)
        if name in ("kmeans", "silhouette"):
            p.add_argument("--restarts", type=int, default=25)
            p.add_argument("--init", choices=[INIT_KMEANS_PP, INIT_RANDOM],
                           default=INIT_KMEANS_PP)
            p.add_argument("--max-iter", type=int, default=100)
            p.add_argument("--tol", type=float, default=1e-9)
        if name in ("pam", "silhouette"):
            p.add_argument("--max-swap-iters", type=int, default=200)
        if name == "silhouette":
            p.add_argument("--algorithm", choices=["kmeans", "pam"], default="pam")
        p.add_argument("--out", default=None,
                       help=f"directory to also write {name}.json into")
        p.set_defaults(func=fn)

    p = sub.add_parser("sweep", help="k sweep with silhouette and WSS curves")
    _add_io_options(p)
    _add_common_options(p)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--algorithm", choices=["kmeans", "pam"], default="kmeans")
    p.add_argument("--restarts", type=int, default=25)
    p.add_argument("--out", default=None,
                   help="directory to also write sweep.json into")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="full pipeline with report and plots")
    _add_io_options(p)
    _add_common_options(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--restarts", type=int, default=25)
    p.add_argument("--init", choices=[INIT_KMEANS_PP, INIT_RANDOM],
                   default=INIT_KMEANS_PP)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-swap-iters", type=int, default=200)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--hopkins-power", type=int, default=1)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--out", default="results", help="output directory")
    p.set_defaults(func=cmd_analyze)

    return parser


# -- input handling -----------------------------------------------------------

def _load_table(args) -> RawTable:
    path = Path(args.input)
    fmt = args.format or ("arff" if path.suffix.lower() == ".arff" else "csv")
    data = path.read_bytes()
    if fmt == "arff":
        return parse_arff(data)
    return parse_csv(data, CsvFormat(has_header=args.header,
                                     delimiter=args.delimiter,
                                     missing=args.missing))


def _resolve_column(spec: str, names) -> str | None:
    if spec is None or spec.lower() == "none":
        return None
    try:
        idx = int(spec)
    except ValueError:
        return spec  # a column name; existence checked downstream
    if not -len(names) <= idx < len(names):
        raise InputError(f"column index {idx} out of range for {len(names)} columns")
    return names[idx]


def _prepare(args):
    table = _load_table(args)
    id_col = _resolve_column(args.id_column, table.column_names)
    label_col = _resolve_column(args.label_column, table.column_names)
    if id_col is not None and id_col == label_col:
        raise InputError(
            f"id column and label column are both {id_col!r}; "
            "pass --id-column none or --label-column none"
        )
    data, prep = preprocess(table, id_column=id_col, label_column=label_col,
                            normalize=not args.no_normalize)
    return table, data, prep, id_col, label_col


def _print_json(section) -> None:
    print(json.dumps(section, indent=2, sort_keys=True, allow_nan=False))


def _emit_section(section, args, name: str) -> None:
    """Print a command's JSON and mirror it into --out when given."""
    payload = json.dumps(section, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if getattr(args, "out", None):
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.json").write_text(payload)
    sys.stdout.write(payload)


# -- subcommands ----------------------------------------------------------------

def cmd_inspect(args) -> int:
    table = _load_table(args)
    missing = table.missing_mask()
    summary = {
        "rows": table.n_rows,
        "columns": table.n_cols,
        "column_names": list(table.column_names),
        "missing_cells": int(missing.sum()),
        "rows_with_missing": int(missing.any(axis=1).sum()),
        "missing_per_column": {
            name: int(missing[:, i].sum())
            for i, name in enumerate(table.column_names)
            if missing[:, i].any()
        },
    }
    if args.json:
        _print_json(summary)
    else:
        print(f"rows: {summary['rows']}  columns: {summary['columns']}")
        print(f"columns: {', '.join(summary['column_names'])}")
        print(f"missing cells: {summary['missing_cells']} "
              f"in {summary['rows_with_missing']} rows")
        for name, count in summary["missing_per_column"].items():
            print(f"  {name}: {count}")
    return 0


def _export_table(data) -> RawTable:
    """Cleaned dataset as a writable table: features plus a 2/4 class column."""
    names = list(data.feature_names)
    cells = data.features
    if data.labels is not None:
        codes = np.array([[2.0 if lab == BENIGN else 4.0] for lab in data.labels])
        cells = np.hstack([cells, codes])
        names.append("class")
    return RawTable(tuple(names), cells)


def cmd_preprocess(args) -> int:
    table, data, prep, id_col, label_col = _prepare(args)
    section = preprocessing_section(prep)
    out_table = _export_table(data)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.export == "arff":
            (out_dir / "preprocessed.arff").write_bytes(
                write_arff(out_table, relation_name="preprocessed"))
        else:
            lines = [",".join(out_table.column_names)]
            lines += [",".join(repr(float(v)) for v in row) for row in out_table.cells]
            (out_dir / "preprocessed.csv").write_bytes(
                ("\n".join(lines) + "\n").encode())
        (out_dir / "preprocess.json").write_bytes(
            (json.dumps(section, indent=2, sort_keys=True) + "\n").encode())
    if args.json or not args.out:
        _print_json(section)
    return 0


def cmd_tendency(args) -> int:
    _, data, _, _, _ = _prepare(args)
    result = hopkins_statistic(data.features, m=args.m, trials=args.trials,
                               seed=args.seed, power=args.hopkins_power)
    _emit_section(hopkins_section(result), args, "tendency")
    return 0


def cmd_kmeans(args) -> int:
    _, data, _, _, _ = _prepare(args)
    est = KMeans(n_clusters=args.k, init=args.init, n_init=args.restarts,
                 max_iter=args.max_iter, tol=args.tol,
                 random_state=args.seed).fit(data.features)
    naming = name_clusters(est.labels_, data.labels) if data.labels else None
    _emit_section(kmeans_section(est, naming), args, "kmeans")
    return 0


def cmd_pam(args) -> int:
    _, data, _, _, _ = _prepare(args)
    dist = pairwise_distances(data.features, args.metric)
    est = KMedoids(n_clusters=args.k,
                   max_swap_iters=args.max_swap_iters,
                   metric=Metric.coerce(args.metric)).fit(dist)
    sil = silhouette_report(dist, est.labels_).overall if args.k >= 2 else None
    _emit_section(pam_section(est, row_ids=list(data.row_ids), silhouette_overall=sil),
                  args, "pam")
    return 0


def cmd_silhouette(args) -> int:
    _, data, _, _, _ = _prepare(args)
    dist = pairwise_distances(data.features, args.metric)
    if args.algorithm == "kmeans":
        est = KMeans(n_clusters=args.k, init=args.init, n_init=args.restarts,
                     max_iter=args.max_iter, tol=args.tol,
                     random_state=args.seed).fit(data.features)
    else:
        est = KMedoids(n_clusters=args.k, max_swap_iters=args.max_swap_iters,
                       metric=Metric.coerce(args.metric)).fit(dist)
    rep = silhouette_report(dist, est.labels_)
    _emit_section(silhouette_section(rep, args.algorithm), args, "silhouette")
    return 0


def cmd_sweep(args) -> int:
    _, data, _, _, _ = _prepare(args)
    result = sweep_k(data.features, k_range=(args.k_min, args.k_max),
                     algorithm=args.algorithm, metric=args.metric,
                     seed=args.seed, n_init=args.restarts, threads=args.threads)
    _emit_section(sweep_section(result, args.algorithm), args, "sweep")
    return 0


def _plot_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def cmd_analyze(args) -> int:
    """The full pipeline; see run_pipeline."""
    return run_pipeline(args)


def _check_analyze(args, n: int, d: int, m: int) -> None:
    """Every stage precondition of the pipeline, checked before any compute
    and before the output directory exists, so a bad run writes nothing."""
    problems = []
    if not 2 <= args.k <= n:
        problems.append(f"--k {args.k} must lie within [2, {n}] "
                        "(the silhouette needs at least 2 clusters)")
    if not 2 <= args.k_min < args.k_max <= n - 1:
        problems.append(f"sweep k range [{args.k_min}, {args.k_max}] must hold at "
                        f"least 2 values within [2, {n - 1}] (the sweep plot needs 2)")
    if not 1 <= m <= n - 1:
        problems.append(f"hopkins sample size {m} must lie within [1, {n - 1}]")
    if args.trials < 1:
        problems.append("--trials must be at least 1")
    if args.restarts < 1 or args.max_iter < 1:
        problems.append("--restarts and --max-iter must be at least 1")
    if args.tol < 0:
        problems.append("--tol must be non-negative")
    if d < 2:
        problems.append(f"the 2-D projection needs at least 2 features, got {d}")
    if problems:
        raise AnalysisError("; ".join(problems))


def run_pipeline(args) -> int:
    table, data, prep, id_col, label_col = _prepare(args)
    seed = resolve_seed(args.seed)
    metric = Metric.coerce(args.metric)
    m = args.m if args.m is not None else default_sample_size(data.n)
    _check_analyze(args, data.n, data.d, m)
    hopkins = hopkins_statistic(data.features, m=m, trials=args.trials,
                                seed=seed, power=args.hopkins_power)

    km = KMeans(n_clusters=args.k, init=args.init, n_init=args.restarts,
                max_iter=args.max_iter, tol=args.tol,
                random_state=seed).fit(data.features)
    naming = name_clusters(km.labels_, data.labels) if data.labels else None

    dist = pairwise_distances(data.features, metric)
    pam = KMedoids(n_clusters=args.k, max_swap_iters=args.max_swap_iters,
                   metric=metric).fit(dist)

    km_sil = silhouette_report(dist, km.labels_)
    pam_sil = silhouette_report(dist, pam.labels_)

    sweep = sweep_k(data.features, k_range=(args.k_min, args.k_max),
                    algorithm="kmeans", metric=metric, seed=seed,
                    n_init=args.restarts, max_iter=args.max_iter,
                    tol=args.tol, threads=args.threads)

    pca = PCA2D().fit(data.features)
    coords = pca.transform(data.features)
    axis_variance = (float(pca.explained_variance_ratio_[0]),
                     float(pca.explained_variance_ratio_[1]))

    config = {
        "input": str(args.input),
        "format": args.format or ("arff" if Path(args.input).suffix.lower() == ".arff" else "csv"),
        "delimiter": args.delimiter,
        "header": bool(args.header),
        "missing_marker": args.missing,
        "id_column": id_col,
        "label_column": label_col,
        "normalize": not args.no_normalize,
        "metric": metric.value,
        "seed": seed,
        "k": args.k,
        "init": args.init,
        "restarts": args.restarts,
        "max_iter": args.max_iter,
        "tol": args.tol,
        "max_swap_iters": args.max_swap_iters,
        "hopkins_m": m,
        "hopkins_trials": args.trials,
        "hopkins_power": args.hopkins_power,
        "sweep_k_min": args.k_min,
        "sweep_k_max": args.k_max,
        "threads": args.threads,
    }
    report = AnalysisReport(
        config=config,
        dataset=dataset_section(data),
        preprocessing=preprocessing_section(prep),
        hopkins=hopkins_section(hopkins),
        kmeans=kmeans_section(km, naming, km_sil.overall),
        pam=pam_section(pam, row_ids=list(data.row_ids),
                        silhouette_overall=pam_sil.overall),
        silhouette=silhouette_section(pam_sil, "pam"),
        sweep=sweep_section(sweep, "kmeans"),
    )

    report_json = emit_report(report, "json")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_bytes(report_json)
    (out_dir / "report.md").write_bytes(emit_report(report, "markdown"))

    km_centers_2d = pca.transform(km.cluster_centers_)
    pam_centers_2d = coords[pam.medoid_indices_]

    scatter_km = scatter_svg(coords, km.labels_, centers=km_centers_2d,
                             axis_variance=axis_variance,
                             title=f"K-means clusters (k={args.k})")
    scatter_pam = scatter_svg(coords, pam.labels_, centers=pam_centers_2d,
                              axis_variance=axis_variance,
                              title=f"PAM clusters (k={args.k})")
    sil_svg = silhouette_svg(pam_sil, title=f"Silhouette plot, PAM (k={args.k})")
    sw_svg = sweep_svg(sweep, title="K-means sweep")

    (out_dir / "scatter_kmeans.svg").write_bytes(scatter_km.encode("utf-8"))
    (out_dir / "scatter_pam.svg").write_bytes(scatter_pam.encode("utf-8"))
    (out_dir / "silhouette_pam.svg").write_bytes(sil_svg.encode("utf-8"))
    (out_dir / "sweep.svg").write_bytes(sw_svg.encode("utf-8"))

    _plot_csv(out_dir / "scatter_kmeans.csv", "x,y,cluster,is_center",
              [(repr(float(x)), repr(float(y)), int(l), 0)
               for (x, y), l in zip(coords, km.labels_)]
              + [(repr(float(x)), repr(float(y)), i, 1)
                 for i, (x, y) in enumerate(km_centers_2d)])
    _plot_csv(out_dir / "scatter_pam.csv", "x,y,cluster,is_center",
              [(repr(float(x)), repr(float(y)), int(l), 0)
               for (x, y), l in zip(coords, pam.labels_)]
              + [(repr(float(x)), repr(float(y)), i, 1)
                 for i, (x, y) in enumerate(pam_centers_2d)])
    _plot_csv(out_dir / "silhouette_pam.csv", "rank,point_index,cluster,width",
              [(rank, int(idx), int(pam.labels_[idx]),
                repr(float(pam_sil.widths[idx])))
               for rank, idx in enumerate(pam_sil.plot_order)])
    _plot_csv(out_dir / "sweep.csv", "k,avg_silhouette,wss",
              [(k, repr(float(s)), repr(float(w)))
               for k, s, w in zip(sweep.ks, sweep.avg_silhouette, sweep.wss)])

    if args.json:
        sys.stdout.write(report_json.decode("utf-8"))
    else:
        sizes = ", ".join(str(s) for s in km.cluster_sizes_)
        print(f"rows: {prep.rows_before} -> {prep.rows_after} "
              f"({prep.rows_dropped} dropped)")
        print(f"hopkins H = {hopkins.h:.4f} (m={hopkins.m}, trials={hopkins.trials})")
        print(f"k-means sizes: {sizes} (WSS {km.inertia_:.4f})")
        print(f"PAM silhouette = {pam_sil.overall:.4f}")
        print(f"sweep best k = {sweep.best_k} "
              f"(silhouette {max(sweep.avg_silhouette):.4f})")
        print(f"artifacts written to {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: cannot read input file: {exc.filename}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ClusterlabError, ValueError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
