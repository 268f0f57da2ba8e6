"""The analysis pipeline: one run context and one function per stage.

The subcommands tendency, kmeans, pam, silhouette, sweep and analyze are
selections of these stages. Each stage builds its estimator in one place and
returns its report section together with the fitted object that later
stages or plots need. A run computes its pairwise distance matrix at most
once, on first use and after checking that it fits in memory, so stages that
need none (Hopkins, K-means without a silhouette) never allocate O(n^2).
"""

from __future__ import annotations

import os
from argparse import Namespace
from functools import cached_property

from ._checks import resolve_seed
from .dataset import Dataset, PreprocessReport
from .distances import DistanceMatrix, Metric, pairwise_distances
from .exceptions import AnalysisError
from .kmeans import KMeans
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
from .validation import check_k_range, silhouette_report, sweep_k


def physical_memory() -> int:
    """Bytes of physical memory of the host the program runs on."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class Run:
    """What the stages of one run share: the prepared data, the settings as
    the CLI parses them, the seed (resolved once), the metric, and the
    pairwise distance matrix once a stage has asked for it."""

    def __init__(self, data: Dataset, opts: Namespace):
        self.data = data
        self.opts = opts
        self.seed = resolve_seed(opts.seed)
        self.metric = Metric.coerce(opts.metric)

    @cached_property
    def dist(self) -> DistanceMatrix:
        """The pairwise distance matrix, computed on first use. Inputs whose
        condensed and dense matrices would not fit in physical memory
        together are refused before either is allocated."""
        n = self.data.n
        need = 8 * (n * (n - 1) // 2) + 8 * n * n
        if need > physical_memory():
            raise AnalysisError(
                f"{n} points need {need / 1e6:.1f} MB for their pairwise distance "
                f"matrices, more than the {physical_memory() / 1e6:.1f} MB of "
                "physical memory"
            )
        return pairwise_distances(self.data.features, self.metric)


# -- stages --------------------------------------------------------------------

def tendency(run: Run):
    """Hopkins statistic: (section, HopkinsResult)."""
    o = run.opts
    result = hopkins_statistic(run.data.features, m=o.m, trials=o.trials,
                               seed=run.seed, power=o.hopkins_power)
    return hopkins_section(result), result


def kmeans(run: Run, score: bool = False):
    """K-means at k: (section, fitted KMeans, its silhouette report when
    ``score``, else None)."""
    o = run.opts
    est = KMeans(n_clusters=o.k, init=o.init, n_init=o.restarts,
                 max_iter=o.max_iter, tol=o.tol,
                 random_state=run.seed).fit(run.data.features)
    naming = name_clusters(est.labels_, run.data.labels) if run.data.labels else None
    sil = silhouette_report(run.dist, est.labels_) if score else None
    return kmeans_section(est, naming, sil and sil.overall), est, sil


def pam(run: Run, score: bool):
    """PAM at k: (section, fitted KMedoids, its silhouette report when
    ``score``, else None)."""
    o = run.opts
    est = KMedoids(n_clusters=o.k, max_swap_iters=o.max_swap_iters,
                   metric=run.metric).fit(run.dist)
    sil = silhouette_report(run.dist, est.labels_) if score else None
    section = pam_section(est, row_ids=list(run.data.row_ids),
                          silhouette_overall=sil and sil.overall)
    return section, est, sil


def silhouette(run: Run):
    """Silhouette of the chosen algorithm at k: (section, SilhouetteReport)."""
    algorithm = run.opts.algorithm
    _, _, sil = (kmeans if algorithm == "kmeans" else pam)(run, score=True)
    return silhouette_section(sil, algorithm), sil


def sweep(run: Run, algorithm: str, **limits):
    """k sweep on the run's distance matrix: (section, KSweepResult).
    ``limits`` passes max_iter and tol on to the K-means fits. The k range
    is checked before the distance matrix is built."""
    o = run.opts
    check_k_range((o.k_min, o.k_max), run.data.n)
    result = sweep_k(run.data.features, k_range=(o.k_min, o.k_max),
                     algorithm=algorithm, metric=run.metric, seed=run.seed,
                     n_init=o.restarts, dist=run.dist, **limits)
    return sweep_section(result, algorithm), result


# -- analyze ---------------------------------------------------------------------

def _check_analyze(o: Namespace, n: int, d: int, m: int) -> None:
    """Every stage precondition of the pipeline, checked before any compute
    and before the output directory exists, so a bad run writes nothing."""
    problems = []
    if not 2 <= o.k <= n:
        problems.append(f"--k {o.k} must lie within [2, {n}] "
                        "(the silhouette needs at least 2 clusters)")
    if not 2 <= o.k_min < o.k_max <= n - 1:
        problems.append(f"sweep k range [{o.k_min}, {o.k_max}] must hold at "
                        f"least 2 values within [2, {n - 1}] (the sweep plot needs 2)")
    if not 1 <= m <= n - 1:
        problems.append(f"hopkins sample size {m} must lie within [1, {n - 1}]")
    if o.trials < 1:
        problems.append("--trials must be at least 1")
    if o.hopkins_power < 1:
        problems.append("--hopkins-power must be at least 1")
    if o.restarts < 1 or o.max_iter < 1:
        problems.append("--restarts and --max-iter must be at least 1")
    if o.tol < 0:
        problems.append("--tol must be non-negative")
    if o.max_swap_iters < 0:
        problems.append("--max-swap-iters must be non-negative")
    if d < 2:
        problems.append(f"the 2-D projection needs at least 2 features, got {d}")
    if problems:
        raise AnalysisError("; ".join(problems))


def _csv(header: str, rows) -> bytes:
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _scatter(stem, title, coords, labels, centers, axis_variance) -> dict:
    """One scatter plot as ``{stem}.svg`` and its data as ``{stem}.csv``."""
    svg = scatter_svg(coords, labels, centers=centers,
                      axis_variance=axis_variance, title=title)
    rows = ([(repr(float(x)), repr(float(y)), int(lab), 0)
             for (x, y), lab in zip(coords, labels)]
            + [(repr(float(x)), repr(float(y)), i, 1) for i, (x, y) in enumerate(centers)])
    return {f"{stem}.svg": svg.encode("utf-8"),
            f"{stem}.csv": _csv("x,y,cluster,is_center", rows)}


def analyze(run: Run, prep: PreprocessReport, source: dict):
    """The full pipeline, every artifact rendered to bytes and nothing
    written: ({file name: bytes}, the stdout summary). ``source`` holds the
    input settings that the report's config echoes."""
    o, data = run.opts, run.data
    m = o.m if o.m is not None else default_sample_size(data.n)
    _check_analyze(o, data.n, data.d, m)
    run.dist  # every later stage needs it: refuse a too-large input before any compute
    hopkins_sec, hopkins = tendency(run)
    kmeans_sec, km, _ = kmeans(run, score=True)
    pam_sec, pam_est, pam_sil = pam(run, score=True)
    sweep_sec, sw = sweep(run, "kmeans", max_iter=o.max_iter, tol=o.tol)

    config = {
        **source,
        "metric": run.metric.value,
        "seed": run.seed,
        "k": o.k,
        "init": o.init,
        "restarts": o.restarts,
        "max_iter": o.max_iter,
        "tol": o.tol,
        "max_swap_iters": o.max_swap_iters,
        "hopkins_m": m,
        "hopkins_trials": o.trials,
        "hopkins_power": o.hopkins_power,
        "sweep_k_min": o.k_min,
        "sweep_k_max": o.k_max,
        # a constant that no option sets: the key stays for byte-identical
        # reports until the next versioned change of the report format
        "threads": 1,
    }
    report = AnalysisReport(
        config=config,
        dataset=dataset_section(data),
        preprocessing=preprocessing_section(prep),
        hopkins=hopkins_sec,
        kmeans=kmeans_sec,
        pam=pam_sec,
        silhouette=silhouette_section(pam_sil, "pam"),
        sweep=sweep_sec,
    )
    files = {"report.json": emit_report(report, "json"),
             "report.md": emit_report(report, "markdown")}

    pca = PCA2D().fit(data.features)
    coords = pca.transform(data.features)
    axis_variance = tuple(float(v) for v in pca.explained_variance_ratio_)
    files.update(_scatter("scatter_kmeans", f"K-means clusters (k={o.k})", coords,
                          km.labels_, pca.transform(km.cluster_centers_), axis_variance))
    files.update(_scatter("scatter_pam", f"PAM clusters (k={o.k})", coords,
                          pam_est.labels_, coords[pam_est.medoid_indices_], axis_variance))
    files["silhouette_pam.svg"] = silhouette_svg(
        pam_sil, title=f"Silhouette plot, PAM (k={o.k})").encode("utf-8")
    files["silhouette_pam.csv"] = _csv(
        "rank,point_index,cluster,width",
        [(rank, int(idx), int(pam_est.labels_[idx]), repr(float(pam_sil.widths[idx])))
         for rank, idx in enumerate(pam_sil.plot_order)])
    files["sweep.svg"] = sweep_svg(sw, title="K-means sweep").encode("utf-8")
    files["sweep.csv"] = _csv(
        "k,avg_silhouette,wss",
        [(k, repr(float(s)), repr(float(w)))
         for k, s, w in zip(sw.ks, sw.avg_silhouette, sw.wss)])

    sizes = ", ".join(str(s) for s in km.cluster_sizes_)
    summary = (
        f"rows: {prep.rows_before} -> {prep.rows_after} ({prep.rows_dropped} dropped)\n"
        f"hopkins H = {hopkins.h:.4f} (m={hopkins.m}, trials={hopkins.trials})\n"
        f"k-means sizes: {sizes} (WSS {km.inertia_:.4f})\n"
        f"PAM silhouette = {pam_sil.overall:.4f}\n"
        f"sweep best k = {sw.best_k} (silhouette {max(sw.avg_silhouette):.4f})\n"
    )
    return files, summary
