"""The analysis pipeline: one run context and one function per stage.

The subcommands tendency, kmeans, pam, silhouette, sweep and analyze are
selections of these stages. Each stage builds its estimator in one place and
returns its report section together with the fitted object that later
stages or plots need. A run computes its pairwise distance matrix at most
once, on first use, so stages that need none (Hopkins, K-means without a
silhouette) never allocate O(n^2).

analyze is one stage graph: the distance matrix, the 2-D projection and
Hopkins' plan are made first and shared; Hopkins' searches
(``tendency.hopkins_searches``, as ``hopkins_statistic`` runs them), each
fit at k with its plots, and each point of the sweep
(``validation.sweep_point``, as ``sweep_k`` computes it) are then the items
of one ``_parallel.fork_map``, none of which maps in turn; the report and
the sweep's plot come last.
"""

from __future__ import annotations

import math
from argparse import Namespace
from functools import cached_property, partial

from ._checks import resolve_seed
from ._parallel import fork_map
from .dataset import Dataset, PreprocessReport
from .distances import DistanceMatrix, Metric, _check_memory, pairwise_distances
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
from .tendency import default_sample_size, hopkins_searches, hopkins_statistic
from .validation import check_k_range, silhouette_report, sweep_k, sweep_point, sweep_result


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
        """The pairwise distance matrix, computed on first use."""
        return pairwise_distances(self.data.features, self.metric)

    def pam_dist(self) -> DistanceMatrix:
        """:attr:`dist` for a stage that runs PAM: when it is yet to be
        computed, refused before any compute unless PAM's float32 copy of it
        fits in memory beside it (``distances._check_memory``)."""
        if "dist" not in self.__dict__:
            _check_memory(self.data.n, self.data.d, pam=True)
        return self.dist


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
                   metric=run.metric).fit(run.pam_dist())
    sil = silhouette_report(run.dist, est.labels_) if score else None
    section = pam_section(est, row_ids=list(run.data.row_ids),
                          silhouette_overall=sil and sil.overall)
    return section, est, sil


def silhouette(run: Run):
    """Silhouette of the chosen algorithm at k: (section, SilhouetteReport)."""
    algorithm = run.opts.algorithm
    _, _, sil = (kmeans if algorithm == "kmeans" else pam)(run, score=True)
    return silhouette_section(sil, algorithm), sil


def sweep(run: Run, algorithm: str):
    """k sweep on the run's distance matrix: (section, KSweepResult). The k
    range is checked before the distance matrix is built."""
    o = run.opts
    check_k_range((o.k_min, o.k_max), run.data.n)
    result = sweep_k(run.data.features, k_range=(o.k_min, o.k_max),
                     algorithm=algorithm, metric=run.metric, seed=run.seed,
                     n_init=o.restarts,
                     dist=run.pam_dist() if algorithm == "pam" else run.dist)
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
    if not 0 <= o.tol < float("inf"):  # NaN fails both
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
    input settings that the report's config echoes.

    The map's items are Hopkins' searches, K-means at k with its scatter,
    PAM at k with its scatter and silhouette plot, and the sweep's points,
    listed in the serial order, so an item that fails everywhere raises the
    serial path's error. The searches and the two fits are claimed first
    and the sweep's points after them, the largest k first, so the
    processes finish together on the short points: a fit's cost grows with
    the table (PAM's with n^2 * k) and no item waits alone at the end."""
    o, data = run.opts, run.data
    m = o.m if o.m is not None else default_sample_size(data.n)
    _check_analyze(o, data.n, data.d, m)
    run.pam_dist()  # every later stage needs it: refuse a too-large input before any compute
    pca = PCA2D().fit(data.features)
    coords = pca.transform(data.features)
    axis_variance = tuple(float(v) for v in pca.explained_variance_ratio_)
    search, searches, finish = hopkins_searches(data.features, o.m, o.trials, run.seed,
                                                o.hopkins_power)
    point = partial(sweep_point, X=data.features, dist=run.dist, algorithm="kmeans",
                    seed=run.seed, n_init=o.restarts, max_iter=o.max_iter, tol=o.tol)

    def stage(item):
        """A Hopkins search, a sweep point, or a fit's ({report section
        name: section}, {file name: bytes}, its line of the summary)."""
        if isinstance(item, tuple):  # ("hopkins", one of Hopkins' searches)
            return search(item[1])
        if item == "kmeans":
            section, km, _ = kmeans(run, score=True)
            files = _scatter("scatter_kmeans", f"K-means clusters (k={o.k})", coords,
                             km.labels_, pca.transform(km.cluster_centers_), axis_variance)
            sizes = ", ".join(str(s) for s in km.cluster_sizes_)
            return {"kmeans": section}, files, f"k-means sizes: {sizes} (WSS {km.inertia_:.4f})\n"
        if item == "pam":
            section, est, sil = pam(run, score=True)
            files = _scatter("scatter_pam", f"PAM clusters (k={o.k})", coords,
                             est.labels_, coords[est.medoid_indices_], axis_variance)
            files["silhouette_pam.svg"] = silhouette_svg(
                sil, title=f"Silhouette plot, PAM (k={o.k})").encode("utf-8")
            files["silhouette_pam.csv"] = _csv(
                "rank,point_index,cluster,width",
                [(rank, int(idx), int(est.labels_[idx]), repr(float(sil.widths[idx])))
                 for rank, idx in enumerate(sil.plot_order)])
            return ({"pam": section, "silhouette": silhouette_section(sil, "pam")}, files,
                    f"PAM silhouette = {sil.overall:.4f}\n")
        return point(item)

    ks = range(o.k_min, o.k_max + 1)
    # Hopkins and the fits first, then the points from the largest k down:
    # the last claims are the shortest points, whatever a fit costs
    results = fork_map(stage, [*(("hopkins", s) for s in searches), "kmeans", "pam", *ks],
                       cost=lambda item: item if isinstance(item, int) else math.inf)
    n = len(searches)
    h, fits, sw = finish(results[:n]), results[n:n + 2], sweep_result(ks, results[n + 2:])

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
        # a constant that no option sets, and not the run's process count:
        # the items of analyze's map run in one forked process per
        # usable CPU (see _parallel.fork_map). The key keeps its bytes for
        # byte-identical reports until the next versioned change of the
        # report format drops it.
        "threads": 1,
    }
    report = AnalysisReport(
        config=config,
        dataset=dataset_section(data),
        preprocessing=preprocessing_section(prep),
        hopkins=hopkins_section(h),
        **{name: section for sections, _, _ in fits for name, section in sections.items()},
        sweep=sweep_section(sw, "kmeans"),
    )
    files = {"report.json": emit_report(report, "json"),
             "report.md": emit_report(report, "markdown")}
    for _, fit_files, _ in fits:
        files.update(fit_files)
    files["sweep.svg"] = sweep_svg(sw, title="K-means sweep").encode("utf-8")
    files["sweep.csv"] = _csv(
        "k,avg_silhouette,wss",
        [(k, repr(float(s)), repr(float(w)))
         for k, s, w in zip(sw.ks, sw.avg_silhouette, sw.wss)])

    summary = (
        f"rows: {prep.rows_before} -> {prep.rows_after} ({prep.rows_dropped} dropped)\n"
        f"hopkins H = {h.h:.4f} (m={h.m}, trials={h.trials})\n"
        + "".join(line for _, _, line in fits)
        + f"sweep best k = {sw.best_k} (silhouette {max(sw.avg_silhouette):.4f})\n"
    )
    return files, summary
