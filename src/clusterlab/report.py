"""Report assembly, majority-label cluster naming, and serialization.

The JSON form is canonical (sorted keys, two-space indent, trailing newline)
so identical analyses serialize to identical bytes. The packaged schema
document describes it; :func:`validate_report_dict` checks a document
against it, and needs ``jsonschema``, which only the tests install.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import __version__
from ._checks import distinct
from .dataset import BENIGN, Dataset, PreprocessReport
from .exceptions import NoLabelsError
from .tendency import HopkinsResult
from .validation import KSweepResult, SilhouetteReport


def round_percent(numerator: float, denominator: float) -> int:
    """Nearest whole percent, half away from zero (59% / 41% style)."""
    if denominator == 0:
        return 0
    return int(math.floor(100.0 * numerator / denominator + 0.5))


@dataclass(frozen=True)
class ClusterName:
    name: str
    purity: float
    size: int
    class_counts: dict


@dataclass(frozen=True)
class ClusterNaming:
    """Majority-class name for every cluster plus the overall agreement,
    i.e. the fraction of points whose class matches their cluster's name."""

    clusters: dict  # cluster id -> ClusterName
    agreement: float


def name_clusters(labels, classes) -> ClusterNaming:
    """Name each cluster after the majority class of its members.

    Ties break toward benign. Clustering itself never sees the classes;
    this mapping exists purely for reporting.
    """
    labels = np.asarray(labels)
    if classes is None:
        raise NoLabelsError("no class labels available for naming")
    classes = list(classes)
    if len(classes) != labels.shape[0] or len(classes) == 0:
        raise NoLabelsError(
            f"need one class per point: {len(classes)} classes for {labels.shape[0]} points"
        )

    clusters = {}
    agree = 0
    for cid in (int(c) for c in distinct(labels)[0]):
        counts = Counter(classes[i] for i in np.flatnonzero(labels == cid))
        size = counts.total()
        top = max(counts.values())
        winners = sorted(name for name, c in counts.items() if c == top)
        name = BENIGN if BENIGN in winners else winners[0]
        clusters[cid] = ClusterName(
            name=name,
            purity=counts[name] / size,
            size=size,
            class_counts=dict(sorted(counts.items())),
        )
        agree += counts[name]
    return ClusterNaming(clusters=clusters, agreement=agree / len(classes))


# -- section builders ---------------------------------------------------------

def dataset_section(data: Dataset) -> dict:
    section = {
        "rows": int(data.n),
        "features": int(data.d),
        "feature_names": list(data.feature_names),
        "normalized": bool(data.normalized),
        "class_distribution": None,
    }
    if data.labels is not None:
        section["class_distribution"] = dict(sorted(Counter(data.labels).items()))
    return section


def preprocessing_section(report: PreprocessReport) -> dict:
    return {
        "rows_before": report.rows_before,
        "rows_after": report.rows_after,
        "rows_dropped": report.rows_dropped,
        "dropped_row_ids": list(report.dropped_row_ids),
        "columns_dropped": list(report.columns_dropped),
        "norm_params": {
            name: [float(lo), float(hi)]
            for name, (lo, hi) in report.norm_params.items()
        },
    }


def hopkins_section(result: HopkinsResult) -> dict:
    return {
        "h": float(result.h),
        "m": int(result.m),
        "trials": int(result.trials),
        "per_trial": [float(v) for v in result.per_trial],
        "seed": int(result.seed),
        "degenerate": bool(result.degenerate),
    }


def kmeans_section(est, naming: ClusterNaming | None = None,
                   silhouette_overall: float | None = None) -> dict:
    sizes = [int(s) for s in est.cluster_sizes_]
    total = sum(sizes)
    section = {
        "k": int(est.n_clusters),
        "sizes": sizes,
        "percentages": [round_percent(s, total) for s in sizes],
        "wss": float(est.inertia_),
        "iterations": int(est.n_iter_),
        "converged": bool(est.converged_),
        "restarts": int(est.n_init),
        "best_restart": int(est.best_restart_),
        "init": str(est.init),
        "seed": int(est.random_state_),
        "silhouette_overall": None if silhouette_overall is None else float(silhouette_overall),
        "naming": None,
        "label_agreement": None,
    }
    if naming is not None:
        section["naming"] = {
            str(cid): {
                "name": cn.name,
                "purity": float(cn.purity),
                "size": cn.size,
                "percent": round_percent(cn.size, total),
                "class_counts": cn.class_counts,
            }
            for cid, cn in naming.clusters.items()
        }
        section["label_agreement"] = float(naming.agreement)
    return section


def pam_section(est, row_ids=None, silhouette_overall: float | None = None) -> dict:
    medoids = [int(m) for m in est.medoid_indices_]
    return {
        "k": int(est.n_clusters),
        "sizes": [int(s) for s in est.cluster_sizes_],
        "medoid_indices": medoids,
        "medoid_row_ids": None if row_ids is None else [row_ids[m] for m in medoids],
        "cost": float(est.inertia_),
        "swaps": int(est.n_swaps_),
        "converged": bool(est.converged_),
        "silhouette_overall": None if silhouette_overall is None else float(silhouette_overall),
    }


def silhouette_section(report: SilhouetteReport, algorithm: str) -> dict:
    return {
        "algorithm": algorithm,
        "overall": float(report.overall),
        "cluster_labels": list(report.cluster_labels),
        "cluster_sizes": list(report.cluster_sizes),
        "cluster_means": [float(m) for m in report.cluster_means],
    }


def sweep_section(result: KSweepResult, algorithm: str) -> dict:
    return {
        "algorithm": algorithm,
        "ks": list(result.ks),
        "avg_silhouette": [float(v) for v in result.avg_silhouette],
        "wss": [float(v) for v in result.wss],
        "best_k": int(result.best_k),
    }


# -- the aggregate -------------------------------------------------------------

@dataclass
class AnalysisReport:
    """Everything one pipeline run produced; sections are None when the
    corresponding stage did not run. All numbers are recomputable from the
    echoed config plus the input file."""

    config: dict
    dataset: dict | None = None
    preprocessing: dict | None = None
    hopkins: dict | None = None
    kmeans: dict | None = None
    pam: dict | None = None
    silhouette: dict | None = None
    sweep: dict | None = None
    version: str = __version__

    def to_dict(self) -> dict:
        return asdict(self)


def _load_schema() -> dict:
    text = resources.files("clusterlab").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def validate_report_dict(document: dict) -> None:
    """Raise ``jsonschema.ValidationError`` when ``document`` breaks the
    report schema. ``jsonschema`` is imported here, on first use, not with
    the package."""
    import jsonschema

    jsonschema.validate(document, _load_schema())


def canonical_json(document) -> bytes:
    """The one JSON form of every output: sorted keys, two-space indent and
    a trailing newline; NaN and infinity are refused."""
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode("utf-8")


def emit_report(report: AnalysisReport, fmt: str = "json") -> bytes:
    """Serialize the report; JSON output is canonical."""
    document = report.to_dict()
    if fmt == "json":
        return canonical_json(document)
    if fmt in ("markdown", "md"):
        return render_markdown(document).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")


# -- markdown rendering --------------------------------------------------------

def render_markdown(doc: dict) -> str:
    lines = [f"# Clustering analysis report (v{doc['version']})", ""]

    if doc.get("dataset"):
        d = doc["dataset"]
        lines += ["## Dataset", ""]
        lines.append(f"- rows: {d['rows']}, features: {d['features']}")
        lines.append(f"- feature names: {', '.join(d['feature_names'])}")
        lines.append(f"- normalized: {str(d['normalized']).lower()}")
        if d.get("class_distribution"):
            dist = ", ".join(f"{k}: {v}" for k, v in d["class_distribution"].items())
            lines.append(f"- class distribution: {dist}")
        lines.append("")

    if doc.get("preprocessing"):
        p = doc["preprocessing"]
        lines += ["## Preprocessing", ""]
        lines.append(
            f"- rows: {p['rows_before']} before, {p['rows_after']} after "
            f"({p['rows_dropped']} dropped)"
        )
        if p["columns_dropped"]:
            lines.append(f"- columns dropped: {', '.join(p['columns_dropped'])}")
        if p["dropped_row_ids"]:
            ids = ", ".join(str(i) for i in p["dropped_row_ids"])
            lines.append(f"- dropped row ids: {ids}")
        lines.append("")

    if doc.get("hopkins"):
        h = doc["hopkins"]
        lines += ["## Clustering tendency (Hopkins statistic)", ""]
        lines.append(
            f"- H = {h['h']:.6f} over {h['trials']} trials (m = {h['m']}, "
            f"seed = {h['seed']})"
        )
        spread = max(h["per_trial"]) - min(h["per_trial"]) if h["per_trial"] else 0.0
        lines.append(f"- per-trial spread: {spread:.6f}")
        lines.append("")

    if doc.get("kmeans"):
        km = doc["kmeans"]
        lines += [f"## K-means (k = {km['k']})", ""]
        lines.append("| cluster | size | share |" + (" name | purity |" if km["naming"] else ""))
        lines.append("|---|---|---|" + ("---|---|" if km["naming"] else ""))
        for cid, (size, pct) in enumerate(zip(km["sizes"], km["percentages"])):
            row = f"| {cid} | {size} | {pct}% |"
            if km["naming"]:
                cn = km["naming"][str(cid)]
                row += f" {cn['name']} | {cn['purity']:.3f} |"
            lines.append(row)
        lines.append("")
        lines.append(f"- WSS = {km['wss']:.6f} ({km['iterations']} iterations, "
                     f"best of {km['restarts']} restarts, seed {km['seed']})")
        if km["silhouette_overall"] is not None:
            lines.append(f"- average silhouette = {km['silhouette_overall']:.4f}")
        if km["label_agreement"] is not None:
            lines.append(f"- label agreement = {km['label_agreement']:.4f}")
        lines.append("")

    if doc.get("pam"):
        pam = doc["pam"]
        lines += [f"## PAM / k-medoids (k = {pam['k']})", ""]
        lines.append(f"- medoid row indices: {', '.join(str(m) for m in pam['medoid_indices'])}")
        lines.append(f"- cluster sizes: {', '.join(str(s) for s in pam['sizes'])}")
        lines.append(f"- total cost = {pam['cost']:.6f} after {pam['swaps']} swaps")
        if pam["silhouette_overall"] is not None:
            lines.append(f"- average silhouette = {pam['silhouette_overall']:.4f}")
        lines.append("")

    if doc.get("silhouette"):
        s = doc["silhouette"]
        lines += [f"## Silhouette ({s['algorithm']})", ""]
        lines.append(f"- overall mean width = {s['overall']:.4f}")
        for lab, size, mean in zip(s["cluster_labels"], s["cluster_sizes"], s["cluster_means"]):
            lines.append(f"- cluster {lab}: mean {mean:.4f} over {size} points")
        lines.append("")

    if doc.get("sweep"):
        sw = doc["sweep"]
        lines += [f"## k sweep ({sw['algorithm']})", ""]
        lines.append("| k | avg silhouette | objective |")
        lines.append("|---|---|---|")
        for k, s, w in zip(sw["ks"], sw["avg_silhouette"], sw["wss"]):
            marker = " (best)" if k == sw["best_k"] else ""
            lines.append(f"| {k}{marker} | {s:.4f} | {w:.4f} |")
        lines.append("")

    lines += ["## Configuration", ""]
    for key in sorted(doc["config"]):
        lines.append(f"- {key}: {doc['config'][key]}")
    lines.append("")
    return "\n".join(lines)
