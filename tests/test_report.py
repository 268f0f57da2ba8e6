import hashlib
import json
import os
import subprocess
import sys
import textwrap

import jsonschema
import numpy as np
import pytest

from clusterlab import (
    BENIGN,
    MALIGNANT,
    AnalysisReport,
    emit_report,
    name_clusters,
    validate_report_dict,
)
from clusterlab.exceptions import NoLabelsError
from clusterlab.report import _load_schema, render_markdown, round_percent
from test_cli_pins import ANALYZE_PINS, ANALYZE_RUNS, INPUT


class TestRoundPercent:
    def test_table_style_rounding(self):
        assert round_percent(402, 683) == 59
        assert round_percent(281, 683) == 41

    def test_half_rounds_up(self):
        assert round_percent(1, 8) == 13  # 12.5 -> 13

    def test_zero_denominator(self):
        assert round_percent(5, 0) == 0


class TestNameClusters:
    def test_majority_naming(self):
        labels = [0] * 10
        classes = [BENIGN] * 9 + [MALIGNANT]
        labels += [1] * 4
        classes += [MALIGNANT] * 4
        naming = name_clusters(labels, classes)
        assert naming.clusters[0].name == BENIGN
        assert naming.clusters[0].purity == pytest.approx(0.9)
        assert naming.clusters[0].size == 10
        assert naming.clusters[1].name == MALIGNANT
        assert naming.clusters[1].purity == 1.0

    def test_tie_breaks_toward_benign(self):
        naming = name_clusters([0, 0], [BENIGN, MALIGNANT])
        assert naming.clusters[0].name == BENIGN
        assert naming.clusters[0].purity == pytest.approx(0.5)

    def test_agreement_fraction(self):
        naming = name_clusters(
            [0, 0, 0, 1, 1], [BENIGN, BENIGN, MALIGNANT, MALIGNANT, MALIGNANT]
        )
        assert naming.agreement == pytest.approx(4 / 5)

    def test_no_labels(self):
        with pytest.raises(NoLabelsError):
            name_clusters([0, 1], None)
        with pytest.raises(NoLabelsError):
            name_clusters([0, 1], [BENIGN])

    def test_numpy_labels_accepted(self):
        naming = name_clusters(np.array([0, 1]), [BENIGN, MALIGNANT])
        assert set(naming.clusters) == {0, 1}


def minimal_report(**overrides):
    fields = dict(
        config={"input": "x.csv", "seed": 1},
        dataset={
            "rows": 3,
            "features": 2,
            "feature_names": ["a", "b"],
            "normalized": True,
            "class_distribution": None,
        },
        preprocessing={
            "rows_before": 4,
            "rows_after": 3,
            "rows_dropped": 1,
            "dropped_row_ids": [7],
            "columns_dropped": ["id"],
            "norm_params": {"a": [0.0, 1.0], "b": [2.0, 5.0]},
        },
    )
    fields.update(overrides)
    return AnalysisReport(**fields)


class TestEmitReport:
    def test_preprocess_only_report_validates(self):
        payload = emit_report(minimal_report(), "json")
        doc = json.loads(payload)
        assert doc["hopkins"] is None
        assert doc["kmeans"] is None
        assert doc["sweep"] is None
        validate_report_dict(doc)  # no exception

    def test_json_round_trip_is_byte_identical(self):
        payload = emit_report(minimal_report(), "json")
        doc = json.loads(payload)
        again = (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
        assert payload == again

    def test_markdown_contains_key_numbers(self):
        text = emit_report(minimal_report(), "markdown").decode()
        assert "## Preprocessing" in text
        assert "4 before, 3 after" in text
        assert "1 dropped" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(minimal_report(), "yaml")

    def test_schema_rejects_bad_document(self):
        doc = json.loads(emit_report(minimal_report(), "json"))
        doc["hopkins"] = {"h": 2.0}  # out of range and missing fields
        with pytest.raises(jsonschema.ValidationError):
            validate_report_dict(doc)

    def test_error_is_the_one_jsonschema_validate_raises(self):
        doc = json.loads(emit_report(minimal_report(), "json"))
        doc["hopkins"] = {"h": 2.0}
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, _load_schema())
        with pytest.raises(jsonschema.ValidationError) as got:
            validate_report_dict(doc)
        assert (str(got.value), list(got.value.path)) == (str(want.value), list(want.value.path))

    def test_cli_import_leaves_jsonschema_unloaded(self, tmp_path, synth_csv):
        # numpy alone at run time: with jsonschema unimportable, a whole
        # analyze of the fixture writes the pinned bytes, and only
        # validate_report_dict needs the module
        import clusterlab

        src = os.path.dirname(os.path.dirname(clusterlab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, clusterlab.cli; assert 'jsonschema' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

        (tmp_path / INPUT).write_bytes(synth_csv)
        code = textwrap.dedent(f"""
            import sys
            sys.modules["jsonschema"] = None
            from clusterlab import validate_report_dict
            from clusterlab.cli import main
            assert main(["analyze", {INPUT!r}, "--out", "out", *{ANALYZE_RUNS["defaults"]!r}]) == 0
            try:
                validate_report_dict({{}})
            except ModuleNotFoundError as exc:
                assert exc.name == "jsonschema", exc
            else:
                raise AssertionError("validate_report_dict ran without jsonschema")
        """)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (tmp_path / "out").iterdir()}
        digests["stdout"] = hashlib.sha256(proc.stdout).hexdigest()
        assert digests == ANALYZE_PINS["defaults"]

    def test_a_run_leaves_numpy_ma_unloaded(self, tmp_path, synth_csv):
        # np.unique imports numpy.ma, about 1.7 MB of resident size, on its
        # first call; no run needs it, on all CPUs or on one, where the
        # silhouettes of the sweep run in this process too
        import clusterlab

        src = os.path.dirname(os.path.dirname(clusterlab.__file__))
        (tmp_path / INPUT).write_bytes(synth_csv)
        code = textwrap.dedent(f"""
            import os, sys
            from clusterlab.cli import main
            for run, cpus in enumerate([os.sched_getaffinity(0), {{min(os.sched_getaffinity(0))}}]):
                os.sched_setaffinity(0, cpus)
                assert main(["analyze", {INPUT!r}, "--out", f"out{{run}}", "--seed", "1"]) == 0
                assert main(["sweep", {INPUT!r}, "--seed", "1", "--restarts", "2"]) == 0
                assert main(["tendency", {INPUT!r}, "--seed", "1"]) == 0
            assert "numpy.ma" not in sys.modules
        """)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_schema_rejects_unknown_top_level_key(self):
        doc = json.loads(emit_report(minimal_report(), "json"))
        doc["extra"] = 1
        with pytest.raises(jsonschema.ValidationError):
            validate_report_dict(doc)

    def test_full_sections_validate(self):
        report = minimal_report(
            hopkins={
                "h": 0.8, "m": 5, "trials": 2, "per_trial": [0.79, 0.81],
                "seed": 3, "degenerate": False,
            },
            kmeans={
                "k": 2, "sizes": [2, 1], "percentages": [67, 33], "wss": 0.5,
                "iterations": 3, "converged": True, "restarts": 5,
                "best_restart": 0, "init": "k-means++", "seed": 3,
                "silhouette_overall": 0.7,
                "naming": {
                    "0": {"name": "benign", "purity": 1.0, "size": 2,
                          "percent": 67, "class_counts": {"benign": 2}},
                    "1": {"name": "malignant", "purity": 1.0, "size": 1,
                          "percent": 33, "class_counts": {"malignant": 1}},
                },
                "label_agreement": 1.0,
            },
            pam={
                "k": 2, "sizes": [2, 1], "medoid_indices": [0, 2],
                "medoid_row_ids": [11, 13], "cost": 0.4, "swaps": 1,
                "converged": True, "silhouette_overall": 0.68,
            },
            silhouette={
                "algorithm": "pam", "overall": 0.68, "cluster_labels": [0, 1],
                "cluster_sizes": [2, 1], "cluster_means": [0.7, 0.64],
            },
            sweep={
                "algorithm": "kmeans", "ks": [2, 3],
                "avg_silhouette": [0.7, 0.5], "wss": [0.5, 0.3], "best_k": 2,
            },
        )
        payload = emit_report(report, "json")
        validate_report_dict(json.loads(payload))
        md = emit_report(report, "markdown").decode()
        assert "best k = 2" not in md  # that's the SVG label
        assert "| 2 (best) | 0.7000 | 0.5000 |" in md
        assert "## PAM / k-medoids (k = 2)" in md
