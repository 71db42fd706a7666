#!/usr/bin/env python3
"""Time the offline study with a classifier: a trained model or the oracle.

Runs the offline study, ``qdtune.study``: 36 neighborhood experiments
(seven band-adjacent and five plateau points, three simplex policies;
acceptance criterion 14) on the 200x200 px reference scan rendered at
``qdtune.harness.STUDY_SCAN``, each pass with a fresh classifier built
before its timer starts, and prints one JSON line per pass: its wall time, the forward calls and rows
of the model, the classifications the runs made, the distinct stored
windows they classified, the windows measured per second (each
classification plus the window scored at the end of each run, as
perfbench's study_oracle counts them), and the SHA-256 of the reports'
JSON.

``--classifier`` is required and spelled as for the ``qdtune`` commands
and scripts/run_offline_experiments.py, read by
``qdtune.classifier.from_spec``: ``model:PATH`` for a model file that
scripts/train_classifier.py wrote (criterion 8's model, the one criterion
14 uses), or ``oracle``, which needs no model file. A spec that names no
classifier, or a model file that does not load, exits 2 with the reason:

    python3 scripts/train_classifier.py --out results/classifier
    python3 scripts/time_mlp_study.py --classifier model:results/classifier/model.json --passes 3
    python3 scripts/time_mlp_study.py --classifier oracle --passes 5
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qdtune as q
from qdtune import classifier as classifier_mod
from qdtune.grids import DEFAULT_RESOLUTION_MV, DEFAULT_SPAN_MV
from qdtune.harness import STUDY_SCAN, study
from qdtune.scans import _locator


def study_pass(source, classifier) -> dict:
    forward = classifier_mod._forward
    calls = rows = 0

    def counted(model, x):
        nonlocal calls, rows
        calls += 1
        rows += len(x)
        return forward(model, x)

    classifier_mod._forward = counted
    try:
        t0 = time.perf_counter()
        by_policy = study(source, classifier)
        elapsed = time.perf_counter() - t0
    finally:
        classifier_mod._forward = forward

    reports = [report for by_tag in by_policy.values() for tagged in by_tag.values() for report in tagged]
    runs = [run for report in reports for run in report.runs]
    steps = [step for run in runs for step in run.steps if not step.blocked]
    scored = sum(run.best_center() is not None for run in runs)
    locate = _locator(source, DEFAULT_SPAN_MV, DEFAULT_RESOLUTION_MV, q.Sandbox())
    windows = {locate(step.center) for step in steps}
    digest = hashlib.sha256()
    for report in reports:
        digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    return {
        "pass_s": round(elapsed, 3),
        "forward_calls": calls,
        "forward_rows": rows,
        "classifications": len(steps),
        "distinct_windows": len(windows),
        "windows_per_s": round((len(steps) + scored) / elapsed),
        "reports_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--classifier", required=True, help="oracle or model:PATH")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args()
    try:
        # One fresh classifier per pass, none of them timed.
        classifiers = [classifier_mod.from_spec(args.classifier) for _ in range(args.passes)]
    except q.QdtuneError as exc:
        parser.error(str(exc))

    scan, labels = q.render_scan(q.reference_device(), *STUDY_SCAN, 2.0)
    source = q.PremeasuredScan(scan, labels)
    for classifier in classifiers:
        print(json.dumps(study_pass(source, classifier)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
