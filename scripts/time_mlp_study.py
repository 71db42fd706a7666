#!/usr/bin/env python3
"""Time the offline study with a trained model, or with the oracle.

Runs the offline study, ``qdtune.study``: 36 neighborhood experiments
(seven band-adjacent and five plateau points, three simplex policies;
acceptance criterion 14) on the 200x200 px reference scan rendered at
``qdtune.harness.STUDY_SCAN``, each pass with a fresh classifier, and
prints one JSON line per pass: its wall time, the forward calls and rows
of the model, the classifications the runs made, the distinct stored
windows they classified, the windows measured per second (each
classification plus the window scored at the end of each run, as
perfbench's study_oracle counts them), and the SHA-256 of the reports'
JSON.

The model is read from a file that scripts/train_classifier.py wrote; that
script trains criterion 8's model (the one criterion 14 uses), the
reference classifier of ``qdtune.classifier``:

    python3 scripts/train_classifier.py --out results/classifier
    python3 scripts/time_mlp_study.py --model results/classifier/model.json --passes 3

With ``--oracle`` in place of ``--model`` the same study runs with the
oracle classifier, which needs no model file:

    python3 scripts/time_mlp_study.py --oracle --passes 5
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
from qdtune.scans import _locate


def study_pass(source, make_classifier) -> dict:
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
        by_policy = study(source, make_classifier())
        elapsed = time.perf_counter() - t0
    finally:
        classifier_mod._forward = forward

    reports = [report for by_tag in by_policy.values() for tagged in by_tag.values() for report in tagged]
    runs = [run for report in reports for run in report.runs]
    steps = [step for run in runs for step in run.steps if not step.blocked]
    scored = sum(run.best_center() is not None for run in runs)
    windows = set()
    for step in steps:
        plan, s1, s2 = _locate(source, step.center, DEFAULT_SPAN_MV, DEFAULT_RESOLUTION_MV, q.Sandbox())
        windows.add((plan, s1, s2))
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
    chosen = parser.add_mutually_exclusive_group(required=True)
    chosen.add_argument("--model", help="model file written by scripts/train_classifier.py")
    chosen.add_argument("--oracle", action="store_true", help="run the study with the oracle classifier")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args()

    if args.oracle:
        make_classifier = q.OracleClassifier
    else:
        model = q.load_model(args.model)

        def make_classifier():
            return q.ModelClassifier(model)

    scan, labels = q.render_scan(q.reference_device(), *STUDY_SCAN, 2.0)
    source = q.PremeasuredScan(scan, labels)
    for _ in range(args.passes):
        print(json.dumps(study_pass(source, make_classifier)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
