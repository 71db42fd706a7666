#!/usr/bin/env python3
"""Time the offline study with a trained model in place of the oracle.

Runs the study's 36 neighborhood experiments (seven band-adjacent and
five plateau points, three simplex policies; acceptance criterion 14) on
the 200x200 px reference scan, each pass with a fresh ModelClassifier,
and prints one JSON line per pass: its wall time, the forward calls and
rows of the model, the classifications the runs made, the distinct
stored windows they classified, and the SHA-256 of the reports' JSON.

The model is read from a file that scripts/train_classifier.py wrote; its
defaults train criterion 8's model (the one criterion 14 uses):

    python3 scripts/train_classifier.py --out results/classifier
    python3 scripts/time_mlp_study.py --model results/classifier/model.json --passes 3
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
from qdtune.harness import neighborhood_experiment
from qdtune.scans import _locate
from qdtune.tuner import POLICIES

GOOD_POINTS = [(250, 400), (350, 400), (350, 415), (350, 425), (350, 450), (400, 350), (450, 350)]
PLATEAU_POINTS = [(470, 470), (480, 470), (490, 460), (500, 470), (520, 480)]
STUDY_SCAN = ((325.0, 350.0), (400.0, 400.0))


def study_pass(source, model) -> dict:
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
        classifier = q.ModelClassifier(model)
        reports = [
            neighborhood_experiment(source, classifier, point, policy)
            for policy in POLICIES.values()
            for point in GOOD_POINTS + PLATEAU_POINTS
        ]
        elapsed = time.perf_counter() - t0
    finally:
        classifier_mod._forward = forward

    steps = [step for report in reports for run in report.runs for step in run.steps if not step.blocked]
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
        "reports_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--model", required=True, help="model file written by scripts/train_classifier.py")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args()

    model = q.load_model(args.model)
    scan, labels = q.render_scan(q.reference_device(), *STUDY_SCAN, 2.0)
    source = q.PremeasuredScan(scan, labels)
    for _ in range(args.passes):
        print(json.dumps(study_pass(source, model)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
