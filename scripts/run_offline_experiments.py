#!/usr/bin/env python3
"""Off-line tuning benchmark on the reference device.

Renders one full charge-sensor scan with ground-truth labels at
``qdtune.harness.STUDY_SCAN``, then replays every tuning run against that
stored scan so the whole study is deterministic and needs no live
measurement:

1. The offline study, ``qdtune.study``: 9x9 neighborhood experiments
   (81 starts each) around seven starting points near the double-dot
   region, for all three simplex policies.
2. In the same study, the experiments around five points deep in the
   single-central plateau, where the capped fitness gives the optimizer
   no signal. The reports are written and printed by tag, then policy.
3. A success heatmap over a second scan, placed at
   ``qdtune.harness.HEATMAP_SCAN``, one run per 10 mV grid cell, with
   60x60 mV windows (``qdtune.grids.DEFAULT_SPAN_MV``) whatever the
   classifier: a model's 30x30 px input needs them, and the oracle's
   heatmaps then compare with a model's.
4. The exhaustive fitness landscape of the study scan for a 60x60 mV
   window, scored by the classifier the study ran with.

Outputs (JSON reports plus CSV/TXT tables) land in --out. The classifier
is ``oracle`` (the default) or ``model:PATH``, a model file that
scripts/train_classifier.py wrote, spelled as for the ``qdtune`` commands
and read by ``qdtune.classifier.from_spec``. A spec that names no classifier,
or a model file that does not load, exits 2 with the reason. With the
oracle the whole run takes about a second:

    python3 scripts/run_offline_experiments.py --out results/
    python3 scripts/run_offline_experiments.py --out results-mlp/ --classifier model:results/classifier/model.json
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qdtune as q
from qdtune.classifier import from_spec
from qdtune.fileio import write_json
from qdtune.grids import DEFAULT_SPAN_MV
from qdtune.harness import (
    HEATMAP_SCAN,
    STUDY_POINTS,
    STUDY_SCAN,
    fitness_landscape,
    heatmap,
    iteration_stats,
    study,
    write_iteration_csv,
    write_success_csv,
    write_summary_text,
)
from qdtune.tuner import POLICIES


def build_source(params, center, span, out_dir, name):
    scan, labels = q.render_scan(params, center, span, 2.0)
    path = out_dir / f"{name}{q.SCAN_SUFFIX}"
    q.save_scan(scan, path, labels)
    print(f"rendered {name}: {scan.shape[0]}x{scan.shape[1]} px -> {path}")
    return q.PremeasuredScan(scan, labels)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--classifier", default="oracle", help="oracle or model:PATH")
    args = parser.parse_args()
    try:
        classifier = from_spec(args.classifier)
    except q.QdtuneError as exc:
        parser.error(str(exc))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    params = q.reference_device()
    source = build_source(params, *STUDY_SCAN, out, "reference_scan")

    by_policy = study(source, classifier)
    reports = []
    for tag, points in STUDY_POINTS.items():
        for policy_name in POLICIES:
            for point, rep in zip(points, by_policy[policy_name][tag]):
                rep.save_json(out / f"report_{tag}_{point[0]}_{point[1]}_{policy_name}.json")
                reports.append(rep)
                print(
                    f"{tag:7s} {policy_name:8s} ({point[0]:3d},{point[1]:3d}): "
                    f"P={rep.success_rate:.3f} iterations={rep.iteration_mean:.1f} "
                    f"({rep.iteration_sd:.1f})"
                )

    good = [rep for policy_name in POLICIES for rep in by_policy[policy_name]["good"]]
    stats = iteration_stats(good)
    write_success_csv(reports, out / "success_rates.csv")
    write_iteration_csv(good, stats, out / "iteration_stats.csv")
    write_summary_text(good, stats, out / "summary.txt")
    for policy_name, (mean, sd) in stats.pooled.items():
        print(f"pooled {policy_name}: {mean:.2f} iterations (s.d. {sd:.2f})")

    hm_source = build_source(params, *HEATMAP_SCAN, out, "heatmap_scan")
    for policy_name, policy in POLICIES.items():
        hm = heatmap(hm_source, classifier, policy=policy, span=DEFAULT_SPAN_MV)
        hm.save_json(out / f"heatmap_{policy_name}.json")
        outcomes = " ".join(f"{kind}={n}" for kind, n in sorted(hm.outcome_counts.items()))
        print(
            f"heatmap {policy_name}: {hm.weights.shape[0]}x{hm.weights.shape[1]} starts, "
            f"mean weight {hm.weights.mean():.3f}, outcomes {outcomes}"
        )

    land = fitness_landscape(source, classifier)
    land.save_json(out / "landscape.json")
    lo = land.argmin_center()
    print(
        f"landscape {land.values.shape[0]}x{land.values.shape[1]}, "
        f"min {land.values.min():.3f} at ({lo[0]:.0f}, {lo[1]:.0f})"
    )

    manifest = {
        "elapsed_s": round(time.time() - t0, 1),
        "classifier": args.classifier,
        "heatmap_span_mv": list(DEFAULT_SPAN_MV),
        "good_points": STUDY_POINTS["good"],
        "plateau_points": STUDY_POINTS["plateau"],
        "policies": list(POLICIES),
    }
    write_json(out / "manifest.json", manifest, indent=2)
    print(f"done in {manifest['elapsed_s']}s -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
