#!/usr/bin/env python3
"""Off-line tuning benchmark on the reference device.

Renders one full charge-sensor scan with ground-truth labels, then
replays every tuning run against that stored scan so the whole study is
deterministic and needs no live measurement:

1. 9x9 neighborhood experiments (81 starts each) around seven starting
   points near the double-dot region, for all three simplex policies.
2. The same experiments around five points deep in the single-central
   plateau, where the capped fitness gives the optimizer no signal.
3. A success heatmap over a second scan, one run per 10 mV grid cell,
   with 30 mV windows for the oracle and 60 mV windows for a model.
4. An exhaustive fitness landscape of the scan for a 60x60 mV window.

Outputs (JSON reports plus CSV/TXT tables) land in --out. With the
oracle classifier the full study takes well under a minute; pass
--classifier model:PATH to rerun it with a trained network.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qdtune as q
from qdtune.fileio import write_json
from qdtune.harness import (
    fitness_landscape,
    heatmap,
    iteration_stats,
    neighborhood_experiment,
    write_iteration_csv,
    write_success_csv,
    write_summary_text,
)
from qdtune.tuner import POLICIES

GOOD_POINTS = [(250, 400), (350, 400), (350, 415), (350, 425), (350, 450), (400, 350), (450, 350)]
PLATEAU_POINTS = [(470, 470), (480, 470), (490, 460), (500, 470), (520, 480)]

# Window placement for the two stored scans, chosen so the double-dot
# region sits off center and the neighborhood points keep margin.
NEIGHBORHOOD_SCAN = ((325.0, 350.0), (400.0, 400.0))
HEATMAP_SCAN = ((300.0, 350.0), (400.0, 400.0))


def build_source(params, center, span, out_dir, name):
    scan, labels = q.render_scan(params, center, span, 2.0)
    path = out_dir / f"{name}{q.SCAN_SUFFIX}"
    q.save_scan(scan, path, labels)
    print(f"rendered {name}: {scan.shape[0]}x{scan.shape[1]} px -> {path}")
    return q.PremeasuredScan(scan, labels)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--classifier", default="oracle", help="oracle or model:PATH")
    parser.add_argument("--skip-heatmap", action="store_true")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.classifier == "oracle":
        classifier = q.OracleClassifier()
        heatmap_span = (30.0, 30.0)
    elif args.classifier.startswith("model:"):
        classifier = q.ModelClassifier(q.load_model(args.classifier[6:]))
        # The model's input image needs 30 px a side: 60 mV at 2 mV/px.
        heatmap_span = (60.0, 60.0)
    else:
        parser.error("--classifier must be oracle or model:PATH")

    t0 = time.time()
    params = q.reference_device()
    source = build_source(params, *NEIGHBORHOOD_SCAN, out, "reference_scan")

    reports = []
    for tag, points in (("good", GOOD_POINTS), ("plateau", PLATEAU_POINTS)):
        for policy_name, policy in POLICIES.items():
            for point in points:
                rep = neighborhood_experiment(source, classifier, point, policy)
                rep.save_json(out / f"report_{tag}_{point[0]}_{point[1]}_{policy_name}.json")
                reports.append(rep)
                print(
                    f"{tag:7s} {policy_name:8s} ({point[0]:3d},{point[1]:3d}): "
                    f"P={rep.success_rate:.3f} iterations={rep.iteration_mean:.1f} "
                    f"({rep.iteration_sd:.1f})"
                )

    good = reports[: len(GOOD_POINTS) * len(POLICIES)]
    stats = iteration_stats(good)
    write_success_csv(reports, out / "success_rates.csv")
    write_iteration_csv(good, stats, out / "iteration_stats.csv")
    write_summary_text(good, stats, out / "summary.txt")
    for policy_name, (mean, sd) in stats.pooled.items():
        print(f"pooled {policy_name}: {mean:.2f} iterations (s.d. {sd:.2f})")

    if not args.skip_heatmap:
        hm_source = build_source(params, *HEATMAP_SCAN, out, "heatmap_scan")
        for policy_name, policy in POLICIES.items():
            hm = heatmap(hm_source, classifier, policy=policy, span=heatmap_span)
            hm.save_json(out / f"heatmap_{policy_name}.json")
            outcomes = " ".join(f"{kind}={n}" for kind, n in sorted(hm.outcome_counts.items()))
            print(
                f"heatmap {policy_name}: {hm.weights.shape[0]}x{hm.weights.shape[1]} starts, "
                f"mean weight {hm.weights.mean():.3f}, outcomes {outcomes}"
            )

    land = fitness_landscape(source)
    land.save_json(out / "landscape.json")
    lo = land.argmin_center()
    print(
        f"landscape {land.values.shape[0]}x{land.values.shape[1]}, "
        f"min {land.values.min():.3f} at ({lo[0]:.0f}, {lo[1]:.0f})"
    )

    manifest = {
        "elapsed_s": round(time.time() - t0, 1),
        "classifier": args.classifier,
        "heatmap_span_mv": list(heatmap_span),
        "good_points": GOOD_POINTS,
        "plateau_points": PLATEAU_POINTS,
        "policies": list(POLICIES),
    }
    write_json(out / "manifest.json", manifest, indent=2)
    print(f"done in {manifest['elapsed_s']}s -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
