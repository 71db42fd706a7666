#!/usr/bin/env python3
"""Full classifier pipeline: dataset, training, held-out evaluation.

Draws a population of random devices, measures a handful of 60x60 mV
windows on each, preprocesses them to 30x30 gradient images labeled
with exact state fractions, then trains the three-class network and
reports argmax accuracy on a held-out device-disjoint-ish split (the
split is over samples; windows from one device can land on both sides,
which is the easy setting and is stated as such in the metrics file).

Defaults reproduce the pinned numbers used by the acceptance tests:
1001 devices x 10 windows, generation seed 11, split seed 5, training
seed 3. Takes a couple of minutes end to end.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qdtune as q
from qdtune.fileio import write_csv, write_json


def split_indices(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.random.default_rng(seed).permutation(n)
    cut = int(round(n * fraction))
    return order[:cut], order[cut:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/classifier")
    parser.add_argument("--devices", type=int, default=1001)
    parser.add_argument("--samples", type=int, default=10, help="windows per device")
    parser.add_argument("--gen-seed", type=int, default=11)
    parser.add_argument("--split-seed", type=int, default=5)
    parser.add_argument("--train-seed", type=int, default=3)
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--train-fraction", type=float, default=0.8)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    samples = q.generate_dataset(args.devices, args.samples, seed=args.gen_seed)
    targets = np.array([s.target.as_array() for s in samples])
    counts = np.bincount(targets.argmax(axis=1), minlength=3)
    print(
        f"dataset: {len(samples)} samples in {time.time() - t0:.0f}s, "
        f"class counts none/sd/dd = {counts[0]}/{counts[1]}/{counts[2]}"
    )
    q.save_dataset(samples, out / "dataset.json")

    train_idx, test_idx = split_indices(len(samples), args.train_fraction, args.split_seed)
    train_set = [samples[i] for i in train_idx]
    test_set = [samples[i] for i in test_idx]

    t1 = time.time()
    config = q.TrainingConfig(steps=args.steps, seed=args.train_seed)
    model, losses = q.train(train_set, config)
    print(f"trained {args.steps} steps in {time.time() - t1:.0f}s, final loss {losses[-1]:.4f}")
    q.save_model(model, out / "model.json")
    write_csv(out / "loss.csv", ["step", "loss"], enumerate(losses))

    report = q.evaluate(model, test_set)
    print(f"held-out accuracy {report.accuracy:.4f} on {report.n_samples} samples")
    print("confusion (rows true none/sd/dd, cols predicted):")
    print(report.confusion)

    metrics = {
        "accuracy": report.accuracy,
        "n_train": len(train_set),
        "n_test": len(test_set),
        "confusion": report.confusion.tolist(),
        "class_counts": counts.tolist(),
        "split": "per-sample permutation (devices may straddle the split)",
        "seeds": {"generation": args.gen_seed, "split": args.split_seed, "training": args.train_seed},
        "elapsed_s": round(time.time() - t0, 1),
    }
    write_json(out / "metrics.json", metrics, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
