#!/usr/bin/env python3
"""Train the paper's classifier: acceptance criterion 8's model.

Generates the reference corpus of ``qdtune.classifier``,
``generate_dataset(**REFERENCE_CORPUS)``: random devices, each measured in
a handful of 60x60 mV windows that are preprocessed to 30x30 gradient
images labeled with exact state fractions. Splits it with
``reference_split``, trains the three-class network with
``REFERENCE_TRAINING`` and reports argmax accuracy on the held-out samples.
The split is over samples, so windows from one device can land on both
sides; that is the easy setting, and the metrics file says so.

The model is the one criterion 8 trains and criterion 14 tunes with, bit
for bit. The script takes only ``--out``, where it writes dataset.json,
model.json, loss.csv and metrics.json; ``qdtune gen-dataset`` and
``qdtune train`` make other corpora and step counts. Takes a minute or
two end to end:

    python3 scripts/train_classifier.py --out results/classifier
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qdtune as q
from qdtune.classifier import REFERENCE_CORPUS, REFERENCE_SPLIT, REFERENCE_TRAINING, reference_split
from qdtune.fileio import write_csv, write_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="results/classifier")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    samples = q.generate_dataset(**REFERENCE_CORPUS)
    targets = np.array([s.target.as_array() for s in samples])
    counts = np.bincount(targets.argmax(axis=1), minlength=3)
    print(
        f"dataset: {len(samples)} samples in {time.time() - t0:.0f}s, "
        f"class counts none/sd/dd = {counts[0]}/{counts[1]}/{counts[2]}"
    )
    q.save_dataset(samples, out / "dataset.json")

    train_set, test_set = reference_split(samples)

    t1 = time.time()
    model, losses = q.train(train_set, REFERENCE_TRAINING)
    print(f"trained {REFERENCE_TRAINING.steps} steps in {time.time() - t1:.0f}s, final loss {losses[-1]:.4f}")
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
        "seeds": {
            "generation": REFERENCE_CORPUS["seed"],
            "split": REFERENCE_SPLIT["seed"],
            "training": REFERENCE_TRAINING.seed,
        },
        "elapsed_s": round(time.time() - t0, 1),
    }
    write_json(out / "metrics.json", metrics, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
