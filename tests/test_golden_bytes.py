"""Byte-level pins on every file writer.

Each writer is run on fixed inputs and the SHA-256 of the file it leaves
is compared with a recorded digest, so a change to a codec, to key order,
indentation, float formatting or the trailing newline shows up here even
when a load/save round trip still passes.
"""

import hashlib

import pytest

import qdtune as q
from qdtune.cli import main

GOLDEN_SHA256 = {
    "scan": "8ba30f06555f4a4fe3ac78976362a95bd0b681b0cf716fcfcb099464aca38610",
    "model": "291d8f585dfff6750f592baae3ac48f738c709cfa18be9efc1a7bef0dd3272bb",
    "dataset": "a3670e362d129b03bfbc01590864e54f3017b60c42ead5a9e3c2b9575cbfc0b4",
    "landscape": "8a39e5700160000f9ed75be8ecc953419b3441e1cd0e539c0b2acc7378e62afa",
    "report": "d2079b07889cd54957e9ea71587c11829fe67aa22d0ef51d43552eb6050202a0",
    "heatmap": "4aa1b25180a97d7944effbad2365d84196bd5a132285f2b0c2e869b3b64fbb29",
    "run_json": "df5c4e3822a70c4582d53bcf8072c85d39d8c5de42576a261047ea1b9372024d",
    "run_csv": "b3b8a0ad2cd3d61402efb5e56b9fef05f3f02c22d4bee13aebcc0ce30a0a62fe",
    "device": "3b23345f72903724e7543ba69ed932a9c53ead926a99302dd6431acf9cefe7b2",
    "metrics": "36716e224d437cc96e803ca1523fb5788e54b87aeb60152da951e53b3636b3bd",
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    params = q.reference_device()
    oracle = q.OracleClassifier()
    paths = {}

    scan, labels = q.render_scan(params, (300.0, 320.0), (20.0, 20.0), 2.0)
    paths["scan"] = out / "scan.qdscan.json"
    q.save_scan(scan, paths["scan"], labels)

    paths["model"] = out / "model.json"
    q.save_model(q.init_model(0), paths["model"])

    paths["dataset"] = out / "dataset.json"
    q.save_dataset(q.generate_dataset(2, 2, seed=0), paths["dataset"])

    small, small_labels = q.render_scan(params, (310.0, 330.0), (80.0, 80.0), 2.0)
    paths["landscape"] = out / "landscape.json"
    q.fitness_landscape(q.PremeasuredScan(small, small_labels), window_span=(30.0, 30.0)).save_json(
        paths["landscape"]
    )

    full, full_labels = q.render_scan(params, (325.0, 350.0), (400.0, 400.0), 2.0)
    stored = q.PremeasuredScan(full, full_labels)
    paths["report"] = out / "report.json"
    q.neighborhood_experiment(stored, oracle, (350.0, 415.0), q.FixedSimplex(75.0)).save_json(
        paths["report"]
    )
    paths["heatmap"] = out / "heatmap.json"
    q.heatmap(stored, oracle, grid_step=60.0).save_json(paths["heatmap"])

    # starts next to the sandbox corner, so the first simplex steps are refused
    run = q.autotune(q.SimulatedDevice(params), oracle, (60.0, 60.0), policy=q.FixedSimplex(75.0))
    assert any(step.blocked for step in run.steps)
    paths["run_json"] = out / "run.json"
    run.save_json(paths["run_json"])
    paths["run_csv"] = out / "run.csv"
    run.save_csv(paths["run_csv"])

    paths["device"] = out / "device.json"
    q.save_device(q.sample_device(123), paths["device"])

    metrics_dir = out / "metrics"
    rc = main(
        [
            "evaluate",
            "--model", str(paths["model"]),
            "--dataset", str(paths["dataset"]),
            "--out", str(metrics_dir),
        ]
    )
    assert rc == 0
    paths["metrics"] = metrics_dir / "metrics.json"
    return paths


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_writer_output_is_byte_stable(written, name):
    digest = hashlib.sha256(written[name].read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
