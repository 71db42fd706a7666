import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_offline_experiments_without_heatmap(tmp_path):
    out = tmp_path / "study"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_offline_experiments.py"), "--out", str(out), "--skip-heatmap"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert len(list(out.glob("report_*.json"))) == 36
    assert (out / "landscape.json").is_file()
    assert (out / "manifest.json").is_file()
    for line in (
        "pooled dynamic: 11.75 iterations",
        "pooled fixed100: 12.15 iterations",
        "pooled fixed75: 11.42 iterations",
    ):
        assert line in done.stdout


def test_train_classifier_small_run(tmp_path):
    out = tmp_path / "classifier"
    done = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "train_classifier.py"),
            "--out", str(out),
            "--devices", "4",
            "--samples", "2",
            "--steps", "5",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("dataset.json", "model.json", "loss.csv", "metrics.json"):
        assert (out / name).is_file(), name
