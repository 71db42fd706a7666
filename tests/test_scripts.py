import json
import subprocess
import sys
from pathlib import Path

import qdtune as q
from qdtune.cli import main

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
    assert json.loads((out / "manifest.json").read_text())["heatmap_span_mv"] == [30.0, 30.0]
    # Every report the study wrote loads: its pooled figures are the ones its runs give.
    tables = tmp_path / "tables"
    assert main(["report", "--runs", str(out), "--out", str(tables)]) == 0
    assert (tables / "summary.txt").read_text().count("  point (") == 36


def test_offline_experiments_with_a_model_run_its_heatmaps_at_60_mv(tmp_path):
    """The model's input image needs 30 px a side, 60 mV at 2 mV/px; a
    30 mV window aborts every heatmap run."""
    model_path = tmp_path / "model.json"
    q.save_model(q.init_model(0), model_path)
    out = tmp_path / "study"
    done = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "run_offline_experiments.py"),
            "--out", str(out),
            "--classifier", f"model:{model_path}",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    heatmap_lines = [line for line in done.stdout.splitlines() if line.startswith("heatmap ")]
    assert len(heatmap_lines) == 3
    assert not any("aborted" in line for line in heatmap_lines), heatmap_lines
    assert json.loads((out / "manifest.json").read_text())["heatmap_span_mv"] == [60.0, 60.0]


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


def test_time_mlp_study_counts_one_forward_row_per_distinct_window(tmp_path):
    model_path = tmp_path / "model.json"
    q.save_model(q.init_model(0), model_path)
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "time_mlp_study.py"), "--model", str(model_path), "--passes", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["forward_rows"] == result["forward_calls"] == result["distinct_windows"] < result["classifications"]


def test_time_mlp_study_with_the_oracle_needs_no_model():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "time_mlp_study.py"), "--oracle", "--passes", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    first, second = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    # The 36 reports' bytes in the study's order: policy, then good before plateau points.
    assert first["reports_sha256"] == second["reports_sha256"] == (
        "8ea5bc88700b4f137973806b0abcdef5a508b318d8e150efa2f61e072764d88b"
    )
    for result in (first, second):
        assert result["forward_calls"] == result["forward_rows"] == 0
        # 36 neighborhoods of 81 runs, each scored once: the seed-0 study_oracle pass.
        assert result["classifications"] == 27637
        assert result["windows_per_s"] > 0
        assert result["distinct_windows"] < result["classifications"]


def test_time_mlp_study_takes_a_model_or_the_oracle_not_both(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "time_mlp_study.py"), "--oracle", "--model", str(tmp_path / "m.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2 and "not allowed with argument" in done.stderr
