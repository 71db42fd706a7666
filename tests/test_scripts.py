import hashlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import qdtune as q
from qdtune.classifier import REFERENCE_CORPUS, REFERENCE_TRAINING, reference_split
from qdtune.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# sha256 of criterion 8's model file, save_model of the reference classifier.
REFERENCE_MODEL_SHA256 = "87d79045bea449783ef36403a0c9e96e136a3655dec28a1ad918ff620e59d905"


def _run_script(name, *args, timeout=300):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=timeout
    )


def _options(help_text: str) -> list[str]:
    """The long options an argparse ``--help`` lists, apart from ``--help``."""
    options = help_text.split("options:")[-1]
    return [word for word in options.split() if word.startswith("--") and word != "--help"]


def test_offline_experiments_with_the_oracle(tmp_path):
    """The oracle's heatmaps measure 60 mV windows, as a model's do: their
    mean weights are the "all" column of ROADMAP's detuning table."""
    out = tmp_path / "study"
    done = _run_script("run_offline_experiments.py", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert len(list(out.glob("report_*.json"))) == 36
    assert (out / "landscape.json").is_file()
    assert (out / "manifest.json").is_file()
    for line in (
        "pooled dynamic: 11.75 iterations",
        "pooled fixed100: 12.15 iterations",
        "pooled fixed75: 11.42 iterations",
        "heatmap fixed75: 27x27 starts, mean weight 0.831, outcomes converged=729",
        "heatmap fixed100: 25x25 starts, mean weight 0.894, outcomes converged=625",
        "heatmap dynamic: 20x20 starts, mean weight 0.818, outcomes converged=400",
    ):
        assert line in done.stdout
    assert json.loads((out / "manifest.json").read_text())["heatmap_span_mv"] == [60.0, 60.0]
    # Every report the study wrote loads: its pooled figures are the ones its runs give.
    tables = tmp_path / "tables"
    assert main(["report", "--runs", str(out), "--out", str(tables)]) == 0
    assert (tables / "summary.txt").read_text().count("  point (") == 36


def test_offline_experiments_with_a_model_run_its_heatmaps_at_60_mv(tmp_path):
    """The model's input image needs 30 px a side, 60 mV at 2 mV/px; a
    30 mV window aborts every heatmap run. The landscape is the model's."""
    model = q.init_model(0)
    model_path = tmp_path / "model.json"
    q.save_model(model, model_path)
    out = tmp_path / "study"
    done = _run_script("run_offline_experiments.py", "--out", str(out), "--classifier", f"model:{model_path}")
    assert done.returncode == 0, done.stderr
    heatmap_lines = [line for line in done.stdout.splitlines() if line.startswith("heatmap ")]
    assert len(heatmap_lines) == 3
    assert not any("aborted" in line for line in heatmap_lines), heatmap_lines
    assert json.loads((out / "manifest.json").read_text())["heatmap_span_mv"] == [60.0, 60.0]
    scan, labels = q.load_scan(out / f"reference_scan{q.SCAN_SUFFIX}")
    q.fitness_landscape(q.PremeasuredScan(scan, labels), q.ModelClassifier(model)).save_json(tmp_path / "landscape.json")
    assert (out / "landscape.json").read_bytes() == (tmp_path / "landscape.json").read_bytes()


@pytest.mark.parametrize("script", ["run_offline_experiments.py", "time_mlp_study.py"])
def test_an_unknown_classifier_exits_2_naming_it(script):
    done = _run_script(script, "--classifier", "bogus", timeout=60)
    assert done.returncode == 2
    assert "unknown classifier 'bogus'; use oracle or model:PATH" in done.stderr


def test_train_classifier_writes_criterion_8s_model_bit_for_bit(tmp_path, monkeypatch, reference_training, trained_model):
    """The script trains the reference classifier of ``qdtune.classifier``:
    it asks for the reference corpus and trains on its reference split with
    the reference settings. Spies check both calls and hand back the
    session's corpus, model and loss trace, so the script runs in-process
    without a second training, and it writes the fixture's model."""
    corpus, trained, losses, _ = reference_training

    def generate_dataset(*args, **kwargs):
        assert not args and kwargs == REFERENCE_CORPUS
        return corpus

    def train(samples, config):
        expected = reference_split(corpus)[0]
        assert len(samples) == len(expected) and all(a is b for a, b in zip(samples, expected))
        assert config == REFERENCE_TRAINING
        return trained, losses

    monkeypatch.setattr(q, "generate_dataset", generate_dataset)
    monkeypatch.setattr(q, "train", train)
    # The script puts src/ first on sys.path.
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "classifier"
    monkeypatch.setattr(sys, "argv", ["train_classifier.py", "--out", str(out)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "train_classifier.py"), run_name="__main__")
    assert done.value.code == 0
    for name in ("dataset.json", "model.json", "loss.csv", "metrics.json"):
        assert (out / name).is_file(), name
    model, held_out, _ = trained_model
    q.save_model(model, tmp_path / "fixture_model.json")
    assert (out / "model.json").read_bytes() == (tmp_path / "fixture_model.json").read_bytes()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["accuracy"] == q.evaluate(model, held_out).accuracy
    assert metrics["n_test"] == 2002
    # The corpus file is about 100 MB, and pytest keeps the temporary
    # directories of its last three runs.
    (out / "dataset.json").unlink()


@pytest.mark.parametrize(
    "script, options",
    [
        ("train_classifier.py", ["--out"]),
        ("run_offline_experiments.py", ["--out", "--classifier"]),
        ("time_mlp_study.py", ["--classifier", "--passes"]),
    ],
)
def test_a_script_takes_only_its_options(script, options):
    done = _run_script(script, "--help", timeout=60)
    assert done.returncode == 0, done.stderr
    assert _options(done.stdout) == options


def test_criterion_8s_model_has_its_recorded_sha256(tmp_path, trained_model):
    """The reference classifier's bytes are pinned, not only compared between
    two trainings in one environment."""
    q.save_model(trained_model[0], tmp_path / "model.json")
    assert hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest() == REFERENCE_MODEL_SHA256


def test_time_mlp_study_counts_one_forward_row_per_distinct_window(tmp_path):
    model_path = tmp_path / "model.json"
    q.save_model(q.init_model(0), model_path)
    done = _run_script("time_mlp_study.py", "--classifier", f"model:{model_path}", "--passes", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["forward_rows"] == result["forward_calls"] == result["distinct_windows"] < result["classifications"]


def test_time_mlp_study_with_the_oracle_needs_no_model():
    done = _run_script("time_mlp_study.py", "--classifier", "oracle", "--passes", "2")
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
