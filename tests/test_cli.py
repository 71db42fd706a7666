import json

import numpy as np
import pytest

import qdtune as q
from qdtune.cli import main


@pytest.fixture(scope="module")
def scan_file(tmp_path_factory, reference_params):
    """A premeasured scan around the double-dot region for CLI runs."""
    out = tmp_path_factory.mktemp("scans")
    scan, labels = q.render_scan(reference_params, (300.0, 330.0), (200.0, 200.0), 2.0)
    path = out / "window.qdscan.json"
    q.save_scan(scan, path, labels)
    return path


class TestDevicePipeline:
    def test_sample_device(self, tmp_path, capsys):
        assert main(["sample-device", "--seed", "42", "--out", str(tmp_path)]) == 0
        path = tmp_path / "device_42.json"
        assert path.exists()
        assert q.load_device(path).seed == 42

    def test_render_scan(self, tmp_path):
        rc = main(
            [
                "render-scan",
                "--seed", "42",
                "--center", "300,330",
                "--span", "40,40",
                "--resolution", "2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        scan, labels = q.load_scan(tmp_path / "scan_300_330.qdscan.json")
        assert scan.shape == (20, 20)
        assert labels is not None

    def test_render_scan_reference_device_by_default(self, tmp_path, reference_params):
        main(["render-scan", "--center", "300,330", "--span", "20,20", "--out", str(tmp_path)])
        scan, _ = q.load_scan(tmp_path / "scan_300_330.qdscan.json")
        direct, _ = q.render_scan(reference_params, (300.0, 330.0), (20.0, 20.0), 2.0)
        np.testing.assert_array_equal(scan.values, direct.values)


class TestTrainingPipeline:
    def test_dataset_train_evaluate(self, tmp_path, capsys):
        ds_dir = tmp_path / "ds"
        rc = main(["gen-dataset", "--devices", "4", "--samples", "2", "--seed", "1", "--out", str(ds_dir)])
        assert rc == 0
        dataset = ds_dir / "dataset.json"
        assert len(q.load_dataset(dataset)) == 8

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"training": {"steps": 40}}))
        tr_dir = tmp_path / "train"
        rc = main(["train", "--dataset", str(dataset), "--config", str(config), "--seed", "3", "--out", str(tr_dir)])
        assert rc == 0
        model = tr_dir / "model.json"
        assert model.exists()
        assert (tr_dir / "loss.csv").exists()

        capsys.readouterr()
        rc = main(["evaluate", "--model", str(model), "--dataset", str(dataset), "--out", str(tmp_path / "ev")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert (tmp_path / "ev" / "metrics.json").exists()


class TestTune:
    def test_tune_on_stored_scan(self, tmp_path, scan_file):
        rc = main(
            [
                "tune",
                "--source", f"scan:{scan_file}",
                "--classifier", "oracle",
                "--start", "330,350",
                "--policy", "dynamic",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["policy"] == "dynamic"
        assert (tmp_path / "run.csv").exists()

    def test_config_file_settings_apply(self, tmp_path, scan_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"policy": "fixed100", "span_mv": [40, 40]}))
        rc = main(
            [
                "tune",
                "--config", str(config),
                "--source", f"scan:{scan_file}",
                "--start", "330,350",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["policy"] == "fixed100"

    def test_missing_scan_is_machine_readable_error(self, tmp_path, capsys):
        rc = main(
            ["tune", "--source", "scan:/no/such/file", "--start", "300,300", "--out", str(tmp_path)]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScanFormatError"
        assert "message" in err

    def test_non_finite_scan_is_machine_readable_error(self, tmp_path, capsys, reference_source):
        path = tmp_path / "nan.qdscan.json"
        scan = reference_source.scan
        q.save_scan(scan.with_values(np.full(scan.shape, np.nan)), path, reference_source.labels)
        rc = main(["tune", "--source", f"scan:{path}", "--start", "350,400", "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScanFormatError"
        assert "'values'" in err["message"]
        assert not (tmp_path / "run.json").exists()

    def test_bad_policy_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--source", "sim", "--start", "300,300", "--policy", "fixed80", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_bad_start_syntax(self, tmp_path, capsys):
        rc = main(["tune", "--source", "sim", "--start", "300", "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"


    @pytest.mark.parametrize(
        "content, cause",
        [(b'\xff\xfe{"policy": "fixed75"}', "not valid JSON")]
        + [
            (json.dumps({section: [1]}).encode(), f"'{section}'")
            for section in ("fitness", "termination", "sandbox", "success")
        ],
        ids=["not_utf8", "fitness", "termination", "sandbox", "success"],
    )
    def test_malformed_config_is_machine_readable_error(self, tmp_path, capsys, content, cause):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        rc = main(
            ["tune", "--config", str(config), "--source", "sim", "--start", "300,300", "--out", str(tmp_path)]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert cause in err["message"]

    def test_training_section_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"training": "fast"}))
        rc = main(
            ["train", "--config", str(config), "--dataset", str(tmp_path / "ds.json"), "--out", str(tmp_path)]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "'training'" in err["message"]


class TestExperiments:
    def test_neighborhood_and_report(self, tmp_path, scan_file, capsys):
        runs = tmp_path / "runs"
        rc = main(
            [
                "neighborhood",
                "--source", f"scan:{scan_file}",
                "--point", "330,350",
                "--policy", "fixed75",
                "--out", str(runs),
            ]
        )
        assert rc == 0
        report_path = runs / "report_330_350_fixed75.json"
        assert report_path.exists()
        doc = json.loads(report_path.read_text())
        assert doc["n_runs"] == 81

        rc = main(["report", "--runs", str(runs), "--out", str(tmp_path / "tables")])
        assert rc == 0
        assert (tmp_path / "tables" / "success_rates.csv").exists()
        assert (tmp_path / "tables" / "iteration_stats.csv").exists()
        assert (tmp_path / "tables" / "summary.txt").exists()

    def test_report_without_inputs_fails_cleanly(self, tmp_path, capsys):
        rc = main(["report", "--runs", str(tmp_path), "--out", str(tmp_path / "tables")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"

    @pytest.mark.parametrize(
        "text, cause",
        [('{"point": [1, 2', "not valid JSON"), ('{"point": [1, 2]}', "'counts'")],
        ids=["truncated", "missing_field"],
    )
    def test_malformed_report_is_machine_readable_error(self, tmp_path, capsys, text, cause):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "report_1_2_fixed75.json").write_text(text)
        rc = main(["report", "--runs", str(runs), "--out", str(tmp_path / "tables")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScanFormatError"
        assert cause in err["message"]

    def test_heatmap(self, tmp_path, scan_file):
        rc = main(
            [
                "heatmap",
                "--source", f"scan:{scan_file}",
                "--grid-step", "40",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "heatmap.json").read_text())
        assert doc["policy"] == "fixed100"

    def test_landscape(self, tmp_path, scan_file):
        rc = main(["landscape", "--source", f"scan:{scan_file}", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "landscape.json").read_text())
        assert doc["shape"] == [71, 71]

    def test_landscape_requires_stored_scan(self, tmp_path, capsys):
        rc = main(["landscape", "--source", "sim", "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
