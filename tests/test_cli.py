import dataclasses
import json

import numpy as np
import pytest

import qdtune as q
from qdtune import classifier as classifier_mod
from qdtune import harness as harness_mod
from qdtune import tuner as tuner_mod
from qdtune.cli import _load_config, build_parser, main

from faults import on_axes, write_one_row_scan

NAN, INF = float("nan"), float("inf")


# Two run records as a report file holds them: one ideal run and one failed one.
RUN_RECORDS = [
    {"start": [1.0, 2.0], "best_center": [1.0, 2.0], "iterations": 2, "weight": 1.0, "outcome": "converged"},
    {"start": [3.0, 4.0], "best_center": None, "iterations": 4, "weight": 0.0, "outcome": "converged"},
]


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


    @pytest.mark.parametrize("center", ["nan,300", "300,nan", "inf,300", "300,-inf"])
    def test_render_scan_non_finite_center_is_machine_readable_error(self, tmp_path, capsys, center):
        assert main(["render-scan", "--center", center, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert not list(tmp_path.iterdir())

    def test_render_scan_malformed_device_file_is_machine_readable_error(self, tmp_path, capsys):
        device = tmp_path / "device.json"
        device.write_text(json.dumps({**q.reference_device().to_json_dict(), "lever_arms": [1.0]}))
        out = tmp_path / "out"
        assert main(["render-scan", "--device", str(device), "--center", "300,300", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScanFormatError"
        assert "'lever_arms'" in err["message"]
        assert not out.exists()

    def test_render_scan_reads_seed_and_noise_from_the_config(self, tmp_path):
        window = ["--center", "300,330", "--span", "20,20"]

        def render(name, *argv, doc=None):
            out = tmp_path / name
            if doc is not None:
                (tmp_path / f"{name}.json").write_text(json.dumps(doc))
                argv = (*argv, "--config", str(tmp_path / f"{name}.json"))
            assert main(["render-scan", *window, *argv, "--out", str(out)]) == 0
            return (out / "scan_300_330.qdscan.json").read_bytes()

        noisy = {"seed": 5, "noise": True, "noise_seed": 3}
        by_flags = render("flags", "--seed", "5", "--noise", "--noise-seed", "3")
        assert render("file", doc=noisy) == by_flags
        assert by_flags != render("reference") != render("seed5", "--seed", "5")
        # Flags override the file; a device file overrides any seed.
        assert render("override", "--seed", "5", "--noise-seed", "3", doc={"seed": 9, "noise": True}) == by_flags
        device = tmp_path / "device_5.json"
        q.save_device(q.sample_device(5), device)
        assert render("device", "--device", str(device), doc={**noisy, "seed": 9}) == by_flags


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
        q.save_scan(on_axes(scan, np.full(scan.shape, np.nan)), path, reference_source.labels)
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

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"fitness": {"alpha": "abc"}}, "fitness.alpha"),
            ({"fitness": {"alpha": True}}, "fitness.alpha"),
            ({"fitness": {"alpha": float("nan")}}, "fitness.alpha"),
            ({"span_mv": [60, float("inf")]}, "span_mv"),
            ({"fitness": {"cap": "false"}}, "fitness.cap"),
            ({"termination": {"max_iterations": "x"}}, "termination.max_iterations"),
            ({"termination": {"max_iterations": 3.0}}, "termination.max_iterations"),
            ({"termination": {"max_iteration": 3}}, "termination.max_iteration"),
            ({"span_mv": 5}, "span_mv"),
            ({"sandbox": {"v1_range": [1]}}, "sandbox.v1_range"),
            ({"sandbox": {"blocked_fitness": 2.0}}, "sandbox.blocked_fitness"),
            ({"noise_seed": "x"}, "noise_seed"),
            ({"resolution_mv": None}, "resolution_mv"),
            ({"policy": "fixed80"}, "fixed80"),
            ({"workers": 2}, "workers"),
            ({"training": {"beta1": 0.5}}, "training.beta1"),
            ({"training": {"seed": 1}}, "training.seed"),
        ],
    )
    def test_bad_config_key_is_machine_readable_error(self, tmp_path, capsys, doc, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        rc = main(
            ["tune", "--config", str(config), "--source", "sim", "--start", "300,300", "--out", str(tmp_path)]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert f"'{key}'" in err["message"]
        assert not (tmp_path / "run.json").exists()

    def test_non_integer_sim_seed_is_machine_readable_error(self, tmp_path, capsys):
        rc = main(["tune", "--source", "sim:abc", "--start", "300,300", "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "'sim:abc'" in err["message"]

    @pytest.mark.parametrize(
        "argv, doc, named",
        [
            (["sample-device", "--seed", "-1"], None, "seed"),
            (["tune", "--source", "sim:-1", "--start", "300,300"], None, "seed"),
            (["render-scan", "--center", "300,300", "--noise", "--noise-seed", "-1"], None, "noise_seed"),
            (["render-scan", "--center", "300,300"], {"noise": True, "noise_seed": -2}, "noise_seed"),
            (["tune", "--source", "sim", "--start", "300,300"], {"noise": True, "noise_seed": -2}, "SimulatedDevice.noise_seed"),
        ],
        ids=["sample-device", "sim-source", "noise-seed-flag", "render-config", "tune-config"],
    )
    def test_a_negative_seed_is_one_json_line_naming_it(self, tmp_path, capsys, argv, doc, named):
        if doc is not None:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(doc))
            argv = [*argv, "--config", str(config)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigurationError"
        assert err["message"].startswith(f"{named} must be a non-negative integer, got -")
        assert not out.exists()

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
        [
            ('{"point": [1, 2', "not valid JSON"),
            (json.dumps({"schema_version": "1", "point": [1, 2], "policy": "fixed75", "runs": RUN_RECORDS[:1]}),
             "missing field 'counts'"),
        ],
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

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("point", "ab", "ScanFormatError"),
            ("n_runs", 2.5, "ScanFormatError"),
            ("success_rate", float("nan"), "ScanFormatError"),
            ("schema_version", "9", "ScanVersionError"),
        ],
    )
    def test_one_malformed_report_writes_no_table(self, tmp_path, capsys, field, value, error):
        good = harness_mod._aggregate((1.0, 2.0), "fixed75", RUN_RECORDS)
        runs = tmp_path / "runs"
        runs.mkdir()
        good.save_json(runs / "report_1_2_fixed75.json")
        (runs / "report_3_4_fixed75.json").write_text(json.dumps({**good.to_json_dict(), field: value}))
        rc = main(["report", "--runs", str(runs), "--out", str(tmp_path / "tables")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert f"'{field}'" in err["message"]
        assert not (tmp_path / "tables").exists()

    @pytest.mark.parametrize(
        "tamper, field",
        [
            (lambda doc: doc["iterations"].update(mean=99.0), "'iterations.mean' is 99.0, not the 3.0 its runs give"),
            (lambda doc: doc["runs"][0].update(weight=0.5), "'success_rate' is 0.5, not the 0.25 its runs give"),
            (lambda doc: doc["iterations"].update(per_run=[-2, 4]), "'iterations.per_run' is [-2, 4], not the [2, 4]"),
        ],
        ids=["iterations_mean", "run_weight", "negative_per_run"],
    )
    def test_report_its_runs_do_not_give_writes_no_table(self, tmp_path, capsys, tamper, field):
        """A report whose pooled figures its run records do not give is
        refused by name, and no table is written from it."""
        doc = json.loads(json.dumps(harness_mod._aggregate((1.0, 2.0), "fixed75", RUN_RECORDS).to_json_dict()))
        tamper(doc)
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "report_1_2_fixed75.json").write_text(json.dumps(doc))
        rc = main(["report", "--runs", str(runs), "--out", str(tmp_path / "tables")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScanFormatError"
        assert field in err["message"]
        assert not (tmp_path / "tables").exists()

    def test_neighborhood_on_sim_refuses_zero_resolution(self, tmp_path, capsys):
        argv = ["neighborhood", "--source", "sim", "--point", "300,300", "--resolution", "0", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "resolution" in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("span", ["nan,60", "700,60"])
    def test_gen_dataset_refuses_span_before_drawing(self, tmp_path, capsys, span):
        argv = ["gen-dataset", "--devices", "1", "--samples", "1", "--span", span, "--out", str(tmp_path)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert f"span {span.split(',')[0]}" in err["message"]

    def test_heatmap(self, tmp_path, scan_file, capsys):
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
        line = capsys.readouterr().out.strip()
        outcomes = dict(item.split("=") for item in line.split(", outcomes ")[1].split())
        assert sum(map(int, outcomes.values())) == len(doc["v1_starts"]) * len(doc["v2_starts"])

    @pytest.mark.parametrize(
        "flags, value",
        [
            (["--grid-step", "0"], "0.0"),
            (["--grid-step", "nan"], "nan"),
            (["--grid-step", "-10"], "-10.0"),
            (["--span=nan,30"], "nan"),
        ],
    )
    def test_heatmap_bad_grid_is_refused_before_any_run(self, tmp_path, scan_file, capsys, flags, value):
        rc = main(["heatmap", "--source", f"scan:{scan_file}", *flags, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert value in err["message"]
        assert not (tmp_path / "heatmap.json").exists()

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_heatmap_on_a_one_row_scan_with_a_non_finite_axis_is_one_json_line(self, tmp_path, capsys, bad):
        path = tmp_path / "row.qdscan.json"
        write_one_row_scan(path, bad, with_labels=False)
        rc = main(["heatmap", "--source", f"scan:{path}", "--span", "2,2", "--out", str(tmp_path / "out")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ScanFormatError"
        assert "v1_axis must hold finite values" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_heatmap_start_outside_the_configured_sandbox_runs_nothing(self, tmp_path, scan_file, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr(harness_mod, "autotune", no_run)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sandbox": {"v1_range": [0, 350], "v2_range": [0, 600]}}))
        out = tmp_path / "out"
        rc = main(["heatmap", "--source", f"scan:{scan_file}", "--config", str(config), "--grid-step", "40", "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "(355.0, 345.0) lies outside the sandbox; nothing was run" in err["message"]
        assert not (out / "heatmap.json").exists()

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

    def test_landscape_span_off_the_raster_is_machine_readable_error(self, tmp_path, scan_file, capsys):
        rc = main(["landscape", "--source", f"scan:{scan_file}", "--span", "61,61", "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "61.0" in err["message"]
        assert not (tmp_path / "landscape.json").exists()


# Every accepted config key, each set to a value other than the library default.
FULL_CONFIG = {
    "seed": 4,
    "span_mv": [64, 64],
    "resolution_mv": 2.5,
    "grid_step_mv": 50,
    "policy": "dynamic",
    "noise": True,
    "noise_seed": 3,
    "fitness": {
        "p_target": [0.1, 0.1, 0.8],
        "alpha": 1.5,
        "beta": 0.5,
        "steepness": 8,
        "blocked_fitness": 2.5,
        "cap": False,
    },
    "termination": {"fitness_tolerance": 0.05, "simplex_size_tolerance": 3, "max_iterations": 30},
    "sandbox": {"v1_range": [10, 590], "v2_range": [20, 580]},
    "success": {"theta_ideal": 0.7, "theta_close": 0.3},
    "training": {"learning_rate": 0.002, "steps": 30, "batch_size": 10},
}

SECTION_CLASSES = {
    "fitness": q.FitnessConfig,
    "termination": q.TerminationConfig,
    "sandbox": q.Sandbox,
    "success": q.SuccessRegions,
    "training": q.TrainingConfig,
}


class _Called(Exception):
    """Raised by a stand-in library function once it has recorded its arguments."""


def _capture(monkeypatch, module, name):
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Called

    monkeypatch.setattr(module, name, record)
    return calls


class TestConfigReachesLibrary:
    """The CLI builds library objects from the config file and restates no default."""

    def test_empty_config_gives_library_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        for config in (_load_config(None), _load_config(str(path))):
            assert config == {name: cls() for name, cls in SECTION_CLASSES.items()}

    def test_every_section_key_reaches_its_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FULL_CONFIG))
        config = _load_config(str(path))
        for name, cls in SECTION_CLASSES.items():
            assert set(FULL_CONFIG[name]) == {f.name for f in dataclasses.fields(cls)} - {"seed"}
            default = cls()
            for key, value in FULL_CONFIG[name].items():
                got = getattr(config[name], key)
                expected = q.ProbabilityVector(*value) if key == "p_target" else value
                assert got == (tuple(expected) if isinstance(expected, list) else expected), (name, key)
                assert got != getattr(default, key), (name, key)

    def test_empty_config_leaves_window_and_policy_to_the_library(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text("{}")
        calls = _capture(monkeypatch, tuner_mod, "autotune")
        with pytest.raises(_Called):
            main(["tune", "--config", str(path), "--source", "sim", "--start", "300,300", "--out", str(tmp_path)])
        (source, _, start), kwargs = calls[0]
        assert source == q.SimulatedDevice(q.reference_device())
        assert start == (300.0, 300.0)
        assert kwargs == {
            "fitness_config": q.FitnessConfig(),
            "term": q.TerminationConfig(),
            "sandbox": q.Sandbox(),
        }

    def test_every_top_level_key_reaches_the_library(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FULL_CONFIG))
        config = ["--config", str(path), "--out", str(tmp_path)]
        window = {"span": (64.0, 64.0), "resolution": 2.5}

        calls = _capture(monkeypatch, tuner_mod, "autotune")
        with pytest.raises(_Called):
            main(["tune", "--source", "sim:7", "--start", "300,300", *config])
        (source, _, _), kwargs = calls[0]
        assert source == q.SimulatedDevice(q.sample_device(7), with_noise=True, noise_seed=3)
        assert kwargs["policy"] == q.DynamicSimplex()
        assert {k: kwargs[k] for k in window} == window

        calls = _capture(monkeypatch, harness_mod, "heatmap")
        with pytest.raises(_Called):
            main(["heatmap", "--source", "sim", *config])
        _, kwargs = calls[0]
        assert kwargs["grid_step"] == 50.0 and kwargs["span"] == (64.0, 64.0)
        assert kwargs["regions"] == q.SuccessRegions(0.7, 0.3)

        calls = _capture(monkeypatch, classifier_mod, "generate_dataset")
        with pytest.raises(_Called):
            main(["gen-dataset", "--devices", "2", "--samples", "1", *config])
        _, kwargs = calls[0]
        assert kwargs == {"seed": 4, "with_noise": True, **window}

        monkeypatch.setattr(classifier_mod, "load_dataset", lambda path: [])
        calls = _capture(monkeypatch, classifier_mod, "train")
        with pytest.raises(_Called):
            main(["train", "--dataset", "d.json", *config])
        (_, training), _ = calls[0]
        assert training == q.TrainingConfig(learning_rate=0.002, steps=30, batch_size=10, seed=4)

        assert main(["sample-device", *config]) == 0
        assert (tmp_path / "device_4.json").exists()

    def test_flags_override_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FULL_CONFIG))
        calls = _capture(monkeypatch, tuner_mod, "autotune")
        with pytest.raises(_Called):
            main(
                [
                    "tune", "--config", str(path), "--source", "sim", "--start", "300,300",
                    "--policy", "fixed75", "--span", "50,50", "--resolution", "2", "--out", str(tmp_path),
                ]
            )
        _, kwargs = calls[0]
        assert kwargs["policy"] == q.FixedSimplex(75.0)
        assert kwargs["span"] == (50.0, 50.0) and kwargs["resolution"] == 2.0


# Required arguments of each command that reads neither --seed nor --config.
_BASE_ARGS = {
    "evaluate": ["--model", "m.json", "--dataset", "d.json"],
    "tune": ["--source", "sim", "--start", "300,300"],
    "neighborhood": ["--source", "sim", "--point", "300,300"],
    "heatmap": ["--source", "sim"],
    "landscape": ["--source", "sim"],
    "report": ["--runs", "r"],
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, "--seed") for command in ("evaluate", "tune", "neighborhood", "heatmap", "landscape", "report")]
    + [("evaluate", "--config"), ("report", "--config")],
)
def test_unread_flag_is_usage_error(tmp_path, command, flag):
    argv = [command, *_BASE_ARGS[command], "--out", str(tmp_path)]
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    assert exc.value.code == 2
