import csv
import functools
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune import harness as harness_mod
from qdtune.grids import SINGLE_DOT_CODES
from qdtune.scans import _NO_LABELS
from qdtune.harness import (
    NEIGHBORHOOD_SIDE,
    ExperimentReport,
    IterationStats,
    _aggregate,
    run_weight,
)
from qdtune.tuner import POLICIES, TuningRun, TuningStep, Outcome

from faults import on_axes


def fake_run(best, fitness=0.5):
    step = TuningStep(center=best, probabilities=None, fitness=fitness, blocked=True)
    return TuningRun(
        start=best, steps=[step], outcome=Outcome("converged", best, None), policy_name="fixed75"
    )


class TestSuccessScoring:
    def test_dd_fraction_inside_double_dot(self, reference_source, reference_params):
        frac = q.ground_truth_dd_fraction(reference_source, (300.0, 320.0), (30.0, 30.0), 2.0)
        assert frac == 1.0

    def test_dd_fraction_none_when_blocked(self, reference_source):
        frac = q.ground_truth_dd_fraction(reference_source, (10.0, 10.0), (60.0, 60.0), 2.0)
        assert frac is None

    @given(
        seed=st.integers(0, 10_000),
        center=st.tuples(st.floats(-50.0, 650.0), st.floats(-50.0, 650.0)),
        pixels=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        resolution=st.sampled_from([1.0, 2.0, 2.5]),
    )
    @settings(max_examples=80)
    def test_simulated_labels_equal_the_rendered_ones(self, seed, center, pixels, resolution):
        """Labels-only scoring reads the labels render_scan gives the same
        window, and refuses what acquisition refuses; the widest sandbox lets
        windows reach the device domain's own refusal."""
        params = q.sample_device(seed)
        source = q.SimulatedDevice(params)
        span = (pixels[0] * resolution, pixels[1] * resolution)
        for sandbox in (q.Sandbox((-100.0, 700.0), (-100.0, 700.0)), q.Sandbox(), q.Sandbox((150.0, 450.0), (200.0, 500.0))):
            acquired = q.acquire_with_labels(source, center, span, resolution, sandbox)
            frac = q.ground_truth_dd_fraction(source, center, span, resolution, sandbox)
            if isinstance(acquired, q.Blocked):
                assert frac is None
                continue
            rendered = acquired[1]
            labels = q.device.render_labels(params, center, span, resolution)
            assert labels.labels.tobytes() == rendered.labels.tobytes()
            assert labels.v1_axis.tobytes() == rendered.v1_axis.tobytes()
            assert labels.v2_axis.tobytes() == rendered.v2_axis.tobytes()
            assert frac == q.oracle_probability(rendered).p_dd

    def test_simulated_scoring_computes_no_sensor_values(self, reference_params, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("success scoring computed sensor values")

        monkeypatch.setattr(q.device, "_sensor_grid", refuse)
        source = q.SimulatedDevice(reference_params)
        assert q.ground_truth_dd_fraction(source, (300.0, 320.0), (30.0, 30.0), 2.0) == 1.0
        for center in ((float("nan"), 300.0), (10.0, 10.0), (590.0, 300.0)):
            assert q.ground_truth_dd_fraction(source, center, (60.0, 60.0), 2.0) is None
        wide = q.Sandbox((-100.0, 700.0), (-100.0, 700.0))
        assert q.ground_truth_dd_fraction(source, (590.0, 300.0), (60.0, 60.0), 2.0, wide) is None

    def test_weights(self):
        regions = q.SuccessRegions()
        assert regions.weight(0.95) == 1.0
        assert regions.weight(0.6) == 0.5
        assert regions.weight(0.1) == 0.0
        assert regions.weight(None) == 0.0

    def test_thresholds_are_inclusive(self):
        regions = q.SuccessRegions()
        assert regions.weight(0.8) == 1.0
        assert regions.weight(0.4) == 0.5

    def test_run_weight_uses_best_center(self, reference_source):
        regions = q.SuccessRegions()
        good = fake_run((300.0, 320.0)).best_center()
        bad = fake_run((150.0, 170.0)).best_center()
        assert run_weight(good, reference_source, (60.0, 60.0), 2.0, q.Sandbox(), regions) == 1.0
        assert run_weight(bad, reference_source, (60.0, 60.0), 2.0, q.Sandbox(), regions) == 0.0
        assert run_weight(None, reference_source, (60.0, 60.0), 2.0, q.Sandbox(), regions) == 0.0

    def test_success_rate_averages(self, reference_source):
        regions = q.SuccessRegions()
        centers = [(300.0, 320.0), (150.0, 170.0)]
        weights = [run_weight(c, reference_source, (60.0, 60.0), 2.0, q.Sandbox(), regions) for c in centers]
        records = [
            {"start": list(c), "best_center": list(c), "iterations": 3, "weight": w, "outcome": "converged"}
            for c, w in zip(centers, weights)
        ]
        assert _aggregate((300.0, 320.0), "fixed75", records).success_rate == 0.5


@pytest.fixture(scope="module")
def report(reference_source, oracle):
    return q.neighborhood_experiment(
        reference_source, oracle, (350.0, 400.0), q.FixedSimplex(75.0)
    )


class TestNeighborhood:
    def test_exactly_81_runs(self, report):
        assert NEIGHBORHOOD_SIDE == 9
        assert report.n_runs == 81
        assert len(report.runs) == 81
        assert report.n_ideal + report.n_close + report.n_fail == 81

    def test_each_run_reads_its_best_center_once(self, reference_source, oracle, monkeypatch):
        calls = []
        best_center = TuningRun.best_center

        def counted(run):
            if sys._getframe(1).f_globals["__name__"] == "qdtune.harness":
                calls.append(run.start)
            return best_center(run)

        monkeypatch.setattr(TuningRun, "best_center", counted)
        report = q.neighborhood_experiment(reference_source, oracle, (350.0, 400.0), q.FixedSimplex(75.0))
        assert sorted(calls) == sorted(run.start for run in report.runs)
        assert [r["best_center"] for r in report.run_summaries] == [
            None if c is None else list(c) for c in map(best_center, report.runs)
        ]

    def test_starts_follow_native_raster(self, report, reference_scan):
        scan, _ = reference_scan
        res = scan.meta.resolution
        starts = {run.start for run in report.runs}
        assert len(starts) == 81
        for s1, s2 in starts:
            assert abs(s1 - 350.0) <= 4 * res + 1e-9
            assert abs(s2 - 400.0) <= 4 * res + 1e-9

    def test_success_rate_definition(self, report):
        expect = (report.n_ideal + 0.5 * report.n_close) / report.n_runs
        assert report.success_rate == pytest.approx(expect, abs=1e-12)

    def test_iteration_stats_recorded(self, report):
        assert len(report.iteration_counts) == 81
        assert report.iteration_mean == pytest.approx(np.mean(report.iteration_counts))
        assert report.iteration_sd == pytest.approx(np.std(report.iteration_counts, ddof=1))

    def test_neighborhood_near_edge_rejected(self, reference_source, oracle):
        with pytest.raises(q.ConfigurationError):
            q.neighborhood_experiment(
                reference_source, oracle, (595.0, 300.0), q.FixedSimplex(75.0)
            )

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf")])
    def test_non_finite_resolution_aborts_every_run(self, reference_source, oracle, resolution):
        report = q.neighborhood_experiment(reference_source, oracle, (300.0, 330.0), resolution=resolution)
        assert report.outcome_counts == {"aborted": 81}
        assert {run.outcome.cause.split(":")[0] for run in report.runs} == {"UnsupportedResolutionError"}

    @pytest.mark.parametrize("resolution", [0.0, -2.0, float("nan"), float("inf")])
    def test_simulated_source_refuses_bad_resolution_before_any_run(
        self, reference_params, oracle, monkeypatch, resolution
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr(harness_mod, "autotune", no_run)
        with pytest.raises(q.ConfigurationError, match=f"got {resolution}"):
            q.neighborhood_experiment(q.SimulatedDevice(reference_params), oracle, (300.0, 300.0), resolution=resolution)

    def test_report_json_round_trip(self, report, tmp_path):
        path = tmp_path / "report.json"
        report.save_json(path)
        back = ExperimentReport.from_json_dict(json.loads(path.read_text()))
        assert back.point == report.point
        assert back.success_rate == report.success_rate
        assert back.iteration_counts == report.iteration_counts
        assert back.outcome_counts == report.outcome_counts


class TestReportFile:
    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda doc: doc.update(point="ab"), "'point'"),
            (lambda doc: doc.update(n_runs=81.5), "'n_runs'"),
            (lambda doc: doc.update(n_runs=0), "'n_runs'"),
            (lambda doc: doc.update(success_rate=float("nan")), "'success_rate'"),
            (lambda doc: doc.update(policy=75), "'policy'"),
            (lambda doc: doc["counts"].update(ideal=True), "'counts.ideal'"),
            (lambda doc: doc["iterations"].update(per_run="12"), "'iterations.per_run'"),
            (lambda doc: doc["iterations"]["per_run"].append(1.5), "'iterations.per_run'"),
            (lambda doc: doc["outcomes"].update(stalled=None), "'outcomes.stalled'"),
            (lambda doc: doc.update(runs={}), "'runs'"),
            (lambda doc: doc.pop("counts"), "missing field 'counts'"),
            (lambda doc: doc["iterations"].update(per_run=[7, 7, 7]), r"'iterations.per_run' is \[7, 7, 7\], not the \["),
            (lambda doc: doc["counts"].update(fail=500), "'counts.fail' is 500, not the "),
            (lambda doc: doc["outcomes"].update(aborted=1), "unexpected field 'outcomes.aborted'"),
            (lambda doc: doc["runs"].pop(), "'n_runs' is 81, not the 80 its runs give"),
            (lambda doc: doc.update(success_rate=math.nextafter(doc["success_rate"], 0.0)), r"'success_rate' is \S+, not the \S+ its runs give"),
        ],
        ids=["point", "fractional_n_runs", "zero_n_runs", "nan_success_rate", "policy", "bool_count",
             "string_per_run", "fractional_per_run", "null_outcome", "runs", "missing_counts",
             "per_run_not_n_runs", "counts_not_n_runs", "outcomes_not_n_runs", "runs_not_n_runs",
             "success_rate_not_counts"],
    )
    def test_malformed_field_is_format_error_naming_it(self, report, mutate, field):
        doc = json.loads(json.dumps(report.to_json_dict()))
        mutate(doc)
        with pytest.raises(q.ScanFormatError, match=field) as exc:
            ExperimentReport.from_json_dict(doc)
        assert type(exc.value) is q.ScanFormatError

    def test_every_report_of_the_study_loads(self, reference_source, oracle, tmp_path):
        """Each report of the offline study, criterion 13's 19,240-byte one
        among them, loads and writes the same document again."""
        points = [(250.0, 400.0), (350.0, 415.0), (400.0, 350.0), (480.0, 470.0), (520.0, 480.0)]
        for point in points:
            for policy in POLICIES.values():
                report = q.neighborhood_experiment(reference_source, oracle, point, policy)
                path = tmp_path / "report.json"
                report.save_json(path)
                if (point, policy.name) == ((350.0, 415.0), "dynamic"):
                    assert len(path.read_bytes()) == 19240
                back = ExperimentReport.from_json_dict(json.loads(path.read_text()))
                assert back.to_json_dict() == report.to_json_dict()

    @pytest.mark.parametrize("seed", range(8))
    def test_a_rate_with_halves_loads(self, report, seed):
        """Whole and half weights sum exactly, so the rate a report was written
        with is the one its counts give, bit for bit."""
        weights = np.random.default_rng(seed).choice([0.0, 0.5, 1.0], size=report.n_runs).tolist()
        records = [{**r, "weight": w} for r, w in zip(report.run_summaries, weights)]
        written = _aggregate(report.point, report.policy_name, records)
        assert written.n_close > 0
        doc = json.loads(json.dumps(written.to_json_dict()))
        assert ExperimentReport.from_json_dict(doc).to_json_dict() == written.to_json_dict()

    @pytest.mark.parametrize("version", ["9", 1, None])
    def test_other_schema_version_is_version_error(self, report, version):
        doc = {**report.to_json_dict(), "schema_version": version}
        with pytest.raises(q.ScanVersionError, match="schema_version"):
            ExperimentReport.from_json_dict(doc)

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda doc: doc["iterations"].update(mean=99.0), r"'iterations.mean' is 99.0, not the \S+ its runs give"),
            (lambda doc: doc["iterations"].update(sd=0.0), r"'iterations.sd' is 0.0, not the \S+ its runs give"),
            (lambda doc: doc["iterations"]["per_run"].__setitem__(0, -1), "'iterations.per_run' is \\[-1, "),
            (lambda doc: doc["runs"][0].update(outcome="aborted"), "missing field 'outcomes.aborted'"),
            (lambda doc: doc.update(runs=[{}] * 81), "missing field 'runs\\[0\\].best_center'"),
            (lambda doc: doc.update(runs=[]), "'runs' holds no runs"),
            (lambda doc: doc["runs"][3].update(weight=0.7), r"'runs\[3\].weight' must be 0, 0.5 or 1, got 0.7"),
            (lambda doc: doc["runs"][3].update(weight=True), r"'runs\[3\].weight' must be a finite number"),
            (lambda doc: doc["runs"][3].update(iterations=-1), r"'runs\[3\].iterations' must be non-negative"),
            (lambda doc: doc["runs"][3].update(iterations=12.0), r"'runs\[3\].iterations' must be an integer"),
            (lambda doc: doc["runs"][3].update(start=[1.0]), r"'runs\[3\].start' must be a list of 2"),
            (lambda doc: doc["runs"][3].update(best_center="ab"), r"'runs\[3\].best_center' must be a list of 2"),
            (lambda doc: doc["runs"][3].update(outcome=None), r"'runs\[3\].outcome' must be a string"),
            (lambda doc: doc["runs"][3].update(cause=None), r"unexpected field 'runs\[3\].cause'"),
            (lambda doc: doc["runs"].__setitem__(3, [1, 2]), r"'runs\[3\]' must be an object"),
            (lambda doc: doc.update(notes="hand-edited"), "unexpected field 'notes'"),
            (lambda doc: doc.update(counts=[1, 2, 3]), r"'counts' is \[1, 2, 3\], not the \{"),
            (lambda doc: doc["counts"].update(fail=False), "'counts.fail' is False, not the 0 its runs give"),
            (lambda doc: doc.update(n_runs=81.0), "'n_runs' is 81.0, not the 81 its runs give"),
        ],
        ids=["iterations_mean", "iterations_sd", "negative_per_run", "outcome_not_outcomes", "empty_records",
             "no_records", "weight_not_a_weight", "bool_weight", "negative_iterations", "float_iterations",
             "short_start", "string_best_center", "null_outcome", "extra_record_field", "record_not_object",
             "extra_field", "counts_not_object", "bool_for_zero", "float_for_int"],
    )
    def test_a_field_its_runs_do_not_give_is_refused(self, report, mutate, field):
        """A loaded report is rebuilt from its typed run records, and every
        other field must be the one they give."""
        doc = json.loads(json.dumps(report.to_json_dict()))
        mutate(doc)
        with pytest.raises(q.ScanFormatError, match=field) as exc:
            ExperimentReport.from_json_dict(doc)
        assert type(exc.value) is q.ScanFormatError

    def test_whole_numbers_and_a_null_center_load(self, report):
        """A record's start may hold integers, its weight 0 or 1, and its best
        center null; the report loads and writes an equal document."""
        doc = json.loads(json.dumps(report.to_json_dict()))
        for record in doc["runs"][:3]:
            record.update(start=[int(v) for v in record["start"]], weight=int(record["weight"]), best_center=None)
        assert ExperimentReport.from_json_dict(doc).to_json_dict() == doc

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_report_is_refused_by_name_or_loads_as_written(self, report, data):
        """One leaf of a real report replaced, one key dropped, or one key
        added: the loader raises ScanFormatError or ScanVersionError naming
        that field (or, for a run record, a field it disagrees with), or
        loads a report that writes the same document as its runs give."""
        doc = json.loads(json.dumps(report.to_json_dict()))
        # One top-level field first, so the 81 run records do not crowd out the rest.
        top = data.draw(st.sampled_from(sorted(doc)))
        paths = list(_paths(doc[top], (top,)))
        op = data.draw(st.sampled_from(["replace", "drop", "extra"]))
        if op == "extra":
            path = data.draw(st.sampled_from([p for p in [(), *paths] if isinstance(_at(doc, p), dict)]))
            _at(doc, path)["zz"] = data.draw(OTHER_VALUES)
            path += ("zz",)
        else:
            path = data.draw(st.sampled_from(paths))
            parent, key = _at(doc, path[:-1]), path[-1]
            if op == "drop":
                del parent[key]
            else:
                parent[key] = data.draw(_mutations(parent[key]))
        try:
            loaded = ExperimentReport.from_json_dict(doc)
        except q.ScanFormatError as exc:
            message = str(exc)
            named = re.search("'" + re.escape(_field_name(path)) + r"[.\[']", message)
            disagrees = path[0] == "runs" and re.search(r"'(n_runs|success_rate|(counts|outcomes|iterations)\.\w+)'", message)
            assert named or disagrees, (path, message)
        else:
            assert loaded.to_json_dict() == doc, path
            rebuilt = _aggregate(loaded.point, loaded.policy_name, loaded.run_summaries)
            assert rebuilt.to_json_dict() == doc, path


# Values of other types, and numbers a report never holds, for the loader fuzz.
OTHER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="abz", max_size=3),
    st.lists(st.floats(-1e3, 1e3), max_size=3),
    st.just({}),
)


def _mutations(value):
    """A replacement for ``value``: another type, or a nearby number, NaN
    or a bool when it is a number."""
    if type(value) in (int, float):
        near = [value + 1, value - 1, -value, float(value), int(value), math.nextafter(value, math.inf), math.nan, True]
        return st.one_of(st.sampled_from(near), OTHER_VALUES)
    return OTHER_VALUES


def _paths(node, path=()):
    """Path of ``node`` and of every value inside it, depth first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _field_name(path) -> str:
    """The name the loader gives the field at ``path``: dotted keys, with a
    run record's index in brackets; a list of numbers is one field."""
    name = ""
    for key in path:
        if isinstance(key, int):
            if name != "runs":
                break
            name += f"[{key}]"
        else:
            name += f".{key}" if name else key
    return name


class TestDeterminism:
    def test_runs_match_fresh_runs_in_reverse_order(self, reference_source, oracle, fresh_runs_in_reverse):
        make_policy = functools.partial(q.FixedSimplex, 100.0)
        fresh = fresh_runs_in_reverse(reference_source, oracle, (350.0, 415.0), make_policy)
        report = q.neighborhood_experiment(reference_source, oracle, (350.0, 415.0), make_policy())
        assert len(report.runs) == 81
        for run in report.runs:
            assert json.dumps(run.to_json_dict()) == fresh.get(run.start), run.start

    def test_repeat_invocation_identical(self, reference_source, oracle, tmp_path):
        a = q.neighborhood_experiment(reference_source, oracle, (250.0, 400.0), q.DynamicSimplex())
        b = q.neighborhood_experiment(reference_source, oracle, (250.0, 400.0), q.DynamicSimplex())
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save_json(pa)
        b.save_json(pb)
        assert pa.read_bytes() == pb.read_bytes()


class TestHeatmap:
    def test_margins_and_start_grid(self, reference_params, oracle):
        # 400x400 mV scan, 30 mV windows, fixed100 reach: the start grid
        # keeps 115 mV clear on the low side and 15 mV on the high side
        scan, labels = q.render_scan(reference_params, (300.0, 350.0), (400.0, 400.0), 2.0)
        source = q.PremeasuredScan(scan, labels)
        result = q.heatmap(source, oracle)
        assert result.weights.shape == (28, 28)
        assert result.n_starts == 784
        assert result.v1_starts[0] == 215.0 and result.v1_starts[-1] == 485.0
        assert result.v2_starts[0] == 265.0 and result.v2_starts[-1] == 535.0
        assert result.policy_name == "fixed100"
        assert ((result.weights == 0) | (result.weights == 0.5) | (result.weights == 1)).all()

    def test_start_outside_the_sandbox_runs_nothing(self, reference_source, oracle, monkeypatch):
        """The stored scan reaches past the sandbox, so some starts of its grid
        lie outside it: the heatmap refuses them before its first run."""

        def no_run(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr(harness_mod, "autotune", no_run)
        with pytest.raises(q.ConfigurationError, match=r"start \(410.0, 265.0\) lies outside the sandbox; nothing was run"):
            q.heatmap(reference_source, oracle, sandbox=q.Sandbox((0.0, 400.0), (0.0, 600.0)))

    def test_model_heatmap_at_the_default_span_records_why_every_run_failed(self, reference_params):
        """A 30 mV window is 15 px at 2 mV/px, too small for the model's
        preprocessing, so every run aborts; the outcome counts say so, and
        the JSON document is as it was."""
        scan, labels = q.render_scan(reference_params, (300.0, 350.0), (400.0, 400.0), 2.0)
        result = q.heatmap(q.PremeasuredScan(scan), q.ModelClassifier(q.init_model(0)), q.FixedSimplex(100.0))
        assert result.n_starts == 784
        assert result.outcome_counts == {"aborted": 784}
        assert not result.weights.any()
        assert "outcome_counts" not in result.to_json_dict() and "outcomes" not in result.to_json_dict()

    def test_oracle_heatmap_counts_every_run(self, reference_source, oracle):
        result = q.heatmap(reference_source, oracle, grid_step=40.0)
        assert sum(result.outcome_counts.values()) == result.n_starts
        assert set(result.outcome_counts) <= {"converged", "max_iterations", "aborted"}
        assert "aborted" not in result.outcome_counts

    def test_policy_reach(self):
        assert q.FixedSimplex(75.0).reach == 75.0
        assert q.DynamicSimplex().reach == 150.0

    def test_json_output(self, reference_source, oracle, tmp_path):
        result = q.heatmap(reference_source, oracle, grid_step=60.0)
        path = tmp_path / "hm.json"
        result.save_json(path)
        doc = json.loads(path.read_text())
        assert doc["grid_step_mv"] == 60.0
        got = np.array(doc["weights"])
        np.testing.assert_array_equal(got, result.weights)


class TestLandscape:
    def test_shape_range_and_argmin(self, reference_source, reference_params):
        result = q.fitness_landscape(reference_source)
        assert result.values.shape == (171, 171)
        assert result.values.min() >= 0.0
        assert result.values.max() <= 2.0
        best = result.argmin_center()
        assert q.state_at(reference_params, *best) == q.StateLabel.DOUBLE_DOT

    def test_oracle_landscape_needs_labels_and_a_model_landscape_does_not(self, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 330.0), (100.0, 100.0), 2.0)
        source = q.PremeasuredScan(scan)
        with pytest.raises(q.ConfigurationError, match=f"^{_NO_LABELS}$"):
            q.fitness_landscape(source)
        result = q.fitness_landscape(source, q.ModelClassifier(q.init_model(0)))
        assert result.values.shape == (21, 21)
        assert np.isfinite(result.values).all()

    def test_other_classifiers_are_refused(self, reference_source):
        class PlainOracle:
            def probabilities(self, scan, labels):
                return q.oracle_probability(labels)

        with pytest.raises(q.ConfigurationError, match="not PlainOracle"):
            q.fitness_landscape(reference_source, PlainOracle())

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_oracle_landscape_matches_per_window_loop(self, seed):
        """Scoring each distinct (sd, dd) pair once gives the same bytes as
        scoring every window."""
        rng = np.random.default_rng(seed)
        block = int(rng.integers(1, 5))
        k1, k2 = (int(k) for k in rng.integers(1, 8, size=2))
        codes = np.repeat(np.repeat(rng.integers(0, 5, size=(k1, k2)), block, 0), block, 1).astype(np.int8)
        n1, n2 = codes.shape
        w1, w2 = int(rng.integers(1, n1 + 1)), int(rng.integers(1, n2 + 1))
        config = q.FitnessConfig(alpha=float(rng.uniform(0, 2)), cap=bool(rng.integers(2)))
        res = 2.0
        v1 = 100 + (np.arange(n1) + 0.5) * res
        v2 = 200 + (np.arange(n2) + 0.5) * res
        source = q.PremeasuredScan(
            q.ScanGrid(np.zeros((n1, n2)), v1, v2, q.ScanMeta(res)), q.LabelGrid(codes, v1, v2)
        )
        got = q.fitness_landscape(source, window_span=(w1 * res, w2 * res), fitness_config=config)

        n = w1 * w2
        expect = np.empty((n1 - w1 + 1, n2 - w2 + 1))
        for i in range(expect.shape[0]):
            for j in range(expect.shape[1]):
                window = codes[i : i + w1, j : j + w2]
                n_sd = int(np.isin(window, SINGLE_DOT_CODES).sum())
                n_dd = int((window == int(q.StateLabel.DOUBLE_DOT)).sum())
                p = q.ProbabilityVector((n - n_sd - n_dd) / n, n_sd / n, n_dd / n)
                expect[i, j] = q.fitness(p, config)
        assert got.values.tobytes() == expect.tobytes()

    def test_model_landscape_matches_loop_over_validated_grids(self, reference_params, monkeypatch):
        """Sliding-window views score every window as the validated ScanGrid
        and LabelGrid of the same pixels do, byte for byte, and build no grid."""
        scan, labels = q.render_scan(reference_params, (340.0, 380.0), (80.0, 80.0), 2.0, with_noise=True)
        source = q.PremeasuredScan(scan, labels)
        classifier = q.ModelClassifier(q.init_model(5))
        config = q.FitnessConfig()
        w = 30
        expect = np.empty((scan.shape[0] - w + 1, scan.shape[1] - w + 1))
        for i in range(expect.shape[0]):
            for j in range(expect.shape[1]):
                v1, v2 = scan.v1_axis[i : i + w], scan.v2_axis[j : j + w]
                window = q.ScanGrid(scan.values[i : i + w, j : j + w], v1, v2, scan.meta)
                window_labels = q.LabelGrid(labels.labels[i : i + w, j : j + w], v1, v2)
                expect[i, j] = q.fitness(classifier.probabilities(window, window_labels), config)

        built = []
        original = q.ScanGrid.__post_init__
        monkeypatch.setattr(q.ScanGrid, "__post_init__", lambda grid: built.append(original(grid)))
        got = q.fitness_landscape(source, classifier, window_span=(w * 2.0, w * 2.0), fitness_config=config)
        assert got.values.tobytes() == expect.tobytes()
        assert built == []

    def test_model_landscape_crops_no_window(self, reference_params, monkeypatch):
        """The model landscape scores views of the stored values, and acquires
        no window of the stored scan."""
        scan, labels = q.render_scan(reference_params, (340.0, 380.0), (70.0, 70.0), 2.0)
        source = q.PremeasuredScan(scan, labels)
        classifier = q.ModelClassifier(q.init_model(5))

        def refuse(*args, **kwargs):
            raise AssertionError("the model landscape acquired a window")

        monkeypatch.setattr(harness_mod, "acquire_with_labels", refuse)
        result = q.fitness_landscape(source, classifier)
        assert result.values.shape == (6, 6)

    def test_model_landscape_refuses_a_non_finite_pixel(self, reference_params):
        scan, labels = q.render_scan(reference_params, (340.0, 380.0), (70.0, 70.0), 2.0)
        values = scan.values.copy()
        values[3, 4] = np.inf  # inside windows 0..3 of the first row of starts
        source = q.PremeasuredScan(on_axes(scan, values), labels)
        with pytest.raises(q.ShapeError, match="not finite: NaN or infinite pixels in window 0 of 6"):
            q.fitness_landscape(source, q.ModelClassifier(q.init_model(5)))

    @pytest.mark.parametrize("span", [59.0, 61.0])
    def test_span_must_be_whole_pixels(self, reference_source, reference_params, span):
        # rounding would turn either span into a 30 px window of the 2 mV raster;
        # the landscape refuses it as acquisition and rendering do
        window = (span, span)
        with pytest.raises(q.ConfigurationError, match="integer number"):
            q.fitness_landscape(reference_source, window_span=window)
        with pytest.raises(q.ConfigurationError, match="integer number"):
            q.acquire_with_labels(reference_source, (300.0, 330.0), window, 2.0)
        with pytest.raises(q.ConfigurationError, match="integer number"):
            q.render_scan(reference_params, (300.0, 330.0), window, 2.0)

    def test_requires_premeasured_source(self, reference_params, oracle):
        with pytest.raises(q.ConfigurationError):
            q.fitness_landscape(q.SimulatedDevice(reference_params), oracle)

    def test_save_json(self, reference_source, tmp_path):
        result = q.fitness_landscape(reference_source)
        path = tmp_path / "land.json"
        result.save_json(path)
        doc = json.loads(path.read_text())
        assert doc["shape"] == [171, 171]


def report_with_counts(point, policy_name, counts):
    counts = list(counts)
    return ExperimentReport(
        point=point,
        policy_name=policy_name,
        n_runs=len(counts),
        success_rate=1.0,
        n_ideal=len(counts),
        n_close=0,
        n_fail=0,
        outcome_counts={"converged": len(counts)},
        iteration_mean=float(np.mean(counts)),
        iteration_sd=float(np.std(counts, ddof=1)) if len(counts) > 1 else 0.0,
        iteration_counts=counts,
        run_summaries=[],
        runs=[],
    )


class TestIterationStats:
    def test_pooled_formula(self):
        a = report_with_counts((1, 1), "fixed75", [10, 12, 14])
        b = report_with_counts((2, 2), "fixed75", [20, 22])
        stats = q.iteration_stats([a, b])
        mean, sd = stats.pooled["fixed75"]
        assert mean == pytest.approx(np.mean([10, 12, 14, 20, 22]))
        dof = (3 - 1) + (2 - 1)
        expect_var = ((3 - 1) * np.var([10, 12, 14], ddof=1) + (2 - 1) * np.var([20, 22], ddof=1)) / dof
        assert sd == pytest.approx(np.sqrt(expect_var))

    def test_policies_kept_separate(self):
        a = report_with_counts((1, 1), "fixed75", [10, 12])
        b = report_with_counts((1, 1), "dynamic", [30, 34])
        stats = q.iteration_stats([a, b])
        assert set(stats.pooled) == {"dynamic", "fixed75"}
        assert stats.pooled["fixed75"][0] == 11.0
        assert stats.pooled["dynamic"][0] == 32.0

    def test_empty_rejected(self):
        with pytest.raises(q.ConfigurationError):
            q.iteration_stats([])

    def test_single_run_reports_have_zero_pooled_sd(self):
        a = report_with_counts((1, 1), "fixed75", [10])
        stats = q.iteration_stats([a])
        assert stats.pooled["fixed75"] == (10.0, 0.0)


@pytest.fixture(scope="module")
def reports():
    return [
        report_with_counts((250, 400), "fixed75", [10, 12, 14]),
        report_with_counts((250, 400), "dynamic", [8, 9, 10]),
    ]


class TestReportTables:
    def test_success_csv(self, reports, tmp_path):
        path = tmp_path / "success.csv"
        q.write_success_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["point_v1", "point_v2", "policy"]
        assert "success_rate" in rows[0]
        assert len(rows) == 3

    def test_iteration_csv_includes_pooled_rows(self, reports, tmp_path):
        path = tmp_path / "iters.csv"
        q.write_iteration_csv(reports, q.iteration_stats(reports), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert any(row[0] == "pooled" for row in rows[1:])

    def test_summary_text(self, reports, tmp_path):
        path = tmp_path / "summary.txt"
        q.write_summary_text(reports, q.iteration_stats(reports), path)
        text = path.read_text()
        assert "fixed75" in text and "dynamic" in text
