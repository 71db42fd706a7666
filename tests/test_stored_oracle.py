"""The oracle reads a stored scan's stride-1 windows off its table, with no
window built, and gets what cutting the window and classifying it gets: the
same vector object, the same refusal, the same runs, reports and heatmaps."""

import json
import math

import numpy as np
import pytest

import qdtune as q
from qdtune import grids as grids_mod
from qdtune import harness as harness_mod
from qdtune import scans as scans_mod
from qdtune.classifier import _stored_oracle, oracle_table
from qdtune.tuner import POLICIES

NON_FINITE = [math.nan, math.inf, -math.inf]


def _old_route(source, center, span, resolution, sandbox):
    """What acquiring the window and classifying it with the oracle gives."""
    found = q.acquire_with_labels(source, center, span, resolution, sandbox)
    if isinstance(found, q.Blocked):
        return found
    return q.OracleClassifier().probabilities(*found)


def _outcome(route, *args):
    """What ``route`` returns, or the type and message of what it raises."""
    try:
        return route(*args)
    except q.QdtuneError as exc:
        return type(exc), str(exc)


def _assert_same(source, center, span, resolution, sandbox):
    new = _outcome(_stored_oracle, source, center, span, resolution, sandbox)
    old = _outcome(_old_route, source, center, span, resolution, sandbox)
    if isinstance(old, q.ProbabilityVector):
        assert new is old, center
    else:
        assert new == old, center


class TestLocator:
    # The stored scan covers 125..525 x 150..550 mV with pixel centers on even
    # mV, so odd centers tie between two pixels; the grid reaches 15 mV past
    # the raster on every side, and the sandbox cuts into it on all four.
    @pytest.mark.parametrize(
        "span, sandbox",
        [
            ((60.0, 60.0), q.Sandbox()),
            ((60.0, 60.0), q.Sandbox((180.0, 470.0), (200.0, 505.0))),
            ((30.0, 44.0), q.Sandbox((140.0, 500.0), (170.0, 530.0))),
        ],
        ids=["study", "narrow_sandbox", "non_square"],
    )
    def test_every_1_mv_center_of_the_study_scan(self, reference_source, span, sandbox):
        blocked = 0
        for c1 in np.arange(110.0, 541.0):
            for c2 in np.arange(135.0, 566.0):
                center = (float(c1), float(c2))
                _assert_same(reference_source, center, span, 2.0, sandbox)
                blocked += isinstance(_stored_oracle(reference_source, center, span, 2.0, sandbox), q.Blocked)
        assert 0 < blocked < 431 * 431

    def test_half_mv_and_off_grid_centers(self, reference_source):
        rng = np.random.default_rng(20)
        centers = [(c1 + 0.5, c2 + 0.5) for c1, c2 in rng.integers(120, 540, size=(2000, 2)).tolist()]
        centers += [tuple(c) for c in rng.uniform(100.0, 570.0, size=(2000, 2)).tolist()]
        for center in centers:
            _assert_same(reference_source, center, (60.0, 60.0), 2.0, q.Sandbox())

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_centers_and_spans(self, reference_source, bad):
        for center, span in (((bad, 350.0), (60.0, 60.0)), ((350.0, bad), (60.0, 60.0)), ((350.0, 350.0), (bad, 60.0))):
            everywhere = q.Sandbox((-math.inf, math.inf), (-math.inf, math.inf))
            for sandbox in (q.Sandbox(), everywhere):
                _assert_same(reference_source, center, span, 2.0, sandbox)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_a_strided_window_is_left_to_acquisition(self, reference_source, stride):
        assert _stored_oracle(reference_source, (301.0, 330.0), (60.0, 60.0), 2.0 * stride, q.Sandbox()) is None
        # A refusal comes before the plan's stride is known, so it is returned as it is.
        assert _stored_oracle(reference_source, (10.0, 330.0), (60.0, 60.0), 2.0 * stride, q.Sandbox()) == q.Blocked(
            "window crosses the sandbox limits"
        )

    @pytest.mark.parametrize("resolution", [1.0, 3.0, math.nan])
    def test_a_bad_resolution_raises_as_acquisition_does(self, reference_source, resolution):
        with pytest.raises(q.UnsupportedResolutionError) as new:
            _stored_oracle(reference_source, (301.0, 330.0), (60.0, 60.0), resolution, q.Sandbox())
        with pytest.raises(q.UnsupportedResolutionError) as old:
            q.acquire_with_labels(reference_source, (301.0, 330.0), (60.0, 60.0), resolution)
        assert str(new.value) == str(old.value)


class SpyOracle:
    """Wraps the oracle, so the tuner cuts every window and classifies it."""

    def __init__(self):
        self.calls = 0
        self.inner = q.OracleClassifier()

    def probabilities(self, scan, labels):
        self.calls += 1
        return self.inner.probabilities(scan, labels)


def _refuse(*args, **kwargs):
    raise AssertionError("a window was built")


def _runs_json(report):
    return json.dumps([run.to_json_dict() for run in report.runs])


def _measured(report):
    return sum(not step.blocked for run in report.runs for step in run.steps)


POINTS = [(350.0, 400.0), (250.0, 400.0), (500.0, 470.0), (180.0, 520.0)]


class TestTuningRoute:
    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("policy", ["fixed75", "dynamic"])
    def test_oracle_neighborhood_builds_no_window_and_matches_the_spy(
        self, reference_source, oracle, point, policy, monkeypatch
    ):
        spy = SpyOracle()
        expect = harness_mod.neighborhood_experiment(reference_source, spy, point, POLICIES[policy])
        assert spy.calls == _measured(expect) > 0

        for module in (grids_mod, scans_mod):
            monkeypatch.setattr(module, "_scan_grid", _refuse)
            monkeypatch.setattr(module, "_label_grid", _refuse)
        monkeypatch.setattr(q.OracleClassifier, "probabilities", _refuse)
        monkeypatch.setattr(q.tuner, "acquire_with_labels", _refuse)
        monkeypatch.setattr(harness_mod, "acquire_with_labels", _refuse)
        got = harness_mod.neighborhood_experiment(reference_source, oracle, point, POLICIES[policy])
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())
        assert _runs_json(got) == _runs_json(expect)

    def test_oracle_run_shares_the_table_vectors(self, reference_source, oracle):
        """A step's vector is the table's own object, as the cut window's is."""
        run = q.autotune(reference_source, oracle, (350.0, 400.0))
        table = oracle_table(reference_source.tally, 30, 30)
        shared = {id(p) for p in table.vectors}
        assert all(id(step.probabilities) in shared for step in run.steps if not step.blocked)

    def test_a_narrow_sandbox_blocks_the_same_steps(self, reference_source, oracle):
        sandbox = q.Sandbox((240.0, 420.0), (300.0, 470.0))
        spy = SpyOracle()
        expect = harness_mod.neighborhood_experiment(reference_source, spy, (300.0, 400.0), sandbox=sandbox)
        got = harness_mod.neighborhood_experiment(reference_source, oracle, (300.0, 400.0), sandbox=sandbox)
        assert any(step.blocked for run in got.runs for step in run.steps)
        assert _runs_json(got) == _runs_json(expect)
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())

    def test_heatmap_matches_the_spy(self, reference_source, oracle, monkeypatch):
        spy = SpyOracle()
        expect = harness_mod.heatmap(reference_source, spy, grid_step=20.0)
        assert spy.calls > 0
        monkeypatch.setattr(q.OracleClassifier, "probabilities", _refuse)
        monkeypatch.setattr(q.tuner, "acquire_with_labels", _refuse)
        monkeypatch.setattr(harness_mod, "acquire_with_labels", _refuse)
        got = harness_mod.heatmap(reference_source, oracle, grid_step=20.0)
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())

    def test_stride_two_takes_the_old_route(self, reference_source, oracle, monkeypatch):
        """At twice the stored resolution the oracle cuts and classifies every
        measured window, and scores each run from a cut window too."""
        classified, acquired = [], []
        original_probabilities = q.OracleClassifier.probabilities
        original_acquire = harness_mod.acquire_with_labels

        def counting_probabilities(self, scan, labels):
            classified.append(scan.shape)
            return original_probabilities(self, scan, labels)

        def counting_acquire(*args, **kwargs):
            acquired.append(args[1])
            return original_acquire(*args, **kwargs)

        spy = SpyOracle()
        expect = harness_mod.neighborhood_experiment(reference_source, spy, (350.0, 400.0), resolution=4.0)
        monkeypatch.setattr(q.OracleClassifier, "probabilities", counting_probabilities)
        monkeypatch.setattr(harness_mod, "acquire_with_labels", counting_acquire)
        got = harness_mod.neighborhood_experiment(reference_source, oracle, (350.0, 400.0), resolution=4.0)
        assert _runs_json(got) == _runs_json(expect)
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())
        assert len(classified) == _measured(got) > 0 and set(classified) == {(15, 15)}
        assert len(acquired) == sum(run.best_center() is not None for run in got.runs)


class TestGroundTruth:
    def test_a_stored_window_is_read_off_the_table(self, reference_source, monkeypatch):
        rng = np.random.default_rng(5)
        centers = [tuple(c) for c in rng.integers(110, 560, size=(400, 2)).astype(float).tolist()]
        sandbox = q.Sandbox((150.0, 500.0), (160.0, 540.0))
        expect = []
        for center in centers:
            found = q.acquire_with_labels(reference_source, center, (60.0, 60.0), 2.0, sandbox)
            expect.append(None if isinstance(found, q.Blocked) else q.oracle_probability(found[1]).p_dd)
        assert None in expect and any(e is not None for e in expect)
        monkeypatch.setattr(harness_mod, "acquire_with_labels", _refuse)
        got = [harness_mod.ground_truth_dd_fraction(reference_source, c, (60.0, 60.0), 2.0, sandbox) for c in centers]
        assert got == expect

    def test_a_source_without_labels_is_refused(self, reference_scan):
        source = q.PremeasuredScan(reference_scan[0])
        with pytest.raises(q.ConfigurationError, match="ground-truth labels"):
            harness_mod.ground_truth_dd_fraction(source, (350.0, 400.0), (60.0, 60.0), 2.0)
        # A refused window is unmeasurable before the labels are asked for.
        assert harness_mod.ground_truth_dd_fraction(source, (10.0, 400.0), (60.0, 60.0), 2.0) is None
