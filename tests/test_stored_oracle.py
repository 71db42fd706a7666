"""On a stored scan each built-in classifier reads the window the locator
finds (``stored_probabilities``), with no window built, and gets what
cutting the window and classifying it gets: the same vector bits, the same
refusal, the same runs, reports and heatmaps. The oracle reads a stride-1
window off its table and counts a strided window's codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune import grids as grids_mod
from qdtune import harness as harness_mod
from qdtune import scans as scans_mod
from qdtune.classifier import oracle_table
from qdtune.scans import _crop_start, _locate, _locator, _refusal
from qdtune.tuner import POLICIES

NON_FINITE = [math.nan, math.inf, -math.inf]


def _old_route(source, center, span, resolution, sandbox, classifier=q.OracleClassifier()):
    """What acquiring the window and classifying it gives."""
    found = q.acquire_with_labels(source, center, span, resolution, sandbox)
    if isinstance(found, q.Blocked):
        return found
    return classifier.probabilities(*found)


def _stored_route(source, center, span, resolution, sandbox, classifier=q.OracleClassifier()):
    """What locating the window and reading it where it lies gives."""
    found = _locate(source, center, span, resolution, sandbox)
    if isinstance(found, q.Blocked):
        return found
    return classifier.stored_probabilities(source, *found)


def _outcome(route, *args):
    """What ``route`` returns, or the type and message of what it raises."""
    try:
        return route(*args)
    except q.QdtuneError as exc:
        return type(exc), str(exc)


def _same_bits(a, b):
    return a.as_array().tobytes() == b.as_array().tobytes()


def _assert_same(source, center, span, resolution, sandbox, classifier=q.OracleClassifier()):
    new = _outcome(_stored_route, source, center, span, resolution, sandbox, classifier)
    old = _outcome(_old_route, source, center, span, resolution, sandbox, classifier)
    if isinstance(old, q.ProbabilityVector):
        assert type(new) is q.ProbabilityVector and _same_bits(new, old), center
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
                blocked += isinstance(_locate(reference_source, center, span, 2.0, sandbox), q.Blocked)
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
    def test_strided_windows_of_the_study_scan(self, reference_source, stride):
        """Strided windows are read where they lie too, refusals included."""
        rng = np.random.default_rng(stride)
        centers = [tuple(c) for c in rng.uniform(100.0, 570.0, size=(300, 2)).tolist()]
        for center in [(10.0, 330.0), *centers]:
            _assert_same(reference_source, center, (60.0, 60.0), 2.0 * stride, q.Sandbox())
        # A refusal comes before the plan's stride is known, so it is returned as it is.
        refused = _stored_route(reference_source, (10.0, 330.0), (60.0, 60.0), 2.0 * stride, q.Sandbox())
        assert refused == q.Blocked("window crosses the sandbox limits")

    @pytest.mark.parametrize("resolution", [1.0, 3.0, math.nan])
    def test_a_bad_resolution_raises_as_acquisition_does(self, reference_source, resolution):
        with pytest.raises(q.UnsupportedResolutionError) as new:
            _stored_route(reference_source, (301.0, 330.0), (60.0, 60.0), resolution, q.Sandbox())
        with pytest.raises(q.UnsupportedResolutionError) as old:
            q.acquire_with_labels(reference_source, (301.0, 330.0), (60.0, 60.0), resolution)
        assert str(new.value) == str(old.value)


def _written_out_test(sandbox, center, span):
    """The sandbox test as first written."""
    (lo1, hi1), (lo2, hi2) = sandbox.v1_range, sandbox.v2_range
    return (
        lo1 <= center[0] - span[0] / 2.0
        and center[0] + span[0] / 2.0 <= hi1
        and lo2 <= center[1] - span[1] / 2.0
        and center[1] + span[1] / 2.0 <= hi2
    )


def _reference_locate(source, center, span, resolution, sandbox):
    """The one-off locator as first written: every per-run fact worked out
    again for each window."""
    if not _written_out_test(sandbox, center, span):
        return _refusal(center, span)
    plan = source._window_plan(span, resolution)
    stride, n1, n2, _ = plan
    axis1, axis2 = source._axis_floats
    s1 = _crop_start(axis1, float(center[0]), n1, stride)
    s2 = _crop_start(axis2, float(center[1]), n2, stride)
    if s1 is None or s2 is None:
        return q.Blocked("window falls outside the stored raster")
    return plan, s1, s2


class TestBoundLocator:
    """One run binds one locator and asks it for every window; it must say
    what locating each window on its own says."""

    SANDBOX = q.Sandbox((180.0, 470.0), (200.0, 505.0))

    def _centers(self, rng, span):
        (lo1, hi1), (lo2, hi2) = self.SANDBOX.v1_range, self.SANDBOX.v2_range
        half1, half2 = span[0] / 2.0, span[1] / 2.0
        centers = [tuple(c) for c in rng.uniform(100.0, 570.0, size=(300, 2)).tolist()]
        # Each sandbox edge, exactly and one float inside or outside.
        for c1, c2 in [(lo1 + half1, 350.0), (hi1 - half1, 350.0), (300.0, lo2 + half2), (301.0, hi2 - half2)]:
            for toward in (-math.inf, math.inf):
                centers += [(c1, c2), (math.nextafter(c1, toward), c2), (c1, math.nextafter(c2, toward))]
        centers += [(bad, 350.0) for bad in NON_FINITE] + [(350.0, bad) for bad in NON_FINITE]
        return centers

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("span", [(60.0, 60.0), (36.0, 48.0)])
    def test_one_locator_for_many_centers(self, reference_source, stride, span):
        rng = np.random.default_rng(stride)
        locate = _locator(reference_source, span, 2.0 * stride, self.SANDBOX)
        results = []
        for center in self._centers(rng, span):
            got = locate(center)
            assert got == _locate(reference_source, center, span, 2.0 * stride, self.SANDBOX)
            assert got == _reference_locate(reference_source, center, span, 2.0 * stride, self.SANDBOX)
            results.append(type(got))
        assert q.Blocked in results and tuple in results

    @pytest.mark.parametrize("stride", [1, 2])
    def test_reuse_across_a_refusal(self, reference_source, stride):
        """A refusal before the plan is known, and between two windows after it."""
        centers = [(10.0, 330.0), (301.0, 330.0), (math.nan, 330.0), (520.0, 330.0), (350.0, 401.0)]
        locate = _locator(reference_source, (60.0, 60.0), 2.0 * stride, q.Sandbox())
        got = [locate(center) for center in centers]
        assert got == [_locate(reference_source, c, (60.0, 60.0), 2.0 * stride, q.Sandbox()) for c in centers]
        assert [type(found) for found in got] == [q.Blocked, tuple, q.Blocked, q.Blocked, tuple]
        assert got[1][0] is got[4][0]  # one plan for the run

    @pytest.mark.parametrize("resolution", [1.0, 3.0])
    def test_a_bad_resolution_raises_at_the_first_accepted_window_and_after(self, reference_source, resolution):
        locate = _locator(reference_source, (60.0, 60.0), resolution, q.Sandbox())
        assert locate((10.0, 330.0)) == q.Blocked("window crosses the sandbox limits")
        for _ in range(2):
            with pytest.raises(q.UnsupportedResolutionError):
                locate((301.0, 330.0))

    def test_a_run_whose_start_window_is_refused_aborts_at_the_same_step(self, reference_source, oracle):
        """At 1 mV/px the start window crosses the sandbox and is recorded as
        blocked; the next window asks for the plan, which refuses the
        resolution, so the run aborts after one step, as it did when each
        window was located on its own (the acquiring route still does)."""
        got = q.autotune(reference_source, oracle, (465.0, 300.0), resolution=1.0, sandbox=self.SANDBOX)
        expect = q.autotune(reference_source, SpyOracle(), (465.0, 300.0), resolution=1.0, sandbox=self.SANDBOX)
        assert got.steps == expect.steps == [q.TuningStep((465.0, 300.0), None, 2.0, True)]
        cause = "UnsupportedResolutionError: requested 1.0 mV/px is finer than the stored raster (2.0 mV/px)"
        assert got.outcome == expect.outcome == q.Outcome(kind="aborted", cause=cause)
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())


@given(
    lo=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    span=st.floats(1e-3, 1e3),
    ulps=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
@settings(max_examples=500)
def test_the_sandbox_test_rounds_as_written(lo, width, span, ulps):
    """``c - span/2`` against the low limit and ``c + span/2`` against the
    high one, as written: a center a few floats from either edge."""
    sandbox = q.Sandbox((lo, lo + width), (lo, lo + width))
    center = []
    for edge, k in zip((lo + span / 2.0, lo + width - span / 2.0), ulps):
        for _ in range(abs(k)):
            edge = math.nextafter(edge, math.copysign(math.inf, k))
        center.append(edge)
    spans = (span, span)
    assert sandbox.contains_window(center, spans) == _written_out_test(sandbox, center, spans)
    assert sandbox._window_test(spans)(center) == _written_out_test(sandbox, center, spans)


def test_a_tuning_step_cannot_be_changed(reference_source, oracle):
    step = q.autotune(reference_source, oracle, (350.0, 400.0)).steps[0]
    with pytest.raises(AttributeError):
        step.fitness = 0.0
    with pytest.raises(TypeError):
        step[2] = 0.0
    assert step == q.TuningStep(step.center, step.probabilities, step.fitness, step.blocked)


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

    @pytest.mark.parametrize("stride", [2, 3])
    def test_a_strided_neighborhood_builds_no_window_and_matches_the_spy(
        self, reference_source, oracle, stride, monkeypatch
    ):
        """At a multiple of the stored resolution the oracle counts each
        window's strided codes where the locator finds them, in the runs and
        in their success scores alike."""
        spy = SpyOracle()
        resolution = 2.0 * stride
        expect = harness_mod.neighborhood_experiment(reference_source, spy, (350.0, 400.0), resolution=resolution)
        assert spy.calls == _measured(expect) > 0
        monkeypatch.setattr(q.OracleClassifier, "probabilities", _refuse)
        monkeypatch.setattr(q.tuner, "acquire_with_labels", _refuse)
        got = harness_mod.neighborhood_experiment(reference_source, oracle, (350.0, 400.0), resolution=resolution)
        assert _runs_json(got) == _runs_json(expect)
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())

    @pytest.mark.parametrize("resolution", [2.0, 4.0])
    def test_a_source_without_labels_aborts_the_run_as_before(self, reference_scan, oracle, resolution):
        """At stride 1 the source's tally refuses, and at stride 2 the oracle
        does before it reads the window's codes."""
        source = q.PremeasuredScan(reference_scan[0])
        message = "oracle classifier needs a source with ground-truth labels"
        got = q.autotune(source, oracle, (350.0, 400.0), resolution=resolution)
        expect = q.autotune(source, SpyOracle(), (350.0, 400.0), resolution=resolution)
        assert got.outcome == expect.outcome == q.Outcome(kind="aborted", cause=f"ConfigurationError: {message}")
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())
        with pytest.raises(q.ConfigurationError, match=f"^{message}$"):
            source.tally


class SpyModel:
    """Wraps a model classifier with ``probabilities`` alone, so the tuner
    cuts every window and classifies it."""

    reads_labels = False

    def __init__(self, inner):
        self.calls = 0
        self.inner = inner

    def probabilities(self, scan, labels):
        self.calls += 1
        return self.inner.probabilities(scan, labels)


@pytest.fixture(scope="module")
def model():
    return q.ModelClassifier(q.init_model(3))


class TestModelRoute:
    @pytest.mark.parametrize("policy", ["fixed75", "dynamic"])
    def test_mlp_neighborhood_builds_no_window_and_matches_the_spy(self, reference_source, model, policy, monkeypatch):
        spy = SpyModel(model)
        expect = harness_mod.neighborhood_experiment(reference_source, spy, (350.0, 400.0), POLICIES[policy])
        assert spy.calls == _measured(expect) > 0

        for module in (grids_mod, scans_mod):
            monkeypatch.setattr(module, "_scan_grid", _refuse)
            monkeypatch.setattr(module, "_label_grid", _refuse)
        monkeypatch.setattr(q.ModelClassifier, "probabilities", _refuse)
        monkeypatch.setattr(q.tuner, "acquire_with_labels", _refuse)
        monkeypatch.setattr(harness_mod, "acquire_with_labels", _refuse)
        got = harness_mod.neighborhood_experiment(reference_source, model, (350.0, 400.0), POLICIES[policy])
        assert _runs_json(got) == _runs_json(expect)
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_equals_probabilities_of_the_acquired_window(self, reference_source, model, stride):
        """Windows 30 px wide at each stride, and the refusals around the
        scan's edges."""
        rng = np.random.default_rng(10 + stride)
        span = (60.0 * stride, 60.0 * stride)
        for center in [tuple(c) for c in rng.uniform(100.0, 570.0, size=(60, 2)).tolist()]:
            _assert_same(reference_source, center, span, 2.0 * stride, q.Sandbox(), model)

    def test_a_window_too_small_to_process_raises_as_probabilities_does(self, reference_source, model):
        with pytest.raises(q.ShapeError, match="smaller than 30x30") as new:
            _stored_route(reference_source, (301.0, 330.0), (60.0, 60.0), 4.0, q.Sandbox(), model)
        with pytest.raises(q.ShapeError) as old:
            _old_route(reference_source, (301.0, 330.0), (60.0, 60.0), 4.0, q.Sandbox(), model)
        assert str(new.value) == str(old.value)


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

    @pytest.mark.parametrize("stride", [2, 3])
    def test_a_strided_window_is_read_where_it_lies(self, reference_source, stride, monkeypatch):
        rng = np.random.default_rng(stride)
        centers = [tuple(c) for c in rng.integers(110, 560, size=(200, 2)).astype(float).tolist()]
        resolution = 2.0 * stride
        expect = []
        for center in centers:
            found = q.acquire_with_labels(reference_source, center, (60.0, 60.0), resolution)
            expect.append(None if isinstance(found, q.Blocked) else q.oracle_probability(found[1]).p_dd)
        assert None in expect and any(e is not None for e in expect)
        monkeypatch.setattr(harness_mod, "acquire_with_labels", _refuse)
        monkeypatch.setattr(scans_mod, "_label_grid", _refuse)
        got = [harness_mod.ground_truth_dd_fraction(reference_source, c, (60.0, 60.0), resolution) for c in centers]
        assert got == expect

    @pytest.mark.parametrize("resolution", [2.0, 4.0])
    def test_a_source_without_labels_is_refused(self, reference_scan, resolution):
        source = q.PremeasuredScan(reference_scan[0])
        with pytest.raises(q.ConfigurationError, match="^success scoring needs a source with ground-truth labels$"):
            harness_mod.ground_truth_dd_fraction(source, (350.0, 400.0), (60.0, 60.0), resolution)
        # A refused window is unmeasurable before the labels are asked for.
        assert harness_mod.ground_truth_dd_fraction(source, (10.0, 400.0), (60.0, 60.0), resolution) is None
        assert harness_mod.ground_truth_dd_fraction(source, (140.0, 400.0), (60.0, 60.0), resolution) is None
