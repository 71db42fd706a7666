"""On a stored scan each built-in classifier reads the window the locator
finds (``stored_probabilities``), with no window built, and gets what
cutting the window and classifying it gets: the same vector bits, the same
refusal, the same runs, reports and heatmaps. The oracle reads a stride-1
window off its table and counts a strided window's codes."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune import grids as grids_mod
from qdtune import harness as harness_mod
from qdtune import scans as scans_mod
from qdtune.classifier import oracle_table
from qdtune.scans import _locator
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
    found = _locator(source, span, resolution, sandbox)(center)
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
    # mV along v1 and odd mV along v2, so odd v1 and even v2 centers tie
    # between two pixels; the grid reaches 15 mV past the raster on every
    # side, and the sandbox cuts into it on all four.
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
                blocked += isinstance(_locator(reference_source, span, 2.0, sandbox)(center), q.Blocked)
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
        # A window off the raster is refused as such, though it crosses the sandbox too.
        refused = _stored_route(reference_source, (10.0, 330.0), (60.0, 60.0), 2.0 * stride, q.Sandbox())
        assert refused == q.Blocked("window falls outside the stored raster")

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
    """The stored-window rule written out for one window: the crop's stored
    indices around ``np.argmin``'s nearest pixel, refused when the center or
    span is not finite, then when the crop leaves the raster, then when a
    pixel edge of it (a pixel center and half the window's pixel size)
    passes a sandbox limit."""
    if not all(math.isfinite(v) for v in (*center, *span)):
        return q.Blocked("window center or span is not finite")
    plan = source._window_plan(span, resolution)
    stride, n1, n2, meta = plan
    axes = (source.scan.v1_axis, source.scan.v2_axis)
    crops = [
        int(np.argmin(np.abs(axis - c))) - (n * stride) // 2 + stride * np.arange(n)
        for axis, c, n in zip(axes, center, (n1, n2))
    ]
    if any(idx[0] < 0 or idx[-1] >= axis.size for axis, idx in zip(axes, crops)):
        return q.Blocked("window falls outside the stored raster")
    h = meta.resolution / 2.0
    for axis, idx, (lo, hi) in zip(axes, crops, (sandbox.v1_range, sandbox.v2_range)):
        if not (lo <= axis[idx[0]] - h and axis[idx[-1]] + h <= hi):
            return q.Blocked("window crosses the sandbox limits")
    return plan, int(crops[0][0]), int(crops[1][0])


class TestBoundLocator:
    """One run binds one locator and asks it for every window; it must say
    what locating each window on its own says."""

    # Pixel centers lie on even mV along v1 and odd mV along v2, so a window's
    # pixel edges lie on odd mV along v1 at strides 1 and 3, and along v2 at
    # stride 2: each stride meets a limit exactly on one axis.
    SANDBOX = q.Sandbox((181.0, 471.0), (201.0, 505.0))

    def _centers(self, rng, span):
        (lo1, hi1), (lo2, hi2) = self.SANDBOX.v1_range, self.SANDBOX.v2_range
        half1, half2 = span[0] / 2.0, span[1] / 2.0
        centers = [tuple(c) for c in rng.uniform(100.0, 570.0, size=(300, 2)).tolist()]
        # Across each sandbox edge in half-mV steps, ties included, and one
        # float either side of each step.
        for k in np.arange(-8.0, 8.5, 0.5):
            for c1, c2 in [(lo1 + half1 + k, 350.0), (hi1 - half1 + k, 350.0), (300.0, lo2 + half2 + k),
                           (301.0, hi2 - half2 + k)]:
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
            assert got == _locator(reference_source, span, 2.0 * stride, self.SANDBOX)(center)
            assert got == _reference_locate(reference_source, center, span, 2.0 * stride, self.SANDBOX)
            results.append(got if type(got) is q.Blocked else tuple)
        assert set(results) == {
            tuple, *map(q.Blocked, ("window center or span is not finite", "window falls outside the stored raster",
                                    "window crosses the sandbox limits"))
        }

    @pytest.mark.parametrize("stride", [1, 2])
    def test_reuse_across_a_refusal(self, reference_source, stride):
        """A refusal of the run's first window, and between two windows after it."""
        centers = [(10.0, 330.0), (301.0, 330.0), (math.nan, 330.0), (520.0, 330.0), (350.0, 401.0)]
        locate = _locator(reference_source, (60.0, 60.0), 2.0 * stride, q.Sandbox())
        got = [locate(center) for center in centers]
        assert got == [_locator(reference_source, (60.0, 60.0), 2.0 * stride, q.Sandbox())(c) for c in centers]
        assert [type(found) for found in got] == [q.Blocked, tuple, q.Blocked, q.Blocked, tuple]
        assert got[1][0] is got[4][0]  # one plan for the run

    @pytest.mark.parametrize("resolution", [1.0, 3.0])
    def test_a_bad_resolution_raises_at_the_first_window_and_after(self, reference_source, resolution):
        """The plan gives a window its pixels, so it is worked out on the
        first window, off the raster or not; only a non-finite center is
        refused before it."""
        locate = _locator(reference_source, (60.0, 60.0), resolution, q.Sandbox())
        assert locate((math.nan, 330.0)) == q.Blocked("window center or span is not finite")
        for center in ((10.0, 330.0), (301.0, 330.0), (10.0, 330.0)):
            with pytest.raises(q.UnsupportedResolutionError):
                locate(center)

    def test_a_bad_resolution_aborts_a_run_at_its_first_window(self, reference_source, oracle):
        """At 1 mV/px the start window asks for the plan, which refuses the
        resolution, so the run aborts with no step, as on the acquiring
        route, though the start window crosses the sandbox."""
        got = q.autotune(reference_source, oracle, (465.0, 300.0), resolution=1.0, sandbox=self.SANDBOX)
        expect = q.autotune(reference_source, SpyOracle(), (465.0, 300.0), resolution=1.0, sandbox=self.SANDBOX)
        assert got.steps == expect.steps == []
        cause = "UnsupportedResolutionError: requested 1.0 mV/px is finer than the stored raster (2.0 mV/px)"
        assert got.outcome == expect.outcome == q.Outcome(kind="aborted", cause=cause)
        assert json.dumps(got.to_json_dict()) == json.dumps(expect.to_json_dict())


def test_a_crop_past_the_sandbox_is_refused(reference_params):
    """On a 600 x 600 mV scan, whose pixel centers lie on odd mV, a 60 mV
    window at (230, 300) mV lies inside a sandbox from 200 mV as requested,
    but reads v1 pixel centers 199-257 mV, which cover 198-258 mV. It is
    refused, for tuning and for scoring; at (232, 300) mV it reads 201-259 mV
    and is accepted."""
    source = q.PremeasuredScan(*q.render_scan(reference_params, (300.0, 300.0), (600.0, 600.0), 2.0))
    sandbox = q.Sandbox((200.0, 700.0), (0.0, 600.0))
    assert sandbox.contains_window((230.0, 300.0), (60.0, 60.0))
    got = q.acquire_with_labels(source, (230.0, 300.0), (60.0, 60.0), 2.0, sandbox)
    assert got == q.Blocked("window crosses the sandbox limits")
    assert harness_mod.ground_truth_dd_fraction(source, (230.0, 300.0), (60.0, 60.0), 2.0, sandbox) is None
    window, _ = q.acquire_with_labels(source, (232.0, 300.0), (60.0, 60.0), 2.0, sandbox)
    assert window.v1_axis[[0, -1]].tolist() == [201.0, 259.0]
    assert harness_mod.ground_truth_dd_fraction(source, (232.0, 300.0), (60.0, 60.0), 2.0, sandbox) is not None


def _near(data, edge):
    """A sandbox limit near ``edge``: up to two floats from it, or up to 40 mV."""
    if data.draw(st.booleans()):
        k = data.draw(st.integers(-2, 2))
        for _ in range(abs(k)):
            edge = math.nextafter(edge, math.copysign(math.inf, k))
        return edge
    return edge + data.draw(st.floats(-40.0, 40.0))


@given(data=st.data(), stride=st.integers(1, 3), pixels=st.tuples(st.integers(1, 40), st.integers(1, 40)))
@settings(max_examples=500, deadline=None)
def test_a_window_is_accepted_exactly_when_its_pixels_lie_on_the_raster_and_in_the_sandbox(
    reference_source, data, stride, pixels
):
    """Windows of any size at strides 1-3, centered anywhere on the study
    scan or up to 60 mV off it, ties included, in sandboxes with limits a few
    floats or mV from the window's edges. The crop is written out: the stored
    pixel nearest the center by ``np.argmin``, ``count * stride // 2`` pixels
    before it, every ``stride``-th pixel after. The locator refuses it as off
    the raster, as crossing the sandbox when a pixel center less or plus half
    the window's pixel size passes a limit, or gives its first pixels."""
    scan = reference_source.scan
    resolution = 2.0 * stride
    span = tuple(n * resolution for n in pixels)
    center, crops, edges = [], [], []
    for axis, n, extent in zip((scan.v1_axis, scan.v2_axis), pixels, span):
        c = float(axis[0]) + data.draw(st.floats(-60.0, float(axis[-1] - axis[0]) + 60.0))
        if data.draw(st.booleans()):  # half way between two pixel centers
            c = float(axis[0]) + 2.0 * round((c - float(axis[0])) / 2.0) + 1.0
        idx = int(np.argmin(np.abs(axis - c))) - (n * stride) // 2 + stride * np.arange(n)
        on = idx[0] >= 0 and idx[-1] < axis.size
        center.append(c)
        crops.append(idx if on else None)
        if on:
            edges.append((axis[idx[0]] - resolution / 2.0, axis[idx[-1]] + resolution / 2.0))
        else:
            edges.append((c - extent / 2.0, c + extent / 2.0))
    limits = [(_near(data, lo), _near(data, hi)) for lo, hi in edges]
    assume(all(lo < hi for lo, hi in limits))
    sandbox = q.Sandbox(*limits)

    found = _locator(reference_source, span, resolution, sandbox)(tuple(center))
    if any(idx is None for idx in crops):
        assert found == q.Blocked("window falls outside the stored raster")
    elif not all(lo <= e_lo and e_hi <= hi for (lo, hi), (e_lo, e_hi) in zip(limits, edges)):
        assert found == q.Blocked("window crosses the sandbox limits")
    else:
        assert found[1:] == (crops[0][0], crops[1][0])
        window, _ = q.acquire_with_labels(reference_source, tuple(center), span, resolution, sandbox)
        assert window.v1_axis.tolist() == scan.v1_axis[crops[0]].tolist()
        assert window.v2_axis.tolist() == scan.v2_axis[crops[1]].tolist()


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


class TestKeptTuningLocator:
    """A tuning run on a stored scan asks the scan for its kept locator
    (``scans._kept_locator``): an oracle neighborhood binds one per source
    and a later one none, a model run binds its own, and the scan never
    keeps a caller's classifier alive. Runs through a kept locator write
    what fresh runs write."""

    @staticmethod
    def _counted_binds(monkeypatch) -> list:
        """The reader of every ``_locator`` bound from now on."""
        readers = []
        bind = scans_mod._locator

        def counted(source, span, resolution, sandbox, reader=scans_mod._where):
            readers.append(reader)
            return bind(source, span, resolution, sandbox, reader)

        monkeypatch.setattr(scans_mod, "_locator", counted)
        return readers

    def test_an_oracle_neighborhood_binds_one_tuning_locator_per_source(self, reference_scan, monkeypatch):
        readers = self._counted_binds(monkeypatch)
        first, second = q.PremeasuredScan(*reference_scan), q.PremeasuredScan(*reference_scan)
        tuning = q.OracleClassifier.stored_reader
        report = harness_mod.neighborhood_experiment(first, q.OracleClassifier(), (350.0, 400.0), POLICIES["fixed100"])
        assert report.n_runs == 81 and readers.count(tuning) == 1 and len(readers) == 2  # and one for scoring
        readers.clear()
        # Another oracle, point and policy: the same span, resolution and sandbox.
        harness_mod.neighborhood_experiment(first, q.OracleClassifier(), (250.0, 400.0), POLICIES["dynamic"])
        assert readers == []
        harness_mod.neighborhood_experiment(second, q.OracleClassifier(), (350.0, 400.0), POLICIES["fixed100"])
        assert readers.count(tuning) == 1

    def test_a_model_neighborhood_binds_one_tuning_locator_per_run(self, reference_scan, monkeypatch):
        """A model's reader is a bound method, so its locator is not kept;
        the scoring locator is."""
        readers = self._counted_binds(monkeypatch)
        source, classifier = q.PremeasuredScan(*reference_scan), q.ModelClassifier(q.init_model(3))
        report = harness_mod.neighborhood_experiment(source, classifier, (350.0, 400.0), POLICIES["fixed75"])
        assert report.n_runs == 81 and readers.count(classifier.stored_reader) == 81 and len(readers) == 82
        readers.clear()
        harness_mod.neighborhood_experiment(source, classifier, (350.0, 400.0), POLICIES["dynamic"])
        assert readers.count(classifier.stored_reader) == 81 and len(readers) == 81
        assert all(getattr(key[-1], "__self__", None) is None for key in source._locators)

    @pytest.mark.parametrize("kind", ["oracle", "model"])
    def test_a_dropped_classifier_is_freed_while_its_scan_lives(self, reference_scan, kind):
        source = q.PremeasuredScan(*reference_scan)
        classifier = q.OracleClassifier() if kind == "oracle" else q.ModelClassifier(q.init_model(0))
        first = q.autotune(source, classifier, (350.0, 400.0))
        again = q.autotune(source, classifier, (350.0, 400.0))
        assert json.dumps(again.to_json_dict()) == json.dumps(first.to_json_dict())
        dropped = weakref.ref(classifier)
        del classifier
        gc.collect()
        assert dropped() is None
        later = q.autotune(source, q.OracleClassifier() if kind == "oracle" else q.ModelClassifier(q.init_model(0)),
                           (350.0, 400.0))
        assert json.dumps(later.to_json_dict()) == json.dumps(first.to_json_dict())

    @pytest.mark.parametrize("span, resolution", [((math.nan, 60.0), 2.0), ((60.0, 60.0), math.nan)])
    def test_a_nan_span_or_resolution_keeps_no_locator(self, reference_scan, oracle, span, resolution):
        """Its key never equals itself, so a kept locator would never be
        found again and the scan would keep one more each run."""
        source = q.PremeasuredScan(*reference_scan)
        for _ in range(3):
            run = q.autotune(source, oracle, (350.0, 400.0), span=span, resolution=resolution)
            assert run.outcome.kind == ("converged" if math.isnan(span[0]) else "aborted")
        assert source._locators == {}

    @pytest.mark.parametrize("where", ["stored", "simulated"])
    def test_a_model_neighborhood_writes_what_fresh_runs_write(self, reference_scan, reference_params, where):
        """Each fresh run has a source and a classifier of its own, made in
        reverse start order, so nothing kept by an earlier run reaches it."""
        model = q.init_model(3)
        if where == "stored":
            fresh_source = lambda: q.PremeasuredScan(*reference_scan)  # noqa: E731
        else:
            fresh_source = lambda: q.SimulatedDevice(reference_params)  # noqa: E731
        policy, span, resolution = POLICIES["fixed75"], (60.0, 60.0), 2.0
        report = harness_mod.neighborhood_experiment(fresh_source(), q.ModelClassifier(model), (350.0, 400.0), policy)
        for run, record in reversed(list(zip(report.runs, report.run_summaries))):
            fresh = q.autotune(fresh_source(), q.ModelClassifier(model), run.start, policy=policy)
            assert json.dumps(run.to_json_dict()) == json.dumps(fresh.to_json_dict())
            center = fresh.best_center()
            weight = harness_mod.run_weight(center, fresh_source(), span, resolution, q.Sandbox(), q.SuccessRegions())
            assert record == {"start": list(fresh.start), "best_center": list(center),
                              "iterations": fresh.iteration_count, "weight": weight, "outcome": fresh.outcome.kind}
        assert report.outcome_counts.get("aborted", 0) == 0


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

    @pytest.mark.parametrize(
        "sandbox", [q.Sandbox(), q.Sandbox((150.0, 500.0), (160.0, 540.0))], ids=["default", "narrow"]
    )
    def test_a_batch_scores_every_run_as_run_weight_does(self, reference_source, oracle, sandbox):
        """The scoring locator, bound once per scan, span, resolution and
        sandbox, gives each run of a batch the weight ``run_weight`` gives it
        and the weight of its final window acquired afresh. Both sandboxes
        score the same scan, each with its own locator."""
        regions = q.SuccessRegions()
        span = (60.0, 60.0)
        result = q.heatmap(reference_source, oracle, grid_step=20.0, span=span, sandbox=sandbox)
        for record in result.records:
            center = tuple(record["best_center"])
            found = q.acquire_with_labels(reference_source, center, span, 2.0, sandbox)
            fresh = None if isinstance(found, q.Blocked) else q.oracle_probability(found[1]).p_dd
            assert record["weight"] == regions.weight(fresh)
            assert record["weight"] == harness_mod.run_weight(center, reference_source, span, 2.0, sandbox, regions)
        assert {0.0, 1.0} <= set(result.weights.ravel().tolist())


    def test_scoring_keeps_one_locator_per_span_resolution_and_sandbox(self, reference_scan):
        """A scan keeps one scoring locator for each span, resolution and set
        of sandbox limits, equal values spelled alike or not, and every call
        through it scores as a fresh locator does."""
        source = q.PremeasuredScan(*reference_scan)
        narrow = q.Sandbox((150.0, 500.0), (160.0, 540.0))
        calls = [
            ((350.0, 400.0), (60.0, 60.0), 2.0, q.Sandbox()),
            ((350.0, 400.0), [60, 60], 2, q.Sandbox((0, 600), (0, 600))),
            ((170.0, 400.0), (60.0, 60.0), 2.0, narrow),
            ((170.0, 400.0), (60.0, 60.0), 2.0, q.Sandbox()),
            ((350.0, 400.0), (60.0, 60.0), 4.0, narrow),
        ]
        for center, span, resolution, sandbox in calls:
            found = q.acquire_with_labels(source, center, span, resolution, sandbox)
            expect = None if isinstance(found, q.Blocked) else q.oracle_probability(found[1]).p_dd
            assert harness_mod.ground_truth_dd_fraction(source, center, span, resolution, sandbox) == expect
        assert len(source._locators) == 3


# A stored scan with a sandbox that cuts into it on every side, the model of
# the reader test below and the centers it draws: on the raster, between two
# pixel centers, off it, across the sandbox and not finite.
_READER_SANDBOX = q.Sandbox((160.0, 490.0), (180.0, 520.0))
_READER_MODEL = q.ModelClassifier(q.init_model(4))
_READER_CENTERS = st.one_of(
    st.tuples(st.integers(100, 550), st.integers(125, 575)).map(lambda c: (float(c[0]), float(c[1]))),
    st.tuples(st.floats(100.0, 550.0), st.floats(125.0, 575.0)),
    st.tuples(st.sampled_from([130.0, 160.0, 190.0, 460.0, 490.0, 520.0]), st.floats(150.0, 550.0)),
    st.tuples(st.floats(125.0, 525.0), st.sampled_from([math.nan, math.inf, 210.0, 490.0])),
)


@given(
    kind=st.sampled_from(["oracle", "model"]),
    stride=st.sampled_from([1, 2]),
    span=st.sampled_from([(60.0, 60.0), (120.0, 120.0), (36.0, 48.0)]),
    sandbox=st.sampled_from([q.Sandbox(), _READER_SANDBOX]),
    centers=st.lists(_READER_CENTERS, min_size=1, max_size=8),
)
@settings(max_examples=150)
def test_a_runs_bound_reader_reads_what_stored_probabilities_reads(reference_source, kind, stride, span, sandbox,
                                                                  centers):
    """A run's one locator with the classifier's stored reader gives, window
    after window, the Blocked result of a fresh plain ``_locator`` or the
    bits ``stored_probabilities`` reads where that locator found the window,
    or raises what it raises (a model window under 30 px a side); at stride
    1 the oracle's vector is the table's own object."""
    classifier = q.OracleClassifier() if kind == "oracle" else _READER_MODEL
    resolution = 2.0 * stride
    read = _locator(reference_source, span, resolution, sandbox, classifier.stored_reader)
    for center in centers:
        got = _outcome(read, center)
        found = _locator(reference_source, span, resolution, sandbox)(center)
        if isinstance(found, q.Blocked):
            assert got == found
            continue
        plan, s1, s2 = found
        expect = _outcome(classifier.stored_probabilities, reference_source, plan, s1, s2)
        if not isinstance(expect, q.ProbabilityVector):
            assert got == expect
            continue
        assert _same_bits(got, expect)
        if kind == "oracle" and stride == 1:
            assert got is oracle_table(reference_source.tally, plan[1], plan[2]).rows[s1][s2]
