"""A ModelClassifier classifies each stored window once. It keeps the
vector by stored scan, window plan and start, for its tuning runs and its
landscapes alike, and a kept vector has the bits that classifying the
window again gives."""

import json

import numpy as np
import pytest

import qdtune as q
from qdtune import harness as harness_mod
from qdtune.grids import DEFAULT_RESOLUTION_MV, DEFAULT_SPAN_MV
from qdtune.scans import _locator
from qdtune.tuner import POLICIES

from faults import on_axes
from stacks import count_forward_rows, stored_windows

POINT = (350.0, 400.0)


@pytest.fixture(scope="module")
def small_source(reference_params):
    """100x100 px at 2 mV/px around the band-adjacent point (350, 400) mV."""
    return q.PremeasuredScan(*q.render_scan(reference_params, POINT, (200.0, 200.0), 2.0))


@pytest.fixture(scope="module")
def tiny_source(reference_params):
    """50x50 px at 2 mV/px: a landscape of 30x30 px windows has 21x21 starts."""
    return q.PremeasuredScan(*q.render_scan(reference_params, (350.0, 410.0), (100.0, 100.0), 2.0))


@pytest.fixture
def forward_rows(monkeypatch):
    """The rows of each forward pass of the network made while the test runs."""
    return count_forward_rows(monkeypatch)


class Unmemoized:
    """A model classifier with ``probabilities`` alone, so the tuner cuts
    every window with ``acquire_with_labels`` and classifies it anew."""

    reads_labels = False

    def __init__(self, model):
        self.inner = q.ModelClassifier(model)

    def probabilities(self, scan, labels):
        return self.inner.probabilities(scan, labels)


def _report_json(report):
    return json.dumps(report.to_json_dict()) + json.dumps([run.to_json_dict() for run in report.runs])


def _bits(p):
    return p.as_array().tobytes()


class TestRuns:
    @pytest.mark.parametrize("policy", ["fixed75", "dynamic"])
    def test_cold_and_warm_runs_match_the_unmemoized_route(self, reference_source, policy, forward_rows):
        model = q.init_model(3)
        expect = harness_mod.neighborhood_experiment(reference_source, Unmemoized(model), POINT, POLICIES[policy])
        classifier = q.ModelClassifier(model)
        forward_rows.clear()
        cold = harness_mod.neighborhood_experiment(reference_source, classifier, POINT, POLICIES[policy])
        assert sum(forward_rows) == len(stored_windows(reference_source, cold.runs)) > 0
        forward_rows.clear()
        warm = harness_mod.neighborhood_experiment(reference_source, classifier, POINT, POLICIES[policy])
        assert forward_rows == []
        assert _report_json(cold) == _report_json(warm) == _report_json(expect)

    def test_each_window_is_classified_once(self, reference_source, forward_rows):
        report = harness_mod.neighborhood_experiment(reference_source, q.ModelClassifier(q.init_model(3)), POINT)
        classified = sum(not step.blocked for run in report.runs for step in run.steps)
        # One window per forward pass, and each distinct window once.
        assert set(forward_rows) == {1}
        assert len(forward_rows) == len(stored_windows(reference_source, report.runs)) < classified


class TestLandscape:
    def test_one_forward_pass_per_row_when_cold_and_none_when_warm(self, tiny_source, forward_rows):
        model = q.init_model(3)
        classifier = q.ModelClassifier(model)
        cold = harness_mod.fitness_landscape(tiny_source, classifier)
        assert forward_rows == [21] * 21
        forward_rows.clear()
        warm = harness_mod.fitness_landscape(tiny_source, classifier)
        assert forward_rows == []
        fresh = harness_mod.fitness_landscape(tiny_source, q.ModelClassifier(model))
        assert forward_rows == [21] * 21
        assert cold.values.tobytes() == warm.values.tobytes() == fresh.values.tobytes()

    def test_a_landscape_before_the_runs_equals_one_after_them(self, small_source, forward_rows):
        model = q.init_model(3)
        first = q.ModelClassifier(model)
        before = harness_mod.fitness_landscape(small_source, first)
        runs_after = harness_mod.neighborhood_experiment(small_source, first, POINT, q.DynamicSimplex())
        after = harness_mod.fitness_landscape(small_source, first)

        # Runs first: the landscape then stacks only the windows they left.
        second = q.ModelClassifier(model)
        runs_before = harness_mod.neighborhood_experiment(small_source, second, POINT, q.DynamicSimplex())
        forward_rows.clear()
        partial = harness_mod.fitness_landscape(small_source, second)
        kept = len(stored_windows(small_source, runs_before.runs))
        assert kept > 0 and sum(forward_rows) == 71 * 71 - kept

        assert before.values.tobytes() == after.values.tobytes() == partial.values.tobytes()
        assert _report_json(runs_after) == _report_json(runs_before)


class TestKeys:
    def test_two_models_on_one_source_keep_their_own_vectors(self, small_source):
        a, b = q.ModelClassifier(q.init_model(0)), q.ModelClassifier(q.init_model(1))
        land_a = harness_mod.fitness_landscape(small_source, a)
        land_b = harness_mod.fitness_landscape(small_source, b)
        assert land_a.values.tobytes() != land_b.values.tobytes()
        again = harness_mod.fitness_landscape(small_source, q.ModelClassifier(q.init_model(1)))
        assert land_b.values.tobytes() == again.values.tobytes()

        found = _locator(small_source, (60.0, 60.0), 2.0, q.Sandbox())(POINT)
        scan, labels = q.acquire_with_labels(small_source, POINT, (60.0, 60.0), 2.0)
        got = [classifier.stored_probabilities(small_source, *found) for classifier in (a, b)]
        assert [_bits(p) for p in got] == [_bits(c.probabilities(scan, labels)) for c in (a, b)]
        assert _bits(got[0]) != _bits(got[1])

    def test_a_write_to_the_callers_model_changes_no_vector(self, small_source):
        model = q.init_model(0)
        classifier = q.ModelClassifier(model)
        untouched = q.ModelClassifier(q.init_model(0))
        kept = _locator(small_source, (60.0, 60.0), 2.0, q.Sandbox())(POINT)
        later = _locator(small_source, (60.0, 60.0), 2.0, q.Sandbox())((330.0, 420.0))
        p = classifier.stored_probabilities(small_source, *kept)

        for w, b in zip(model.weights, model.biases):
            w *= -1.0
            b += 1.0
        assert classifier.stored_probabilities(small_source, *kept) is p
        assert _bits(p) == _bits(untouched.stored_probabilities(small_source, *kept))
        assert _bits(classifier.stored_probabilities(small_source, *later)) == _bits(
            untouched.stored_probabilities(small_source, *later)
        )
        land = harness_mod.fitness_landscape(small_source, classifier)
        assert land.values.tobytes() == harness_mod.fitness_landscape(small_source, untouched).values.tobytes()
        # The classifier's own copies are read-only.
        with pytest.raises(ValueError):
            classifier.model.weights[0][0, 0] = 0.0

    def test_plans_of_two_strides_and_two_spans_share_no_entry(self, small_source):
        plans = [
            small_source._window_plan((60.0, 60.0), 2.0),
            small_source._window_plan((120.0, 120.0), 4.0),
            small_source._window_plan((64.0, 64.0), 2.0),
        ]
        assert [plan[:3] for plan in plans] == [(1, 30, 30), (2, 30, 30), (1, 32, 32)]
        classifier = q.ModelClassifier(q.init_model(0))
        for s1, s2 in ((5, 7), (20, 20)):
            got = [classifier.stored_probabilities(small_source, plan, s1, s2) for plan in plans]
            alone = [
                q.ModelClassifier(q.init_model(0)).stored_probabilities(small_source, plan, s1, s2) for plan in plans
            ]
            assert [_bits(p) for p in got] == [_bits(p) for p in alone]
            assert len({_bits(p) for p in got}) == 3

    def test_a_window_whose_classification_raises_is_not_kept(self, reference_scan):
        """The NaN row of ``test_tuner``: each run aborts on the start
        window, with the same cause."""
        scan, labels = reference_scan
        values = scan.values.copy()
        i = int(np.argmin(np.abs(scan.v1_axis - 350.0)))
        values[i, :] = np.nan
        source = q.PremeasuredScan(on_axes(scan, values), labels)
        classifier = q.ModelClassifier(q.init_model(0))
        cause = "ShapeError: sensor values are not finite: NaN or infinite pixels"
        for _ in range(2):
            run = q.autotune(source, classifier, POINT)
            assert run.outcome == q.Outcome(kind="aborted", cause=cause)
            assert run.iteration_count == 0
        plan, s1, s2 = _locator(source, DEFAULT_SPAN_MV, DEFAULT_RESOLUTION_MV, q.Sandbox())(POINT)
        assert (s1, s2) not in classifier._stored_vectors(source, plan)
