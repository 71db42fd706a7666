import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.tuner import TARGET_DOUBLE_DOT, nelder_mead

import faults

probability_vectors = st.tuples(
    st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
).map(lambda t: (np.array(t) / max(sum(t), 1e-9)) if sum(t) > 0 else np.array([1.0, 0.0, 0.0]))


class TestPenalty:
    def test_anchors(self):
        assert q.penalty_g(0.0) == 0.0
        assert q.penalty_g(1.0) == 1.0
        assert q.penalty_g(0.5) == 0.5

    def test_strictly_increasing(self):
        xs = np.linspace(0, 1, 201)
        ys = np.array([q.penalty_g(float(x)) for x in xs])
        assert (np.diff(ys) > 0).all()

    def test_steepness_controls_contrast(self):
        soft = q.penalty_g(0.25, steepness=1.0)
        hard = q.penalty_g(0.25, steepness=50.0)
        assert hard < soft < 0.5

    def test_domain(self):
        with pytest.raises(q.DomainError):
            q.penalty_g(-0.01)
        with pytest.raises(q.DomainError):
            q.penalty_g(1.01)

    def test_independent_formula(self):
        s = 10.0
        for x in (0.1, 0.3, 0.77):
            expect = (math.atan(s * (x - 0.5)) + math.atan(s / 2)) / (2 * math.atan(s / 2))
            assert q.penalty_g(x) == pytest.approx(expect, abs=1e-15)


class TestFitness:
    def test_target_scores_zero(self):
        assert q.fitness(q.ProbabilityVector(0.0, 0.0, 1.0)) == 0.0

    def test_pure_none_and_pure_single_hit_the_cap(self):
        assert q.fitness(q.ProbabilityVector(1.0, 0.0, 0.0)) == 2.0
        assert q.fitness(q.ProbabilityVector(0.0, 1.0, 0.0)) == 2.0

    def test_uncapped_value_matches_formula(self):
        config = q.FitnessConfig(cap=False)
        got = q.fitness(q.ProbabilityVector(0.0, 1.0, 0.0), config)
        assert got == pytest.approx(math.sqrt(2.0) + 1.0, abs=1e-12)

    def test_alpha_beta_scale_penalties(self):
        config = q.FitnessConfig(alpha=0.0, beta=0.0, cap=False)
        got = q.fitness(q.ProbabilityVector(0.0, 1.0, 0.0), config)
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_custom_cap_value(self):
        config = q.FitnessConfig(blocked_fitness=1.5)
        assert q.fitness(q.ProbabilityVector(1.0, 0.0, 0.0), config) == 1.5

    @given(p=probability_vectors)
    @settings(max_examples=100)
    def test_capped_range(self, p):
        pv = q.ProbabilityVector.from_array(p / p.sum())
        value = q.fitness(pv)
        assert 0.0 <= value <= 2.0

    def test_target_constant(self):
        assert TARGET_DOUBLE_DOT == q.ProbabilityVector(0.0, 0.0, 1.0)


class TestSimplexPolicies:
    def test_fixed75_vertices(self):
        sim = q.initial_simplex((350.0, 400.0), q.FixedSimplex(75.0))
        expect = np.array([[350.0, 400.0], [275.0, 400.0], [350.0, 325.0]])
        np.testing.assert_array_equal(sim, expect)

    def test_fixed100_vertices(self):
        sim = q.initial_simplex((350.0, 400.0), q.FixedSimplex(100.0))
        np.testing.assert_array_equal(sim[1], [250.0, 400.0])
        np.testing.assert_array_equal(sim[2], [350.0, 300.0])

    def test_dynamic_scales_with_start_fitness(self):
        policy = q.DynamicSimplex()
        assert policy.step(0.0) == 50.0
        assert policy.step(1.0) == 100.0
        assert policy.step(2.0) == 150.0
        assert policy.step(9.0) == 150.0

    @given(f0=st.floats(0, 100))
    @settings(max_examples=50)
    def test_dynamic_clamped(self, f0):
        assert 50.0 <= q.DynamicSimplex().step(f0) <= 150.0

    def test_dynamic_needs_start_fitness(self):
        with pytest.raises(q.ConfigurationError):
            q.initial_simplex((300.0, 300.0), q.DynamicSimplex())

    @given(
        v1=st.floats(100, 500),
        v2=st.floats(100, 500),
        delta=st.floats(1, 150),
    )
    @settings(max_examples=50)
    def test_vertices_lower_one_coordinate_each(self, v1, v2, delta):
        sim = q.initial_simplex((v1, v2), q.FixedSimplex(delta))
        assert sim.shape == (3, 2)
        np.testing.assert_array_equal(sim[0], [v1, v2])
        assert sim[1, 0] == v1 - delta and sim[1, 1] == v2
        assert sim[2, 0] == v1 and sim[2, 1] == v2 - delta


class TestNelderMead:
    def test_quadratic_convergence(self):
        calls = []
        f = lambda v: calls.append(v) or (v[0] - 321.0) ** 2 + (v[1] - 234.0) ** 2
        sim = q.initial_simplex((400.0, 300.0), q.FixedSimplex(75.0))
        term = q.TerminationConfig(1e-15, 1e-6, 500)
        res = nelder_mead(f, sim, term)
        assert np.linalg.norm(np.array(res.best_vertex) - [321.0, 234.0]) < 1e-3
        assert len(calls) <= 200

    def test_budget_is_number_of_evaluations(self):
        calls = []
        f = lambda v: calls.append(v) or (v[0] ** 2 + v[1] ** 2)
        sim = q.initial_simplex((400.0, 300.0), q.FixedSimplex(75.0))
        res = nelder_mead(f, sim, q.TerminationConfig(1e-12, 1e-9, 17))
        assert res.reason == "max_iterations"
        assert len(calls) <= 17

    def test_constant_objective_stops_immediately(self):
        calls = []
        f = lambda v: calls.append(v) or 2.0
        sim = q.initial_simplex((300.0, 300.0), q.FixedSimplex(75.0))
        res = nelder_mead(f, sim, q.TerminationConfig(0.02, 2.0, 50))
        # zero spread trips the fitness criterion right after the three
        # vertex evaluations; the simplex-size criterion can never fire
        # first when both tolerances are positive
        assert res.reason == "fitness_converged"
        assert len(calls) == 3

    def test_simplex_size_termination(self):
        f = lambda v: abs(v[0] - 300.0) + abs(v[1] - 300.0)
        sim = q.initial_simplex((350.0, 350.0), q.FixedSimplex(75.0))
        res = nelder_mead(f, sim, q.TerminationConfig(1e-15, 2.0, 500))
        assert res.reason == "simplex_converged"

    def test_preevaluated_vertex_not_recalled(self):
        calls = []

        def f(v):
            calls.append(v)
            return (v[0] - 300.0) ** 2 + (v[1] - 300.0) ** 2

        sim = q.initial_simplex((350.0, 350.0), q.FixedSimplex(75.0))
        f0 = f(tuple(sim[0]))
        calls.clear()
        res = nelder_mead(f, sim, q.TerminationConfig(1e-10, 1e-3, 50), start_value=f0)
        starts = [tuple(np.round(c, 9)) for c in calls]
        assert (350.0, 350.0) not in starts
        # the known start value still counts against the budget of 50
        assert res.reason == "max_iterations"
        assert len(calls) == 49

    def test_bad_simplex_shape(self):
        with pytest.raises(q.ConfigurationError):
            nelder_mead(lambda v: 0.0, np.zeros((4, 2)))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25)
    def test_random_quadratics(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(150, 450, size=2)
        start = tuple(rng.uniform(150, 450, size=2))
        f = lambda v: float((v[0] - m[0]) ** 2 + (v[1] - m[1]) ** 2)
        res = nelder_mead(
            f,
            q.initial_simplex(start, q.FixedSimplex(75.0)),
            q.TerminationConfig(1e-15, 1e-6, 250),
        )
        assert np.linalg.norm(np.array(res.best_vertex) - m) < 1e-3


class SpyClassifier:
    """Counts invocations; answers with the oracle."""

    def __init__(self):
        self.calls = 0
        self.inner = q.OracleClassifier()

    def probabilities(self, scan, labels):
        self.calls += 1
        return self.inner.probabilities(scan, labels)


class TestAutotune:
    def test_successful_run_reaches_double_dot(self, reference_source, reference_params, oracle):
        run = q.autotune(reference_source, oracle, (350.0, 400.0))
        assert run.outcome.kind == "converged"
        best = run.best_center()
        assert q.state_at(reference_params, *best) == q.StateLabel.DOUBLE_DOT
        assert run.policy_name == "fixed75"

    def test_trace_is_complete(self, reference_source, oracle):
        run = q.autotune(reference_source, oracle, (350.0, 400.0))
        assert run.iteration_count == len(run.steps)
        for step in run.steps:
            assert isinstance(step.fitness, float)
            if not step.blocked:
                assert step.probabilities is not None

    def test_best_center_is_argmin_of_trace(self, reference_source, oracle):
        run = q.autotune(reference_source, oracle, (350.0, 400.0), policy=q.FixedSimplex(100.0))
        values = [s.fitness for s in run.steps]
        assert run.best_center() == run.steps[int(np.argmin(values))].center

    def test_blocked_windows_skip_classifier_and_pin_fitness(self, reference_params):
        spy = SpyClassifier()
        source = q.SimulatedDevice(reference_params)
        # fixed100 from (80, 450): the second vertex window crosses v1 = 0
        run = q.autotune(source, spy, (80.0, 450.0), policy=q.FixedSimplex(100.0))
        blocked = [s for s in run.steps if s.blocked]
        clear = [s for s in run.steps if not s.blocked]
        assert blocked, "expected at least one blocked acquisition"
        assert all(s.fitness == 2.0 for s in blocked)
        assert all(s.probabilities is None for s in blocked)
        assert spy.calls == len(clear)

    def test_blocked_windows_score_the_fitness_config_cap(self, reference_params):
        config = q.FitnessConfig(blocked_fitness=1.5)
        source = q.SimulatedDevice(reference_params)
        run = q.autotune(source, SpyClassifier(), (80.0, 450.0), fitness_config=config, policy=q.FixedSimplex(100.0))
        blocked = [s for s in run.steps if s.blocked]
        assert blocked, "expected at least one blocked acquisition"
        assert all(s.fitness == 1.5 for s in blocked)
        assert max(s.fitness for s in run.steps) == 1.5

    def test_start_outside_sandbox_rejected(self, reference_source, oracle):
        with pytest.raises(q.ConfigurationError):
            q.autotune(reference_source, oracle, (650.0, 300.0))

    def test_max_iterations_budget(self, reference_source, oracle):
        term = q.TerminationConfig(1e-12, 1e-9, 50)
        run = q.autotune(reference_source, oracle, (350.0, 400.0), term=term)
        assert run.iteration_count <= 50
        if run.outcome.kind == "max_iterations":
            assert run.iteration_count == 50

    def test_dynamic_policy_reuses_start_evaluation(self, reference_source, oracle):
        run = q.autotune(reference_source, oracle, (350.0, 400.0), policy=q.DynamicSimplex())
        starts = [s.center for s in run.steps]
        assert starts.count((350.0, 400.0)) == 1
        assert run.policy_name == "dynamic"

    def test_aborted_run_records_cause(self, reference_source, oracle):
        # finer than the stored raster: acquisition cannot proceed at all
        run = q.autotune(reference_source, oracle, (350.0, 400.0), resolution=1.0)
        assert run.outcome.kind == "aborted"
        assert "UnsupportedResolutionError" in run.outcome.cause

    def test_nan_window_aborts_at_the_processed_image(self, reference_scan):
        scan, labels = reference_scan
        values = scan.values.copy()
        i = int(np.argmin(np.abs(scan.v1_axis - 350.0)))
        values[i, :] = np.nan
        source = q.PremeasuredScan(faults.on_axes(scan, values), labels)
        run = q.autotune(source, q.ModelClassifier(q.init_model(0)), (350.0, 400.0))
        assert run.outcome.kind == "aborted"
        # process refuses the window on entry, before any arithmetic on NaN.
        assert run.outcome.cause == "ShapeError: sensor values are not finite: NaN or infinite pixels"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_aborts_naming_the_cause(self, reference_scan, bad):
        scan, labels = reference_scan
        values = scan.values.copy()
        i = int(np.argmin(np.abs(scan.v1_axis - 350.0)))
        j = int(np.argmin(np.abs(scan.v2_axis - 400.0)))
        values[i, j] = bad
        source = q.PremeasuredScan(faults.on_axes(scan, values), labels)
        run = q.autotune(source, q.ModelClassifier(q.init_model(0)), (350.0, 400.0))
        assert run.outcome.kind == "aborted"
        assert run.outcome.cause == "ShapeError: sensor values are not finite: NaN or infinite pixels"
        assert run.iteration_count == 0

    @pytest.mark.parametrize(
        "inject, aborts",
        [
            pytest.param(faults.inject_stuck_rows, False, id="stuck_rows"),
            pytest.param(faults.inject_saturation, False, id="saturation"),
            pytest.param(faults.inject_constant, False, id="constant"),
            pytest.param(faults.inject_affine_drift, False, id="affine_drift"),
            pytest.param(lambda scan: faults.inject_non_finite(scan, np.nan), True, id="nan"),
            pytest.param(lambda scan: faults.inject_non_finite(scan, np.inf), True, id="inf"),
            pytest.param(lambda scan: faults.inject_non_finite(scan, -np.inf), True, id="-inf"),
        ],
    )
    def test_sensor_fault_ends_in_a_recorded_outcome(self, reference_scan, inject, aborts):
        """A model-classified run on a stored scan with a sensor fault never
        raises: it aborts with the typed cause on NaN or infinite pixels and
        otherwise ends as a normal run."""
        scan, labels = reference_scan
        source = q.PremeasuredScan(inject(scan), labels)
        run = q.autotune(source, q.ModelClassifier(q.init_model(0)), (350.0, 400.0))
        if aborts:
            assert run.outcome.kind == "aborted"
            assert run.outcome.cause == "ShapeError: sensor values are not finite: NaN or infinite pixels"
        else:
            assert run.outcome.kind in ("converged", "max_iterations")
            assert run.outcome.center == run.best_center() is not None
        assert json.loads(json.dumps(run.to_json_dict()))["outcome"]["kind"] == run.outcome.kind

    @pytest.mark.parametrize(
        "inject",
        [
            pytest.param(faults.inject_stuck_rows, id="stuck_rows"),
            pytest.param(faults.inject_saturation, id="saturation"),
            pytest.param(faults.inject_constant, id="constant"),
            pytest.param(faults.inject_affine_drift, id="affine_drift"),
        ],
    )
    def test_sensor_fault_leaves_an_oracle_run_unchanged(self, reference_scan, reference_source, oracle, inject):
        """The oracle reads ground truth, not the sensor: an oracle run on a
        stored scan with a finite sensor fault is the clean run, step for step."""
        scan, labels = reference_scan
        faulty = q.PremeasuredScan(inject(scan), labels)
        assert faulty.scan.values.tobytes() != reference_source.scan.values.tobytes()
        for start in [(350.0, 400.0), (250.0, 400.0), (500.0, 470.0)]:
            clean = q.autotune(reference_source, oracle, start)
            assert q.autotune(faulty, oracle, start).to_json_dict() == clean.to_json_dict()

    def test_plateau_start_converges_to_cap(self, reference_source, oracle):
        run = q.autotune(reference_source, oracle, (500.0, 470.0))
        assert run.outcome.kind == "converged"
        assert run.iteration_count == 3
        assert all(s.fitness == 2.0 for s in run.steps)


class TestRunSerialization:
    def test_json_round_trip_fields(self, tmp_path, reference_source, oracle):
        run = q.autotune(reference_source, oracle, (350.0, 400.0))
        path = tmp_path / "run.json"
        run.save_json(path)
        doc = json.loads(path.read_text())
        assert doc["start"] == [350.0, 400.0]
        assert doc["policy"] == "fixed75"
        assert doc["outcome"]["kind"] == "converged"
        assert len(doc["steps"]) == run.iteration_count

    def test_csv_trace(self, tmp_path, reference_source, oracle):
        run = q.autotune(reference_source, oracle, (350.0, 400.0))
        path = tmp_path / "run.csv"
        run.save_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "v1", "v2", "p_none", "p_sd", "p_dd", "fitness"]
        assert len(rows) == run.iteration_count + 1
        # repr() floats reparse exactly
        for row, step in zip(rows[1:], run.steps):
            assert float(row[6]) == step.fitness


class TestBudgetMinimum:
    """The initial simplex takes three measurements, so a smaller budget is refused."""

    @pytest.mark.parametrize("budget", [1, 2, np.int64(2)])
    def test_budgets_below_three_are_refused_by_name(self, budget):
        with pytest.raises(q.ConfigurationError, match=f"TerminationConfig.max_iterations must be at least 3, .* got {budget}$"):
            q.TerminationConfig(max_iterations=budget)

    def test_a_budget_of_three_measures_three_windows(self, reference_params, oracle):
        source = q.SimulatedDevice(reference_params)
        run = q.autotune(source, oracle, (350.0, 400.0), term=q.TerminationConfig(max_iterations=3))
        assert run.iteration_count == 3
        assert run.outcome.kind in ("converged", "max_iterations")

    def test_config_file_budget_below_three_is_refused(self, tmp_path, capsys):
        from qdtune.cli import main

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"termination": {"max_iterations": 2}}))
        rc = main(
            ["tune", "--config", str(config), "--source", "sim", "--start", "300,300", "--out", str(tmp_path)]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "TerminationConfig.max_iterations must be at least 3" in err["message"]
        assert not (tmp_path / "run.json").exists()
