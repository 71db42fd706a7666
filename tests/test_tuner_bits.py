"""The tuner's fitness, simplex diameter and Nelder-Mead search keep the bits
of their first, numpy form, and its settings refuse NaN and infinity.

Fitness and diameter compute a Euclidean norm as ``sqrt(d.dot(d))``, which is
what ``np.linalg.norm`` computes for a real 1-d array. A BLAS dot product may
fuse its multiplies and adds, so Python's ``x*x + y*y + z*z`` or
``math.hypot`` can round otherwise: the searched cases below are vectors
where they do on the machine running the tests.

The search on Python floats evaluates the same points, to the sign of each
zero, as the numpy search it replaced, which is kept below as the reference.
One difference is known: when a centroid coordinate underflows to -0.0 (the
two best vertices sum to -5e-324 there) and the worst vertex sits at -0.0, a
reflection or inside contraction gives -0.0 where the reference gave +0.0.
The values are equal, and no voltage of a real run comes near 5e-324 mV.
"""

import dataclasses
import gc
import inspect
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.errors import ConfigurationError
from qdtune.scans import _locate
from qdtune.tuner import NelderMeadResult, _norm, nelder_mead


def _reference_fitness(p, config):
    """``fitness`` as first written, with ``np.linalg.norm``."""
    delta = float(np.linalg.norm(config.p_target.as_array() - p.as_array()))
    delta += config.alpha * q.penalty_g(p.p_none, config.steepness)
    delta += config.beta * q.penalty_g(p.p_sd, config.steepness)
    if config.cap:
        delta = min(delta, config.blocked_fitness)
    return delta


def _reference_diameter(simplex):
    """The largest vertex distance of a (3, 2) simplex, as first written."""
    return max(float(np.linalg.norm(simplex[i] - simplex[j])) for i in range(3) for j in range(i + 1, 3))


def _python_sum_differs(d):
    """True when Python's sum of squares of ``d`` rounds unlike ``d.dot(d)``."""
    return sum(x * x for x in d.tolist()) != d.dot(d)


def _random_vector(rng):
    raw = rng.uniform(0.0, 1.0, size=3)
    return q.ProbabilityVector.from_array(raw / raw.sum())


def _counts_vector(rng):
    n = int(rng.integers(1, 901))
    n_sd = int(rng.integers(0, n + 1))
    return q.ProbabilityVector.from_counts(n, n_sd, int(rng.integers(0, n - n_sd + 1)))


def _random_config(rng, target):
    return q.FitnessConfig(
        p_target=target,
        alpha=float(rng.uniform(0.0, 3.0)),
        beta=float(rng.uniform(0.0, 3.0)),
        steepness=float(rng.uniform(0.5, 30.0)),
        blocked_fitness=float(rng.uniform(0.5, 5.0)),
        cap=bool(rng.integers(0, 2)),
    )


def _vectors(draw):
    arr = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3)))
    if arr.sum() == 0:
        arr = np.array([1.0, 0.0, 0.0])
    return q.ProbabilityVector.from_array(arr / arr.sum())


@st.composite
def probability_vectors(draw):
    if draw(st.booleans()):
        return _vectors(draw)
    n = draw(st.integers(1, 900))
    n_sd = draw(st.integers(0, n))
    return q.ProbabilityVector.from_counts(n, n_sd, draw(st.integers(0, n - n_sd)))


@st.composite
def fitness_configs(draw):
    return q.FitnessConfig(
        p_target=draw(st.one_of(st.just(q.FitnessConfig.p_target), probability_vectors())),
        alpha=draw(st.floats(0.0, 5.0)),
        beta=draw(st.floats(0.0, 5.0)),
        steepness=draw(st.floats(0.01, 100.0)),
        blocked_fitness=draw(st.floats(0.01, 10.0)),
        cap=draw(st.booleans()),
    )


class TestFitnessBits:
    @given(p=probability_vectors(), config=fitness_configs())
    @settings(max_examples=400)
    def test_equals_the_norm_formula(self, p, config):
        assert q.fitness(p, config) == _reference_fitness(p, config)

    @pytest.mark.parametrize("draw", [_random_vector, _counts_vector])
    def test_equals_the_norm_formula_where_python_arithmetic_rounds_otherwise(self, draw):
        rng = np.random.default_rng(15)
        cases = []
        for _ in range(20_000):
            target, p = draw(rng), draw(rng)
            if _python_sum_differs(target.as_array() - p.as_array()):
                cases.append((p, _random_config(rng, target)))
                if len(cases) == 300:
                    break
        for p, config in cases:
            assert q.fitness(p, config) == _reference_fitness(p, config)
            uncapped = dataclasses.replace(config, cap=False)
            assert q.fitness(p, uncapped) == _reference_fitness(p, uncapped)


def _stop_reason(simplex, tolerance):
    """Why ``nelder_mead`` stops on ``simplex`` with a simplex-size tolerance of
    ``tolerance``, its three vertex values spread too far for the fitness
    criterion and its budget spent on them."""
    values = iter([0.0, 1.0, 2.0])
    term = q.TerminationConfig(fitness_tolerance=0.5, simplex_size_tolerance=tolerance, max_iterations=3)
    return nelder_mead(lambda v: next(values), simplex, term).reason


class TestSimplexDiameterBits:
    """The diameter decides ``simplex_converged`` by ``diameter < tolerance``:
    a tolerance of exactly the reference diameter must not stop the search, and
    the next float up must."""

    @staticmethod
    def _check(simplex):
        diameter = _reference_diameter(simplex)
        assert _stop_reason(simplex, diameter) == "max_iterations"
        assert _stop_reason(simplex, math.nextafter(diameter, math.inf)) == "simplex_converged"

    @given(
        vertices=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=3, max_size=3),
    )
    @settings(max_examples=300)
    def test_equals_the_norm_formula(self, vertices):
        simplex = np.array(vertices)
        if _reference_diameter(simplex) > 0:
            self._check(simplex)

    def test_equals_the_norm_formula_where_python_arithmetic_rounds_otherwise(self):
        rng = np.random.default_rng(15)
        found = 0
        for _ in range(20_000):
            simplex = rng.uniform(0.0, 600.0, size=(3, 2)) * rng.uniform(1e-3, 1.0)
            if any(_python_sum_differs(simplex[i] - simplex[j]) for i in range(3) for j in range(i + 1, 3)):
                self._check(simplex)
                found += 1
                if found == 300:
                    break


_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5


def _reference_nelder_mead(
    objective,
    simplex: np.ndarray,
    term: q.TerminationConfig = q.TerminationConfig(),
    start_value: float | None = None,
) -> NelderMeadResult:
    """``nelder_mead`` as written on a (3, 2) numpy simplex, before the search
    moved to Python floats."""
    sim = np.array(simplex, dtype=float)
    if sim.shape != (3, 2):
        raise ConfigurationError(f"simplex must be 3 vertices in 2-d, got shape {sim.shape}")

    def call(point: np.ndarray) -> float:
        return float(objective((float(point[0]), float(point[1]))))

    first = call(sim[0]) if start_value is None else float(start_value)
    fsim = np.array([first, call(sim[1]), call(sim[2])])
    used = 3

    reason = None
    while True:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]

        if fsim[-1] - fsim[0] < term.fitness_tolerance:
            reason = "fitness_converged"
            break
        diameter = max(_norm(sim[i] - sim[j]) for i in range(3) for j in range(i + 1, 3))
        if diameter < term.simplex_size_tolerance:
            reason = "simplex_converged"
            break
        if used >= term.max_iterations:
            reason = "max_iterations"
            break

        budget = term.max_iterations - used
        centroid = sim[:-1].mean(axis=0)
        reflected = centroid + _REFLECT * (centroid - sim[-1])
        f_reflected = call(reflected)
        used += 1

        if f_reflected < fsim[0] and budget >= 2:
            expanded = centroid + _EXPAND * (reflected - centroid)
            f_expanded = call(expanded)
            used += 1
            if f_expanded < f_reflected:
                sim[-1], fsim[-1] = expanded, f_expanded
            else:
                sim[-1], fsim[-1] = reflected, f_reflected
        elif f_reflected < fsim[1]:
            sim[-1], fsim[-1] = reflected, f_reflected
        elif budget >= 2:
            if f_reflected < fsim[-1]:
                contracted = centroid + _CONTRACT * (reflected - centroid)
            else:
                contracted = centroid - _CONTRACT * (centroid - sim[-1])
            f_contracted = call(contracted)
            used += 1
            if f_contracted < min(f_reflected, fsim[-1]):
                sim[-1], fsim[-1] = contracted, f_contracted
            elif budget >= 4:
                for i in (1, 2):
                    sim[i] = sim[0] + _SHRINK * (sim[i] - sim[0])
                    fsim[i] = call(sim[i])
                    used += 1
            else:
                reason = "max_iterations"
                break
        else:
            if f_reflected < fsim[-1]:
                sim[-1], fsim[-1] = reflected, f_reflected
            reason = "max_iterations"
            break

    best = int(np.argmin(fsim))
    return NelderMeadResult(best_vertex=(float(sim[best, 0]), float(sim[best, 1])), reason=reason)


def _trace(search, objective, simplex, term, start_value=None):
    """The repr of every point ``search`` evaluates, then of its result."""
    points = []

    def recorded(point):
        points.append(repr(point))
        return objective(point)

    result = search(recorded, simplex, term, start_value)
    return points, repr(result.best_vertex), result.reason


# Coordinates of magnitude below 1e-6 mV other than ±0.0 are left out: they
# are where the one known difference (see the module docstring) lives.
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
)


@st.composite
def objectives(draw):
    """A smooth quadratic, the same capped, or the same rounded to a step
    (so that vertices tie)."""
    x0, y0 = draw(coordinates), draw(coordinates)
    a, b = draw(st.floats(1e-3, 10.0)), draw(st.floats(1e-3, 10.0))
    c = draw(st.floats(-1.0, 1.0))

    def smooth(p):
        dx, dy = p[0] - x0, p[1] - y0
        return a * dx * dx + b * dy * dy + c * dx * dy

    kind = draw(st.sampled_from(["smooth", "capped", "rounded"]))
    if kind == "capped":
        cap = draw(st.floats(0.0, 1e4))
        return lambda p: min(smooth(p), cap)
    if kind == "rounded":
        step = draw(st.floats(1e-2, 1e4))
        return lambda p: round(smooth(p) / step) * step
    return smooth


@st.composite
def simplices(draw):
    """The initial simplex of a run, or any three vertices."""
    if draw(st.booleans()):
        start = (draw(coordinates), draw(coordinates))
        return q.initial_simplex(start, q.FixedSimplex(draw(st.floats(1e-3, 200.0))))
    return np.array([[draw(coordinates), draw(coordinates)] for _ in range(3)])


class TestNelderMeadBits:
    """``nelder_mead`` evaluates the reference's points, to the last bit and
    the sign of each zero, in its order, and returns its result."""

    @given(
        objective=objectives(),
        simplex=simplices(),
        fitness_tolerance=st.floats(1e-9, 1.0),
        size_tolerance=st.floats(1e-9, 10.0),
        budget=st.integers(3, 60),
        known_start=st.booleans(),
    )
    @settings(max_examples=1000, deadline=None)
    def test_same_points_and_result_as_the_numpy_search(
        self, objective, simplex, fitness_tolerance, size_tolerance, budget, known_start
    ):
        term = q.TerminationConfig(fitness_tolerance, size_tolerance, budget)
        start_value = objective((float(simplex[0, 0]), float(simplex[0, 1]))) if known_start else None
        expect = _trace(_reference_nelder_mead, objective, simplex, term, start_value)
        assert _trace(nelder_mead, objective, simplex, term, start_value) == expect

    @pytest.mark.parametrize(
        "simplex, objective, reflected",
        [
            ([[-0.0, 0.0], [-0.0, 10.0], [-0.0, 20.0]], lambda p: p[1], "(0.0, -10.0)"),
            ([[0.0, -0.0], [10.0, -0.0], [20.0, -0.0]], lambda p: p[0], "(-10.0, 0.0)"),
            ([[-0.0, -0.0], [-0.0, 10.0], [-0.0, 20.0]], lambda p: abs(p[1] - 3.0), "(0.0, -10.0)"),
        ],
        ids=["v1", "v2", "contract-and-shrink"],
    )
    def test_two_minus_zero_coordinates_have_a_plus_zero_centroid(self, simplex, objective, reflected):
        """``np.mean`` sums from +0.0, so two -0.0 coordinates average to +0.0
        and the first reflection leaves -0.0 behind."""
        term = q.TerminationConfig(1e-9, 1e-9, 20)
        expect = _trace(_reference_nelder_mead, objective, np.array(simplex), term)
        assert expect[0][3] == reflected
        assert _trace(nelder_mead, objective, np.array(simplex), term) == expect

    def test_a_centroid_that_underflows_to_minus_zero_moves_to_equal_values(self):
        """The one known difference: the values match, the sign of a zero does not."""
        simplex = np.array([[-5e-324, 0.0], [0.0, 10.0], [-0.0, 20.0]])
        term = q.TerminationConfig(1e-9, 1e-9, 12)
        expect, got = [], []
        _reference_nelder_mead(lambda p: expect.append(p) or p[1], simplex, term)
        nelder_mead(lambda p: got.append(p) or p[1], simplex, term)
        assert got == expect
        assert (repr(got[3]), repr(expect[3])) == ("(-0.0, -10.0)", "(0.0, -10.0)")


class TestNaNObjective:
    """``sorted`` has no defined order for NaN, so a NaN value is refused."""

    @pytest.mark.parametrize("at", [0, 1, 2, 3])
    def test_refused_naming_the_point(self, at):
        simplex = q.initial_simplex((300.0, 300.0), q.FixedSimplex(75.0))
        points = []

        def objective(p):
            points.append(p)
            return math.nan if len(points) == at + 1 else p[0] + p[1]

        with pytest.raises(q.ConfigurationError) as refused:
            nelder_mead(objective, simplex)
        assert len(points) == at + 1
        assert str(refused.value) == f"objective value at {points[-1]} is NaN"

    def test_start_value_refused_naming_the_start(self):
        simplex = q.initial_simplex((300.0, 250.0), q.FixedSimplex(75.0))
        with pytest.raises(q.ConfigurationError, match=r"objective value at \(300\.0, 250\.0\) is NaN"):
            nelder_mead(lambda p: 0.0, simplex, start_value=math.nan)

    def test_autotune_records_an_aborted_run(self, reference_source, oracle, monkeypatch):
        monkeypatch.setattr(q.tuner, "fitness", lambda p, config: math.nan)
        run = q.autotune(reference_source, oracle, (350.0, 400.0))
        assert run.outcome.kind == "aborted"
        assert run.outcome.cause == "ConfigurationError: objective value at (350.0, 400.0) is NaN"


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestSettingsRefuseNonFinite:
    @pytest.mark.parametrize("value", NON_FINITE + [-1.0], ids=["nan", "inf", "-inf", "negative"])
    @pytest.mark.parametrize("field", ["alpha", "beta", "steepness", "blocked_fitness"])
    def test_fitness_config(self, field, value):
        with pytest.raises(q.ConfigurationError, match=f"FitnessConfig.{field} "):
            q.FitnessConfig(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE + [0.0], ids=["nan", "inf", "-inf", "zero"])
    @pytest.mark.parametrize("field", ["fitness_tolerance", "simplex_size_tolerance"])
    def test_termination_config(self, field, value):
        with pytest.raises(q.ConfigurationError, match=f"TerminationConfig.{field} "):
            q.TerminationConfig(**{field: value})

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, 2.5, 50.0, True, 0, -1], ids=["nan", "inf", "fraction", "whole-float", "bool", "zero", "negative"]
    )
    def test_max_iterations(self, value):
        with pytest.raises(q.ConfigurationError, match="TerminationConfig.max_iterations must be a positive integer"):
            q.TerminationConfig(max_iterations=value)

    @pytest.mark.parametrize("value", NON_FINITE + [0.0], ids=["nan", "inf", "-inf", "zero"])
    def test_fixed_simplex(self, value):
        with pytest.raises(q.ConfigurationError, match="FixedSimplex.delta "):
            q.FixedSimplex(value)


def _bits(value):
    return float(value).hex()


class TestScoreReuse:
    """A vector keeps its last score with the config it was scored under; a
    reused score has the bits of a fresh one."""

    @pytest.mark.parametrize("center", [(300.0, 330.0), (250.0, 420.0), (450.0, 480.0)])
    def test_a_shared_vector_scored_under_two_configs(self, center, reference_source):
        a = q.FitnessConfig()
        b = q.FitnessConfig(alpha=2.5, cap=False)
        def stored():
            found = _locate(reference_source, center, (60.0, 60.0), 2.0, q.Sandbox())
            return q.OracleClassifier().stored_probabilities(reference_source, *found)

        p = stored()
        assert stored() is p  # the stored scan shares one vector per count pair
        for config in (a, b, a, a, b):
            fresh = q.ProbabilityVector(p.p_none, p.p_sd, p.p_dd)
            expect = q.fitness(fresh, config)
            assert _bits(q.fitness(p, config)) == _bits(expect) == _bits(_reference_fitness(fresh, config))

    def test_an_equal_config_is_scored_again_to_the_same_bits(self):
        p = q.ProbabilityVector.from_counts(900, 200, 300)
        first = q.fitness(p, q.FitnessConfig(alpha=0.7))
        assert _bits(q.fitness(p, q.FitnessConfig(alpha=0.7))) == _bits(first)

    @given(
        p=probability_vectors(),
        configs=st.lists(fitness_configs(), min_size=1, max_size=4),
        order=st.lists(st.integers(0, 3), max_size=12),
    )
    @settings(max_examples=200)
    def test_any_order_of_configs(self, p, configs, order):
        for k in order + list(range(len(configs))):
            config = configs[k % len(configs)]
            assert _bits(q.fitness(p, config)) == _bits(_reference_fitness(p, config))

    def test_the_score_is_not_a_field(self):
        p = q.ProbabilityVector.from_counts(900, 100, 700)
        fresh = q.ProbabilityVector.from_counts(900, 100, 700)
        q.fitness(p)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert [f.name for f in dataclasses.fields(p)] == ["p_none", "p_sd", "p_dd"]

    def test_a_fresh_vector_is_collected_after_it_is_scored(self):
        config = q.FitnessConfig()
        p = q.ProbabilityVector(0.25, 0.25, 0.5)
        q.fitness(p, config)
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize(
        "function, name",
        [(q.fitness, "config"), (q.autotune, "fitness_config"), (q.neighborhood_experiment, "fitness_config"),
         (q.heatmap, "fitness_config"), (q.fitness_landscape, "fitness_config")],
        ids=["fitness", "autotune", "neighborhood_experiment", "heatmap", "fitness_landscape"],
    )
    def test_every_default_objective_is_one_object(self, function, name):
        """So the landscape of a stored scan reuses the scores its tuning runs left."""
        assert inspect.signature(function).parameters[name].default is q.tuner.DEFAULT_FITNESS


def _dot_decision(dx, dy, tolerance):
    """The diameter test as the numpy search made it: the BLAS dot decides."""
    return _norm(np.array([dx, dy])) < tolerance


def _same_decision(dx, dy, tolerance):
    """Whether ``_shorter`` decides as the dot does; an overflowing dot warns
    in both, as it did in the numpy search, and the warning is not checked."""
    with np.errstate(over="ignore", invalid="ignore"):
        return q.tuner._shorter(dx, dy, tolerance) == _dot_decision(dx, dy, tolerance)


def _ulps_from(value, k):
    """``value`` moved ``k`` floats up (k > 0) or down."""
    for _ in range(abs(k)):
        value = math.nextafter(value, math.inf if k > 0 else -math.inf)
    return value


# Values where the sum of squares underflows, overflows or is not a number.
EXTREME = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1.5e-154,
           1.3e154, 1e200, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan]


@st.composite
def edges(draw):
    """An edge ``(dx, dy)`` and a tolerance from 1e-300 to 1e300: an edge
    whose BLAS length is the tolerance give or take a few ulps, an edge of the
    tolerance's magnitude, or extreme coordinates."""
    kind = draw(st.sampled_from(["at the tolerance", "same magnitude", "extreme"]))
    if kind == "extreme":
        coordinates = st.one_of(st.sampled_from(EXTREME), st.floats())
        return draw(coordinates), draw(coordinates), draw(st.floats(1e-300, 1e300))
    scale = 10.0 ** draw(st.integers(-300, 300))
    dx = draw(st.floats(-1.0, 1.0)) * scale
    dy = draw(st.floats(-1.0, 1.0)) * scale
    if kind == "same magnitude":
        return dx, dy, draw(st.floats(0.1, 10.0)) * scale
    with np.errstate(over="ignore"):
        length = _norm(np.array([dx, dy]))
    return dx, dy, min(max(_ulps_from(length, draw(st.integers(-4, 4))), 1e-300), 1e300)


class TestDiameterDecision:
    """``_shorter`` decides an edge on Python floats, and hands the decision
    to the BLAS dot whenever the two could differ: it decides as the dot does."""

    @given(edge=edges())
    @settings(max_examples=2000)
    def test_equals_the_dot_decision(self, edge):
        assert _same_decision(*edge)

    def test_equals_the_dot_decision_where_python_arithmetic_rounds_otherwise(self):
        rng = np.random.default_rng(23)
        found = 0
        while found < 300:
            d = rng.uniform(-600.0, 600.0, size=2) * rng.uniform(1e-3, 1.0)
            if not _python_sum_differs(d):
                continue
            found += 1
            dx, dy = d.tolist()
            length = _norm(d)
            for k in range(-3, 4):
                tolerance = _ulps_from(length, k)
                assert q.tuner._shorter(dx, dy, tolerance) == _dot_decision(dx, dy, tolerance)
                assert q.tuner._shorter(dx, dy, tolerance) == (k > 0)

    @pytest.mark.parametrize("dx", EXTREME)
    @pytest.mark.parametrize("dy", [0.0, 1.0, 1e-200, 1e200, math.inf, math.nan])
    @pytest.mark.parametrize("tolerance", [1e-300, 1e-150, 2.0, 1e150, 1e300])
    def test_extreme_coordinates(self, dx, dy, tolerance):
        assert _same_decision(dx, dy, tolerance)
