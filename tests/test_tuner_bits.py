"""The tuner's fitness and simplex diameter keep the bits of their first,
``np.linalg.norm`` form, and its settings refuse NaN and infinity.

Both compute a Euclidean norm as ``sqrt(d.dot(d))``, which is what
``np.linalg.norm`` computes for a real 1-d array. A BLAS dot product may
fuse its multiplies and adds, so Python's ``x*x + y*y + z*z`` or
``math.hypot`` can round otherwise: the searched cases below are vectors
where they do on the machine running the tests.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.tuner import nelder_mead


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
