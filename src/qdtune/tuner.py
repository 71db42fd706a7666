"""Fitness function and Nelder-Mead voltage optimizer.

The tuning objective for a window centered at ``(V1, V2)`` is::

    delta = || p_target - p ||_2 + alpha * g(p_none) + beta * g(p_sd)

where ``g`` is a shifted and scaled arctangent penalty with g(0) = 0,
g(1) = 1, and its inflection point at 1/2, so the penalty climbs
steepest once a window tips into being predominantly non-double-dot.
The value is capped at ``FitnessConfig.blocked_fitness``, and windows
the source refuses (``scans.acquire_with_labels`` says which) score
exactly that cap without ever reaching the classifier.

The optimizer is a plain two-dimensional Nelder-Mead simplex search on
Python floats. Every move is ``a + t * (b - a)`` per coordinate: reflect
(t = -1), expand (2) and contract (1/2) from the centroid of the two best
vertices, shrink (1/2) toward the best. The search holds its three
vertices as local variables, best first, and orders them by swaps decided
on their float values: a vertex moves ahead of another only on a strictly
smaller value, so ties keep the order a stable sort keeps. The initial
simplex lowers each plunger in turn by a step that is either fixed or
scaled by the starting fitness, and the search stops when the simplex's
fitness spread or its diameter collapses, or when the evaluation budget
runs out. An edge of the diameter is measured on Python floats: the first
edge is decided there when its length lies clearly above the tolerance,
and the BLAS dot of the numpy search decides only where the two could
round to different decisions. A vertex or a start that is not two real
numbers is refused, and a simplex that is already a tuple of three float
pairs is searched as it is. One "iteration" is one window measurement,
recorded as an immutable :class:`TuningStep` named tuple. A run's :class:`Outcome` holds
the search's best vertex, which the stable order makes the earliest step
of lowest fitness, and the harness reads it there. Steps, outcomes, search
results and runs are named tuples built by ``tuple.__new__``, so a run
calls no Python ``__init__``.

On a stored scan, a classifier with a ``stored_reader`` method, as both
built-in ones have, reads each window where a stored-window locator finds
it or refuses it, with no window built, and the locator binds the reader
once, so a step is one locate and one read. For a plain function reader,
as the oracle's, the scan keeps one such locator per span, resolution and
sandbox for every run that asks for it (``scans._kept_locator``), so an
oracle run binds nothing; a model's method reader gets a locator of its
own each run, so the scan never keeps a classifier alive. On a
simulated source a classifier that reads no sensor values, as the oracle,
gets each window's labels alone (``scans.acquire_labels``). Any other run
measures each window with ``acquire_with_labels`` and classifies it with
``probabilities``. Every route gives the same vector bits, so the same run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .classifier import ProbabilityVector
from .errors import ConfigurationError, DomainError, QdtuneError, check_count, check_setting, real_pair
from .fileio import write_csv, write_json
from .grids import DEFAULT_RESOLUTION_MV, DEFAULT_SPAN_MV
from .scans import (
    Blocked,
    MeasurementSource,
    PremeasuredScan,
    Sandbox,
    SimulatedDevice,
    _kept_locator,
    acquire_labels,
    acquire_with_labels,
)

TARGET_DOUBLE_DOT = ProbabilityVector(0.0, 0.0, 1.0)

RUN_SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class FitnessConfig:
    """Weights and shape of the tuning objective."""

    p_target: ProbabilityVector = TARGET_DOUBLE_DOT
    alpha: float = 1.0
    beta: float = 1.0
    steepness: float = 10.0
    blocked_fitness: float = 2.0
    cap: bool = True

    def __post_init__(self):
        for name in ("alpha", "beta"):
            check_setting(self, name, sign="non-negative")
        for name in ("steepness", "blocked_fitness"):
            check_setting(self, name)


#: The objective of every function that takes a ``FitnessConfig`` and is given
#: none: one object, so a vector scored by one of them keeps its score for the others.
DEFAULT_FITNESS = FitnessConfig()


def _norm(d: np.ndarray) -> float:
    """``float(np.linalg.norm(d))`` of a real 1-d array, bit for bit, without
    its per-call overhead: numpy computes it as ``sqrt(d.dot(d))``. The dot
    product is kept, since a BLAS dot may round unlike ``x*x + y*y + z*z``."""
    return math.sqrt(d.dot(d))


# How far from the tolerance, relatively, a diameter edge computed on floats
# must lie for its decision to stand: far beyond the few ulps by which a BLAS
# dot of two non-negative squares can round unlike ``dx*dx + dy*dy``.
_BELOW, _ABOVE = 1.0 - 1e-9, 1.0 + 1e-9
_SMALLEST_NORMAL = sys.float_info.min


def _shorter(dx: float, dy: float, tolerance: float) -> bool:
    """``_norm(np.array([dx, dy])) < tolerance``, bit for bit, decided on
    floats unless the decision is close: when the sum of squares underflows
    to below the normal range, overflows or is NaN, or when its root lies
    within 1e-9 relative of ``tolerance``, the BLAS dot decides."""
    squares = dx * dx + dy * dy
    if _SMALLEST_NORMAL <= squares < math.inf:
        length = math.sqrt(squares)
        if length < tolerance * _BELOW:
            return True
        if length > tolerance * _ABOVE:
            return False
    return _norm(np.array([dx, dy])) < tolerance


def penalty_g(x: float, steepness: float = FitnessConfig.steepness) -> float:
    """Arctangent penalty on [0, 1] with g(0)=0, g(1)=1, inflection at 1/2."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"penalty argument must lie in [0, 1], got {x}")
    half = math.atan(steepness / 2.0)
    return (math.atan(steepness * (x - 0.5)) + half) / (2.0 * half)


def fitness(p: ProbabilityVector, config: FitnessConfig = DEFAULT_FITNESS) -> float:
    """Tuning objective for one probability vector (lower is better).

    The vector keeps its last score with the config it was scored under, in
    an attribute that is not a field, so a vector the oracle shares between
    windows is scored once per config.
    """
    scored = getattr(p, "_scored", None)
    if scored is not None and scored[0] is config:
        return scored[1]
    t = config.p_target
    delta = _norm(np.array([t.p_none - p.p_none, t.p_sd - p.p_sd, t.p_dd - p.p_dd]))
    delta += config.alpha * penalty_g(p.p_none, config.steepness)
    delta += config.beta * penalty_g(p.p_sd, config.steepness)
    if config.cap:
        delta = min(delta, config.blocked_fitness)
    object.__setattr__(p, "_scored", (config, delta))
    return delta


# --- initial simplex --------------------------------------------------------


@dataclass(frozen=True)
class FixedSimplex:
    """Lower each plunger in turn by a fixed step."""

    delta: float = 75.0

    def __post_init__(self):
        check_setting(self, "delta")

    @cached_property
    def name(self) -> str:
        return f"fixed{self.delta:g}"

    @property
    def reach(self) -> float:
        """Largest initial-simplex step the policy can take."""
        return self.delta

    def step(self, start_fitness: float | None = None) -> float:
        return self.delta


# Smallest and largest initial-simplex step of DynamicSimplex, in mV.
DYNAMIC_STEP_MIN_MV = 50.0
DYNAMIC_STEP_MAX_MV = 150.0


@dataclass(frozen=True)
class DynamicSimplex:
    """Scale the step with the starting fitness: worse start, wider simplex."""

    @property
    def name(self) -> str:
        return "dynamic"

    @property
    def reach(self) -> float:
        """Largest initial-simplex step the policy can take."""
        return DYNAMIC_STEP_MAX_MV

    def step(self, start_fitness: float | None) -> float:
        if start_fitness is None:
            raise ConfigurationError("dynamic simplex policy needs the starting fitness")
        step = DYNAMIC_STEP_MIN_MV * (1.0 + start_fitness)
        return min(max(step, DYNAMIC_STEP_MIN_MV), DYNAMIC_STEP_MAX_MV)


SimplexPolicy = FixedSimplex | DynamicSimplex

# The policies the command line and the offline study offer, by name.
POLICIES: dict[str, SimplexPolicy] = {
    policy.name: policy for policy in (FixedSimplex(75.0), FixedSimplex(100.0), DynamicSimplex())
}


def _simplex_vertices(
    start: tuple[float, float], policy: SimplexPolicy, start_fitness: float | None = None
) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
    """Vertices ``start, start - (d, 0), start - (0, d)`` as pairs of floats."""
    delta = policy.step(start_fitness)
    x0, y0 = float(start[0]), float(start[1])
    return (x0, y0), (x0 - delta, y0), (x0, y0 - delta)


def initial_simplex(
    start: tuple[float, float],
    policy: SimplexPolicy,
    start_fitness: float | None = None,
) -> np.ndarray:
    """Vertices ``{start, start - (d, 0), start - (0, d)}`` as a (3, 2) array."""
    return np.array(_simplex_vertices(start, policy, start_fitness))


# --- Nelder-Mead ------------------------------------------------------------


@dataclass(frozen=True)
class TerminationConfig:
    fitness_tolerance: float = 0.02
    simplex_size_tolerance: float = 2.0
    max_iterations: int = 50

    def __post_init__(self):
        for name in ("fitness_tolerance", "simplex_size_tolerance"):
            check_setting(self, name)
        check_count("TerminationConfig.max_iterations", self.max_iterations)
        if self.max_iterations < 3:
            raise ConfigurationError(
                "TerminationConfig.max_iterations must be at least 3, the measurements of the initial "
                f"simplex, got {self.max_iterations}"
            )


class NelderMeadResult(NamedTuple):
    """Where a search ended and why; an immutable record, built by
    ``tuple.__new__`` in ``nelder_mead``. ``best_vertex`` is the earliest
    evaluated point of lowest value."""

    best_vertex: tuple[float, float]
    reason: str  # fitness_converged | simplex_converged | max_iterations


def _vertex_points(simplex) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
    """The three vertices of a 3x2 ``simplex`` as pairs of Python floats;
    ConfigurationError, naming its shape, for any other shape, and naming
    the vertex for one that is not two real numbers. A tuple of three tuples
    of two floats, as ``autotune`` builds it, is returned as it is."""
    try:
        v0, v1, v2 = simplex
        (x0, y0), (x1, y1), (x2, y2) = v0, v1, v2
    except (TypeError, ValueError):
        shape = np.asarray(simplex, dtype=object).shape  # of ragged vertices too
        raise ConfigurationError(f"simplex must be 3 vertices in 2-d, got shape {shape}") from None
    if (
        type(simplex) is tuple and type(v0) is tuple and type(v1) is tuple and type(v2) is tuple
        and type(x0) is float and type(y0) is float and type(x1) is float
        and type(y1) is float and type(x2) is float and type(y2) is float
    ):
        return simplex
    return (
        real_pair((x0, y0), "simplex vertex 0"),
        real_pair((x1, y1), "simplex vertex 1"),
        real_pair((x2, y2), "simplex vertex 2"),
    )


def _toward(a: tuple[float, float], b: tuple[float, float], t: float) -> tuple[float, float]:
    """The point ``a + t * (b - a)``, per coordinate: every Nelder-Mead move."""
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def nelder_mead(
    objective,
    simplex: np.ndarray,
    term: TerminationConfig = TerminationConfig(),
    start_value: float | None = None,
) -> NelderMeadResult:
    """Minimize ``objective`` over the plane starting from a 3-vertex simplex.

    ``start_value`` is the already-known objective value at
    ``simplex[0]``; it is not measured again but still counts against
    the evaluation budget. A NaN value, ``start_value`` included, raises
    ConfigurationError naming its point. ``simplex`` is any 3x2 array-like
    of real numbers; the search holds its vertices as ``(x, y)`` pairs of
    Python floats, in stable order of value, so the result's best vertex
    is the earliest evaluated point of lowest value.
    """
    p0, p1, p2 = _vertex_points(simplex)

    def value(point: tuple[float, float], known: float | None = None) -> float:
        found = float(objective(point) if known is None else known)
        if found != found:
            raise ConfigurationError(f"objective value at {point} is NaN")
        return found

    f0, f1, f2 = value(p0, start_value), value(p1), value(p2)
    used = 3
    fitness_tolerance, max_iterations = term.fitness_tolerance, term.max_iterations
    tolerance = term.simplex_size_tolerance
    above = tolerance * _ABOVE

    while True:
        # An insertion sort of three: after a step only the worst vertex, or
        # after a shrink the last two, can be out of order.
        if f1 < f0:
            f0, p0, f1, p1 = f1, p1, f0, p0
        if f2 < f1:
            f1, p1, f2, p2 = f2, p2, f1, p1
            if f1 < f0:
                f0, p0, f1, p1 = f1, p1, f0, p0

        if f2 - f0 < fitness_tolerance:
            reason = "fitness_converged"
            break
        # The diameter is below the tolerance when every edge is. Most steps
        # decide that on the first edge, whose float length lies clearly
        # above the tolerance; ``_shorter`` decides every other case.
        (x0, y0), (x1, y1), (x2, y2) = p0, p1, p2
        dx, dy = x0 - x1, y0 - y1
        squares = dx * dx + dy * dy
        if not (_SMALLEST_NORMAL <= squares < math.inf and math.sqrt(squares) > above) and (
            _shorter(dx, dy, tolerance)
            and _shorter(x0 - x2, y0 - y2, tolerance)
            and _shorter(x1 - x2, y1 - y2, tolerance)
        ):
            reason = "simplex_converged"
            break
        if used >= max_iterations:
            reason = "max_iterations"
            break

        budget = max_iterations - used
        # Summed from +0.0, as np.mean does: two -0.0 coordinates give +0.0.
        cx, cy = (0.0 + x0 + x1) / 2.0, (0.0 + y0 + y1) / 2.0
        # _toward(centroid, worst, -1.0): c + -1.0 * d rounds as c - d does.
        reflected = (cx - (x2 - cx), cy - (y2 - cy))
        fr = value(reflected)
        used += 1

        if fr < f0 and budget >= 2:
            expanded = _toward((cx, cy), reflected, 2.0)
            fe = value(expanded)
            used += 1
            f2, p2 = (fe, expanded) if fe < fr else (fr, reflected)
        elif fr < f1:
            f2, p2 = fr, reflected
        elif budget >= 2:
            contracted = _toward((cx, cy), reflected if fr < f2 else p2, 0.5)
            fc = value(contracted)
            used += 1
            if fc < fr and fc < f2:
                f2, p2 = fc, contracted
            elif budget >= 4:
                p1 = _toward(p0, p1, 0.5)
                f1 = value(p1)
                p2 = _toward(p0, p2, 0.5)
                f2 = value(p2)
                used += 2
            else:
                reason = "max_iterations"
                break
        else:
            if fr < f2:
                f2, p2 = fr, reflected
            reason = "max_iterations"
            break

    # The best and good vertices are in order here, and the worst one is
    # first only on a strictly smaller value, as np.argmin picks it.
    return tuple.__new__(NelderMeadResult, (p2 if f2 < f0 else p0, reason))


# --- tuning runs -------------------------------------------------------------


class TuningStep(NamedTuple):
    """One window measurement of a run: an immutable record, cheap to build."""

    center: tuple[float, float]
    probabilities: ProbabilityVector | None
    fitness: float
    blocked: bool


def _best_center(steps: list[TuningStep]) -> tuple[float, float] | None:
    """Center of the best-fitness step (earliest on ties); None for no steps."""
    if not steps:
        return None
    return min(steps, key=itemgetter(2))[0]  # the step's fitness, then its center


#: The ways a tuning run can end, the values of ``Outcome.kind``.
OUTCOME_KINDS = ("converged", "max_iterations", "aborted")


class Outcome(NamedTuple):
    """How a run ended, and where its best window is when it did not abort;
    an immutable record, built by ``tuple.__new__`` in ``autotune``."""

    kind: str  # one of OUTCOME_KINDS
    center: tuple[float, float] | None = None
    cause: str | None = None


class TuningRun(NamedTuple):
    """Full record of one autotuning attempt: a named tuple, built by
    ``tuple.__new__`` in ``autotune``. ``start`` is the start point as the
    two floats ``autotune`` checked, and ``steps`` the run's measurements in
    order."""

    start: tuple[float, float]
    steps: list[TuningStep]
    outcome: Outcome
    policy_name: str

    @property
    def iteration_count(self) -> int:
        return len(self.steps)

    def best_center(self) -> tuple[float, float] | None:
        """Center of the best-fitness measurement (earliest on ties)."""
        return _best_center(self.steps)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": RUN_SCHEMA_VERSION,
            "start": list(self.start),
            "policy": self.policy_name,
            "outcome": {
                "kind": self.outcome.kind,
                "center": list(self.outcome.center) if self.outcome.center else None,
                "cause": self.outcome.cause,
            },
            "iteration_count": self.iteration_count,
            "steps": [
                {
                    "center": list(s.center),
                    "p": list(s.probabilities.as_array()) if s.probabilities else None,
                    "fitness": s.fitness,
                    "blocked": s.blocked,
                }
                for s in self.steps
            ],
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict(), indent=2)

    def save_csv(self, path) -> None:
        write_csv(
            path,
            ["step", "v1", "v2", "p_none", "p_sd", "p_dd", "fitness"],
            (
                [i, *s.center, *(s.probabilities.as_array() if s.probabilities else ("", "", "")), s.fitness]
                for i, s in enumerate(self.steps)
            ),
        )


def autotune(
    source: MeasurementSource,
    classifier,
    start: tuple[float, float],
    span: tuple[float, float] = DEFAULT_SPAN_MV,
    resolution: float = DEFAULT_RESOLUTION_MV,
    fitness_config: FitnessConfig = DEFAULT_FITNESS,
    policy: SimplexPolicy = FixedSimplex(75.0),
    term: TerminationConfig = TerminationConfig(),
    sandbox: Sandbox = Sandbox(),
) -> TuningRun:
    """Run the measure/classify/optimize loop from one starting point.

    Blocked windows are scored at ``fitness_config.blocked_fitness``
    without invoking the classifier. Failures inside the acquisition backend or
    the classifier abort the run and are recorded as such. A classifier
    whose ``reads_labels`` attribute is False gets no labels from a
    simulated source, which then skips computing them, and one whose
    ``reads_values`` attribute is False, as the oracle's is, gets the labels
    alone (``scans.acquire_labels``); any other classifier gets both. On a
    stored scan, a classifier with a ``stored_reader`` method reads each
    window where a locator for the run's span, resolution, sandbox and
    reader finds it (``scans._kept_locator``), with no window built: the
    locator binds the reader on the first window that passes its checks,
    so a step is one locate and one read, and the scan keeps a plain
    function reader's locator, as the oracle's, for every later run. The
    vectors, and so the run, are the same on every route. The outcome's
    center is the search's best vertex, the earliest step of lowest
    fitness. A start or a span that is not two real numbers, or a start
    outside the sandbox, raises ConfigurationError naming it, before any
    window; the run records the start as the two floats checked.
    """
    point = real_pair(start, "start point")
    if not sandbox.contains_point(point):
        raise ConfigurationError(f"start point {start} lies outside the sandbox")

    steps: list[TuningStep] = []
    # measure(center): the window's probability vector, or Blocked.
    reader = getattr(classifier, "stored_reader", None) if isinstance(source, PremeasuredScan) else None
    if reader is not None:
        # The locator checks the span once, when it is bound.
        measure = _kept_locator(source, span, resolution, sandbox, reader)
    elif isinstance(source, SimulatedDevice) and not getattr(classifier, "reads_values", True):
        real_pair(span, "span")

        def measure(center: tuple[float, float]) -> ProbabilityVector | Blocked:
            labels = acquire_labels(source, center, span, resolution, sandbox)
            return labels if isinstance(labels, Blocked) else classifier.probabilities(None, labels)

    else:
        real_pair(span, "span")
        with_labels = getattr(classifier, "reads_labels", True)

        def measure(center: tuple[float, float]) -> ProbabilityVector | Blocked:
            found = acquire_with_labels(source, center, span, resolution, sandbox, with_labels=with_labels)
            return found if isinstance(found, Blocked) else classifier.probabilities(*found)

    # Steps, the outcome and the run are built by tuple.__new__: a named
    # tuple's own __new__ is a Python call, once a step.
    new_record = tuple.__new__

    def objective(center: tuple[float, float]) -> float:
        p = measure(center)
        if isinstance(p, Blocked):
            value = fitness_config.blocked_fitness
            steps.append(new_record(TuningStep, (center, None, value, True)))
            return value
        value = fitness(p, fitness_config)
        steps.append(new_record(TuningStep, (center, p, value, False)))
        return value

    try:
        f0 = objective(point)
        result = nelder_mead(objective, _simplex_vertices(point, policy, f0), term, f0)
    except QdtuneError as exc:
        outcome = new_record(Outcome, ("aborted", None, f"{type(exc).__name__}: {exc}"))
    else:
        kind = "max_iterations" if result.reason == "max_iterations" else "converged"
        outcome = new_record(Outcome, (kind, result.best_vertex, None))
    return new_record(TuningRun, (point, steps, outcome, policy.name))
