"""Fitness function and Nelder-Mead voltage optimizer.

The tuning objective for a window centered at ``(V1, V2)`` is::

    delta = || p_target - p ||_2 + alpha * g(p_none) + beta * g(p_sd)

where ``g`` is a shifted and scaled arctangent penalty with g(0) = 0,
g(1) = 1, and its inflection point at 1/2, so the penalty climbs
steepest once a window tips into being predominantly non-double-dot.
The value is capped at ``FitnessConfig.blocked_fitness``, and windows
the sandbox refuses score exactly that cap without ever reaching the
classifier.

The optimizer is a plain two-dimensional Nelder-Mead simplex search on
Python floats. Every move is ``a + t * (b - a)`` per coordinate: reflect
(t = -1), expand (2) and contract (1/2) from the centroid of the two best
vertices, shrink (1/2) toward the best. The initial simplex lowers each
plunger in turn by a step that is either fixed or scaled by the starting
fitness, and the search stops when the simplex's fitness spread or its
diameter collapses, or when the evaluation budget runs out. An edge of the
diameter is measured on Python floats; the BLAS dot of the numpy search
decides only where the two could round to different decisions. One
"iteration" is one window measurement, recorded as an immutable
:class:`TuningStep` named tuple.

On a stored scan, a classifier with a ``stored_probabilities`` method, as
both built-in ones have, reads each window where the run's stored-window
locator, bound once per run, finds it, with no window built. Any other run
measures each window with ``acquire_with_labels`` and classifies it with
``probabilities``. Both give the same vector bits, so the same run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .classifier import ProbabilityVector
from .errors import ConfigurationError, DomainError, QdtuneError, check_count, check_setting
from .fileio import write_csv, write_json
from .grids import DEFAULT_RESOLUTION_MV, DEFAULT_SPAN_MV
from .scans import Blocked, MeasurementSource, PremeasuredScan, Sandbox, _locator, acquire_with_labels

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

    @property
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


@dataclass(eq=False)
class NelderMeadResult:
    best_vertex: tuple[float, float]
    reason: str  # fitness_converged | simplex_converged | max_iterations


def _vertex_points(simplex) -> list[tuple[float, float]]:
    """The three vertices of a 3x2 ``simplex`` as pairs of Python floats;
    ConfigurationError, naming its shape, for any other."""
    try:
        (x0, y0), (x1, y1), (x2, y2) = simplex
        return [(float(x0), float(y0)), (float(x1), float(y1)), (float(x2), float(y2))]
    except (TypeError, ValueError):
        sim = np.array(simplex, dtype=float)
    if sim.shape != (3, 2):
        raise ConfigurationError(f"simplex must be 3 vertices in 2-d, got shape {sim.shape}")
    return [tuple(vertex) for vertex in sim.tolist()]


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
    ConfigurationError naming its point. ``simplex`` is any 3x2 array-like;
    the search holds three ``(value, (x, y))`` vertices of Python floats, in
    stable order of value.
    """
    points = _vertex_points(simplex)

    def call(point: tuple[float, float], value: float | None = None) -> tuple[float, tuple[float, float]]:
        value = float(objective(point) if value is None else value)
        if value != value:
            raise ConfigurationError(f"objective value at {point} is NaN")
        return value, point

    vertices = [call(points[0], start_value), call(points[1]), call(points[2])]
    used = 3

    while True:
        vertices.sort(key=itemgetter(0))
        (f_best, best), (f_good, good), (f_worst, worst) = vertices

        if f_worst - f_best < term.fitness_tolerance:
            reason = "fitness_converged"
            break
        # The diameter is below the tolerance when every edge is; most steps
        # decide that on the first edge.
        tolerance = term.simplex_size_tolerance
        if (
            _shorter(best[0] - good[0], best[1] - good[1], tolerance)
            and _shorter(best[0] - worst[0], best[1] - worst[1], tolerance)
            and _shorter(good[0] - worst[0], good[1] - worst[1], tolerance)
        ):
            reason = "simplex_converged"
            break
        if used >= term.max_iterations:
            reason = "max_iterations"
            break

        budget = term.max_iterations - used
        # Summed from +0.0, as np.mean does: two -0.0 coordinates give +0.0.
        centroid = ((0.0 + best[0] + good[0]) / 2.0, (0.0 + best[1] + good[1]) / 2.0)
        reflected = call(_toward(centroid, worst, -1.0))
        used += 1

        if reflected[0] < f_best and budget >= 2:
            expanded = call(_toward(centroid, reflected[1], 2.0))
            used += 1
            vertices[2] = expanded if expanded[0] < reflected[0] else reflected
        elif reflected[0] < f_good:
            vertices[2] = reflected
        elif budget >= 2:
            contracted = call(_toward(centroid, reflected[1] if reflected[0] < f_worst else worst, 0.5))
            used += 1
            if contracted[0] < min(reflected[0], f_worst):
                vertices[2] = contracted
            elif budget >= 4:
                vertices[1] = call(_toward(best, good, 0.5))
                vertices[2] = call(_toward(best, worst, 0.5))
                used += 2
            else:
                reason = "max_iterations"
                break
        else:
            if reflected[0] < f_worst:
                vertices[2] = reflected
            reason = "max_iterations"
            break

    # min keeps the first of equal values, as np.argmin does.
    return NelderMeadResult(best_vertex=min(vertices, key=itemgetter(0))[1], reason=reason)


# --- tuning runs -------------------------------------------------------------


class TuningStep(NamedTuple):
    """One window measurement of a run: an immutable record, cheap to build."""

    center: tuple[float, float]
    probabilities: ProbabilityVector | None
    fitness: float
    blocked: bool


@dataclass(frozen=True)
class Outcome:
    kind: str  # converged | max_iterations | aborted
    center: tuple[float, float] | None = None
    cause: str | None = None


@dataclass(eq=False)
class TuningRun:
    """Full record of one autotuning attempt."""

    start: tuple[float, float]
    steps: list[TuningStep]
    outcome: Outcome
    policy_name: str

    @property
    def iteration_count(self) -> int:
        return len(self.steps)

    def best_center(self) -> tuple[float, float] | None:
        """Center of the best-fitness measurement (earliest on ties)."""
        if not self.steps:
            return None
        return min(self.steps, key=itemgetter(2))[0]  # the step's fitness, then its center

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
    simulated source, which then skips computing them; any other classifier
    gets them. On a stored scan, a classifier with a ``stored_probabilities``
    method reads each window where the run's one ``scans._locator`` finds
    it, with no window built; the vectors, and so the run, are the same.
    """
    if not sandbox.contains_point(start):
        raise ConfigurationError(f"start point {start} lies outside the sandbox")

    steps: list[TuningStep] = []
    with_labels = getattr(classifier, "reads_labels", True)
    stored = getattr(classifier, "stored_probabilities", None) if isinstance(source, PremeasuredScan) else None
    if stored is not None:
        locate = _locator(source, span, resolution, sandbox)

    def objective(center: tuple[float, float]) -> float:
        if stored is None:
            found = acquire_with_labels(source, center, span, resolution, sandbox, with_labels=with_labels)
        else:
            found = locate(center)
        if isinstance(found, Blocked):
            value = fitness_config.blocked_fitness
            steps.append(TuningStep(center, None, value, True))
            return value
        if stored is None:
            p = classifier.probabilities(*found)
        else:
            plan, s1, s2 = found  # unpacked here: a call with *found is slower, once a step
            p = stored(source, plan, s1, s2)
        value = fitness(p, fitness_config)
        steps.append(TuningStep(center, p, value, False))
        return value

    run = TuningRun(
        start=tuple(start), steps=steps, outcome=Outcome(kind="aborted"), policy_name=policy.name
    )
    try:
        f0 = objective((float(start[0]), float(start[1])))
        result = nelder_mead(objective, _simplex_vertices(start, policy, f0), term, f0)
    except QdtuneError as exc:
        run.outcome = Outcome(kind="aborted", cause=f"{type(exc).__name__}: {exc}")
        return run
    kind = "max_iterations" if result.reason == "max_iterations" else "converged"
    run.outcome = Outcome(kind=kind, center=run.best_center())
    return run
