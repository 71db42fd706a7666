"""Fitness function and Nelder-Mead voltage optimizer.

The tuning objective for a window centered at ``(V1, V2)`` is::

    delta = || p_target - p ||_2 + alpha * g(p_none) + beta * g(p_sd)

where ``g`` is a shifted and scaled arctangent penalty with g(0) = 0,
g(1) = 1, and its inflection point at 1/2, so the penalty climbs
steepest once a window tips into being predominantly non-double-dot.
The value is capped at ``FitnessConfig.blocked_fitness``, and windows
the sandbox refuses score exactly that cap without ever reaching the
classifier.

The optimizer is a plain two-dimensional Nelder-Mead simplex search
(reflection 1, expansion 2, contraction 1/2, shrink 1/2). The initial
simplex lowers each plunger in turn by a step that is either fixed or
scaled by the starting fitness, and the search stops when the simplex's
fitness spread or its diameter collapses, or when the evaluation budget
runs out. One "iteration" is one window measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import ProbabilityVector
from .errors import ConfigurationError, DomainError, QdtuneError
from .fileio import write_csv, write_json
from .grids import DEFAULT_RESOLUTION_MV, DEFAULT_SPAN_MV
from .scans import Blocked, MeasurementSource, Sandbox, acquire_with_labels

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
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError("penalty weights alpha and beta must be non-negative")
        if self.steepness <= 0:
            raise ConfigurationError("penalty steepness must be positive")
        if self.blocked_fitness <= 0:
            raise ConfigurationError("blocked_fitness must be positive")


def penalty_g(x: float, steepness: float = FitnessConfig.steepness) -> float:
    """Arctangent penalty on [0, 1] with g(0)=0, g(1)=1, inflection at 1/2."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"penalty argument must lie in [0, 1], got {x}")
    half = math.atan(steepness / 2.0)
    return (math.atan(steepness * (x - 0.5)) + half) / (2.0 * half)


def fitness(p: ProbabilityVector, config: FitnessConfig = FitnessConfig()) -> float:
    """Tuning objective for one probability vector (lower is better)."""
    delta = float(np.linalg.norm(config.p_target.as_array() - p.as_array()))
    delta += config.alpha * penalty_g(p.p_none, config.steepness)
    delta += config.beta * penalty_g(p.p_sd, config.steepness)
    if config.cap:
        delta = min(delta, config.blocked_fitness)
    return delta


# --- initial simplex --------------------------------------------------------


@dataclass(frozen=True)
class FixedSimplex:
    """Lower each plunger in turn by a fixed step."""

    delta: float = 75.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigurationError("simplex step must be positive")

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


def initial_simplex(
    start: tuple[float, float],
    policy: SimplexPolicy,
    start_fitness: float | None = None,
) -> np.ndarray:
    """Vertices ``{start, start - (d, 0), start - (0, d)}`` as a (3, 2) array."""
    delta = policy.step(start_fitness)
    x0, y0 = float(start[0]), float(start[1])
    return np.array([[x0, y0], [x0 - delta, y0], [x0, y0 - delta]])


# --- Nelder-Mead ------------------------------------------------------------


@dataclass(frozen=True)
class TerminationConfig:
    fitness_tolerance: float = 0.02
    simplex_size_tolerance: float = 2.0
    max_iterations: int = 50

    def __post_init__(self):
        if self.fitness_tolerance <= 0 or self.simplex_size_tolerance <= 0:
            raise ConfigurationError("termination tolerances must be positive")
        if self.max_iterations <= 0:
            raise ConfigurationError("max_iterations must be positive")


@dataclass(eq=False)
class NelderMeadResult:
    best_vertex: tuple[float, float]
    reason: str  # fitness_converged | simplex_converged | max_iterations


_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5


def nelder_mead(
    objective,
    simplex: np.ndarray,
    term: TerminationConfig = TerminationConfig(),
    start_value: float | None = None,
) -> NelderMeadResult:
    """Minimize ``objective`` over the plane starting from a 3-vertex simplex.

    ``start_value`` is the already-known objective value at
    ``simplex[0]``; it is not measured again but still counts against
    the evaluation budget.
    """
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
        diameter = max(
            float(np.linalg.norm(sim[i] - sim[j])) for i in range(3) for j in range(i + 1, 3)
        )
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


# --- tuning runs -------------------------------------------------------------


@dataclass(frozen=True)
class TuningStep:
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
        values = [s.fitness for s in self.steps]
        return self.steps[int(np.argmin(values))].center

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
    fitness_config: FitnessConfig = FitnessConfig(),
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
    gets them.
    """
    if not sandbox.contains_point(start):
        raise ConfigurationError(f"start point {start} lies outside the sandbox")

    steps: list[TuningStep] = []
    with_labels = getattr(classifier, "reads_labels", True)

    def objective(center: tuple[float, float]) -> float:
        result = acquire_with_labels(source, center, span, resolution, sandbox, with_labels=with_labels)
        if isinstance(result, Blocked):
            value = fitness_config.blocked_fitness
            steps.append(TuningStep(center, None, value, True))
            return value
        scan, labels = result
        p = classifier.probabilities(scan, labels)
        value = fitness(p, fitness_config)
        steps.append(TuningStep(center, p, value, False))
        return value

    run = TuningRun(
        start=tuple(start), steps=steps, outcome=Outcome(kind="aborted"), policy_name=policy.name
    )
    try:
        f0 = objective((float(start[0]), float(start[1])))
        result = nelder_mead(objective, initial_simplex(start, policy, f0), term, f0)
    except QdtuneError as exc:
        run.outcome = Outcome(kind="aborted", cause=f"{type(exc).__name__}: {exc}")
        return run
    kind = "max_iterations" if result.reason == "max_iterations" else "converged"
    run.outcome = Outcome(kind=kind, center=run.best_center())
    return run
