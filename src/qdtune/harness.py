"""Offline evaluation harness for tuning policies.

Success is judged against ground truth: a run counts as ideal when the
double-dot fraction of the window around its final center reaches
``theta_ideal``, as close when it reaches ``theta_close``, and the
aggregate success rate weights them 1 and 1/2::

    P = (1 * n_ideal + 0.5 * n_close) / n_runs

The experiments mirror the offline protocol: 9x9-pixel neighborhoods of
handpicked starting points (81 runs each), coarse start grids over a
whole premeasured scan, and exhaustive fitness landscapes. The paper's
offline study is defined here once: :func:`study` runs the neighborhoods
of ``STUDY_POINTS`` under every policy of ``tuner.POLICIES``, on a scan
placed at ``STUDY_SCAN``. An
experiment runs its starts one after another, in start order; no run
depends on the runs before it. A model classifier keeps the vector of
each stored window it classified, so the runs and landscapes of one
classifier on one stored scan classify each window once, whatever their
order, with the bits classifying it again gives. Success scoring reads a
run's final window with the oracle through one locator per stored scan,
span, resolution and sandbox, bound once; on a simulated device it renders
the window's labels alone. A neighborhood report is
built from one record per run, and a loaded report is rebuilt from its
records, so no report holds a figure its runs do not give.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from numbers import Real
from dataclasses import dataclass

import numpy as np

from .classifier import ModelClassifier, OracleClassifier, oracle_probability, oracle_table
from .errors import ConfigurationError, ScanFormatError, ShapeError, real_pair
from .fileio import check_header, checked, encode_blob, write_csv, write_json
from .grids import DEFAULT_RESOLUTION_MV, DEFAULT_SPAN_MV, pixel_count
from .scans import Blocked, MeasurementSource, PremeasuredScan, Sandbox, SimulatedDevice, _kept_locator, acquire_labels
from .scans import acquire_with_labels  # noqa: F401  unused; kept as a name perfbench/spans.py wraps
from .tuner import (
    DEFAULT_FITNESS,
    OUTCOME_KINDS,
    POLICIES,
    FitnessConfig,
    FixedSimplex,
    SimplexPolicy,
    TerminationConfig,
    TuningRun,
    autotune,
    fitness,
)

REPORT_SCHEMA_VERSION = "1"

NEIGHBORHOOD_SIDE = 9  # 9x9 pixel grid of starts around each point

#: The offline study's start points in mV: seven next to the double-dot band
#: ("good") and five deep in the single-central plateau, where the capped
#: fitness gives the optimizer no signal.
STUDY_POINTS = {
    "good": ((250, 400), (350, 400), (350, 415), (350, 425), (350, 450), (400, 350), (450, 350)),
    "plateau": ((470, 470), (480, 470), (490, 460), (500, 470), (520, 480)),
}

#: Center and span in mV of the study's stored scan of the reference device,
#: placed so the double-dot region sits off center and every neighborhood
#: keeps margin.
STUDY_SCAN = ((325.0, 350.0), (400.0, 400.0))

#: Center and span in mV of the offline study's heatmap scan of the reference
#: device, placed so the double-dot region sits off center.
HEATMAP_SCAN = ((300.0, 350.0), (400.0, 400.0))


@dataclass(frozen=True)
class SuccessRegions:
    """Ground-truth thresholds for scoring where a run ended up."""

    theta_ideal: float = 0.8
    theta_close: float = 0.4

    def __post_init__(self):
        if not 0.0 < self.theta_close < self.theta_ideal <= 1.0:
            raise ConfigurationError("need 0 < theta_close < theta_ideal <= 1")

    def weight(self, dd_fraction: float | None) -> float:
        """1 for ideal, 0.5 for close, 0 otherwise (None means unmeasurable)."""
        if dd_fraction is None:
            return 0.0
        if dd_fraction >= self.theta_ideal:
            return 1.0
        if dd_fraction >= self.theta_close:
            return 0.5
        return 0.0


def _scoring_reader(source: PremeasuredScan, plan: tuple):
    """The oracle's stored reader, refused for a scan without labels."""
    if source.labels is None:
        raise ConfigurationError("success scoring needs a source with ground-truth labels")
    return OracleClassifier().stored_reader(source, plan)


def ground_truth_dd_fraction(
    source: MeasurementSource,
    center: tuple[float, float],
    span: tuple[float, float],
    resolution: float,
    sandbox: Sandbox = Sandbox(),
) -> float | None:
    """Double-dot pixel fraction of one window, or None if it cannot be measured.

    A simulated device gives the window's labels alone
    (``scans.acquire_labels``), and refuses the windows
    ``acquire_with_labels`` refuses. A stored scan's window, of any stride,
    is where ``scans._locator`` finds it, and is refused as it refuses it,
    by the pixels it reads; the oracle reads it there with no window built,
    through the one locator the scan keeps for scoring at that span,
    resolution and sandbox (``scans._kept_locator``).
    """
    if isinstance(source, SimulatedDevice):
        labels = acquire_labels(source, center, span, resolution, sandbox)
        return None if isinstance(labels, Blocked) else oracle_probability(labels).p_dd
    if not isinstance(source, PremeasuredScan):
        raise ConfigurationError(f"unknown measurement source type {type(source).__name__}")
    found = _kept_locator(source, span, resolution, sandbox, _scoring_reader)(center)
    return None if isinstance(found, Blocked) else found.p_dd


def run_weight(
    center: tuple[float, float] | None,
    source: MeasurementSource,
    span: tuple[float, float],
    resolution: float,
    sandbox: Sandbox,
    regions: SuccessRegions,
) -> float:
    """Success weight of a run whose best center is ``center``; 0 when it has none."""
    if center is None:
        return 0.0
    return regions.weight(ground_truth_dd_fraction(source, center, span, resolution, sandbox))


# --- experiment plumbing -----------------------------------------------------


def _run_batch(
    starts, source, classifier, span, resolution, fitness_config, policy, term, sandbox, regions
) -> tuple[list[TuningRun], list[dict]]:
    """One tuning run per start, in start order, and then the record of each
    run: its start, best center, iterations, success weight and outcome kind,
    as a report file holds it. The best center of a run that did not abort is
    its outcome's center; only an aborted run's is looked up in its steps.
    Every run is tuned before any is scored. A start outside the sandbox
    raises ConfigurationError before any run."""
    for start in starts:
        if not sandbox.contains_point(start):
            raise ConfigurationError(f"start {start} lies outside the sandbox; nothing was run")
    runs = [
        autotune(source, classifier, start, span=span, resolution=resolution, fitness_config=fitness_config,
                 policy=policy, term=term, sandbox=sandbox)
        for start in starts
    ]
    return runs, [
        {
            "start": list(run.start),
            "best_center": None if center is None else list(center),
            "iterations": run.iteration_count,
            "weight": run_weight(center, source, span, resolution, sandbox, regions),
            "outcome": run.outcome.kind,
        }
        for run, center in zip(runs, map(_recorded_center, runs))
    ]


def _recorded_center(run: TuningRun) -> tuple[float, float] | None:
    """``run.best_center()``, read from its outcome unless the run aborted."""
    return run.best_center() if run.outcome.kind == "aborted" else run.outcome.center


@dataclass(eq=False)
class ExperimentReport:
    """Aggregate of one batch of runs sharing a policy and a start region.

    Its one source of truth is ``run_summaries``, a record per run in start
    order: ``_aggregate`` computes every other field from it, for a new
    report and for a loaded one alike."""

    point: tuple[float, float]
    policy_name: str
    n_runs: int
    success_rate: float
    n_ideal: int
    n_close: int
    n_fail: int
    outcome_counts: dict[str, int]
    iteration_mean: float
    iteration_sd: float
    iteration_counts: list[int]
    run_summaries: list[dict]
    runs: list[TuningRun] | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "point": list(self.point),
            "policy": self.policy_name,
            "n_runs": self.n_runs,
            "success_rate": self.success_rate,
            "counts": {"ideal": self.n_ideal, "close": self.n_close, "fail": self.n_fail},
            "outcomes": dict(sorted(self.outcome_counts.items())),
            "iterations": {
                "mean": self.iteration_mean,
                "sd": self.iteration_sd,
                "per_run": list(self.iteration_counts),
            },
            "runs": self.run_summaries,
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentReport":
        """Rebuild a report from its header, ``point``, ``policy`` and typed run
        records. Every other field must write the JSON its runs give: the first
        that is missing, extra, of the wrong kind or unequal raises
        ScanFormatError naming it, and a wrong header ScanVersionError."""
        check_header(doc, "report", {"schema_version": REPORT_SCHEMA_VERSION})
        try:
            point = checked("report field 'point'", doc["point"], 2, ScanFormatError)
            policy_name = checked("report field 'policy'", doc["policy"], str, ScanFormatError)
            records = checked("report field 'runs'", doc["runs"], list, ScanFormatError)
        except KeyError as exc:
            raise ScanFormatError(f"report is missing field {exc.args[0]!r}") from exc
        if not records:
            raise ScanFormatError("report field 'runs' holds no runs")
        for i, record in enumerate(records):
            _check_record(i, record)
        report = _aggregate(point, policy_name, records)
        read = ("schema_version", "point", "policy", "runs")  # every other field is rebuilt from the runs
        rebuilt = {k: v for k, v in report.to_json_dict().items() if k not in read}
        _check_fields({k: v for k, v in doc.items() if k not in read}, rebuilt)
        return report


def _check_record(i: int, record) -> None:
    """Refuse run record ``i`` of a report file unless each field is of its
    kind, as ``checked`` reads it (a best center may also be null), its
    iterations are non-negative, its weight 0, 0.5 or 1 and its outcome one
    of ``tuner.OUTCOME_KINDS``."""
    kinds = {"start": 2, "best_center": 2, "iterations": int, "weight": float, "outcome": str}
    where = f"runs[{i}]"
    _check_keys(checked(f"report field {where!r}", record, dict, ScanFormatError), kinds, where + ".")
    for key, kind in kinds.items():
        if record[key] is not None or key != "best_center":
            checked(f"report field '{where}.{key}'", record[key], kind, ScanFormatError)
    if record["iterations"] < 0:
        raise ScanFormatError(f"report field '{where}.iterations' must be non-negative, got {record['iterations']}")
    if record["weight"] not in (0, 0.5, 1):
        raise ScanFormatError(f"report field '{where}.weight' must be 0, 0.5 or 1, got {record['weight']!r}")
    if record["outcome"] not in OUTCOME_KINDS:
        raise ScanFormatError(f"report field '{where}.outcome' must be one of {OUTCOME_KINDS}, got {record['outcome']!r}")


def _check_keys(found: dict, expected: dict, prefix: str) -> None:
    """Refuse the first field, by name, that ``found`` holds and ``expected`` lacks or the other way round."""
    odd = sorted(found.keys() ^ expected.keys())
    if odd:
        state = "has an unexpected" if odd[0] in found else "is missing"
        raise ScanFormatError(f"report {state} field {prefix + odd[0]!r}")


def _check_fields(found: dict, rebuilt: dict, prefix: str = "") -> None:
    """Refuse the first field of ``found`` that is extra, missing, or writes
    other JSON than its field in ``rebuilt``; objects are compared field by field."""
    _check_keys(found, rebuilt, prefix)
    for key, value in rebuilt.items():
        if isinstance(value, dict) and isinstance(found[key], dict):
            _check_fields(found[key], value, f"{prefix}{key}.")
        elif json.dumps(found[key]) != json.dumps(value):
            raise ScanFormatError(f"report field {prefix + key!r} is {found[key]!r}, not the {value!r} its runs give")


def _aggregate(point, policy_name, records: list[dict], runs: list[TuningRun] | None = None) -> ExperimentReport:
    """The report of ``records``, one per run in start order; ``runs`` are
    the tuning runs they record, when there are any."""
    weights = [record["weight"] for record in records]
    per_run = [record["iterations"] for record in records]
    counts = np.array(per_run, dtype=float)
    return ExperimentReport(
        point=(float(point[0]), float(point[1])),
        policy_name=policy_name,
        n_runs=len(records),
        success_rate=sum(weights) / len(records),
        n_ideal=weights.count(1.0),
        n_close=weights.count(0.5),
        n_fail=weights.count(0.0),
        outcome_counts=dict(Counter(record["outcome"] for record in records)),
        iteration_mean=float(counts.mean()),
        iteration_sd=float(counts.std(ddof=1)) if len(counts) > 1 else 0.0,
        iteration_counts=per_run,
        run_summaries=records,
        runs=runs,
    )


def neighborhood_experiment(
    source: MeasurementSource,
    classifier,
    point: tuple[float, float],
    policy: SimplexPolicy = FixedSimplex(75.0),
    span: tuple[float, float] = DEFAULT_SPAN_MV,
    resolution: float = DEFAULT_RESOLUTION_MV,
    fitness_config: FitnessConfig = DEFAULT_FITNESS,
    term: TerminationConfig = TerminationConfig(),
    sandbox: Sandbox = Sandbox(),
    regions: SuccessRegions = SuccessRegions(),
) -> ExperimentReport:
    """Tune from every pixel of the 9x9 neighborhood around ``point``.

    Start spacing follows the native raster of the source, which on a
    simulated device is ``resolution``. It must be a positive finite number,
    ``point`` two real numbers and the whole neighborhood must lie inside
    the sandbox; each is checked before any run starts.
    """
    point = real_pair(point, "neighborhood point")
    native = source.scan.meta.resolution if isinstance(source, PremeasuredScan) else resolution
    if not 0.0 < native < math.inf:
        raise ConfigurationError(f"resolution must be a positive finite number of mV, got {resolution}")
    offsets = (np.arange(NEIGHBORHOOD_SIDE) - NEIGHBORHOOD_SIDE // 2) * native
    starts = [
        (float(point[0] + d1), float(point[1] + d2)) for d1 in offsets for d2 in offsets
    ]
    runs, records = _run_batch(
        starts, source, classifier, span, resolution, fitness_config, policy, term, sandbox, regions
    )
    return _aggregate(point, policy.name, records, runs)


def study(source: MeasurementSource, classifier) -> dict[str, dict[str, list[ExperimentReport]]]:
    """The offline study: for each policy of ``tuner.POLICIES`` in order, the
    neighborhood experiment at each good point, then at each plateau point,
    as ``{policy_name: {"good": [reports], "plateau": [reports]}}``."""
    return {
        name: {
            tag: [neighborhood_experiment(source, classifier, point, policy) for point in points]
            for tag, points in STUDY_POINTS.items()
        }
        for name, policy in POLICIES.items()
    }


# --- heatmap -----------------------------------------------------------------


@dataclass(eq=False)
class HeatmapResult:
    """One run record per start of a coarse grid over a full scan, in start
    order (v1 outer), as ``_run_batch`` builds them; the JSON holds the
    weights alone."""

    v1_starts: np.ndarray
    v2_starts: np.ndarray
    policy_name: str
    grid_step: float
    records: list[dict]

    @property
    def n_starts(self) -> int:
        return len(self.records)

    @property
    def weights(self) -> np.ndarray:
        """Success weight per start, ``weights[i, j]`` at ``(v1_starts[i], v2_starts[j])``."""
        return np.array([record["weight"] for record in self.records]).reshape(self.v1_starts.size, self.v2_starts.size)

    @property
    def outcome_counts(self) -> dict[str, int]:
        """How many runs ended each way, by outcome kind."""
        return dict(Counter(record["outcome"] for record in self.records))

    def to_json_dict(self) -> dict:
        return {
            "format": "qdtune-heatmap",
            "version": REPORT_SCHEMA_VERSION,
            "policy": self.policy_name,
            "grid_step_mv": self.grid_step,
            "v1_starts": [float(v) for v in self.v1_starts],
            "v2_starts": [float(v) for v in self.v2_starts],
            "weights": [[float(w) for w in row] for row in self.weights],
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict(), indent=2)


def _coverage(source: MeasurementSource, sandbox: Sandbox) -> tuple[tuple[float, float], tuple[float, float]]:
    """Outer voltage rectangle the source can deliver windows from."""
    if isinstance(source, PremeasuredScan):
        half = source.scan.meta.resolution / 2.0
        return (
            (float(source.scan.v1_axis[0]) - half, float(source.scan.v1_axis[-1]) + half),
            (float(source.scan.v2_axis[0]) - half, float(source.scan.v2_axis[-1]) + half),
        )
    return sandbox.v1_range, sandbox.v2_range


def heatmap(
    source: MeasurementSource,
    classifier,
    policy: SimplexPolicy = FixedSimplex(100.0),
    grid_step: float = 10.0,
    span: tuple[float, float] = (30.0, 30.0),
    fitness_config: FitnessConfig = DEFAULT_FITNESS,
    term: TerminationConfig = TerminationConfig(),
    sandbox: Sandbox = Sandbox(),
    regions: SuccessRegions = SuccessRegions(),
) -> HeatmapResult:
    """One tuning run per start on a grid covering the whole source.

    The grid leaves a margin so that every window of every initial
    simplex vertex stays on the raster: the low edge keeps the policy's
    largest step plus half a window clear, the high edge half a window.
    Windows are measured at the stored raster's resolution on a scan and
    at ``DEFAULT_RESOLUTION_MV`` on a simulated device. A grid step that is
    not a positive finite number, a span that is not two real numbers or not
    a whole number of pixels, or a start outside the sandbox raises
    ConfigurationError before any run.
    """
    resolution = source.scan.meta.resolution if isinstance(source, PremeasuredScan) else DEFAULT_RESOLUTION_MV
    if not (isinstance(grid_step, Real) and 0.0 < grid_step < math.inf):
        raise ConfigurationError(f"grid_step must be a positive finite number of mV, got {grid_step!r}")
    for extent in real_pair(span, "span"):
        pixel_count(extent, resolution)

    (lo1, hi1), (lo2, hi2) = _coverage(source, sandbox)
    reach = policy.reach
    axes = []
    for lo, hi, half in ((lo1, hi1, span[0] / 2.0), (lo2, hi2, span[1] / 2.0)):
        first = lo + reach + half
        last = hi - half
        if first > last:
            raise ConfigurationError("scan too small for the heatmap margins")
        axes.append(first + grid_step * np.arange(int(np.floor((last - first) / grid_step + 1e-9)) + 1))
    v1_starts, v2_starts = axes

    starts = [(float(a), float(b)) for a in v1_starts for b in v2_starts]
    _, records = _run_batch(
        starts, source, classifier, span, resolution, fitness_config, policy, term, sandbox, regions
    )
    return HeatmapResult(v1_starts, v2_starts, policy.name, grid_step, records)


# --- fitness landscape -------------------------------------------------------


@dataclass(eq=False)
class LandscapeResult:
    """Fitness of the window centered at every admissible raster position.

    A tuning run at such a center reads the window one pixel lower on both
    axes: the stored-window locator snaps an even window's center, which lies
    between two pixel centers, to the lower one. On the study scan the 60 mV
    argmin center (229, 250) mV scores 0.0, and a run there 0.102."""

    values: np.ndarray
    center_v1: np.ndarray
    center_v2: np.ndarray
    window_px: tuple[int, int]

    def argmin_center(self) -> tuple[float, float]:
        i, j = np.unravel_index(int(np.argmin(self.values)), self.values.shape)
        return float(self.center_v1[i]), float(self.center_v2[j])

    def save_json(self, path) -> None:
        doc = {
            "format": "qdtune-landscape",
            "version": REPORT_SCHEMA_VERSION,
            "shape": list(self.values.shape),
            "window_px": list(self.window_px),
            "center_v1": encode_blob(self.center_v1, "<f8"),
            "center_v2": encode_blob(self.center_v2, "<f8"),
            "values": encode_blob(self.values, "<f8"),
        }
        write_json(path, doc)


def fitness_landscape(
    source: PremeasuredScan,
    classifier=OracleClassifier(),
    window_span: tuple[float, float] = DEFAULT_SPAN_MV,
    fitness_config: FitnessConfig = DEFAULT_FITNESS,
) -> LandscapeResult:
    """Exhaustive fitness map of a stored scan for one window size.

    With the default oracle classifier the probability vectors come from
    exact pixel counts over ground-truth labels. A ModelClassifier reads
    the vectors it kept of the scan's windows and scores the rest of each
    row of window starts as one stack of sliding-window views of the
    stored values, with the same bytes as window by window; it keeps those
    too. Any other classifier is refused.
    """
    if not isinstance(source, PremeasuredScan):
        raise ConfigurationError("fitness_landscape needs a premeasured full-range scan")
    if not isinstance(classifier, (OracleClassifier, ModelClassifier)):
        raise ConfigurationError(
            f"fitness_landscape takes an OracleClassifier or ModelClassifier, not {type(classifier).__name__}"
        )

    plan = source._window_plan(window_span, source.scan.meta.resolution)
    _, w1, w2, meta = plan
    n1, n2 = source.scan.shape
    if w1 > n1 or w2 > n2:
        raise ShapeError(f"window {w1}x{w2} px exceeds the {n1}x{n2} px scan")

    center_v1 = 0.5 * (source.scan.v1_axis[: n1 - w1 + 1] + source.scan.v1_axis[w1 - 1 :])
    center_v2 = 0.5 * (source.scan.v2_axis[: n2 - w2 + 1] + source.scan.v2_axis[w2 - 1 :])

    if isinstance(classifier, OracleClassifier):
        # Windows share few vectors: score each distinct one once.
        table = oracle_table(source.tally, w1, w2)
        scores = np.array([fitness(p, fitness_config) for p in table.vectors])
        return LandscapeResult(scores[table.index], center_v1, center_v2, (w1, w2))

    # windows[s1, s2] is the w1 x w2 window starting at pixel (s1, s2), a view.
    windows = np.lib.stride_tricks.sliding_window_view(source.scan.values, (w1, w2))
    vectors = classifier._stored_vectors(source, plan)
    starts = range(windows.shape[1])
    values = np.empty(windows.shape[:2])
    for s1, row in enumerate(windows):
        # One row of window starts per stack keeps its arrays cache-sized.
        # The stack holds only the windows the classifier has not kept, and
        # is the row's views themselves, not a copy, when that is all of them.
        missing = [s2 for s2 in starts if (s1, s2) not in vectors]
        if missing:
            stack = row if len(missing) == len(row) else row[missing]
            vectors.update(zip([(s1, s2) for s2 in missing], classifier.stack_probabilities(stack, meta)))
        values[s1] = [fitness(vectors[s1, s2], fitness_config) for s2 in starts]
    return LandscapeResult(values, center_v1, center_v2, (w1, w2))


# --- iteration statistics ----------------------------------------------------


@dataclass(eq=False)
class IterationStats:
    pooled: dict[str, tuple[float, float]]  # policy -> (mean, pooled sd)


def iteration_stats(reports: list[ExperimentReport]) -> IterationStats:
    """Per-policy pooled iteration statistics.

    The pooled s.d. combines within-point variances weighted by their
    degrees of freedom; the pooled mean averages over every run.
    """
    if not reports:
        raise ConfigurationError("no reports to summarize")
    pooled: dict[str, tuple[float, float]] = {}
    for policy_name in sorted({r.policy_name for r in reports}):
        groups = [r for r in reports if r.policy_name == policy_name]
        counts = np.concatenate([np.asarray(r.iteration_counts, dtype=float) for r in groups])
        dof = sum(r.n_runs - 1 for r in groups)
        pooled_var = sum((r.n_runs - 1) * r.iteration_sd**2 for r in groups) / dof if dof > 0 else 0.0
        pooled[policy_name] = (float(counts.mean()), float(np.sqrt(pooled_var)))
    return IterationStats(pooled=pooled)


# --- tabular report writers --------------------------------------------------


def write_success_csv(reports: list[ExperimentReport], path) -> None:
    write_csv(
        path,
        ["point_v1", "point_v2", "policy", "n_runs", "success_rate", "n_ideal", "n_close", "n_fail"],
        (
            [*r.point, r.policy_name, r.n_runs, r.success_rate, r.n_ideal, r.n_close, r.n_fail]
            for r in reports
        ),
    )


def write_iteration_csv(reports: list[ExperimentReport], stats: IterationStats, path) -> None:
    """Per-report iteration mean and s.d., then one pooled row per policy."""
    rows = [[*r.point, r.policy_name, r.n_runs, r.iteration_mean, r.iteration_sd] for r in reports]
    rows += [["pooled", "pooled", name, "", mean, sd] for name, (mean, sd) in stats.pooled.items()]
    write_csv(path, ["point_v1", "point_v2", "policy", "n_runs", "iter_mean", "iter_sd"], rows)


def write_summary_text(reports: list[ExperimentReport], stats: IterationStats, path) -> None:
    lines = ["tuning policy summary", "====================", ""]
    for policy_name in sorted({r.policy_name for r in reports}):
        subset = [r for r in reports if r.policy_name == policy_name]
        total = sum(r.n_runs for r in subset)
        overall = sum(r.success_rate * r.n_runs for r in subset) / total
        mean, sd = stats.pooled[policy_name]
        lines.append(
            f"{policy_name}: success {overall:.3f} over {total} runs, "
            f"iterations {mean:.1f} (pooled s.d. {sd:.1f})"
        )
        for r in subset:
            lines.append(
                f"  point ({r.point[0]:g}, {r.point[1]:g}): "
                f"P={r.success_rate:.3f} ideal/close/fail {r.n_ideal}/{r.n_close}/{r.n_fail}, "
                f"iterations {r.iteration_mean:.1f} ({r.iteration_sd:.1f})"
            )
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
