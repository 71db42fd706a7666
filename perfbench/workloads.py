"""The benchmark's workloads: inputs drawn from a seed, set-up, and one pass of work.

A workload's set-up is what must exist before the first measured call
(stored scans, a trained classifier, a held-out set). A pass is a fixed
list of tasks; each task is one call into qdtune's public drivers. The
runner repeats passes, times every task, and inspects each result
outside the timed region: the bytes it hashes, the failures it counts
and the values the seed-0 check compares.

Every call goes through a module attribute (``harness.neighborhood_experiment``,
``classifier.train``, ...) so a traced pass sees the wrapped functions.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from qdtune import classifier, device, harness, scans, tuner
from qdtune.grids import StateLabel

# --- the offline study's fixed inputs (scripts/run_offline_experiments.py) ---

GOOD_POINTS = [(250, 400), (350, 400), (350, 415), (350, 425), (350, 450), (400, 350), (450, 350)]
PLATEAU_POINTS = [(470, 470), (480, 470), (490, 460), (500, 470), (520, 480)]
POLICY_NAMES = ("dynamic", "fixed100", "fixed75")
NEIGHBORHOOD_SCAN = ((325.0, 350.0), (400.0, 400.0))
HEATMAP_SCAN = ((300.0, 350.0), (400.0, 400.0))
WINDOW_MV = 60.0
LATTICE_MV = 5.0
JITTER_MV = 10.0  # how far a seeded study point may sit from the paper's

# Values the acceptance criteria print for the seed-0 study.
SEED0_SUCCESS = {"dynamic": 0.714, "fixed100": 0.686, "fixed75": 0.583}
SEED0_POOLED_ITERATIONS = {"dynamic": 11.75, "fixed100": 12.15, "fixed75": 11.42}

# One stored-scan landscape after every this many study tasks.
LANDSCAPE_EVERY = 6

# closed_loop_mlp sizes: classifier trained in set-up, then neighborhoods.
MLP_TRAIN_DEVICES = 40
MLP_TRAIN_SAMPLES = 10
MLP_TRAIN_STEPS = 400
MLP_POINT = (350.0, 400.0)
MLP_LANDSCAPE_SCAN = ((350.0, 410.0), (100.0, 100.0))  # 50x50 px, 21x21 windows
MLP_LANDSCAPES_PER_PASS = 2

# train_corpus sizes: one dataset and one training per pass.
CORPUS_DEVICES = 60
CORPUS_SAMPLES = 10
CORPUS_STEPS = 400
HELDOUT_DEVICES = 20


def make_policy(name: str):
    return tuner.DynamicSimplex() if name == "dynamic" else tuner.FixedSimplex(float(name[5:]))


@dataclass
class Inspection:
    """What the runner keeps from one task's result."""

    data: bytes  # hashed into the pass digest
    attempted: int  # runs or samples the task attempted
    units: int = 0  # what units_per_s counts: measured windows or dataset samples
    failed: int = 0  # aborted runs
    problems: list[str] = field(default_factory=list)
    summary: object = None  # kept for the pass check


@dataclass
class Task:
    label: str
    call: Callable[[], object]  # the timed call into qdtune
    metrics: tuple[str, ...]  # "units" counts into units_per_s, "job" into job_s
    planned: int  # runs or samples counted as failed if the call raises
    inspect: Callable[[object], Inspection]
    calibration: str = "calls"  # the run.calibration_s loop whose work it resembles


def _workers(fn, n: int) -> dict:
    """``workers=n`` if ``fn`` still takes a worker count."""
    return {"workers": n} if "workers" in inspect.signature(fn).parameters else {}


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# --- drawing start points from ground truth ----------------------------------


def _lattice_regions(labels) -> tuple[list, list]:
    """Start points on a 5 mV lattice, split into the study's two regions.

    Band-adjacent: the 60 mV window lies on the raster and holds some, but
    not only, double-dot pixels. Plateau: the point is merged single-dot
    and the window, clipped to the raster, holds no double-dot pixel.
    """
    codes = labels.labels
    v1, v2 = labels.v1_axis, labels.v2_axis
    half = int(round(WINDOW_MV / (v1[1] - v1[0]))) // 2
    band, plateau = [], []
    for p1 in np.arange(v1[0] + 4.0, v1[-1] - 4.0 + 1e-9, LATTICE_MV):
        for p2 in np.arange(v2[0] + 4.0, v2[-1] - 4.0 + 1e-9, LATTICE_MV):
            i = int(np.argmin(np.abs(v1 - p1)))
            j = int(np.argmin(np.abs(v2 - p2)))
            window = codes[max(i - half, 0) : i + half, max(j - half, 0) : j + half]
            dd = float((window == int(StateLabel.DOUBLE_DOT)).mean())
            on_raster = i - half >= 0 and j - half >= 0 and i + half <= codes.shape[0] and j + half <= codes.shape[1]
            point = (float(p1), float(p2))
            if on_raster and 0.0 < dd < 1.0:
                band.append(point)
            elif codes[i, j] == int(StateLabel.SINGLE_CENTRAL) and dd == 0.0:
                plateau.append(point)
    return band, plateau


def _near(rng, candidates: list, anchors: list) -> list:
    """One random candidate within JITTER_MV of each anchor, in both coordinates.

    Staying near the paper's points keeps the mix of easy and hard starts,
    and so the work per pass, about the same from seed to seed."""
    picks = []
    for a1, a2 in anchors:
        near = [c for c in candidates if abs(c[0] - a1) <= JITTER_MV and abs(c[1] - a2) <= JITTER_MV]
        picks.append(near[int(rng.integers(len(near)))] if near else (float(a1), float(a2)))
    return picks


# --- study_oracle -------------------------------------------------------------


@dataclass
class StudyState:
    source: scans.PremeasuredScan
    heatmap_source: scans.PremeasuredScan
    oracle: classifier.OracleClassifier


def study_setup(seed: int) -> StudyState:
    params = device.reference_device()
    stored = []
    for center, span in (NEIGHBORHOOD_SCAN, HEATMAP_SCAN):
        scan, labels = device.render_scan(params, center, span, 2.0)
        stored.append(scans.PremeasuredScan(scan, labels))
    return StudyState(stored[0], stored[1], classifier.OracleClassifier())


def study_points(seed: int, state: StudyState) -> tuple[list, list]:
    """The paper's points at seed 0; otherwise as many points from the same
    ground-truth regions, each near one of the paper's."""
    if seed == 0:
        return [tuple(map(float, p)) for p in GOOD_POINTS], [tuple(map(float, p)) for p in PLATEAU_POINTS]
    band, plateau = _lattice_regions(state.source.labels)
    rng = np.random.default_rng(seed)
    return _near(rng, band, GOOD_POINTS), _near(rng, plateau, PLATEAU_POINTS)


def _inspect_report(tag: str):
    def inspect_report(report) -> Inspection:
        problems = []
        if report.n_runs != harness.NEIGHBORHOOD_SIDE**2:
            problems.append(f"neighborhood {report.point} has {report.n_runs} runs")
        if not 0.0 <= report.success_rate <= 1.0:
            problems.append(f"success rate {report.success_rate} outside [0, 1]")
        summary = (tag, report.policy_name, report.success_rate, report)
        return Inspection(
            data=_json_bytes(report.to_json_dict()),
            attempted=report.n_runs,
            units=_measured_windows(report.runs),
            failed=report.outcome_counts.get("aborted", 0),
            problems=problems,
            summary=summary,
        )

    return inspect_report


def _measured_windows(runs) -> int:
    """Windows the runs measured, plus the one each scored run re-acquires
    for ground truth; refused windows cost almost nothing."""
    tuned = sum(not step.blocked for run in runs for step in run.steps)
    return tuned + sum(run.best_center() is not None for run in runs)


def _inspect_heatmap(result) -> Inspection:
    problems = []
    if not ((result.weights >= 0) & (result.weights <= 1)).all():
        problems.append("heatmap weights outside [0, 1]")
    return Inspection(_json_bytes(result.to_json_dict()), attempted=result.n_starts, problems=problems)


def _inspect_landscape(result) -> Inspection:
    values = result.values
    problems = []
    if not (np.isfinite(values).all() and values.min() >= 0.0 and values.max() <= 2.0):
        problems.append("landscape values outside [0, 2]")
    data = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (values, result.center_v1, result.center_v2)
    )
    return Inspection(data, attempted=0, problems=problems)


def study_tasks(seed: int, state: StudyState, workers: int) -> list[Task]:
    good, plateau = study_points(seed, state)
    tuning = []
    for tag, points in (("good", good), ("plateau", plateau)):
        for name in POLICY_NAMES:
            for point in points:
                tuning.append((tag, name, point))
    # Interleave the kinds so that any prefix of a pass has a similar mix.
    order = np.random.default_rng(seed).permutation(len(tuning))
    pool = _workers(harness.neighborhood_experiment, workers)
    tasks: list[Task] = []
    for k in order:
        tag, name, point = tuning[k]

        def call(point=point, name=name):
            return harness.neighborhood_experiment(state.source, state.oracle, point, make_policy(name), **pool)

        tasks.append(Task(f"{tag} {name} {point}", call, ("units",), 81, _inspect_report(tag)))

    def heatmap_call():
        return harness.heatmap(
            state.heatmap_source,
            state.oracle,
            policy=tuner.FixedSimplex(100.0),
            **_workers(harness.heatmap, workers),
        )

    tasks.insert(len(tasks) // 2, Task("heatmap fixed100", heatmap_call, (), 1, _inspect_heatmap))

    def landscape_call():
        return harness.fitness_landscape(state.source)

    with_landscapes = []
    for i, task in enumerate(tasks):
        with_landscapes.append(task)
        if (i + 1) % LANDSCAPE_EVERY == 0 or i == len(tasks) - 1:
            with_landscapes.append(Task("landscape", landscape_call, ("job",), 1, _inspect_landscape))
    return with_landscapes


def study_check(seed: int, summaries: list) -> list[str]:
    """At seed 0 the pass must print the acceptance criteria's numbers."""
    if seed != 0:
        return []
    problems = []
    reports = [s for s in summaries if isinstance(s, tuple)]
    for name in POLICY_NAMES:
        rates = [rate for _, policy, rate, _ in reports if policy == name]
        aggregate = round(float(np.mean(rates)), 3)
        if aggregate != SEED0_SUCCESS[name]:
            problems.append(f"{name} aggregate success {aggregate}, expected {SEED0_SUCCESS[name]}")
    pooled = harness.iteration_stats([r for tag, _, _, r in reports if tag == "good"]).pooled
    for name, expected in SEED0_POOLED_ITERATIONS.items():
        got = round(pooled[name][0], 2)
        if got != expected:
            problems.append(f"{name} pooled iterations {got}, expected {expected}")
    return problems


# --- closed_loop_mlp ------------------------------------------------------------


@dataclass
class ClosedLoopState:
    source: scans.SimulatedDevice
    stored: scans.PremeasuredScan  # small stored scan for the model landscape
    model_classifier: classifier.ModelClassifier
    model_bytes: bytes


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def closed_loop_setup(seed: int) -> ClosedLoopState:
    gen_seed, train_seed = _seeds(seed, 2)
    samples = classifier.generate_dataset(MLP_TRAIN_DEVICES, MLP_TRAIN_SAMPLES, seed=gen_seed)
    model, _ = classifier.train(samples, classifier.TrainingConfig(steps=MLP_TRAIN_STEPS, seed=train_seed))
    model_bytes = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in model.weights + model.biases)
    params = device.reference_device()
    scan, labels = device.render_scan(params, *MLP_LANDSCAPE_SCAN, 2.0)
    return ClosedLoopState(
        scans.SimulatedDevice(params),
        scans.PremeasuredScan(scan, labels),
        classifier.ModelClassifier(model),
        model_bytes,
    )


def closed_loop_tasks(seed: int, state: ClosedLoopState, workers: int) -> list[Task]:
    """One neighborhood on the simulated device (units_per_s) at a band-adjacent
    point of the study, then the model's fitness landscape of a small stored
    scan (job_s) twice; the seed enters through the trained model.

    A neighborhood takes seconds and its time is only as steady as the
    host's speed over it, so the pass repeats one neighborhood rather than
    visiting several: each run then times it about ten times, not three."""

    def neighborhood():
        return harness.neighborhood_experiment(
            state.source,
            state.model_classifier,
            MLP_POINT,
            tuner.DynamicSimplex(),
            **_workers(harness.neighborhood_experiment, 1),
        )

    def landscape():
        return harness.fitness_landscape(state.stored, state.model_classifier)

    tasks = [Task(f"mlp neighborhood dynamic {MLP_POINT}", neighborhood, ("units",), 81, _inspect_report("mlp"))]
    tasks += [Task("mlp landscape", landscape, ("job",), 1, _inspect_landscape)] * MLP_LANDSCAPES_PER_PASS
    return tasks


# --- train_corpus ---------------------------------------------------------------


@dataclass
class CorpusState:
    heldout: list
    gen_seed: int
    train_seed: int


def corpus_setup(seed: int) -> CorpusState:
    gen_seed, heldout_seed, train_seed = _seeds(seed, 3)
    heldout = classifier.generate_dataset(HELDOUT_DEVICES, CORPUS_SAMPLES, seed=heldout_seed)
    return CorpusState(heldout, gen_seed, train_seed)


def _dataset_bytes(samples) -> bytes:
    x, t = classifier.dataset_arrays(samples)
    centers = np.array([s.center for s in samples])
    seeds = np.array([s.device_seed for s in samples], dtype="<i8")
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (x, t, centers)) + seeds.tobytes()


def corpus_tasks(seed: int, state: CorpusState, workers: int) -> list[Task]:
    data = {}  # the pass's dataset and model, handed from task to task
    n = CORPUS_DEVICES * CORPUS_SAMPLES

    def dataset_call():
        data["samples"] = classifier.generate_dataset(CORPUS_DEVICES, CORPUS_SAMPLES, seed=state.gen_seed)
        return data["samples"]

    def inspect_dataset(samples) -> Inspection:
        problems = [] if len(samples) == n else [f"dataset holds {len(samples)} samples, expected {n}"]
        return Inspection(_dataset_bytes(samples), attempted=n, units=len(samples), problems=problems)

    def train_call():
        config = classifier.TrainingConfig(steps=CORPUS_STEPS, seed=state.train_seed)
        data["model"], losses = classifier.train(data["samples"], config)
        return losses

    def inspect_losses(losses) -> Inspection:
        problems = [] if np.isfinite(losses).all() and len(losses) == CORPUS_STEPS else ["bad loss trace"]
        return Inspection(np.ascontiguousarray(losses, dtype="<f8").tobytes(), attempted=0, problems=problems)

    def evaluate_call():
        return classifier.evaluate(data.pop("model"), state.heldout)

    def inspect_eval(report) -> Inspection:
        problems = [] if report.n_samples == len(state.heldout) else ["evaluation skipped samples"]
        data.pop("samples", None)
        return Inspection(np.ascontiguousarray(report.confusion, dtype="<i8").tobytes(), attempted=0, problems=problems)

    return [
        Task("generate_dataset", dataset_call, ("units",), n, inspect_dataset),
        Task("train", train_call, ("job",), 1, inspect_losses, calibration="arrays"),
        Task("evaluate held-out", evaluate_call, (), 1, inspect_eval),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    tasks: Callable[[int, object, int], list[Task]]
    workers: int
    unit: str  # what units_per_s counts
    job: str  # what job_s times
    # (units_per_s, runs or samples per s, job_s, their call counts) -> the same figures in the
    # workload's own terms (runs_per_s, landscape_s, train_steps_per_s, ...)
    named: Callable[..., dict] = lambda units, runs, job, n_units, n_job: {}
    setup_data: Callable[[object], bytes] = lambda state: b""
    check: Callable[[int, list], list[str]] = lambda seed, summaries: []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study_oracle", study_setup, study_tasks, 2, "measured windows", "fitness_landscape",
                 check=study_check,
                 named=lambda units, runs, job, n_units, n_job: {
                     "runs_per_s": (runs, n_units), "landscape_s": (job, n_job)}),
        Workload("closed_loop_mlp", closed_loop_setup, closed_loop_tasks, 1, "measured windows",
                 "the model's fitness_landscape of a 50x50 px scan", setup_data=lambda s: s.model_bytes,
                 named=lambda units, runs, job, n_units, n_job: {"runs_per_s": (runs, n_units)}),
        Workload("train_corpus", corpus_setup, corpus_tasks, 1, "dataset samples",
                 f"train ({CORPUS_STEPS} steps)",
                 named=lambda units, runs, job, n_units, n_job: {
                     "dataset_samples_per_s": (units, n_units), "train_steps_per_s": (CORPUS_STEPS / job, n_job)}),
    )
}
