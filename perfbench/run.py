#!/usr/bin/env python3
"""qdtune benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload study_oracle --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the workload is set up several times (``setup_s`` is
the median), then its pass of tasks repeats until ``--seconds`` have
passed and at least one pass is complete; tasks that feed no metric run
in the first pass only. Each timed set-up and task sits between two runs
of fixed calibration loops, and its time is scaled to the host speed at
which those loops take ``CALIBRATION_REF_S`` (see ``HostSpeed``). It
reports the end-to-end metrics of ``BENCHMARK.json``: ``setup_s`` is the
median scaled set-up time, and each task's time is the sum of its raw
times over its repeats divided by the sum of their host slowdowns.

With ``--trace 1`` it runs an untraced serial pass, a traced pass and
another untraced serial pass, and reports the per-layer metrics; the
spans go to ``.perfbench_out/spans-<workload>.npz``.

Every run checks its outputs: the digest of each pass's reports,
landscapes, datasets and loss traces must repeat within the run and
match ``perfbench/digests.json`` when that file records the seed, and the
seed-0 study must reproduce the acceptance criteria's success rates and
iteration means. The last line of standard output is the result object;
the lines before it are for people.
"""

import os

# One BLAS thread per process, set before numpy loads; pool workers inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import multiprocessing
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5

# About the fastest time of each calibration_s() loop on a quiet 2.1 GHz Xeon
# vCPU with numpy 2.x: the speed at which scaled task times read as seconds.
CALIBRATION_REF_S = {"calls": 0.0145, "arrays": 0.0070}
CALIBRATION_ROUNDS = 400
CALIBRATION_STEPS = 8


def calibration_s(_cache={}) -> dict[str, float]:
    """Time two fixed loops: small numpy calls and Python arithmetic, as in
    tuning, rendering and inference ("calls"), and mini-batch products and
    Adam-like updates of a 900x64 array, as in training ("arrays")."""
    import numpy as np

    if not _cache:
        rng = np.random.default_rng(0)
        _cache["window"] = rng.random((30, 30))
        _cache["weights"] = rng.random((64, 20))
        _cache["batch"] = rng.random((50, 900))
        _cache["grad"] = rng.random((900, 64))
        _cache["state"] = np.zeros((3, 900, 64))
    window, weights = _cache["window"], _cache["weights"]
    batch, grad = _cache["batch"], _cache["grad"]
    param, first, second = _cache["state"]
    start = time.perf_counter()
    total = 0.0
    for i in range(CALIBRATION_ROUNDS):
        crop = window[i % 5 : i % 5 + 20, 3:23]
        total += float(np.quantile(crop, 0.9)) + float(np.tanh(weights @ crop[0]).sum())
    middle = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        step = batch.T @ np.maximum(batch @ param, 0.0) + grad
        first *= 0.9
        first += 0.1 * step
        second *= 0.999
        second += 0.001 * step * step
        param -= 1e-9 * first / (np.sqrt(second) + 1e-8)
    end = time.perf_counter()
    if not total + float(first[0, 0]) > 0.0:  # keeps the loops' results alive
        raise RuntimeError("calibration loops produced no result")
    return {"calls": middle - start, "arrays": end - middle}


class HostSpeed:
    """How slowly the host runs this process, from calibration loops between timed calls.

    Other tenants of a shared host slow this process by up to 2x for
    seconds at a time, and the slowdown varies within a second. Each
    calibration loop does the same kind of work as one kind of qdtune
    code, so it slows with that code; dividing a call's time by the mean
    of the loops just before and just after it removes most of that drift.
    The loops touch no qdtune code, so a change to qdtune moves scaled
    times exactly as it moves raw ones. Consecutive calls share the loops
    between them."""

    def __init__(self):
        self.samples: list[dict[str, float]] = []

    def start(self) -> None:
        """Run the loops before the first timed call."""
        if not self.samples:
            self.samples.append(calibration_s())

    def slowdown(self, kind: str | None = None) -> float:
        """The host's slowdown over the call just timed, against the reference,
        by the loop ``kind`` or, when None, by both loops' mean; 2.0 means
        the call took twice as long as on the reference host."""
        before = self.samples[-1]
        self.samples.append(calibration_s())
        kinds = [kind] if kind else list(CALIBRATION_REF_S)
        ratios = [0.5 * (before[k] + self.samples[-1][k]) / CALIBRATION_REF_S[k] for k in kinds]
        return sum(ratios) / len(ratios)

    def median_ms(self) -> str:
        return ", ".join(f"{k} {1e3 * statistics.median(s[k] for s in self.samples):.3f} ms" for k in CALIBRATION_REF_S)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
    }


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """Largest resident set of this process or any pool worker it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class PassLog:
    """Timings, counts and digests of the tasks a run executed.

    With a ``host`` each call is bracketed by calibration loops and the
    host's slowdown, by the loop the task names, is kept beside its raw
    time; otherwise every slowdown is 1."""

    def __init__(self, tasks, host: HostSpeed | None = None):
        self.tasks = tasks
        self.host = host
        self.times = [[] for _ in tasks]
        self.slowdowns = [[] for _ in tasks]
        self.units = [0] * len(tasks)
        self.runs = [0] * len(tasks)
        self.first_data = [None] * len(tasks)
        self.summaries = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_task(self, slot: int) -> None:
        task = self.tasks[slot]
        if self.host:
            self.host.start()
        start = time.perf_counter()
        try:
            result = task.call()
        except Exception:  # a failed call is counted, reported and not retried
            self._record(slot, time.perf_counter() - start)
            traceback.print_exc(file=sys.stderr)
            self.attempted += task.planned
            self.failed += task.planned
            self.problems.append(f"{task.label} raised")
            return
        self._record(slot, time.perf_counter() - start)
        seen = task.inspect(result)
        self.attempted += seen.attempted
        self.failed += seen.failed
        self.problems += [f"{task.label}: {p}" for p in seen.problems]
        if self.first_data[slot] is None:
            self.first_data[slot] = seen.data
            self.units[slot] = seen.units
            self.runs[slot] = seen.attempted
            self.summaries.append(seen.summary)
        elif seen.data != self.first_data[slot]:
            self.problems.append(f"{task.label}: output differs from the first pass")

    def _record(self, slot: int, elapsed: float) -> None:
        self.times[slot].append(elapsed)
        self.slowdowns[slot].append(self.host.slowdown(self.tasks[slot].calibration) if self.host else 1.0)

    def run_pass(self) -> float:
        start = time.perf_counter()
        for slot in range(len(self.tasks)):
            self.run_task(slot)
        return time.perf_counter() - start

    def digest(self, setup_data: bytes) -> str:
        h = hashlib.sha256(setup_data)
        for data in self.first_data:
            h.update(hashlib.sha256(data or b"").digest())
        return h.hexdigest()

    def _seconds(self, slots, scaled: bool) -> float:
        """Time of one call over ``slots``, which repeat one computation: the
        raw times summed over the slowdowns summed, or the mean raw time."""
        times = [t for i in slots for t in self.times[i]]
        slowdowns = [s for i in slots for s in self.slowdowns[i]] if scaled else [1.0] * len(times)
        return sum(times) / sum(slowdowns)

    def units_per_s(self, scaled: bool = True) -> tuple[float, float, int]:
        """Units, and runs or samples attempted, of one pass over the summed
        times of its unit tasks."""
        slots = [i for i, t in enumerate(self.tasks) if "units" in t.metrics and self.times[i]]
        seconds = sum(self._seconds([i], scaled) for i in slots)
        calls = sum(len(self.times[i]) for i in slots)
        return sum(self.units[i] for i in slots) / seconds, sum(self.runs[i] for i in slots) / seconds, calls

    def job_s(self, scaled: bool = True) -> tuple[float, int]:
        """Time of a job call; a workload's job tasks all repeat one computation."""
        slots = [i for i, t in enumerate(self.tasks) if "job" in t.metrics]
        return self._seconds(slots, scaled), sum(len(self.times[i]) for i in slots)


def check_digest(workload: str, seed: int, digest: str) -> tuple[list[str], str]:
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.exists() else {}
    expected = recorded.get(str(seed))
    if expected is None:
        return [], "not recorded for this seed"
    if expected != digest:
        return [f"pass digest {digest[:16]} differs from the recorded {expected[:16]}"], "MISMATCH"
    return [], "matches the recorded digest"


def measure(workload, seed: int, seconds: int):
    host = HostSpeed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        host.start()
        start = time.perf_counter()
        state = workload.setup(seed)
        # A set-up renders and trains, so both loops scale it.
        setup_times.append((time.perf_counter() - start) / host.slowdown())
    log = PassLog(workload.tasks(seed, state, workload.workers), host)

    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for slot, task in enumerate(log.tasks):
            if passes > 0 and time.perf_counter() - start >= seconds:
                break
            # A task in neither metric is checked in the first pass only.
            if passes == 0 or task.metrics:
                log.run_task(slot)
        passes += 1
        if passes == 1:
            log.problems += workload.check(seed, log.summaries)
    wall = time.perf_counter() - start

    units, runs, n_units = log.units_per_s()
    job, n_job = log.job_s()
    raw_units, _, _ = log.units_per_s(scaled=False)
    raw_job, _ = log.job_s(scaled=False)
    declared = _declared("end_to_end")
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "units_per_s": (units, n_units),
        "job_s": (job, n_job),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    metrics = {name: (value, declared[name], n) for name, (value, n) in values.items()}
    digest = log.digest(workload.setup_data(state))
    notes = [
        f"measured {wall:.1f} s: {passes} pass(es), {sum(map(len, log.times))} tasks",
        f"units_per_s counts {workload.unit}; job_s times {workload.job}",
        f"unscaled: units_per_s {raw_units:.6g}, job_s {raw_job:.6g}; "
        f"calibration loops' medians {host.median_ms()} (n={len(host.samples)}), "
        f"against references {', '.join(f'{k} {1e3 * v:.3f} ms' for k, v in CALIBRATION_REF_S.items())}",
        "in the workload's own terms: "
        + ", ".join(f"{k} {v:.6g} (n={n})" for k, (v, n) in workload.named(units, runs, job, n_units, n_job).items()),
        f"failed_ratio {log.failed / max(log.attempted, 1):.4f} ({log.failed} of {log.attempted})",
    ]
    return log, metrics, digest, notes


def measure_traced(workload, seed: int):
    import spans

    state = workload.setup(seed)
    serial = PassLog(workload.tasks(seed, state, 1))
    untraced_wall = serial.run_pass()
    serial.problems += workload.check(seed, serial.summaries)

    traced = PassLog(workload.tasks(seed, state, workload.workers))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wall = traced.run_pass()
    finally:
        tracer.uninstall()
    # A second untraced pass, so that warm-up in the first is not counted as overhead.
    untraced_wall = min(untraced_wall, serial.run_pass())
    if traced.first_data != serial.first_data:
        serial.problems.append("the traced pass's outputs differ from the untraced pass's")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}.npz")

    layers = spans.layer_metrics(tracer)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    units = _declared("per_layer")
    metrics = {name: (value, units[name], 1) for name, value in layers.items()}
    digest = serial.digest(workload.setup_data(state))
    notes = [
        f"best untraced serial pass {untraced_wall:.3f} s, traced pass {traced_wall:.3f} s",
        f"absent wrap targets: {', '.join(tracer.absent) or 'none'}",
        "harness.pool_job_bytes is computed (pickled chunks Pool.map would send), not measured; "
        f"pickled per job it would be {int(tracer.counters['harness.pool_job_bytes_unchunked'])} B",
    ]
    return serial, metrics, digest, notes


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "qdtune"
    if not (package / "__init__.py").is_file():
        print(f"error: qdtune sources not found under {package.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent))
    import qdtune

    if Path(qdtune.__file__).resolve().parent != package.resolve():
        print(f"error: imported qdtune from {qdtune.__file__}, not {package}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        log, metrics, digest, notes = measure_traced(workload, args.seed)
    else:
        log, metrics, digest, notes = measure(workload, args.seed, args.seconds)
    expected = _declared("per_layer" if args.trace else "end_to_end")
    if list(metrics) != list(expected):
        raise RuntimeError(f"metrics {list(metrics)} differ from BENCHMARK.json's {list(expected)}")
    digest_problems, digest_note = check_digest(workload.name, args.seed, digest)
    problems = log.problems + digest_problems
    notes.append(f"pass digest {digest} {digest_note}")

    for note in notes:
        print(f"# {note}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name:28s} {value:16.6f} {unit:6s} n={n}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": max(log.attempted, 1),
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
