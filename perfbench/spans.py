"""Span recording around the public functions of each qdtune layer.

A :class:`Tracer` replaces functions at the names their callers look up
(``qdtune.tuner.acquire_with_labels``, ``qdtune.classifier.process``, ...)
with wrappers that record one span per call: name, start, end, parent
span and run id. Spans stay in memory until :meth:`Tracer.save` writes
them out. A target that does not exist at the measured commit is noted
as absent and skipped, so a refactor that renames or merges a function
degrades the per-layer report instead of crashing it.

:func:`layer_metrics` turns the spans of one traced pass into the
per-layer metrics the benchmark reports. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import time
from collections import defaultdict

import numpy as np

# (dotted target, span name). Several targets may share a span name when
# one function is reached through more than one module binding.
TARGETS = [
    ("qdtune.device.render_scan", "device.render"),
    ("qdtune.tuner.acquire_with_labels", "scans.acquire"),
    ("qdtune.harness.acquire_with_labels", "scans.acquire"),
    ("qdtune.grids.ScanGrid.__post_init__", "grids.scangrid"),
    ("qdtune.classifier.process", "preprocess.process"),
    ("qdtune.classifier.OracleClassifier.probabilities", "classifier.oracle"),
    ("qdtune.classifier.classify", "classifier.classify"),
    ("qdtune.classifier._forward", "classifier.forward"),
    ("qdtune.classifier.train", "classifier.train"),
    ("qdtune.classifier.generate_dataset", "classifier.dataset"),
    ("qdtune.tuner.fitness", "tuner.fitness"),
    ("qdtune.harness.fitness", "tuner.fitness"),
    ("qdtune.tuner.nelder_mead", "tuner.nelder_mead"),
    ("qdtune.harness.autotune", "tuner.autotune"),
    ("qdtune.harness.run_weight", "harness.score"),
    ("qdtune.harness.ground_truth_dd_fraction", "harness.score_window"),
    ("qdtune.harness.fitness_landscape", "harness.landscape"),
    ("qdtune.harness._run_batch", "harness.batch"),
]

# Spans that start a new run id; every other span inherits its parent's.
RUN_ROOTS = {"tuner.autotune", "harness.landscape", "classifier.dataset", "classifier.train"}


def _resolve(dotted: str):
    """(owner object, attribute name) for a dotted target, or None if absent."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


def _pool_chunk_bytes(jobs: list, workers: int, worker_fn) -> int:
    """Pickled bytes ``Pool.map`` would send for ``jobs``.

    ``Pool.map`` splits the jobs into chunks of ``ceil(n / (4 * workers))``
    and pickles each chunk as one task, so an object shared by the jobs of
    a chunk is sent once per chunk.
    """
    size, extra = divmod(len(jobs), 4 * workers)
    size += 1 if extra else 0
    size = max(size, 1)
    return sum(
        len(pickle.dumps((worker_fn, jobs[i : i + size]), pickle.HIGHEST_PROTOCOL))
        for i in range(0, len(jobs), size)
    )


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent, run]
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_run = 0
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        if name in RUN_ROOTS or parent < 0:
            run = self._next_run
            self._next_run += 1
        else:
            run = self.spans[parent][4]
        idx = len(self.spans)
        record = [self._name_id(name), 0.0, 0.0, parent, run]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # --- installing wrappers --------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for dotted, name in TARGETS:
            found = _resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(name, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrapper(self, name: str, fn):
        special = {
            "scans.acquire": self._acquire,
            "classifier.forward": self._forward,
            "classifier.train": self._train,
            "tuner.nelder_mead": self._nelder_mead,
            "tuner.autotune": self._autotune,
            "harness.batch": self._batch,
        }.get(name)
        if special is not None:
            return special(name, fn)

        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapped

    def _acquire(self, name, fn):
        def wrapped(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if not isinstance(result, tuple):  # Blocked
                self.counters["scans.blocked"] += 1
            return result

        return wrapped

    def _forward(self, name, fn):
        def wrapped(model, x, *args, **kwargs):
            if not self._inside("classifier.train"):
                self.counters["classifier.mlp_calls"] += 1
                self.counters["classifier.mlp_rows"] += x.shape[0]
            return self.call(name, fn, (model, x) + args, kwargs)

        return wrapped

    def _train(self, name, fn):
        def wrapped(*args, **kwargs):
            model, losses = self.call(name, fn, args, kwargs)
            self.counters["classifier.train_steps"] += len(losses)
            return model, losses

        return wrapped

    def _nelder_mead(self, name, fn):
        def wrapped(objective, *args, **kwargs):
            def traced_objective(*a, **k):
                return self.call("tuner.objective", objective, a, k)

            return self.call(name, fn, (traced_objective,) + args, kwargs)

        return wrapped

    def _autotune(self, name, fn):
        def wrapped(*args, **kwargs):
            run = self.call(name, fn, args, kwargs)
            self.counters["tuner.runs"] += 1
            self.counters["tuner.evals"] += run.iteration_count
            return run

        return wrapped

    def _batch(self, name, fn):
        """Run the batch serially (spans in pool workers would be lost) and
        record what the requested pool would have been sent."""
        signature = inspect.signature(fn)
        harness = importlib.import_module("qdtune.harness")

        def wrapped(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            workers = bound.arguments.get("workers", 1)
            if workers > 1:
                rest = [v for k, v in bound.arguments.items() if k not in ("starts", "workers")]
                jobs = [(rest[0], rest[1], start, *rest[2:]) for start in bound.arguments["starts"]]
                worker_fn = getattr(harness, "_run_one", None)
                self.counters["harness.pool_starts"] += 1
                self.counters["harness.pool_job_bytes"] += _pool_chunk_bytes(jobs, workers, worker_fn)
                # Jobs differ only in their start point, so one stands for all.
                self.counters["harness.pool_job_bytes_unchunked"] += len(jobs) * len(
                    pickle.dumps(jobs[0], pickle.HIGHEST_PROTOCOL)
                )
                bound.arguments["workers"] = 1
            return self.call(name, fn, bound.args, bound.kwargs)

        return wrapped

    def _inside(self, name: str) -> bool:
        target = self._name_ids.get(name)
        return target is not None and any(self.spans[i][0] == target for i in self._stack)

    # --- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {
            "name": table[:, 0].astype(np.int32),
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": table[:, 3].astype(np.int64),
            "run": table[:, 4].astype(np.int64),
        }

    def save(self, path) -> None:
        """Write every span as columns, with the name table alongside."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced pass."""
    cols = tracer.arrays()
    names = np.array(tracer.names + [""])[cols["name"]] if len(cols["name"]) else np.array([], str)
    duration = cols["end"] - cols["start"]
    has_parent = cols["parent"] >= 0
    child_time = np.bincount(
        cols["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    self_time = duration - child_time
    counters = tracer.counters

    def count(name):
        return int((names == name).sum())

    def total(*group):
        """Time inside spans of ``group``, counting nested spans of it once."""
        mask = np.isin(names, group)
        if not mask.any():
            return 0.0
        parent_names = np.where(has_parent, names[np.maximum(cols["parent"], 0)], "")
        outer = mask & ~np.isin(parent_names, group)
        return float(duration[outer].sum())

    def self_sum(name):
        return float(self_time[names == name].sum())

    render_calls = count("device.render")
    acquire_calls = count("scans.acquire")
    mlp_calls = int(counters["classifier.mlp_calls"])
    runs = counters["tuner.runs"]
    return {
        "device.render_calls": render_calls,
        "device.render_s": total("device.render"),
        "device.render_us_per_call": total("device.render") / render_calls * 1e6 if render_calls else 0.0,
        "scans.acquire_calls": acquire_calls,
        "scans.acquire_self_s": self_sum("scans.acquire"),
        "scans.blocked_ratio": counters["scans.blocked"] / acquire_calls if acquire_calls else 0.0,
        "grids.scangrid_new": count("grids.scangrid"),
        "grids.validate_s": total("grids.scangrid"),
        "preprocess.process_calls": count("preprocess.process"),
        "preprocess.process_s": total("preprocess.process"),
        "classifier.oracle_calls": count("classifier.oracle"),
        "classifier.oracle_s": total("classifier.oracle"),
        "classifier.mlp_calls": mlp_calls,
        "classifier.mlp_rows_per_call": counters["classifier.mlp_rows"] / mlp_calls if mlp_calls else 0.0,
        "classifier.mlp_s": _inference_time(names, cols, duration, tracer),
        "classifier.train_steps": int(counters["classifier.train_steps"]),
        "classifier.train_s": total("classifier.train"),
        "classifier.dataset_self_s": self_sum("classifier.dataset"),
        "tuner.evals": int(counters["tuner.evals"]),
        "tuner.evals_per_run": counters["tuner.evals"] / runs if runs else 0.0,
        "tuner.fitness_calls": count("tuner.fitness"),
        "tuner.fitness_s": total("tuner.fitness"),
        "tuner.nm_self_s": self_sum("tuner.nelder_mead"),
        "harness.score_windows": count("harness.score_window"),
        "harness.score_s": total("harness.score", "harness.score_window"),
        "harness.landscape_self_s": self_sum("harness.landscape"),
        "harness.pool_starts": int(counters["harness.pool_starts"]),
        "harness.pool_job_bytes": int(counters["harness.pool_job_bytes"]),
        "trace.absent_targets": len(tracer.absent),
    }


def _inference_time(names, cols, duration, tracer) -> float:
    """Time in MLP inference: ``classify`` calls plus forward passes made
    outside both ``classify`` and training."""
    group = ("classifier.classify", "classifier.forward")
    in_group = np.isin(names, group)
    if not in_group.any():
        return 0.0
    # Walk each candidate's ancestors once; spans are few enough per pass.
    parent = cols["parent"]
    keep = np.zeros(len(names), dtype=bool)
    for i in np.flatnonzero(in_group):
        j = parent[i]
        covered = False
        while j >= 0:
            if names[j] in group or names[j] == "classifier.train":
                covered = True
                break
            j = parent[j]
        keep[i] = not covered
    return float(duration[keep].sum())
