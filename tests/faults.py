"""Faults the tests inject into scans, and defects they put into saved files.

Each scan fault returns a copy of the scan's values with the fault, on the
same axes and metadata. Together they are the sensor fault matrix a tuning
run must survive: a flipped sensor sign, stuck rows, saturation, a dead
(constant) sensor, affine drift, and NaN or infinite pixels. A
``ScanGrid`` refuses the last, so those come through the trusted
constructor (:func:`on_axes`).
:func:`file_defect` draws one defect of a saved file's JSON for the loader
fuzz tests.
"""

import base64
import copy
import json
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import qdtune as q
from qdtune.fileio import encode_blob
from qdtune.grids import _scan_grid


def on_axes(scan: q.ScanGrid, values: np.ndarray) -> q.ScanGrid:
    """``values`` on the scan's axes and metadata, through the checking
    constructor when they are finite. That constructor refuses NaN and
    infinite values (``test_a_scan_grid_refuses_a_non_finite_fault``), so a
    non-finite fault goes through the trusted one, as a raster that reached
    the loop unchecked: the loop's own guards must still hold."""
    if np.isfinite(values).all():
        return q.ScanGrid(values, scan.v1_axis, scan.v2_axis, scan.meta)
    return _scan_grid(np.asarray(values, dtype=float), scan.v1_axis, scan.v2_axis, scan.meta)


def inject_sensor_flip(scan: q.ScanGrid) -> q.ScanGrid:
    """Return the scan with the sensor sign inverted (axes unchanged)."""
    return on_axes(scan, -scan.values)


def inject_stuck_rows(scan: q.ScanGrid, every: int = 4) -> q.ScanGrid:
    """Every ``every``-th row repeats the reading of the row before it, as a
    readout that stuck for one sweep line."""
    values = scan.values.copy()
    for row in range(every - 1, len(values), every):
        values[row] = values[row - 1]
    return on_axes(scan, values)


def inject_saturation(scan: q.ScanGrid, fraction: float = 0.5) -> q.ScanGrid:
    """Clip the signal at the value ``fraction`` of its pixels lie below, as an
    amplifier at its rail."""
    return on_axes(scan, np.minimum(scan.values, np.quantile(scan.values, fraction)))


def inject_constant(scan: q.ScanGrid) -> q.ScanGrid:
    """Every pixel reads the scan's mean, as a dead sensor: every window is constant."""
    return on_axes(scan, np.full(scan.shape, scan.values.mean()))


def inject_affine_drift(
    scan: q.ScanGrid, gain: float = 3.0, offset: float = -2.0, slope_per_mv: float = 1e-3
) -> q.ScanGrid:
    """A positive gain and offset, plus a baseline that drifts linearly across
    the raster."""
    drift = slope_per_mv * ((scan.v1_axis - scan.v1_axis[0])[:, None] + (scan.v2_axis - scan.v2_axis[0])[None, :])
    return on_axes(scan, gain * scan.values + offset + drift)


def inject_non_finite(scan: q.ScanGrid, bad: float = np.nan, every: int = 7) -> q.ScanGrid:
    """Every ``every``-th pixel along both axes reads ``bad``, so every window
    at least ``every`` pixels a side holds one."""
    values = scan.values.copy()
    values[::every, ::every] = bad
    return on_axes(scan, values)


def write_one_row_scan(path, v1: float, with_labels: bool) -> None:
    """Write a scan file of one row of the reference device, ten pixels long,
    whose ``v1_axis`` holds ``v1``. A ScanGrid refuses a non-finite axis
    value, so the file's axis is rewritten after ``save_scan``."""
    scan, labels = q.render_scan(q.reference_device(), (301.0, 310.0), (2.0, 20.0), 2.0)
    q.save_scan(scan, path, labels if with_labels else None)
    doc = json.loads(Path(path).read_text())
    doc["v1_axis"] = encode_blob(np.array([v1]), "<f8")
    Path(path).write_text(json.dumps(doc))


# JSON values of every kind, to put a value of another kind in a file.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="abz", max_size=3),
    st.lists(st.integers(0, 4), max_size=3),
    st.dictionaries(st.text(alphabet="abz", max_size=2), st.integers(0, 4), max_size=2),
)


def _json_kind(value) -> str:
    """A JSON value's kind: an int and a float are both numbers, a bool is not."""
    return "number" if type(value) in (int, float) else type(value).__name__


def json_paths(node, path=()):
    """The path of every value inside ``node``, depth first, each below ``path``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


def value_at(node, path):
    """The value at ``path`` inside ``node``."""
    for key in path:
        node = node[key]
    return node


def file_defect(data, doc: dict, blobs: dict, sizes: dict) -> tuple[dict, tuple[str, ...]]:
    """A copy of ``doc``, the JSON of a saved file, with one defect drawn by
    ``data``, and the fields of which the loader's error must name one.

    ``blobs`` maps each base64 field, or the path of a base64 value inside a
    field, to its dtype, and ``sizes`` each field that gives blobs their
    lengths to those blobs. The defect is a truncated blob, a blob of
    another length, a NaN in a float blob or in a number, another value of
    a size field, or a value of another JSON kind anywhere; a file without
    blobs or size fields gets none of their defects.
    """
    doc = copy.deepcopy(doc)
    blobs = {key if isinstance(key, tuple) else (key,): dtype for key, dtype in blobs.items()}
    kinds = ["truncate", "resize"] * bool(blobs) + ["nan"] + ["shape"] * bool(sizes) + ["type"]
    defect = data.draw(st.sampled_from(kinds))
    if defect in ("truncate", "resize"):
        path = data.draw(st.sampled_from(sorted(blobs)))
        text = value_at(doc, path)
        if defect == "truncate":
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            n = len(base64.b64decode(text)) // np.dtype(blobs[path]).itemsize
            text = encode_blob(np.zeros(data.draw(st.integers(0, n + 3).filter(lambda m: m != n))), blobs[path])
        value_at(doc, path[:-1])[path[-1]] = text
        return doc, (path[0],)
    if defect == "nan":
        numbers = [path for path in json_paths(doc) if _json_kind(value_at(doc, path)) == "number"]
        floats = [path for path, dtype in blobs.items() if dtype == "<f8"]
        path = data.draw(st.sampled_from(numbers + floats))
        if path in floats:
            values = np.frombuffer(base64.b64decode(value_at(doc, path)), "<f8").copy()
            values[data.draw(st.integers(0, values.size - 1))] = np.nan
            value_at(doc, path[:-1])[path[-1]] = encode_blob(values, "<f8")
        else:
            value_at(doc, path[:-1])[path[-1]] = float("nan")
        return doc, (path[0],)
    if defect == "shape":
        field = data.draw(st.sampled_from(sorted(sizes)))
        old = doc[field]
        if isinstance(old, list):
            other = st.lists(st.integers(-1, 2 * max(old) + 1), min_size=1, max_size=3)
        else:
            other = st.integers(-1, 2 * old + 1)
        doc[field] = data.draw(other.filter(lambda value: value != old))
        return doc, (field, *sizes[field])
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    old = value_at(doc, path)
    other = JSON_VALUES.filter(lambda value: _json_kind(value) != _json_kind(old))
    value_at(doc, path[:-1])[path[-1]] = data.draw(other)
    return doc, (path[0],)
