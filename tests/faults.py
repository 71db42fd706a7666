"""Faults the tests inject into scans.

Each one returns a copy of the scan's values with the fault, on the same
axes and metadata. Together they are the sensor fault matrix a tuning run
must survive: a flipped sensor sign, stuck rows, saturation, a dead
(constant) sensor, affine drift, and NaN or infinite pixels.
"""

import json
from pathlib import Path

import numpy as np

import qdtune as q
from qdtune.fileio import encode_blob


def on_axes(scan: q.ScanGrid, values: np.ndarray) -> q.ScanGrid:
    """``values`` on the scan's axes and metadata, through the checking constructor."""
    return q.ScanGrid(values, scan.v1_axis, scan.v2_axis, scan.meta)


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
