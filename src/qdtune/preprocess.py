"""Turn a raw charge-sensor raster into a normalized 30x30 gradient image.

The pipeline is gradient -> flip correction -> normalize/threshold ->
resize. It is invariant under sensor sign flips and under positive
affine rescaling of the raw signal, so classifier inputs do not depend
on sensor calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .grids import ScanGrid

IMAGE_SIZE = 30


@dataclass(eq=False)
class ProcessedImage:
    """A 30x30 image with values in [0, 1], ready for classification."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (IMAGE_SIZE, IMAGE_SIZE):
            raise ShapeError(
                f"processed image must be {IMAGE_SIZE}x{IMAGE_SIZE}, got {self.values.shape}"
            )
        # Written so that NaN fails: every comparison with NaN is false.
        if not (self.values.min() >= 0.0 and self.values.max() <= 1.0):
            raise ShapeError("processed image values must lie in [0, 1]")


def gradient_along_measurement(scan: ScanGrid) -> ScanGrid:
    """Forward-difference derivative along the acquisition axis.

    The last row (or column) is replicated so the output keeps the input
    dimensions.
    """
    axis = 0 if scan.meta.acquisition_axis == "v1" else 1
    if scan.values.shape[axis] < 2:
        raise ShapeError("need at least 2 pixels along the acquisition axis to differentiate")
    grad = np.diff(scan.values, axis=axis) / scan.meta.resolution
    last = grad[-1:, :] if axis == 0 else grad[:, -1:]
    grad = np.concatenate([grad, last], axis=axis)
    return scan.with_values(grad)


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` (linear method) from one partition.

    Bit for bit: numpy's interpolation indices and weight (measured from
    index -1 when the quantile reaches the last value), its ``_lerp``,
    which interpolates down from the upper neighbour when the weight is
    at least 1/2, and NaN when any value is NaN (NaN partitions last).
    """
    n = values.size
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    weight = virtual - below
    # Equal values (0.0 and -0.0) may land in either order, so partition
    # at exactly the indices numpy does.
    part = np.partition(values, sorted({0, -1, below, above}), axis=None)
    if math.isnan(part[-1]):
        return math.nan
    a, b = float(part[below]), float(part[above])
    diff = b - a
    return b - diff * (1.0 - weight) if weight >= 0.5 else a + diff * weight


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` from one partition, bit for bit.

    numpy averages the middle values with ``mean``, whose sum starts at
    0.0 (so a median of zeros is +0.0), partitions at the same indices,
    and returns NaN when any value is NaN.
    """
    n = values.size
    half = n // 2
    kth = (half, -1) if n % 2 else (half - 1, half, -1)
    part = np.partition(values, kth, axis=None)
    if math.isnan(part[-1]):
        return math.nan
    if n % 2:
        return 0.0 + float(part[half])
    return (0.0 + float(part[half - 1]) + float(part[half])) / 2.0


def flip_correct(grad: ScanGrid) -> ScanGrid:
    """Make charge-transition lines bright regardless of sensor polarity.

    Looks at the pixels whose magnitude reaches the top decile; if their
    mean is negative the whole grid is negated. A zero mean (possible
    only for contrived symmetric inputs) falls back to the sign of the
    first nonzero pixel so that a grid and its negation always map to
    the same output.
    """
    values = grad.values
    magnitude = np.abs(values)
    threshold = _quantile(magnitude, 0.9)
    strongest = values[magnitude >= threshold]
    mean = strongest.mean() if strongest.size else 0.0
    if mean == 0.0:
        nonzero = values[values != 0.0]
        if nonzero.size == 0:
            return grad
        mean = nonzero.flat[0]
    if mean < 0.0:
        return grad.with_values(-values)
    return grad


def normalize_threshold(grad: ScanGrid) -> ScanGrid:
    """Clamp negatives, remove the median background floor, scale to max 1."""
    values = np.maximum(grad.values, 0.0)
    values = np.maximum(values - _median(values), 0.0)
    peak = values.max()
    if peak > 0.0:
        values = values / peak
    return grad.with_values(values)


def resize_to_30(values: np.ndarray) -> ProcessedImage:
    """Block-mean downsample to 30x30 with fractional-area weighting."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ShapeError(f"expected a 2-d grid, got ndim={values.ndim}")
    n, m = values.shape
    if n < IMAGE_SIZE or m < IMAGE_SIZE:
        raise ShapeError(f"grid {values.shape} is smaller than {IMAGE_SIZE}x{IMAGE_SIZE}")
    out = _overlap_weights(n) @ values @ _overlap_weights(m).T
    out = np.clip(out, 0.0, 1.0)
    peak = out.max()
    if peak > 0.0:
        out = out / peak
    return ProcessedImage(np.clip(out, 0.0, 1.0))


@lru_cache(maxsize=None)
def _overlap_weights(n_src: int) -> np.ndarray:
    """Row-stochastic matrix averaging n_src cells into IMAGE_SIZE cells.

    Built once per size and shared, so the returned array is read-only.
    """
    w = np.zeros((IMAGE_SIZE, n_src))
    scale = n_src / IMAGE_SIZE
    for t in range(IMAGE_SIZE):
        lo = t * scale
        hi = lo + scale
        for s in range(int(np.floor(lo)), min(int(np.ceil(hi)), n_src)):
            w[t, s] = min(hi, s + 1.0) - max(lo, float(s))
    w /= scale
    w.flags.writeable = False
    return w


def process(scan: ScanGrid) -> ProcessedImage:
    """Full pipeline: gradient, flip correction, normalization, resize."""
    grad = gradient_along_measurement(scan)
    grad = flip_correct(grad)
    grad = normalize_threshold(grad)
    return resize_to_30(grad.values)
