"""Turn charge-sensor rasters into normalized 30x30 gradient images.

The pipeline is gradient -> flip correction -> normalize/threshold ->
resize. It is invariant under sensor sign flips and under positive
affine rescaling of the raw signal, so classifier inputs do not depend
on sensor calibration.

Stacks. :func:`process` takes an (N, n, m) array of sensor values, of any
memory layout, measured with one :class:`ScanMeta`, and every step works on
that stack; a window processed alone is the N = 1 stack ``values[None]``.
A window's image does not depend on the other windows of its stack, nor on
the stack's layout, bit for bit, because each step either works element by
element, reads the fresh C-contiguous stack ``_gradient`` returns, or hands
each window to the same numpy call a lone window gets:

- the two quantiles are one ``np.partition(..., axis=1)`` of the flattened
  windows, which selects within each row at the indices a lone window uses;
- the flip decision sums each window's strongest pixels with a reduction of
  its own, as ``np.mean`` does for a lone window; a masked sum over the stack
  or ``np.add.reduceat`` adds in another order and is not equal;
- the resize is one ``_overlap_weights`` product over the stack, for which
  numpy calls BLAS once per window with the arguments a lone window gives;
- per-window peaks are maxima, which are exact.

Sensor values that are not finite are refused on entry with a ShapeError.
Images are plain arrays whose range is checked once, on the way out;
``classifier.load_dataset`` checks a file's images with :func:`_check_range`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .grids import ScanMeta

IMAGE_SIZE = 30


def _check_range(values: np.ndarray) -> None:
    """Refuse images with a value outside [0, 1]; written so that NaN fails,
    as every comparison with NaN is false."""
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ShapeError("processed image values must lie in [0, 1]")


# --- the steps, on (N, n, m) stacks --------------------------------------------


def _gradient(stack: np.ndarray, meta: ScanMeta) -> np.ndarray:
    """Forward difference of each window along the acquisition axis, into a
    new C-contiguous stack; the last row (or column) is replicated."""
    axis = 1 if meta.acquisition_axis == "v1" else 2
    if stack.shape[axis] < 2:
        raise ShapeError("need at least 2 pixels along the acquisition axis to differentiate")
    grad = np.empty(stack.shape)
    head = (slice(None),) * axis
    lead, lag = head + (slice(1, None),), head + (slice(None, -1),)
    np.subtract(stack[lead], stack[lag], out=grad[lag])
    grad[lag] /= meta.resolution
    grad[head + (-1,)] = grad[head + (-2,)]
    return grad


def _quantile(rows: np.ndarray, q: float) -> list[float]:
    """``np.quantile(row, q)`` (linear method) of each row, from one partition.

    Bit for bit: numpy's interpolation indices and weight (measured from
    index -1 when the quantile reaches the last value), its ``_lerp``,
    which interpolates down from the upper neighbour when the weight is
    at least 1/2, and NaN when any value is NaN (NaN partitions last).
    """
    n = rows.shape[1]
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    weight = virtual - below
    # Equal values (0.0 and -0.0) may land in either order, so partition
    # at exactly the indices numpy does.
    part = np.partition(rows, sorted({0, -1, below, above}), axis=1)
    out = []
    for a, b, last in zip(part[:, below].tolist(), part[:, above].tolist(), part[:, -1].tolist()):
        diff = b - a
        if math.isnan(last):
            out.append(math.nan)
        else:
            out.append(b - diff * (1.0 - weight) if weight >= 0.5 else a + diff * weight)
    return out


def _median(rows: np.ndarray) -> list[float]:
    """``np.median(row)`` of each row, from one partition, bit for bit.

    numpy averages the middle values with ``mean``, whose sum starts at
    0.0 (so a median of zeros is +0.0), partitions at the same indices,
    and returns NaN when any value is NaN.
    """
    n = rows.shape[1]
    half = n // 2
    kth = (half, -1) if n % 2 else (half - 1, half, -1)
    part = np.partition(rows, kth, axis=1)
    out = []
    for a, b, last in zip(part[:, half - 1].tolist(), part[:, half].tolist(), part[:, -1].tolist()):
        if math.isnan(last):
            out.append(math.nan)
        else:
            out.append(0.0 + b if n % 2 else (0.0 + a + b) / 2.0)
    return out


def _flip_correct(grad: np.ndarray) -> np.ndarray:
    """Make charge-transition lines bright regardless of sensor polarity.

    Negates, in place, each window whose strongest pixels (magnitude in its
    top decile) have a negative mean, ``np.mean``'s: their sum over their
    count. A zero mean (possible only for contrived symmetric inputs) falls
    back to the sign of the first nonzero pixel, so that a window and its
    negation always map to the same output.
    """
    flat = grad.reshape(len(grad), -1)
    magnitude = np.abs(flat)
    strong = magnitude >= np.array(_quantile(magnitude, 0.9))[:, None]
    for window, row, mask in zip(grad, flat, strong):
        selected = row[mask]
        mean = float(np.add.reduce(selected)) / selected.size if selected.size else 0.0
        if mean == 0.0:
            nonzero = row[row != 0.0]
            mean = float(nonzero[0]) if nonzero.size else 0.0
        if mean < 0.0:
            np.negative(window, out=window)
    return grad


def _divide_by_peak(stack: np.ndarray) -> np.ndarray:
    """Divide each window, in place, by its maximum when that is positive."""
    for window, peak in zip(stack, stack.reshape(len(stack), -1).max(axis=1).tolist()):
        if peak > 0.0:
            window /= peak
    return stack


def _normalize_threshold(grad: np.ndarray) -> np.ndarray:
    values = np.maximum(grad, 0.0)
    flat = values.reshape(len(values), -1)
    flat -= np.array(_median(flat))[:, None]
    np.maximum(values, 0.0, out=values)
    return _divide_by_peak(values)


def _resize(stack: np.ndarray) -> np.ndarray:
    n, m = stack.shape[1:]
    if n < IMAGE_SIZE or m < IMAGE_SIZE:
        raise ShapeError(f"grid {(n, m)} is smaller than {IMAGE_SIZE}x{IMAGE_SIZE}")
    out = _overlap_weights(n) @ stack @ _overlap_weights(m).T
    out.clip(0.0, 1.0, out=out)
    return _divide_by_peak(out).clip(0.0, 1.0, out=out)


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


def process(stack: np.ndarray, meta: ScanMeta) -> np.ndarray:
    """Full pipeline: gradient, flip correction, normalization, resize.

    ``stack`` holds N windows of one shape measured with ``meta``; the
    result is their (N, 30, 30) images, each equal bit for bit to the
    window's image processed alone (module docstring).
    """
    if stack.ndim != 3 or not len(stack):
        raise ShapeError(f"process takes an (N, n, m) stack of at least one window, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        where = ""
        if len(stack) > 1:
            where = f" in window {int(np.argmin(np.isfinite(stack).all(axis=(1, 2))))} of {len(stack)}"
        raise ShapeError(f"sensor values are not finite: NaN or infinite pixels{where}")
    images = _resize(_normalize_threshold(_flip_correct(_gradient(stack, meta))))
    _check_range(images)
    return images
