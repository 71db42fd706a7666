"""Raster containers shared by the simulator, scan IO, and preprocessing.

Checks run where data enters: every ``ScanGrid`` and ``LabelGrid``
built by a constructor (``load_scan``, the CLI, a caller's arrays)
validates its axes, spacing and codes. Data checked already goes through
the trusted constructors :func:`_scan_grid` and :func:`_label_grid`, which
check nothing: ``render_scan``, which builds its axes and codes itself and
checks only that the axes strictly increase; the copies a
``scans.PremeasuredScan`` keeps, and its windows of every stride, which are
views of those read-only copies.

A :class:`LabelTally` holds the summed-area tables of one label raster
and the oracle's table of each window shape met in it
(``classifier.oracle_table``). ``scans.PremeasuredScan`` owns the tally of
its stored codes, and a label window it hands out records where it lies in
them (``LabelGrid.stored_at``), so the oracle reads that window's vector off
the table. Any other label grid, a view of a stored window included, counts
its own codes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ShapeError, check_setting

ACQUISITION_AXES = ("v1", "v2")


class StateLabel(enum.IntEnum):
    """Charge state of the device at one point in plunger-voltage space.

    The integer codes are also the on-disk representation of label
    rasters (see ``scans.save_scan``), so they must never be renumbered.
    """

    NO_DOT = 0
    SINGLE_LEFT = 1
    SINGLE_CENTRAL = 2
    SINGLE_RIGHT = 3
    DOUBLE_DOT = 4


#: Codes counted as "single dot" by the probability oracle: a dot under
#: the left plunger, a merged central dot, or a dot under the right plunger.
SINGLE_DOT_CODES = (
    int(StateLabel.SINGLE_LEFT),
    int(StateLabel.SINGLE_CENTRAL),
    int(StateLabel.SINGLE_RIGHT),
)

#: StateLabel codes are contiguous, so a label raster is valid when all
#: its codes lie in ``[MIN_STATE_CODE, MAX_STATE_CODE]``.
MIN_STATE_CODE = int(StateLabel.NO_DOT)
MAX_STATE_CODE = int(StateLabel.DOUBLE_DOT)


@dataclass(frozen=True)
class ScanMeta:
    """Acquisition metadata attached to every scan raster."""

    resolution: float
    acquisition_axis: str = "v1"

    def __post_init__(self):
        check_setting(self, "resolution")
        if self.acquisition_axis not in ACQUISITION_AXES:
            raise ConfigurationError(
                f"acquisition_axis must be one of {ACQUISITION_AXES}, got {self.acquisition_axis!r}"
            )


def _check_axis(name: str, axis: np.ndarray, resolution: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 1:
        raise ShapeError(f"{name} must be a non-empty 1-d array")
    if axis.size > 1:
        steps = np.diff(axis)
        if not np.all(steps > 0):
            raise ShapeError(f"{name} must be strictly increasing")
        # np.allclose(steps, resolution, rtol=1e-9, atol=1e-9) for a finite
        # resolution, without its per-call overhead.
        if not (np.abs(steps - resolution) <= 1e-9 + 1e-9 * abs(resolution)).all():
            raise ShapeError(f"{name} spacing does not match resolution {resolution}")
    return axis


#: The window a tuning run, a dataset sample or a rendered scan measures
#: unless told otherwise: 60 x 60 mV at 2 mV per pixel.
DEFAULT_SPAN_MV = (60.0, 60.0)
DEFAULT_RESOLUTION_MV = 2.0


def pixel_count(extent: float, resolution: float) -> int:
    """Number of ``resolution`` mV pixels across a window ``extent`` mV wide.

    Raises ConfigurationError unless that is a whole number, at least one,
    of pixels of a positive size.
    """
    if not resolution > 0:
        raise ConfigurationError(f"resolution must be positive, got {resolution}")
    n = extent / resolution
    if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9):
        raise ConfigurationError(f"span {extent} is not an integer number of {resolution} mV pixels")
    if round(n) < 1:
        raise ConfigurationError(f"span {extent} is below one {resolution} mV pixel")
    return int(round(n))


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


@dataclass(eq=False)
class ScanGrid:
    """A charge-sensor raster: ``values[i, j]`` measured at ``(v1_axis[i], v2_axis[j])``."""

    values: np.ndarray
    v1_axis: np.ndarray
    v2_axis: np.ndarray
    meta: ScanMeta

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ShapeError(f"scan values must be 2-d, got ndim={self.values.ndim}")
        self.v1_axis = _check_axis("v1_axis", self.v1_axis, self.meta.resolution)
        self.v2_axis = _check_axis("v2_axis", self.v2_axis, self.meta.resolution)
        if self.values.shape != (self.v1_axis.size, self.v2_axis.size):
            raise ShapeError(
                f"values shape {self.values.shape} does not match axes "
                f"({self.v1_axis.size}, {self.v2_axis.size})"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _scan_grid(values: np.ndarray, v1_axis: np.ndarray, v2_axis: np.ndarray, meta: ScanMeta) -> ScanGrid:
    """A ScanGrid of values, axes and metadata that were checked already; nothing is checked again."""
    grid = object.__new__(ScanGrid)
    grid.values, grid.v1_axis, grid.v2_axis, grid.meta = values, v1_axis, v2_axis, meta
    return grid


def _summed_area(mask: np.ndarray) -> np.ndarray:
    """``table[i, j]`` is the number of True pixels in ``mask[:i, :j]``."""
    n1, n2 = mask.shape
    table = np.zeros((n1 + 1, n2 + 1), dtype=np.int64)
    table[1:, 1:] = mask.cumsum(axis=0, dtype=np.int64).cumsum(axis=1)
    return _read_only(table)


class LabelTally:
    """Summed-area tables (Crow 1984) of one label raster.

    ``sd[i, j]`` counts the single-dot pixels of ``labels[:i, :j]`` and
    ``dd[i, j]`` its double-dot pixels, so any window's counts are four
    lookups per class; they are the exact integers counting the window's
    codes gives. ``tables`` keeps the oracle's table of each window shape
    ``(w1, w2)``, which ``classifier.oracle_table`` builds on first use.
    """

    def __init__(self, codes: np.ndarray):
        self.sd = _summed_area(np.isin(codes, SINGLE_DOT_CODES))
        self.dd = _summed_area(codes == int(StateLabel.DOUBLE_DOT))
        self.tables: dict[tuple[int, int], object] = {}

    def window_counts(self, w1: int, w2: int) -> tuple[np.ndarray, np.ndarray]:
        """Single-dot and double-dot pixels of every ``w1 x w2`` window of the
        raster, as two arrays with one entry per window start."""
        return tuple(s[w1:, w2:] - s[:-w1, w2:] - s[w1:, :-w2] + s[:-w1, :-w2] for s in (self.sd, self.dd))


@dataclass(eq=False)
class LabelGrid:
    """Ground-truth state codes on the same raster as a companion ScanGrid."""

    labels: np.ndarray
    v1_axis: np.ndarray
    v2_axis: np.ndarray

    # Not an argument, and a class default too, so grids built with
    # ``object.__new__`` have it: for a stride-1 window of a stored raster,
    # (that raster's tally, first row, first column). Only
    # ``scans.acquire_with_labels`` sets it.
    stored_at: tuple[LabelTally, int, int] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise ShapeError(f"labels must be 2-d, got ndim={self.labels.ndim}")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ShapeError("labels must be an integer array of StateLabel codes")
        if self.labels.size and (
            self.labels.min() < MIN_STATE_CODE or self.labels.max() > MAX_STATE_CODE
        ):
            raise ShapeError("labels contain codes outside the StateLabel table")
        self.v1_axis = np.asarray(self.v1_axis, dtype=float)
        self.v2_axis = np.asarray(self.v2_axis, dtype=float)
        if self.labels.shape != (self.v1_axis.size, self.v2_axis.size):
            raise ShapeError(
                f"labels shape {self.labels.shape} does not match axes "
                f"({self.v1_axis.size}, {self.v2_axis.size})"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape


def _label_grid(codes: np.ndarray, v1_axis: np.ndarray, v2_axis: np.ndarray) -> LabelGrid:
    """A LabelGrid of codes and axes that were checked already; nothing is checked again."""
    grid = object.__new__(LabelGrid)
    grid.labels, grid.v1_axis, grid.v2_axis = codes, v1_axis, v2_axis
    return grid
