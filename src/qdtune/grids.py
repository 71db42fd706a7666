"""Raster containers shared by the simulator, scan IO, and preprocessing.

Checks run where data enters: every ``ScanGrid`` and ``LabelGrid``
built by a constructor (``load_scan``, strided premeasured crops, the
CLI) validates its axes, spacing and codes. ``render_scan`` builds its
axes and codes itself and checks only that the axes strictly increase. A
grid derived with :meth:`ScanGrid.with_values` trusts the axes and
metadata its parent already passed and checks only the shape of the new
values; a stride-1 :meth:`ScanGrid.crop` or :meth:`LabelGrid.crop` is a
read-only view of its checked parent and checks nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

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
        if not (self.resolution > 0 and math.isfinite(self.resolution)):
            raise ConfigurationError(f"resolution must be positive and finite, got {self.resolution}")
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

    Raises ConfigurationError unless that is a whole number, at least one.
    """
    n = extent / resolution
    if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9):
        raise ConfigurationError(f"span {extent} is not an integer number of {resolution} mV pixels")
    if round(n) < 1:
        raise ConfigurationError(f"span {extent} is below one {resolution} mV pixel")
    return int(round(n))


def _check_unit_step(rows: slice, cols: slice) -> None:
    if rows.step not in (None, 1) or cols.step not in (None, 1):
        raise ShapeError("a trusted crop takes slices of step 1; a strided crop has a new spacing")


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

    def with_values(self, values: np.ndarray) -> "ScanGrid":
        """Same axes and metadata, different sample values of the same shape.

        The axes and metadata are shared, not checked again.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise ShapeError(f"values shape {values.shape} does not match the grid {self.values.shape}")
        grid = object.__new__(ScanGrid)
        grid.values, grid.v1_axis, grid.v2_axis, grid.meta = values, self.v1_axis, self.v2_axis, self.meta
        return grid

    def crop(self, rows: slice, cols: slice) -> "ScanGrid":
        """The sub-raster ``values[rows, cols]`` as read-only views of this grid.

        The slices must have step 1, so the crop keeps this grid's spacing
        and shares its metadata; nothing is checked again. The caller keeps
        the slices inside the raster and non-empty.
        """
        _check_unit_step(rows, cols)
        grid = object.__new__(ScanGrid)
        grid.values = _read_only(self.values[rows, cols])
        grid.v1_axis = _read_only(self.v1_axis[rows])
        grid.v2_axis = _read_only(self.v2_axis[cols])
        grid.meta = self.meta
        return grid


@dataclass(eq=False)
class LabelGrid:
    """Ground-truth state codes on the same raster as a companion ScanGrid."""

    labels: np.ndarray
    v1_axis: np.ndarray
    v2_axis: np.ndarray

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

    def crop(self, rows: slice, cols: slice) -> "LabelGrid":
        """The sub-raster ``labels[rows, cols]`` as read-only views of this grid.

        Same contract as :meth:`ScanGrid.crop`: step-1 slices inside the
        raster, nothing checked again.
        """
        _check_unit_step(rows, cols)
        grid = object.__new__(LabelGrid)
        grid.labels = _read_only(self.labels[rows, cols])
        grid.v1_axis = _read_only(self.v1_axis[rows])
        grid.v2_axis = _read_only(self.v2_axis[cols])
        return grid
