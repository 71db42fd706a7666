"""Window acquisition with sandbox enforcement, plus scan file IO.

Every window a tuning run asks for is checked against the safety sandbox
first, and windows the source cannot deliver come back as :class:`Blocked`
instead of raising, so the optimizer can treat them as a fixed bad fitness.
:func:`acquire_with_labels` measures a window of either source.

A :class:`PremeasuredScan` owns what it stores: read-only copies of the
sensor values, the axes and the label codes, and the codes' summed-area
tally. One locator says where a stored window lies, or why it is refused:
the sandbox test, the window plan and the window's first stored pixel along
each axis. ``_locator`` binds it once for the windows of one span and
resolution, as a tuning run asks for them: the axis lists, the sandbox
limits and half spans, and the plan of the first window the sandbox
accepts; ``_locate`` locates a single window. The sandbox test is
``Sandbox.contains_window``'s. The plan (stride, pixel counts and metadata)
is worked out once per span and resolution, and kept while it passes its
checks. A window lies around the stored pixel center nearest its center,
the first on a tie, found by one bisection of each stored axis.
:func:`_window_slices` turns what the locator found into the row and column
slices of the window. :func:`acquire_with_labels` cuts the located window
as read-only views of the stored copies, of every stride, checked once when
the source was built. A built-in classifier reads a located window itself
(``stored_probabilities``), so tuning runs and success scoring on a stored
scan build no window at all; a model classifier keeps what it read.

Scan files are a single JSON document: a self-describing header plus
base64 blobs of little-endian float64 (values, axes) and int8 (labels)
in row-major order. Label codes follow :class:`~qdtune.grids.StateLabel`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import device as device_model
from .device import DeviceParams
from .errors import (
    ConfigurationError,
    DomainError,
    ScanFormatError,
    ShapeError,
    UnsupportedResolutionError,
)
from .fileio import check_header, checked, decode_blob, decode_finite, encode_blob, read_json, write_json
from .grids import (
    ACQUISITION_AXES,
    LabelGrid,
    LabelTally,
    ScanGrid,
    ScanMeta,
    StateLabel,
    _label_grid,
    _read_only,
    _scan_grid,
    pixel_count,
)

# The header every scan file starts with; load_scan refuses any other.
SCAN_HEADER = {"format": "qdscan", "version": "1"}
SCAN_SUFFIX = ".qdscan.json"

# Why a source without labels is refused wherever the oracle reads them.
_NO_LABELS = "oracle classifier needs a source with ground-truth labels"


@dataclass(frozen=True)
class Sandbox:
    """Gate-voltage safety limits; windows may not cross them."""

    v1_range: tuple[float, float] = device_model.DOMAIN_MV
    v2_range: tuple[float, float] = device_model.DOMAIN_MV

    def __post_init__(self):
        for name, (lo, hi) in (("v1_range", self.v1_range), ("v2_range", self.v2_range)):
            if not lo < hi:
                raise ConfigurationError(f"sandbox {name} must have lo < hi, got ({lo}, {hi})")

    def contains_point(self, point: tuple[float, float]) -> bool:
        """True when the voltage point lies inside the limits (edges included)."""
        return (
            self.v1_range[0] <= point[0] <= self.v1_range[1]
            and self.v2_range[0] <= point[1] <= self.v2_range[1]
        )

    def contains_window(self, center: tuple[float, float], span: tuple[float, float]) -> bool:
        """True when all four window corners are inside the limits."""
        return self._window_test(span)(center)

    def _window_test(self, span: tuple[float, float]):
        """``inside(center)``, true when all four corners of the window of
        ``span`` around ``center`` are inside the limits, with the limits and
        the half spans bound once.

        Written so that any NaN comparison refuses: a NaN center or span,
        or an infinite one, is never contained.
        """
        (lo1, hi1), (lo2, hi2) = self.v1_range, self.v2_range
        half1, half2 = span[0] / 2.0, span[1] / 2.0

        def inside(center: tuple[float, float]) -> bool:
            c1, c2 = center[0], center[1]
            return lo1 <= c1 - half1 and c1 + half1 <= hi1 and lo2 <= c2 - half2 and c2 + half2 <= hi2

        return inside


@dataclass(frozen=True)
class Blocked:
    """Signal that a window was refused; carries the reason for logs."""

    reason: str


@dataclass(frozen=True)
class SimulatedDevice:
    """Measurement source backed by the synthetic device model."""

    params: DeviceParams
    with_noise: bool = False
    noise_seed: int = 0


def _check_label_axes(scan: ScanGrid, labels: LabelGrid) -> None:
    """Raise ShapeError, naming the axis, unless ``labels`` lie on ``scan``'s
    axes. A LabelGrid's shape is its axes' sizes, so equal axes mean equal
    shapes."""
    for name in ("v1_axis", "v2_axis"):
        if not np.array_equal(getattr(labels, name), getattr(scan, name)):
            raise ShapeError(f"label raster {name} does not match the scan's {name}")


@dataclass(eq=False)
class PremeasuredScan:
    """Measurement source backed by one full-range stored raster.

    The source owns what it stores. It keeps read-only copies, not checked
    again, of the sensor values, the axes and the label codes, the codes on
    the scan's own axes, so no later write through the caller's arrays
    reaches a window it gives. It tallies the codes the first time
    :attr:`tally` is read, which refuses a scan without labels.
    """

    scan: ScanGrid
    labels: LabelGrid | None = None

    def __post_init__(self):
        scan = self.scan
        self.scan = _scan_grid(*(_read_only(a.copy()) for a in (scan.values, scan.v1_axis, scan.v2_axis)), scan.meta)
        if self.labels is not None:
            _check_label_axes(self.scan, self.labels)
            codes = _read_only(self.labels.labels.copy())
            self.labels = _label_grid(codes, self.scan.v1_axis, self.scan.v2_axis)
        # The axes as Python floats too, for the nearest-pixel search of each window.
        self._axis_floats = (self.scan.v1_axis.tolist(), self.scan.v2_axis.tolist())
        self._plans: dict[tuple, tuple[int, int, int, ScanMeta]] = {}

    @cached_property
    def tally(self) -> LabelTally:
        """Summed-area tables of the stored label codes; ConfigurationError
        when the scan has no labels."""
        if self.labels is None:
            raise ConfigurationError(_NO_LABELS)
        return LabelTally(self.labels.labels)

    def _window_plan(self, span: tuple[float, float], resolution: float) -> tuple[int, int, int, ScanMeta]:
        """The stride, the pixel counts along v1 and v2, and the metadata of
        every window of ``span`` at ``resolution``, worked out on the first
        window and kept.

        Raises UnsupportedResolutionError unless ``resolution`` is a whole
        multiple, at least one, of the stored resolution, and
        ConfigurationError unless ``span`` is a whole number of pixels; only
        what passes is kept, so a bad request raises on every call.
        """
        key = (*span, resolution)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        native = self.scan.meta.resolution
        if not math.isfinite(resolution):
            raise UnsupportedResolutionError(f"requested resolution {resolution} mV/px is not finite")
        if resolution < native * (1.0 - 1e-9):
            raise UnsupportedResolutionError(
                f"requested {resolution} mV/px is finer than the stored raster ({native} mV/px)"
            )
        ratio = resolution / native
        if abs(ratio - round(ratio)) > 1e-9:
            raise UnsupportedResolutionError(
                f"requested {resolution} mV/px is not an integer multiple of {native} mV/px"
            )
        stride = int(round(ratio))
        counts = [pixel_count(extent, resolution) for extent in span]
        # A window keeps the stored spacing, times the stride.
        meta = self.scan.meta if stride == 1 else ScanMeta(native * stride, self.scan.meta.acquisition_axis)
        plan = self._plans[key] = (stride, counts[0], counts[1], meta)
        return plan


MeasurementSource = SimulatedDevice | PremeasuredScan


def _crop_start(axis: list[float], center: float, count: int, stride: int) -> int | None:
    """First stored index of a window of ``count`` pixels around ``center``.

    The window center snaps to the nearest stored pixel center, the first
    one on a tie, as ``np.argmin(np.abs(axis - center))`` picks it; there
    is no resampling. ``axis`` is a strictly increasing axis as Python
    floats, and ``center`` is not NaN. Returns None when the window runs off
    the raster.
    """
    n = len(axis)
    # The distances fall and then rise along the axis, so the nearest pixel
    # is the first pixel at or above ``center`` or one below it: step down
    # while the next lower distance is no larger (equal, after rounding, on
    # a tiny spacing or far from the axis).
    i = bisect_left(axis, center)
    if i == n:
        i -= 1
    distance = abs(axis[i] - center)
    while i:
        lower = abs(axis[i - 1] - center)
        if lower > distance:
            break
        i -= 1
        distance = lower
    start = i - (count * stride) // 2
    if start < 0 or start + stride * (count - 1) >= n:
        return None
    return start


def _refusal(center: tuple[float, float], span: tuple[float, float]) -> Blocked:
    """Why the sandbox refused a window: a center or span that is not finite,
    or a corner past the limits."""
    if not all(math.isfinite(v) for v in (*center, *span)):
        return Blocked("window center or span is not finite")
    return Blocked("window crosses the sandbox limits")


def _locator(
    source: PremeasuredScan,
    span: tuple[float, float],
    resolution: float,
    sandbox: Sandbox,
):
    """``locate(center)``: where the stored window of ``span`` at
    ``resolution`` around ``center`` lies, without building it, with what
    every window of one run shares bound once: the window plan (stride, pixel
    counts along v1 and v2, metadata) and the stored indices of its first
    pixel along v1 and v2.

    ``locate`` returns Blocked when any window corner leaves the sandbox or
    the window runs off the stored raster, and raises as ``_window_plan``
    does. The plan is worked out on the first window the sandbox accepts and
    kept once it passes its checks, so a bad request raises on that window
    and on every later one.
    """
    inside = sandbox._window_test(span)
    axis1, axis2 = source._axis_floats
    plan = None

    def locate(center: tuple[float, float]) -> tuple[tuple[int, int, int, ScanMeta], int, int] | Blocked:
        nonlocal plan
        if not inside(center):
            return _refusal(center, span)
        if plan is None:
            plan = source._window_plan(span, resolution)
        stride, n1, n2, _ = plan
        s1 = _crop_start(axis1, float(center[0]), n1, stride)
        s2 = _crop_start(axis2, float(center[1]), n2, stride)
        if s1 is None or s2 is None:
            return Blocked("window falls outside the stored raster")
        return plan, s1, s2

    return locate


def _locate(
    source: PremeasuredScan,
    center: tuple[float, float],
    span: tuple[float, float],
    resolution: float,
    sandbox: Sandbox,
) -> tuple[tuple[int, int, int, ScanMeta], int, int] | Blocked:
    """Where one stored window lies: ``_locator``'s ``locate(center)``, for a
    caller that locates a single window."""
    return _locator(source, span, resolution, sandbox)(center)


def _window_slices(plan: tuple[int, int, int, ScanMeta], s1: int, s2: int) -> tuple[slice, slice]:
    """Row and column slices of the stored window that ``_locate`` found:
    ``plan``'s pixel counts, ``plan``'s stride apart, from ``(s1, s2)``."""
    stride, n1, n2, _ = plan
    return slice(s1, s1 + stride * n1, stride), slice(s2, s2 + stride * n2, stride)


def acquire_with_labels(
    source: MeasurementSource,
    center: tuple[float, float],
    span: tuple[float, float],
    resolution: float,
    sandbox: Sandbox = Sandbox(),
    with_labels: bool = True,
) -> tuple[ScanGrid, LabelGrid | None] | Blocked:
    """Measure one window with its ground-truth labels, or refuse it.

    The labels are None when the source has none, and from a simulated
    source when ``with_labels`` is False; a premeasured source returns the
    crop of its stored labels either way. Returns Blocked when
    any window corner leaves the sandbox, when a simulated window exceeds
    the device domain, or when a premeasured window runs off the stored
    raster.
    """
    if isinstance(source, PremeasuredScan):
        found = _locate(source, center, span, resolution, sandbox)
        if isinstance(found, Blocked):
            return found
        plan, s1, s2 = found
        rows, cols = _window_slices(plan, s1, s2)

        # Views of the source's read-only copies are read-only themselves, of
        # axes checked when the source was built, so nothing is checked again.
        v1, v2 = source.scan.v1_axis[rows], source.scan.v2_axis[cols]
        scan = _scan_grid(source.scan.values[rows, cols], v1, v2, plan[3])
        labels = None if source.labels is None else _label_grid(source.labels.labels[rows, cols], v1, v2)
        return scan, labels

    if not sandbox.contains_window(center, span):
        return _refusal(center, span)

    if isinstance(source, SimulatedDevice):
        try:
            scan, labels = device_model.render_scan(
                source.params,
                center,
                span,
                resolution,
                with_noise=source.with_noise,
                noise_seed=source.noise_seed,
                with_labels=with_labels,
            )
        except DomainError:
            return Blocked("window exceeds the device domain")
        return scan, labels

    raise ConfigurationError(f"unknown measurement source type {type(source).__name__}")


# --- file format ----------------------------------------------------------

_LABEL_CODE_TABLE = {label.name: int(label) for label in StateLabel}


def save_scan(scan: ScanGrid, path, labels: LabelGrid | None = None) -> None:
    """Write a scan (and optional ground-truth labels on the scan's axes) as one JSON document."""
    if labels is not None:
        _check_label_axes(scan, labels)
    doc = {
        **SCAN_HEADER,
        "resolution_mv": scan.meta.resolution,
        "acquisition_axis": scan.meta.acquisition_axis,
        "shape": list(scan.shape),
        "origin_mv": [float(scan.v1_axis[0]), float(scan.v2_axis[0])],
        "units": {"axes": "mV", "values": "sensor signal (arb.)"},
        "v1_axis": encode_blob(scan.v1_axis, "<f8"),
        "v2_axis": encode_blob(scan.v2_axis, "<f8"),
        "values": encode_blob(scan.values, "<f8"),
    }
    if labels is not None:
        doc["labels"] = encode_blob(labels.labels, "<i1")
        doc["label_codes"] = _LABEL_CODE_TABLE
    write_json(path, doc, indent=2)


def load_scan(path) -> tuple[ScanGrid, LabelGrid | None]:
    """Read a scan file written by :func:`save_scan`; bit-exact round trip."""
    doc = read_json(path, "scan")
    check_header(doc, "scan", SCAN_HEADER)

    shape = checked("field 'shape'", doc.get("shape"), list, ScanFormatError)
    shape = [checked("field 'shape'", n, int, ScanFormatError) for n in shape]
    if len(shape) != 2 or min(shape) < 1:
        raise ScanFormatError("field 'shape' must be a pair of positive integers")
    n1, n2 = shape

    resolution = checked("field 'resolution_mv'", doc.get("resolution_mv"), float, ScanFormatError)
    if not resolution > 0:
        raise ScanFormatError("field 'resolution_mv' must be a positive finite number")
    axis_name = checked("field 'acquisition_axis'", doc.get("acquisition_axis"), str, ScanFormatError)
    if axis_name not in ACQUISITION_AXES:
        raise ScanFormatError(f"field 'acquisition_axis' must be one of {ACQUISITION_AXES}")

    v1 = decode_blob("v1_axis", doc.get("v1_axis"), "<f8", n1)
    v2 = decode_blob("v2_axis", doc.get("v2_axis"), "<f8", n2)
    values = decode_finite("values", doc.get("values"), n1 * n2).reshape(n1, n2)
    meta = ScanMeta(resolution=resolution, acquisition_axis=axis_name)
    try:
        scan = ScanGrid(values, v1, v2, meta)
    except ShapeError as exc:
        raise ScanFormatError(f"scan file is inconsistent: {exc}") from exc

    labels = None
    if "labels" in doc:
        codes = decode_blob("labels", doc["labels"], "<i1", n1 * n2).reshape(n1, n2)
        try:
            labels = LabelGrid(codes, v1, v2)
        except ShapeError as exc:
            raise ScanFormatError(f"label raster is inconsistent: {exc}") from exc
    return scan, labels
