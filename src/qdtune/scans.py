"""Window acquisition with sandbox enforcement, plus scan file IO.

Every window a tuning run asks for is checked against the safety sandbox,
and windows the source cannot deliver come back as :class:`Blocked`
instead of raising, so the optimizer can treat them as a fixed bad fitness.
:func:`acquire_with_labels` measures a window of either source.

A :class:`PremeasuredScan` owns what it stores: read-only copies of the
sensor values, the axes and the label codes, and the codes' summed-area
tally. One locator, ``_locator``, says where a stored window lies, or why
it is refused, by the pixels the window reads alone. The window lies around
the stored pixel center nearest its center, the first on a tie, found by
the locator's one nearest-pixel search: a bisection of each stored axis and
a step down over equal distances. It is refused when it runs off the
raster or when a pixel edge of it passes a sandbox limit. The locator is
bound once for the windows of one span and resolution, with the window plan
(stride, pixel counts and metadata) worked out on its first window and kept
while it passes its checks, and it reads each window it finds with a reader
bound once for that plan. A built-in classifier's ``stored_reader`` is such
a reader, so a tuning step on a stored scan is one locate and one read, and
tuning runs and success scoring build no window at all; a model classifier
keeps what it read. The scan keeps one locator per span, resolution, sandbox
and plain function reader (``_kept_locator``) for every tuning run and
success score that asks for it, so an oracle run, whose reader is one plain
function, binds nothing; a model's method reader gets a locator of its own
each run, so the scan never keeps a caller's classifier alive. A span that
is not two real numbers is refused once, when its locator is bound. The plain locator's reader
gives the plan and the window's first pixel, which :func:`_window_slices`
turns into row and column slices, and :func:`acquire_with_labels` cuts the
window there as read-only views of the stored copies, of every stride,
checked once when the source was built. A
simulated window is refused when a corner of the requested window leaves
the sandbox (``Sandbox.contains_window``); :func:`acquire_labels` renders
its labels alone, for a classifier that reads no sensor values.

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
    check_count,
    real_pair,
)
from .fileio import check_header, check_written, checked, decode_blob, encode_blob, read_json, write_json
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
        """True when all four corners of the window of ``span`` around
        ``center`` are inside the limits.

        Written so that any NaN comparison refuses: a NaN center or span,
        or an infinite one, is never contained.
        """
        (lo1, hi1), (lo2, hi2) = self.v1_range, self.v2_range
        c1, c2, half1, half2 = center[0], center[1], span[0] / 2.0, span[1] / 2.0
        return lo1 <= c1 - half1 and c1 + half1 <= hi1 and lo2 <= c2 - half2 and c2 + half2 <= hi2


@dataclass(frozen=True)
class Blocked:
    """Signal that a window was refused; carries the reason for logs."""

    reason: str


@dataclass(frozen=True)
class SimulatedDevice:
    """Measurement source backed by the synthetic device model. With
    ``with_noise`` its ``noise_seed`` must be a non-negative integer, as
    ``render_scan`` asks; a bad one is refused before any run. Each window
    draws its noise at its own seed (:func:`_window_noise_seed`), so the
    same window keeps its noise and distinct windows get independent draws."""

    params: DeviceParams
    with_noise: bool = False
    noise_seed: int = 0

    def __post_init__(self):
        if self.with_noise:
            check_count("SimulatedDevice.noise_seed", self.noise_seed, sign="non-negative")


def _window_noise_seed(noise_seed: int, center, span, resolution: float) -> int:
    """The ``render_scan`` noise seed of one window of a noisy SimulatedDevice:
    a ``SeedSequence`` over ``noise_seed`` and the float64 bits of the
    window's center, span and resolution."""
    bits = np.array([*center, *span, resolution], dtype="<f8").view("<u8").tolist()
    return int(np.random.SeedSequence([noise_seed, *bits]).generate_state(1, np.uint64)[0])


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
        # The axes as Python floats too, for the locator's nearest-pixel search.
        self._axis_floats = (self.scan.v1_axis.tolist(), self.scan.v2_axis.tolist())
        self._plans: dict[tuple, tuple[int, int, int, ScanMeta]] = {}
        self._locators: dict[tuple, object] = {}

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


_NOT_FINITE = Blocked("window center or span is not finite")
_CROSSES = Blocked("window crosses the sandbox limits")
_OFF_RASTER = Blocked("window falls outside the stored raster")
_OFF_DOMAIN = Blocked("window exceeds the device domain")


def _where(source: PremeasuredScan, plan: tuple[int, int, int, ScanMeta]):
    """The reader of a plain ``_locator``: a window's plan and first pixel."""
    return lambda s1, s2: (plan, s1, s2)


def _locator(
    source: PremeasuredScan,
    span: tuple[float, float],
    resolution: float,
    sandbox: Sandbox,
    reader=_where,
):
    """``locate(center)``: the stored window of ``span`` at ``resolution``
    around ``center``, read where it lies by ``reader(source, plan)(s1, s2)``
    with no window built, or Blocked. ``plan`` is the window plan (stride,
    pixel counts along v1 and v2, metadata) and ``(s1, s2)`` the stored
    indices of the window's first pixel; the default reader returns
    ``(plan, s1, s2)`` itself. A built-in classifier's ``stored_reader`` is
    such a reader.

    The window's pixels alone decide whether it is refused. Along each axis
    its first pixel lies ``count * stride // 2`` stored pixels below the one
    nearest ``center``, the first on a tie, as ``np.argmin(np.abs(axis -
    c))`` picks it; ``locate`` finds that pixel itself, by one bisection of
    the axis as Python floats and a step down. ``locate`` returns Blocked
    when the center or span is not finite, then when the window runs off
    the stored raster, then when a pixel edge passes a sandbox limit: the
    first pixel center less half the window's pixel size, or the last one
    plus it. It raises as ``_window_plan`` does, and as the reader does
    when it is bound. The plan is worked out on the first finite window and
    the reader bound on the first window that passes its checks; each is
    kept once it is made, so a bad request raises on that window and on
    every later one. A span that is not two real numbers raises
    ConfigurationError naming it here, before any window.
    """
    span1, span2 = real_pair(span, "span")
    axis1, axis2 = source._axis_floats
    last1, last2 = len(axis1) - 1, len(axis2) - 1
    (lo1, hi1), (lo2, hi2) = sandbox.v1_range, sandbox.v2_range
    finite_span, isfinite = math.isfinite(span1) and math.isfinite(span2), math.isfinite
    plan = read = None
    # Set from the plan: pixels from the nearest one back to the first, from
    # the first to the last, and half the window's pixel size.
    back1 = back2 = reach1 = reach2 = h = 0

    def locate(center: tuple[float, float]):
        nonlocal plan, read, back1, back2, reach1, reach2, h
        c1, c2 = float(center[0]), float(center[1])
        if not (finite_span and isfinite(c1) and isfinite(c2)):
            return _NOT_FINITE
        if plan is None:
            plan = source._window_plan(span, resolution)
            stride, n1, n2, meta = plan
            back1, back2 = (n1 * stride) // 2, (n2 * stride) // 2
            reach1, reach2 = stride * (n1 - 1), stride * (n2 - 1)
            h = meta.resolution / 2.0
        # The stored pixel center nearest each coordinate, the first one on a
        # tie, as np.argmin(np.abs(axis - c)) picks it. The distances fall and
        # then rise along an axis, so it is the first pixel at or above the
        # coordinate or one below it: step down while the next lower distance
        # is no larger (equal, after rounding, on a tiny spacing or far away).
        # Every lower pixel lies below the coordinate, so its distance is
        # ``c - axis[k]``, the bits of ``abs(axis[k] - c)``.
        i = bisect_left(axis1, c1)
        if i > last1:
            i = last1
        distance = abs(axis1[i] - c1)
        while i:
            lower = c1 - axis1[i - 1]
            if lower > distance:
                break
            i -= 1
            distance = lower
        j = bisect_left(axis2, c2)
        if j > last2:
            j = last2
        distance = abs(axis2[j] - c2)
        while j:
            lower = c2 - axis2[j - 1]
            if lower > distance:
                break
            j -= 1
            distance = lower
        s1, s2 = i - back1, j - back2
        e1, e2 = s1 + reach1, s2 + reach2
        if s1 < 0 or s2 < 0 or e1 > last1 or e2 > last2:
            return _OFF_RASTER
        if not (lo1 <= axis1[s1] - h and axis1[e1] + h <= hi1 and lo2 <= axis2[s2] - h and axis2[e2] + h <= hi2):
            return _CROSSES
        if read is None:
            read = reader(source, plan)
        return read(s1, s2)

    return locate


def _kept_locator(
    source: PremeasuredScan,
    span: tuple[float, float],
    resolution: float,
    sandbox: Sandbox,
    reader,
):
    """The ``_locator`` of ``source`` for ``span``, ``resolution``, the
    sandbox's limits and ``reader``, bound on first use and kept on the
    source. It holds nothing but its window plan and its bound reader, so
    every later caller gets what a fresh locator gives.

    Only a plain function reader, as the oracle's and success scoring's, is
    kept. A method reader, as a model classifier's, gets a fresh locator,
    so the source never keeps the method's object alive. A span or
    resolution that is NaN is not kept either, since its key would never be
    found again."""
    if getattr(reader, "__self__", None) is not None:
        return _locator(source, span, resolution, sandbox, reader)
    try:
        key = (*span, resolution, *sandbox.v1_range, *sandbox.v2_range, reader)
        locate = source._locators.get(key)
    except TypeError:  # a span that is no pair of hashable values: _locator refuses it
        return _locator(source, span, resolution, sandbox, reader)
    if locate is None:
        locate = _locator(source, span, resolution, sandbox, reader)
        if all(v == v for v in key[:-1]):
            source._locators[key] = locate
    return locate


def _window_slices(plan: tuple[int, int, int, ScanMeta], s1: int, s2: int) -> tuple[slice, slice]:
    """Row and column slices of the stored window that ``_locator`` found:
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
    crop of its stored labels either way. Returns Blocked when the center
    or span is not finite; for a premeasured source, when the window runs
    off the stored raster or a pixel edge of it passes a sandbox limit
    (``_locator``); for a simulated one, when a corner of the requested
    window leaves the sandbox or the window exceeds the device domain.
    """
    if isinstance(source, PremeasuredScan):
        found = _locator(source, span, resolution, sandbox)(center)
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
        return _CROSSES if all(math.isfinite(v) for v in (*center, *span)) else _NOT_FINITE

    if isinstance(source, SimulatedDevice):
        try:
            scan, labels = device_model.render_scan(
                source.params,
                center,
                span,
                resolution,
                with_noise=source.with_noise,
                noise_seed=_window_noise_seed(source.noise_seed, center, span, resolution) if source.with_noise else 0,
                with_labels=with_labels,
            )
        except DomainError:
            return _OFF_DOMAIN
        return scan, labels

    raise ConfigurationError(f"unknown measurement source type {type(source).__name__}")


def acquire_labels(
    source: SimulatedDevice,
    center: tuple[float, float],
    span: tuple[float, float],
    resolution: float,
    sandbox: Sandbox = Sandbox(),
) -> LabelGrid | Blocked:
    """The labels ``acquire_with_labels`` gives a simulated window, without
    computing its sensor values (``device.render_labels``); it refuses the
    same windows, for the same reasons."""
    if not sandbox.contains_window(center, span):
        return _CROSSES if all(math.isfinite(v) for v in (*center, *span)) else _NOT_FINITE
    try:
        return device_model.render_labels(source.params, center, span, resolution)
    except DomainError:
        return _OFF_DOMAIN


# --- file format ----------------------------------------------------------

_LABEL_CODE_TABLE = {label.name: int(label) for label in StateLabel}
_SCAN_UNITS = {"axes": "mV", "values": "sensor signal (arb.)"}


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
        "units": _SCAN_UNITS,
        "v1_axis": encode_blob(scan.v1_axis, "<f8"),
        "v2_axis": encode_blob(scan.v2_axis, "<f8"),
        "values": encode_blob(scan.values, "<f8"),
    }
    if labels is not None:
        doc["labels"] = encode_blob(labels.labels, "<i1")
        doc["label_codes"] = _LABEL_CODE_TABLE
    write_json(path, doc, indent=2)


def load_scan(path) -> tuple[ScanGrid, LabelGrid | None]:
    """Read a scan file written by :func:`save_scan`; bit-exact round trip.

    ``units``, ``label_codes`` and ``origin_mv`` may be left out, but when
    present each must be what :func:`save_scan` writes."""
    doc = read_json(path, "scan")
    check_header(doc, "scan", SCAN_HEADER)
    check_written(doc, {"units": _SCAN_UNITS, "label_codes": _LABEL_CODE_TABLE})

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
    values = decode_blob("values", doc.get("values"), "<f8", n1 * n2).reshape(n1, n2)
    meta = ScanMeta(resolution=resolution, acquisition_axis=axis_name)
    try:
        scan = ScanGrid(values, v1, v2, meta)  # refuses NaN or infinite values, naming 'values'
    except ShapeError as exc:
        raise ScanFormatError(f"scan file holds an invalid scan: {exc}") from exc
    check_written(doc, {"origin_mv": [float(v1[0]), float(v2[0])]})

    labels = None
    if "labels" in doc:
        codes = decode_blob("labels", doc["labels"], "<i1", n1 * n2).reshape(n1, n2)
        try:
            labels = LabelGrid(codes, v1, v2)
        except ShapeError as exc:
            raise ScanFormatError(f"label raster is inconsistent: {exc}") from exc
    return scan, labels
