"""Window acquisition with sandbox enforcement, plus scan file IO.

Acquisition goes through one chokepoint, :func:`acquire_with_labels`:
every window a tuning run asks for is checked against the safety sandbox
first, and windows the source cannot deliver come back as
:class:`Blocked` instead of raising, so the optimizer can treat them as a
fixed bad fitness.

Scan files are a single JSON document: a self-describing header plus
base64 blobs of little-endian float64 (values, axes) and int8 (labels)
in row-major order. Label codes follow :class:`~qdtune.grids.StateLabel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import device as device_model
from .device import DeviceParams
from .errors import (
    ConfigurationError,
    DomainError,
    ScanFormatError,
    ScanVersionError,
    ShapeError,
    UnsupportedResolutionError,
)
from .fileio import decode_blob, encode_blob, read_json, write_json
from .grids import (
    ACQUISITION_AXES,
    LabelGrid,
    ScanGrid,
    ScanMeta,
    StateLabel,
    _read_only,
    pixel_count,
)

SCAN_SCHEMA_VERSION = "1"
SCAN_SUFFIX = ".qdscan.json"


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
        """True when all four window corners are inside the limits.

        Written so that any NaN comparison refuses: a NaN center or span,
        or an infinite one, is never contained.
        """
        for (lo, hi), c, s in zip((self.v1_range, self.v2_range), center, span):
            if not (lo <= c - s / 2.0 and c + s / 2.0 <= hi):
                return False
        return True


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


@dataclass(eq=False)
class PremeasuredScan:
    """Measurement source backed by one full-range stored raster."""

    scan: ScanGrid
    labels: LabelGrid | None = None

    def __post_init__(self):
        if self.labels is not None:
            if self.labels.shape != self.scan.shape:
                raise ShapeError("label raster shape does not match the scan")


MeasurementSource = SimulatedDevice | PremeasuredScan


def _crop_start(axis: np.ndarray, resolution: float, center: float, count: int, stride: int) -> int | None:
    """First stored index of a window of ``count`` pixels around ``center``.

    The window center snaps to the nearest stored pixel center, the first
    one on a tie, as ``np.argmin(np.abs(axis - center))`` picks it; there
    is no resampling. ``axis`` is a checked axis of spacing ``resolution``
    and ``center`` is not NaN. Returns None when the window runs off the
    raster.
    """
    n = axis.size
    guess = int(round(min(max((center - float(axis[0])) / resolution, 0.0), n - 1.0)))
    lo, hi = max(guess - 2, 0), min(guess + 2, n - 1)
    dist = [abs(a - center) for a in axis[lo : hi + 1].tolist()]
    best = dist.index(min(dist))
    # |axis - center| falls then rises along a strictly increasing axis, so a
    # first minimum strictly below the candidates' outer neighbours is the
    # global one; otherwise (a far-off guess on a tiny spacing) scan it all.
    if (best == 0 and lo > 0) or (hi < n - 1 and dist[-1] <= dist[best]):
        nearest = int(np.argmin(np.abs(axis - center)))
    else:
        nearest = lo + best
    start = nearest - (count * stride) // 2
    if start < 0 or start + stride * (count - 1) >= n:
        return None
    return start


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
    if not sandbox.contains_window(center, span):
        if not all(math.isfinite(v) for v in (*center, *span)):
            return Blocked("window center or span is not finite")
        return Blocked("window crosses the sandbox limits")

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

    if isinstance(source, PremeasuredScan):
        native = source.scan.meta.resolution
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

        s1 = _crop_start(source.scan.v1_axis, native, float(center[0]), counts[0], stride)
        s2 = _crop_start(source.scan.v2_axis, native, float(center[1]), counts[1], stride)
        if s1 is None or s2 is None:
            return Blocked("window falls outside the stored raster")
        rows = slice(s1, s1 + stride * counts[0], stride)
        cols = slice(s2, s2 + stride * counts[1], stride)

        if stride == 1:
            scan = source.scan.crop(rows, cols)
            labels = None if source.labels is None else source.labels.crop(rows, cols)
            return scan, labels
        # A strided window has a new spacing, so it is checked like outside data.
        v1 = _read_only(source.scan.v1_axis[rows])
        v2 = _read_only(source.scan.v2_axis[cols])
        meta = ScanMeta(resolution=native * stride, acquisition_axis=source.scan.meta.acquisition_axis)
        scan = ScanGrid(_read_only(source.scan.values[rows, cols]), v1, v2, meta)
        labels = None
        if source.labels is not None:
            labels = LabelGrid(_read_only(source.labels.labels[rows, cols]), v1, v2)
        return scan, labels

    raise ConfigurationError(f"unknown measurement source type {type(source).__name__}")


def inject_sensor_flip(scan: ScanGrid) -> ScanGrid:
    """Return the scan with the sensor sign inverted (axes unchanged)."""
    return scan.with_values(-scan.values)


# --- file format ----------------------------------------------------------

_LABEL_CODE_TABLE = {label.name: int(label) for label in StateLabel}


def save_scan(scan: ScanGrid, path, labels: LabelGrid | None = None) -> None:
    """Write a scan (and optional ground-truth labels) as one JSON document."""
    if labels is not None and labels.shape != scan.shape:
        raise ShapeError("label raster shape does not match the scan")
    doc = {
        "format": "qdscan",
        "version": SCAN_SCHEMA_VERSION,
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
    if doc.get("format") != "qdscan":
        raise ScanFormatError(f"field 'format' is {doc.get('format')!r}, expected 'qdscan'")
    version = doc.get("version")
    if version != SCAN_SCHEMA_VERSION:
        raise ScanVersionError(
            f"scan version {version!r} not supported (expected {SCAN_SCHEMA_VERSION!r})"
        )

    shape = doc.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(isinstance(n, int) and n > 0 for n in shape)
    ):
        raise ScanFormatError("field 'shape' must be a pair of positive integers")
    n1, n2 = shape

    resolution = doc.get("resolution_mv")
    if not isinstance(resolution, (int, float)) or not 0 < resolution < math.inf:
        raise ScanFormatError("field 'resolution_mv' must be a positive finite number")
    axis_name = doc.get("acquisition_axis")
    if axis_name not in ACQUISITION_AXES:
        raise ScanFormatError(f"field 'acquisition_axis' must be one of {ACQUISITION_AXES}")

    for field in ("v1_axis", "v2_axis", "values"):
        if field not in doc:
            raise ScanFormatError(f"scan file missing field {field!r}")
    v1 = decode_blob("v1_axis", doc["v1_axis"], "<f8", n1)
    v2 = decode_blob("v2_axis", doc["v2_axis"], "<f8", n2)
    values = decode_blob("values", doc["values"], "<f8", n1 * n2).reshape(n1, n2)
    if not np.isfinite(values).all():
        raise ScanFormatError("field 'values' holds NaN or infinite sensor values")
    meta = ScanMeta(resolution=float(resolution), acquisition_axis=axis_name)
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
