"""Phenomenological double quantum dot device model.

The model is geometric rather than self-consistent: the plunger plane
``(V1, V2)`` in millivolts is partitioned into five charge-state regions,
and the charge-sensor signal is built from thermally broadened
charge-addition steps whose positions follow the same geometry.

Region layout, in terms of the excess voltages ``e_i = V_i - V_i_on`` and
the detuning ``a = e1 - e2``:

* ``NO_DOT``         both plungers below their formation thresholds,
* ``SINGLE_LEFT``    only the left dot formed, or both formed with the
                     detuning above the double-dot band (``a > band upper``),
* ``SINGLE_RIGHT``   the mirror image (``a < band lower``),
* ``DOUBLE_DOT``     both dots formed with the detuning inside the band,
* ``SINGLE_CENTRAL`` both plungers at or above ``merge_threshold``; the
                     dots merge into one dot under the central barrier.

Walking up the main diagonal therefore passes NO_DOT, one of the single
dots, DOUBLE_DOT, and finally SINGLE_CENTRAL, which is the high-voltage
plateau where tuning runs tend to strand.

The sensor signal sums the occupation of each dot weighted by its lever
arm, plus a linear background. Occupations are sums of logistic steps of
width ``THERMAL_WIDTH_MV`` spaced ``line_spacing`` apart along each dot's
chemical-potential coordinate; each dot's potential is shifted by the
other dot's occupation (``interdot_coupling``), which produces the
honeycomb anticrossings, and the two potentials are blended into a common
one above the merge threshold so the merged region shows a single family
of diagonal transition lines.

Rendering skips work without changing a bit of its output. scipy's
``expit`` returns exactly 1.0 once ``exp(-x)`` falls below half an ulp of
1, and every step of the level sum is monotone in ``mu``, so the leading
levels whose step is 1.0 at a window's smallest ``mu`` are 1.0 at every
pixel. Added in order from 0.0 they sum to exactly their count, so
:func:`_occupation` starts there and evaluates only the other levels.
Each level's step is ``expit((mu - c) / THERMAL_WIDTH_MV)`` with
``c = (k + 1/2) * line_spacing``. The width is a power of two, so dividing
by it only moves the exponent, and ``fl(mu - c) / w == fl(mu / w - c / w)``
whenever no operand or result is subnormal. ``c / w`` is at least 1/2
because ``DeviceParams`` refuses a ``line_spacing`` below the width; a
``mu`` so tiny that halving it rounds is below half an ulp of ``c`` and
vanishes from ``mu - c`` either way. So :func:`_occupation` halves ``mu``
once and each level costs a subtract, an ``expit`` and an add. The number
of levels is bounded too: ``DeviceParams`` refuses a line slope outside
[-1, 1] and a negative interdot coupling, so no ``mu`` in the domain reaches
1200 mV, and a render sums at most 602 levels per dot.
:func:`render_scan` computes on broadcast axes instead of meshgrids,
which gives the same value per element because every operation is
elementwise, and computes ground-truth labels only when asked for them.

Labels are written from rectangles of the axes, not tested per pixel.
A window's axes strictly increase, and ``v - v_on < 0`` holds exactly when
``v < v_on`` for finite doubles, so the pixels with ``e_i < 0`` are a
prefix of the rows (or columns) that ``bisect_left`` finds, and those with
``V_i >= merge_threshold`` a suffix. :func:`_label_codes` starts from
``DOUBLE_DOT``, writes the band codes from ``a`` per pixel, then the
right-only, left-only, central and no-dot rectangles, so that a later
write wins as an earlier test did: no-dot over central where they overlap.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError, DomainError, ScanFormatError, ShapeError, check_setting
from .fileio import check_header, checked, kind_of, read_json, write_json
from .grids import (
    DEFAULT_RESOLUTION_MV,
    DEFAULT_SPAN_MV,
    LabelGrid,
    ScanGrid,
    ScanMeta,
    StateLabel,
    _label_grid,
    _scan_grid,
    pixel_count,
)

#: Plunger-voltage domain of every simulated device, in millivolts.
DOMAIN_MV = (0.0, 600.0)

#: Width of a thermally broadened charge-addition step. A power of two, so
#: that dividing by it is the exact multiplication by ``_STEP_SCALE``.
THERMAL_WIDTH_MV = 2.0
_STEP_SCALE = 1.0 / THERMAL_WIDTH_MV

#: Softness of the detuning-band edges in the sensor signal.
BAND_EDGE_WIDTH_MV = 10.0

#: Width of the crossover between separate-dot and merged-dot potentials.
MERGE_BLEND_WIDTH_MV = 4.0

# The header of a device file; load_device refuses any other.
DEVICE_HEADER = {"schema_version": "1"}


@dataclass(frozen=True)
class DeviceParams:
    """Parameters of one synthetic device realization; every number is finite."""

    seed: int
    formation_thresholds: tuple[float, float]
    merge_threshold: float
    dd_band: tuple[float, float]
    lever_arms: tuple[float, float]
    line_spacing: float
    line_slopes: tuple[float, float]
    interdot_coupling: float
    noise_sigma: float
    background_gradient: float

    def __post_init__(self):
        for name in ("merge_threshold", "dd_band", "lever_arms", "line_slopes", "interdot_coupling",
                     "background_gradient"):
            check_setting(self, name, sign=None)
        check_setting(self, "line_spacing")
        if not self.line_spacing >= THERMAL_WIDTH_MV:
            raise ConfigurationError(
                f"field 'line_spacing': {self.line_spacing} mV is below the step width {THERMAL_WIDTH_MV} mV"
            )
        if not all(abs(slope) <= 1.0 for slope in self.line_slopes):
            raise ConfigurationError(f"field 'line_slopes': {self.line_slopes} has a slope outside [-1, 1]")
        if not self.interdot_coupling >= 0.0:
            raise ConfigurationError(f"field 'interdot_coupling': {self.interdot_coupling} mV is negative")
        check_setting(self, "noise_sigma", sign="non-negative")
        lo, hi = DOMAIN_MV
        for name, value in zip(("v1_on", "v2_on"), self.formation_thresholds):
            if not lo < value < hi:
                raise ConfigurationError(
                    f"field 'formation_thresholds': {name}={value} outside open domain ({lo}, {hi})"
                )
        if not self.dd_band[0] < self.dd_band[1]:
            raise ConfigurationError(f"field 'dd_band': lower bound must be below upper, got {self.dd_band}")

    def to_json_dict(self) -> dict:
        return {**asdict(self), **DEVICE_HEADER}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DeviceParams":
        """Read each field with the kind the reference device's value has.

        A wrong header, a missing or unknown field, a value of the wrong kind
        or one out of range raises ScanFormatError naming the field.
        """
        check_header(doc, "device", DEVICE_HEADER)
        fields = asdict(reference_device())
        for name in doc:
            if name not in fields and name not in DEVICE_HEADER:
                raise ScanFormatError(f"device file has unknown field {name!r}; it takes {', '.join(fields)}")
        kwargs = {}
        for name, example in fields.items():
            if name not in doc:
                raise ScanFormatError(f"device file is missing field {name!r}")
            kwargs[name] = checked(f"device field {name!r}", doc[name], kind_of(example), ScanFormatError)
        try:
            return cls(**kwargs)
        except ConfigurationError as exc:
            raise ScanFormatError(f"device {exc}") from exc


#: Uniform sampling range ``(lo, hi)`` of each parameter :func:`sample_device`
#: draws, in mV except for the lever arms, slopes and noise (arb.).
VARIATION_RANGES = {
    "v1_on": (170.0, 250.0),
    "v2_on": (190.0, 270.0),
    "merge_threshold": (355.0, 415.0),
    "dd_band_lower": (-125.0, -80.0),
    "dd_band_upper": (80.0, 125.0),
    "lever_arm": (0.8, 1.2),
    "line_spacing": (18.0, 28.0),
    "line_slope": (0.08, 0.22),
    "interdot_coupling": (4.0, 12.0),
    "noise_sigma": (0.005, 0.02),
    "background_gradient": (0.0005, 0.002),
}


def sample_device(seed: int) -> DeviceParams:
    """Draw one device realization, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)

    def draw(name):
        lo, hi = VARIATION_RANGES[name]
        return float(rng.uniform(lo, hi))

    return DeviceParams(
        seed=int(seed),
        formation_thresholds=(draw("v1_on"), draw("v2_on")),
        merge_threshold=draw("merge_threshold"),
        dd_band=(draw("dd_band_lower"), draw("dd_band_upper")),
        lever_arms=(draw("lever_arm"), draw("lever_arm")),
        line_spacing=draw("line_spacing"),
        line_slopes=(draw("line_slope"), draw("line_slope")),
        interdot_coupling=draw("interdot_coupling"),
        noise_sigma=draw("noise_sigma"),
        background_gradient=draw("background_gradient"),
    )


def reference_device() -> DeviceParams:
    """The fixed device used by the offline experiments and the test suite.

    Its geometry mirrors the double-dot band and the single-dot plateau
    above 375 mV that the tuning experiments probe.
    """
    return DeviceParams(
        seed=0,
        formation_thresholds=(200.0, 220.0),
        merge_threshold=375.0,
        dd_band=(-90.0, 90.0),
        lever_arms=(1.0, 0.95),
        line_spacing=22.0,
        line_slopes=(0.15, 0.12),
        interdot_coupling=8.0,
        noise_sigma=0.01,
        background_gradient=0.001,
    )


def _check_domain(v1, v2):
    """Both voltage arrays as floats; DomainError unless every value lies in
    ``DOMAIN_MV``. Written so that any NaN comparison refuses."""
    lo, hi = DOMAIN_MV
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if not ((lo <= v1) & (v1 <= hi) & (lo <= v2) & (v2 <= hi)).all():
        raise DomainError(f"plunger voltages outside device domain [{lo}, {hi}] mV")
    return v1, v2


def _label_codes(params: DeviceParams, v1_axis: np.ndarray, v2_axis: np.ndarray) -> np.ndarray:
    """C-contiguous int8 StateLabel codes of the grid of two strictly
    increasing axes: the band codes per pixel, then four rectangles of the
    axes, lowest priority first (module docstring)."""
    v1_on, v2_on = params.formation_thresholds
    band_lo, band_hi = params.dd_band
    a = (v1_axis - v1_on)[:, None] - (v2_axis - v2_on)[None, :]
    codes = np.full(a.shape, int(StateLabel.DOUBLE_DOT), dtype=np.int8)
    codes[a > band_hi] = int(StateLabel.SINGLE_LEFT)
    codes[a < band_lo] = int(StateLabel.SINGLE_RIGHT)
    # e_i < 0 exactly before the first pixel with v_i >= v_i_on.
    on1, merge1 = bisect_left(v1_axis, v1_on), bisect_left(v1_axis, params.merge_threshold)
    on2, merge2 = bisect_left(v2_axis, v2_on), bisect_left(v2_axis, params.merge_threshold)
    codes[:on1, on2:] = int(StateLabel.SINGLE_RIGHT)
    codes[on1:, :on2] = int(StateLabel.SINGLE_LEFT)
    codes[merge1:, merge2:] = int(StateLabel.SINGLE_CENTRAL)
    codes[:on1, :on2] = int(StateLabel.NO_DOT)
    return codes


def state_at(params: DeviceParams, v1: float, v2: float) -> StateLabel:
    """Ground-truth charge state at a single plunger-voltage point."""
    a1, a2 = _check_domain(v1, v2)
    return StateLabel(int(_label_codes(params, a1.reshape(1), a2.reshape(1))[0, 0]))


def _occupation(mu: np.ndarray, spacing: float) -> np.ndarray:
    """Electron count for a dot: broadened steps at mu = (k + 1/2) * spacing.

    The first ``k0`` levels, whose step is exactly 1.0 at ``min(mu)``, are
    exactly 1.0 everywhere and are counted, not evaluated. The others take
    their step from ``mu`` halved once, which is exact (module docstring).
    """
    top = max(float(mu.max()), 0.0)
    n_levels = max(1, int(np.ceil(top / spacing)) + 2)
    low = float(mu.min()) * _STEP_SCALE
    k0 = 0
    while k0 < n_levels and expit(low - (k0 + 0.5) * spacing * _STEP_SCALE) == 1.0:
        k0 += 1
    occ = np.full_like(mu, float(k0))
    scaled = mu * _STEP_SCALE
    step = np.empty_like(mu)
    for k in range(k0, n_levels):
        np.subtract(scaled, (k + 0.5) * spacing * _STEP_SCALE, out=step)
        expit(step, out=step)
        occ += step
    return occ


def _sensor_grid(params: DeviceParams, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Noiseless sensor signal on broadcastable voltage arrays."""
    v1_on, v2_on = params.formation_thresholds
    band_lo, band_hi = params.dd_band
    s_left, s_right = params.line_slopes
    arm1, arm2 = params.lever_arms

    e1 = v1 - v1_on
    e2 = v2 - v2_on
    a = e1 - e2

    mu1 = e1 + s_left * e2
    mu2 = e2 + s_right * e1

    # Above the merge threshold the two potentials collapse onto their
    # mean, rotating both line families onto the diagonal.
    merged = expit((np.minimum(v1, v2) - params.merge_threshold) / MERGE_BLEND_WIDTH_MV)
    separate = 1.0 - merged
    mu_avg = 0.5 * (mu1 + mu2)
    mu1 = separate * mu1 + merged * mu_avg
    mu2 = separate * mu2 + merged * mu_avg

    # Mutual capacitive shift, one pass: each dot sees the other's
    # uncorrected occupation. Suppressed in the merged regime where the
    # two coordinates are no longer distinct.
    n1_bare = _occupation(mu1, params.line_spacing)
    n2_bare = _occupation(mu2, params.line_spacing)
    shift = params.interdot_coupling * separate
    n1 = _occupation(mu1 - shift * n2_bare, params.line_spacing)
    n2 = _occupation(mu2 - shift * n1_bare, params.line_spacing)

    # Far outside the double-dot band the weaker dot empties into the
    # stronger one, leaving a single family of transition lines.
    w1 = expit((a - band_lo) / BAND_EDGE_WIDTH_MV)
    w2 = expit((band_hi - a) / BAND_EDGE_WIDTH_MV)

    return arm1 * n1 * w1 + arm2 * n2 * w2 + params.background_gradient * (v1 + v2)


def _window_axes(
    center: tuple[float, float], span: tuple[float, float], resolution: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center axes of a window, ``lo + (i + 1/2) * resolution``.

    Raises DomainError unless the whole window lies inside ``DOMAIN_MV``
    (a non-finite center included), and ShapeError when the resolution is
    below the float spacing of the voltages.
    """
    c1, c2 = float(center[0]), float(center[1])
    s1, s2 = float(span[0]), float(span[1])
    n1, n2 = pixel_count(s1, resolution), pixel_count(s2, resolution)

    lo1, hi1 = c1 - s1 / 2.0, c1 + s1 / 2.0
    lo2, hi2 = c2 - s2 / 2.0, c2 + s2 / 2.0
    dlo, dhi = DOMAIN_MV
    # Written so that any NaN comparison refuses.
    if not (dlo <= lo1 and hi1 <= dhi and dlo <= lo2 and hi2 <= dhi):
        raise DomainError(
            f"window ({lo1}, {hi1}) x ({lo2}, {hi2}) mV exceeds device domain [{dlo}, {dhi}]"
        )

    v1_axis = lo1 + (np.arange(n1) + 0.5) * resolution
    v2_axis = lo2 + (np.arange(n2) + 0.5) * resolution
    # The axes are built here, so the only check of ScanGrid's that can fail
    # is strict increase: a resolution below the float spacing of the voltages.
    for name, axis in (("v1_axis", v1_axis), ("v2_axis", v2_axis)):
        if not (axis[1:] > axis[:-1]).all():
            raise ShapeError(f"{name} must be strictly increasing: {resolution} mV is below float spacing")
    return v1_axis, v2_axis


def _labels(params: DeviceParams, v1_axis: np.ndarray, v2_axis: np.ndarray) -> LabelGrid:
    return _label_grid(_label_codes(params, v1_axis, v2_axis), v1_axis, v2_axis)


def render_scan(
    params: DeviceParams,
    center: tuple[float, float],
    span: tuple[float, float] = DEFAULT_SPAN_MV,
    resolution: float = DEFAULT_RESOLUTION_MV,
    with_noise: bool = False,
    noise_seed: int = 0,
    with_labels: bool = True,
) -> tuple[ScanGrid, LabelGrid | None]:
    """Measure a rectangular window and return the raster plus ground truth.

    Pixel centers sit at ``lo + (i + 1/2) * resolution`` so the requested
    window edges bound the raster. The whole window must lie inside
    ``DOMAIN_MV``; anything else, a non-finite center included, raises
    DomainError. With ``with_labels=False`` the labels are not computed
    and come back as None.
    """
    v1_axis, v2_axis = _window_axes(center, span, resolution)
    values = _sensor_grid(params, v1_axis[:, None], v2_axis[None, :])
    if with_noise and params.noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        values = values + rng.normal(0.0, params.noise_sigma, size=values.shape)

    scan = _scan_grid(values, v1_axis, v2_axis, ScanMeta(resolution=resolution, acquisition_axis="v1"))
    return scan, _labels(params, v1_axis, v2_axis) if with_labels else None


def render_labels(
    params: DeviceParams,
    center: tuple[float, float],
    span: tuple[float, float] = DEFAULT_SPAN_MV,
    resolution: float = DEFAULT_RESOLUTION_MV,
) -> LabelGrid:
    """The ground-truth labels ``render_scan`` gives the same window, without
    computing its sensor values; it refuses the same windows."""
    return _labels(params, *_window_axes(center, span, resolution))


def save_device(params: DeviceParams, path) -> None:
    write_json(path, params.to_json_dict(), indent=2)


def load_device(path) -> DeviceParams:
    return DeviceParams.from_json_dict(read_json(path, "device"))
