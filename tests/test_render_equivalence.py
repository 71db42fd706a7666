"""The fast render path against the straightforward one it replaced, byte for byte.

``_occupation_reference`` evaluates every charge level over the whole
window, dividing each step by the step width; ``_state_codes_reference``
labels every pixel with one ``np.select`` over the region masks; and
``_render_reference`` renders on full meshgrids and builds its grids
through the checking constructors. The library skips the levels that are
exactly 1.0 everywhere, halves ``mu`` once instead of dividing each step,
labels from rectangles on the axes, computes on broadcast axes, builds its
grids without re-checks and computes labels only on request; none of it
may change an output bit.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import qdtune as q
from qdtune import device
from qdtune.device import THERMAL_WIDTH_MV, _label_codes, _occupation
from qdtune.grids import StateLabel, pixel_count


def _occupation_reference(mu: np.ndarray, spacing: float) -> np.ndarray:
    top = float(np.max(mu, initial=0.0))
    n_levels = max(1, int(np.ceil(top / spacing)) + 2)
    occ = np.zeros_like(mu)
    for k in range(n_levels):
        occ += expit((mu - (k + 0.5) * spacing) / THERMAL_WIDTH_MV)
    return occ


def _state_codes_reference(params, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Region lookup on full voltage arrays; int8 StateLabel codes."""
    v1_on, v2_on = params.formation_thresholds
    band_lo, band_hi = params.dd_band
    e1 = v1 - v1_on
    e2 = v2 - v2_on
    a = e1 - e2

    no_dot = (e1 < 0) & (e2 < 0)
    central = (v1 >= params.merge_threshold) & (v2 >= params.merge_threshold)
    left_only = (e1 >= 0) & (e2 < 0)
    right_only = (e2 >= 0) & (e1 < 0)
    codes = np.select(
        [no_dot, central, left_only, right_only, a > band_hi, a < band_lo],
        [
            int(StateLabel.NO_DOT),
            int(StateLabel.SINGLE_CENTRAL),
            int(StateLabel.SINGLE_LEFT),
            int(StateLabel.SINGLE_RIGHT),
            int(StateLabel.SINGLE_LEFT),
            int(StateLabel.SINGLE_RIGHT),
        ],
        default=int(StateLabel.DOUBLE_DOT),
    )
    return codes.astype(np.int8)


def _render_reference(params, center, span, resolution, with_noise=False, noise_seed=0):
    if not resolution > 0:
        raise q.ConfigurationError(f"resolution must be positive, got {resolution}")
    c1, c2 = float(center[0]), float(center[1])
    s1, s2 = float(span[0]), float(span[1])
    n1, n2 = pixel_count(s1, resolution), pixel_count(s2, resolution)
    lo1, hi1 = c1 - s1 / 2.0, c1 + s1 / 2.0
    lo2, hi2 = c2 - s2 / 2.0, c2 + s2 / 2.0
    dlo, dhi = q.DOMAIN_MV
    if lo1 < dlo or hi1 > dhi or lo2 < dlo or hi2 > dhi:
        raise q.DomainError("window exceeds device domain")
    v1_axis = lo1 + (np.arange(n1) + 0.5) * resolution
    v2_axis = lo2 + (np.arange(n2) + 0.5) * resolution
    g1, g2 = np.meshgrid(v1_axis, v2_axis, indexing="ij")
    with mock.patch.object(device, "_occupation", _occupation_reference):
        values = device._sensor_grid(params, g1, g2)
    if with_noise and params.noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        values = values + rng.normal(0.0, params.noise_sigma, size=values.shape)
    labels = _state_codes_reference(params, g1, g2)
    meta = q.ScanMeta(resolution=resolution, acquisition_axis="v1")
    return q.ScanGrid(values, v1_axis, v2_axis, meta), q.LabelGrid(labels, v1_axis, v2_axis)


def _saturation_threshold() -> float:
    """The smallest float ``x`` with ``expit(x) == 1.0``."""
    lo, hi = 0.0, 100.0
    while np.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if expit(mid) == 1.0 else (mid, hi)
    return hi


SATURATION_X = _saturation_threshold()


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _nudged(x: float, ulps: int) -> float:
    step = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, step))
    return x


spacings = st.one_of(st.just(THERMAL_WIDTH_MV), st.floats(1.0, 40.0, allow_nan=False))


class TestOccupation:
    def test_step_width_is_a_power_of_two(self):
        # Halving mu once is exact only because dividing by the width is.
        mantissa, _ = math.frexp(THERMAL_WIDTH_MV)
        assert mantissa == 0.5

    def test_threshold_is_the_saturation_edge(self):
        assert expit(SATURATION_X) == 1.0
        assert expit(np.nextafter(SATURATION_X, 0.0)) < 1.0

    @given(
        spacing=spacings,
        lo=st.floats(-100.0, 700.0),
        width=st.floats(0.0, 200.0),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_random_arrays(self, spacing, lo, width, shape, seed):
        mu = lo + width * np.random.default_rng(seed).random(shape)
        assert _same_bytes(_occupation(mu, spacing), _occupation_reference(mu, spacing))

    @given(
        spacing=spacings,
        level=st.integers(0, 30),
        ulps=st.integers(-6, 6),
        width=st.floats(0.0, 60.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_minimum_a_few_ulps_from_a_saturation_threshold(self, spacing, level, ulps, width, seed):
        # mu at which level ``level``'s step first reads exactly 1.0, moved by a few ulps
        edge = _nudged(SATURATION_X * THERMAL_WIDTH_MV + (level + 0.5) * spacing, ulps)
        mu = edge + width * np.random.default_rng(seed).random((5, 7))
        mu.flat[0] = edge
        assert _same_bytes(_occupation(mu, spacing), _occupation_reference(mu, spacing))

    @pytest.mark.parametrize("value", [0.0, 74.0, 150.0, 599.0, 700.0, 1e4])
    def test_constant_arrays_saturate_every_level_below_them(self, value):
        mu = np.full((6, 4), value)
        assert _same_bytes(_occupation(mu, 22.0), _occupation_reference(mu, 22.0))

    @given(spacing=spacings, lo=st.floats(-1e3, -1e-3), seed=st.integers(0, 2**32 - 1))
    def test_negative_arrays(self, spacing, lo, seed):
        mu = lo * np.random.default_rng(seed).random((8, 3))
        assert _same_bytes(_occupation(mu, spacing), _occupation_reference(mu, spacing))

    @given(
        spacing=spacings,
        scale=st.sampled_from([2.0**-1074, 2.0**-1060, 2.0**-1023, 2.0**-1022, 1e-300, 1e-200]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tiny_and_subnormal_arrays(self, spacing, scale, seed):
        # Halving a subnormal mu can round; the step it feeds must not change.
        rng = np.random.default_rng(seed)
        mu = scale * rng.integers(-(2**53), 2**53, size=(6, 5)).astype(float)
        mu.flat[:3] = (0.0, -0.0, 2.0**-1074)
        assert _same_bytes(_occupation(mu, spacing), _occupation_reference(mu, spacing))

    def test_nan_fails_as_before(self):
        mu = np.array([[np.nan, 300.0]])
        for occupation in (_occupation, _occupation_reference):
            with pytest.raises(ValueError):
                occupation(mu, 22.0)


def _assert_same_render(got, expected):
    (scan, labels), (ref_scan, ref_labels) = got, expected
    for a, b in (
        (scan.values, ref_scan.values),
        (scan.v1_axis, ref_scan.v1_axis),
        (scan.v2_axis, ref_scan.v2_axis),
        (labels.labels, ref_labels.labels),
        (labels.v1_axis, ref_labels.v1_axis),
        (labels.v2_axis, ref_labels.v2_axis),
    ):
        assert _same_bytes(a, b)
    assert scan.meta == ref_scan.meta


@st.composite
def windows(draw):
    seed = draw(st.one_of(st.none(), st.integers(0, 2**31 - 1)))
    params = q.reference_device() if seed is None else q.sample_device(seed)
    resolution = draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 5.0]))
    counts = draw(st.tuples(st.integers(1, 40), st.integers(1, 40)))
    span = (counts[0] * resolution, counts[1] * resolution)
    center = tuple(draw(st.floats(s / 2.0, 600.0 - s / 2.0)) for s in span)
    noise = draw(st.booleans())
    return params, center, span, resolution, noise, draw(st.integers(0, 1000))


class TestRenderScan:
    @given(window=windows())
    @settings(max_examples=150)
    def test_matches_the_meshgrid_render(self, window):
        params, center, span, resolution, noise, noise_seed = window
        got = q.render_scan(params, center, span, resolution, with_noise=noise, noise_seed=noise_seed)
        expected = _render_reference(params, center, span, resolution, with_noise=noise, noise_seed=noise_seed)
        _assert_same_render(got, expected)

    @given(window=windows())
    @settings(max_examples=50)
    def test_without_labels_same_values_and_no_labels(self, window):
        params, center, span, resolution, noise, noise_seed = window
        kwargs = dict(with_noise=noise, noise_seed=noise_seed)
        with_labels, _ = q.render_scan(params, center, span, resolution, **kwargs)
        scan, labels = q.render_scan(params, center, span, resolution, with_labels=False, **kwargs)
        assert labels is None
        assert _same_bytes(scan.values, with_labels.values)
        assert _same_bytes(scan.v1_axis, with_labels.v1_axis)
        assert _same_bytes(scan.v2_axis, with_labels.v2_axis)
        assert scan.meta == with_labels.meta

    def test_resolution_below_float_spacing_is_refused(self, reference_params):
        args = (reference_params, (300.0, 300.0), (1e-12, 1e-12), 1e-14)
        with pytest.raises(q.QdtuneError):
            _render_reference(*args)
        with pytest.raises(q.ShapeError, match="strictly increasing"):
            q.render_scan(*args)


@st.composite
def label_cases(draw):
    """A device and the axes of a window inside the domain. Each threshold and
    band edge is anywhere, on a pixel (or a detuning) of the window, or a few
    ulps from one, so windows straddle every boundary; the merge threshold may
    lie below the formation thresholds, and an axis may have one pixel."""
    resolution = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]))
    axes = []
    for _ in range(2):
        n = draw(st.one_of(st.just(1), st.integers(1, 30)))
        lo = draw(st.floats(0.0, 600.0 - n * resolution))
        axes.append(lo + (np.arange(n) + 0.5) * resolution)
    v1_axis, v2_axis = axes

    def near(values, free):
        kind = draw(st.sampled_from(["free", "on", "near"]))
        if kind == "free":
            return draw(free)
        value = float(values.flat[draw(st.integers(0, values.size - 1))])
        return value if kind == "on" else _nudged(value, draw(st.integers(-3, 3)))

    thresholds = (near(v1_axis, st.floats(0.01, 599.99)), near(v2_axis, st.floats(0.01, 599.99)))
    assume(all(0.0 < t < 600.0 for t in thresholds))
    merge = near(np.concatenate(axes), st.floats(-50.0, 650.0))
    detuning = (v1_axis - thresholds[0])[:, None] - (v2_axis - thresholds[1])[None, :]
    band = sorted(near(detuning, st.floats(-700.0, 700.0)) for _ in range(2))
    assume(band[0] < band[1])
    params = dataclasses.replace(
        q.sample_device(draw(st.integers(0, 2**31 - 1))),
        formation_thresholds=thresholds, merge_threshold=merge, dd_band=tuple(band),
    )
    return params, v1_axis, v2_axis


class TestLabels:
    @given(case=label_cases(), data=st.data())
    @settings(max_examples=300)
    def test_rectangles_match_the_select(self, case, data):
        params, v1_axis, v2_axis = case
        codes = _label_codes(params, v1_axis, v2_axis)
        expected = _state_codes_reference(params, *np.meshgrid(v1_axis, v2_axis, indexing="ij"))
        assert _same_bytes(codes, expected)
        assert codes.flags.c_contiguous
        for _ in range(4):
            i = data.draw(st.integers(0, v1_axis.size - 1))
            j = data.draw(st.integers(0, v2_axis.size - 1))
            assert q.state_at(params, v1_axis[i], v2_axis[j]) == expected[i, j]

    def test_no_dot_wins_over_central_where_they_overlap(self, reference_params):
        params = dataclasses.replace(reference_params, merge_threshold=100.0)
        v = np.array([150.0, 210.0, 250.0])
        codes = _label_codes(params, v, v)
        assert codes[0, 0] == StateLabel.NO_DOT
        assert _same_bytes(codes, _state_codes_reference(params, *np.meshgrid(v, v, indexing="ij")))


class _LabelSpy:
    """Records whether each window arrived with labels; answers with ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.got_labels = []

    def probabilities(self, scan, labels):
        self.got_labels.append(labels is not None)
        return self.inner.probabilities(scan, labels)


class TestLabelRequest:
    START = (350.0, 400.0)

    def test_model_classifier_declares_it_reads_no_labels(self):
        assert q.ModelClassifier.reads_labels is False

    def test_mlp_run_is_the_same_with_or_without_labels(self, reference_params):
        source = q.SimulatedDevice(reference_params, with_noise=True, noise_seed=3)
        model = q.ModelClassifier(q.init_model(0))

        class LabelledModel(q.ModelClassifier):
            reads_labels = True

        unlabelled = q.autotune(source, model, self.START, policy=q.DynamicSimplex())
        labelled = q.autotune(source, LabelledModel(model.model), self.START, policy=q.DynamicSimplex())
        assert unlabelled.iteration_count > 3
        assert unlabelled.to_json_dict() == labelled.to_json_dict()

    def test_model_classifier_gets_no_labels_from_a_simulated_source(self, reference_params):
        spy = _LabelSpy(q.ModelClassifier(q.init_model(0)))
        spy.reads_labels = False
        q.autotune(q.SimulatedDevice(reference_params), spy, self.START)
        assert spy.got_labels and not any(spy.got_labels)

    @pytest.mark.parametrize("inner", [q.OracleClassifier(), q.ModelClassifier(q.init_model(0))])
    def test_a_classifier_that_declares_nothing_gets_labels(self, reference_params, inner):
        spy = _LabelSpy(inner)
        assert not hasattr(spy, "reads_labels")
        q.autotune(q.SimulatedDevice(reference_params), spy, self.START)
        assert spy.got_labels and all(spy.got_labels)

    def test_oracle_classifier_gets_labels_from_a_simulated_source(self, reference_params):
        run = q.autotune(q.SimulatedDevice(reference_params), q.OracleClassifier(), self.START)
        assert run.outcome.kind != "aborted"

    def test_premeasured_crops_keep_their_labels(self, reference_source):
        scan, labels = q.acquire_with_labels(reference_source, (301.0, 330.0), (40.0, 40.0), 2.0, with_labels=False)
        assert labels is not None and labels.shape == scan.shape

    def test_success_scoring_still_reads_labels(self, reference_params):
        source = q.SimulatedDevice(reference_params)
        fraction = q.ground_truth_dd_fraction(source, (300.0, 320.0), (60.0, 60.0), 2.0)
        assert fraction is not None and 0.0 < fraction <= 1.0
