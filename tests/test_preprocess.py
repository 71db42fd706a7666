import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.grids import _check_axis
from qdtune.preprocess import (
    IMAGE_SIZE,
    _flip_correct,
    _gradient,
    _median,
    _normalize_threshold,
    _overlap_weights,
    _quantile,
    _resize,
)

from faults import inject_sensor_flip, on_axes
from stacks import process_scan, process_windows


def make_scan(values, resolution=2.0, axis="v1"):
    values = np.asarray(values, dtype=float)
    n1, n2 = values.shape
    v1 = 100 + (np.arange(n1) + 0.5) * resolution
    v2 = 200 + (np.arange(n2) + 0.5) * resolution
    return q.ScanGrid(values, v1, v2, q.ScanMeta(resolution=resolution, acquisition_axis=axis))


def gradient(scan):
    """The gradient step on the one-window stack of ``scan``."""
    return _gradient(scan.values[None], scan.meta)[0]


def flip_correct(values):
    """The flip-correction step on a one-window stack of a copy of ``values``."""
    return _flip_correct(np.array(values, dtype=float)[None])[0]


def normalize_threshold(values):
    return _normalize_threshold(np.asarray(values, dtype=float)[None])[0]


def resize(values):
    return _resize(np.asarray(values, dtype=float)[None])[0]


class TestGradient:
    def test_linear_ramp_gives_constant_slope(self):
        n = 40
        vals = np.outer(np.arange(n) * 0.5, np.ones(n))
        grad = gradient(make_scan(vals, resolution=2.0))
        np.testing.assert_allclose(grad, 0.25)

    def test_matches_finite_difference(self, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (60.0, 60.0), 2.0)
        grad = gradient(scan)
        expect = np.diff(scan.values, axis=0) / 2.0
        np.testing.assert_array_equal(grad[:-1], expect)
        np.testing.assert_array_equal(grad[-1], expect[-1])

    def test_axis_v2(self):
        vals = np.outer(np.ones(35), np.arange(35) * 1.5)
        grad = gradient(make_scan(vals, resolution=3.0, axis="v2"))
        np.testing.assert_allclose(grad, 0.5)

    def test_too_thin_rejected(self):
        with pytest.raises(q.ShapeError):
            gradient(make_scan(np.zeros((1, 10))))


class TestFlipCorrect:
    def test_positive_input_untouched(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.1, 1.0, size=(30, 30))
        out = flip_correct(vals)
        np.testing.assert_array_equal(out, vals)

    def test_negated_lines_restored(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0.0, 0.05, size=(40, 40))
        vals[10] = 0.9  # one strong bright line
        out = flip_correct(-vals)
        np.testing.assert_array_equal(out, vals)


class TestNormalize:
    def test_output_in_unit_range_with_max_one(self, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (60.0, 60.0), 2.0)
        out = normalize_threshold(flip_correct(gradient(scan)))
        assert out.min() >= 0.0
        assert out.max() == 1.0

    def test_constant_input_maps_to_zero(self):
        out = normalize_threshold(np.full((32, 32), 0.7))
        np.testing.assert_array_equal(out, 0.0)


class TestResize:
    def test_block_mean_exact_for_integer_factor(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 1, size=(60, 60))
        img = resize(vals)
        expect = vals.reshape(30, 2, 30, 2).mean(axis=(1, 3))
        np.testing.assert_allclose(img, expect / expect.max(), atol=1e-12)

    def test_native_size_is_identity_up_to_renormalization(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 1, size=(30, 30))
        img = resize(vals)
        np.testing.assert_allclose(img, vals / vals.max(), atol=1e-12)

    def test_fractional_factor_preserves_mean(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0, 1, size=(47, 53))
        img = resize(vals)
        # row-stochastic weights leave the global mean intact pre-normalization
        assert img.shape == (30, 30)
        assert img.min() >= 0.0
        assert img.max() <= 1.0

    def test_too_small_rejected(self):
        with pytest.raises(q.ShapeError):
            resize(np.zeros((29, 40)))

    def test_overlap_weights_are_row_stochastic(self):
        for n in (30, 31, 45, 60, 200):
            w = _overlap_weights(n)
            assert w.shape == (30, n)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_overlap_weights_are_shared_and_read_only(self):
        w = _overlap_weights(45)
        assert _overlap_weights(45) is w
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


def _allclose_check(axis, resolution):
    """Acceptance by the np.allclose spacing test the grid check used to run."""
    steps = np.diff(axis)
    return bool(np.all(steps > 0) and np.allclose(steps, resolution, rtol=1e-9, atol=1e-9))


class TestGridChecks:
    @given(
        # Near 1e-9 mV the step and the tolerance share an ulp, so a step
        # can land exactly on the tolerance edge.
        resolution=st.one_of(st.floats(1e-6, 1e6), st.floats(5e-10, 2e-9)),
        offsets=st.lists(
            st.one_of(
                st.floats(-3.0, 3.0),
                st.sampled_from([-1.0, 1.0, np.nan, np.inf, -np.inf]),
                st.floats(-1e12, 1e12),
            ),
            min_size=1,
            max_size=6,
        ),
        origin=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    )
    @settings(max_examples=300)
    def test_spacing_test_matches_allclose(self, resolution, offsets, origin):
        """Steps sit ``offset`` tolerances away from the resolution, so
        offsets near +-1 probe the tolerance edge; a one-step axis from 0
        keeps its step exact."""
        tol = 1e-9 + 1e-9 * resolution
        steps = resolution + np.array(offsets) * tol
        with np.errstate(invalid="ignore"):  # inf - inf in cumsum and diff
            axis = origin + np.concatenate([[0.0], np.cumsum(steps)])
            try:
                _check_axis("v1_axis", axis, resolution)
                accepted = True
            except q.ShapeError:
                accepted = False
            assert accepted == _allclose_check(axis, resolution)

    def test_non_finite_resolution_rejected(self):
        for resolution in (np.inf, np.nan, 0.0):
            with pytest.raises(q.ConfigurationError):
                q.ScanMeta(resolution=resolution)


def _same_float(a, b):
    """Equal bit for bit, or both NaN."""
    a, b = np.float64(a), np.float64(b)
    return bool(np.isnan(a) and np.isnan(b)) or a.tobytes() == b.tobytes()


_STAT_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e-300, 1e-300),  # tiny magnitudes, subnormals included
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, float("nan")]),  # ties and signed zeros
)


class TestPartitionStatistics:
    @given(
        values=st.lists(_STAT_VALUES, min_size=1, max_size=120),
        columns=st.integers(1, 3),
        level=st.one_of(st.just(0.9), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=500)
    def test_match_numpy_bit_for_bit(self, values, columns, level):
        values = np.array(values, dtype=float)
        if values.size % columns == 0:
            values = values.reshape(-1, columns)
        # The statistics work on rows; one row holding every value is np.quantile's input.
        row = values.reshape(1, -1)
        with np.errstate(invalid="ignore", over="ignore"):
            assert _same_float(_quantile(row, level)[0], np.quantile(values, level))
            assert _same_float(_median(row)[0], np.median(values))

    def test_nan_gives_nan(self):
        values = np.array([[0.5, float("nan")], [0.25, 1.0]])
        row = values.reshape(1, -1)
        assert np.isnan(_quantile(row, 0.9)[0]) and np.isnan(_median(row)[0])

    def test_input_left_unchanged(self):
        values = np.array([[3.0, 1.0], [2.0, 0.0]])
        _quantile(values, 0.9), _median(values)
        np.testing.assert_array_equal(values, [[3.0, 1.0], [2.0, 0.0]])


class TestProcess:
    def test_shape_and_range(self, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (60.0, 60.0), 2.0)
        img = process_scan(scan)
        assert img.shape == (IMAGE_SIZE, IMAGE_SIZE)
        assert img.min() >= 0.0
        assert img.max() <= 1.0

    def test_flip_invariance_bit_exact(self, reference_params):
        scan, _ = q.render_scan(
            reference_params, (310.0, 330.0), (60.0, 60.0), 2.0, with_noise=True, noise_seed=7
        )
        a = process_scan(scan)
        b = process_scan(inject_sensor_flip(scan))
        np.testing.assert_array_equal(a, b)

    @given(seed=st.integers(0, 10_000), c1=st.integers(10, 50), c2=st.integers(10, 50))
    @settings(max_examples=30)
    def test_flip_invariance_random_devices(self, seed, c1, c2):
        params = q.sample_device(seed)
        scan, _ = q.render_scan(params, (250 + c1, 250 + c2), (60.0, 60.0), 2.0)
        a = process_scan(scan)
        b = process_scan(inject_sensor_flip(scan))
        np.testing.assert_array_equal(a, b)

    @given(k=st.integers(-6, 6))
    @settings(max_examples=13)
    def test_power_of_two_scale_invariance(self, k, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (60.0, 60.0), 2.0)
        scaled = on_axes(scan, scan.values * 2.0**k)
        a = process_scan(scan)
        b = process_scan(scaled)
        np.testing.assert_array_equal(a, b)

    def test_general_scale_invariance_close(self, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (60.0, 60.0), 2.0)
        scaled = on_axes(scan, scan.values * 3.7)
        np.testing.assert_allclose(process_scan(scaled), process_scan(scan), atol=1e-12)

    def test_line_orientation_separates_window_types(self, reference_params):
        """Left-dot lines cut the v1 axis steeply, right-dot lines barely.

        The statistic has a v1 bias (the image is a v1-derivative), so
        only the ordering between window types is asserted, not
        absolute thresholds.
        """

        def ratio(center, expect_label):
            scan, labels = q.render_scan(reference_params, center, (60.0, 60.0), 2.0)
            assert (labels.labels == expect_label).all()
            img = process_scan(scan)
            along_v1 = np.abs(np.diff(img, axis=0)).sum()
            along_v2 = np.abs(np.diff(img, axis=1)).sum()
            return along_v1 / along_v2

        left = ratio((500.0, 250.0), q.StateLabel.SINGLE_LEFT)
        right = ratio((250.0, 500.0), q.StateLabel.SINGLE_RIGHT)
        dd = ratio((300.0, 320.0), q.StateLabel.DOUBLE_DOT)
        assert left > dd > right
        assert left > 2 * right


# --- the per-window pipeline before stacks, kept as the reference ----------------


def _reference_quantile(values, q):
    n = values.size
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    weight = virtual - below
    part = np.partition(values, sorted({0, -1, below, above}), axis=None)
    if math.isnan(part[-1]):
        return math.nan
    a, b = float(part[below]), float(part[above])
    diff = b - a
    return b - diff * (1.0 - weight) if weight >= 0.5 else a + diff * weight


def _reference_median(values):
    n = values.size
    half = n // 2
    kth = (half, -1) if n % 2 else (half - 1, half, -1)
    part = np.partition(values, kth, axis=None)
    if math.isnan(part[-1]):
        return math.nan
    if n % 2:
        return 0.0 + float(part[half])
    return (0.0 + float(part[half - 1]) + float(part[half])) / 2.0


def _reference_process(scan):
    """gradient -> flip -> normalize -> resize on one 2-d window, as
    ``process`` computed it one window at a time."""
    axis = 0 if scan.meta.acquisition_axis == "v1" else 1
    grad = np.diff(scan.values, axis=axis) / scan.meta.resolution
    last = grad[-1:, :] if axis == 0 else grad[:, -1:]
    grad = np.concatenate([grad, last], axis=axis)

    magnitude = np.abs(grad)
    strongest = grad[magnitude >= _reference_quantile(magnitude, 0.9)]
    mean = strongest.mean() if strongest.size else 0.0
    if mean == 0.0:
        nonzero = grad[grad != 0.0]
        mean = nonzero.flat[0] if nonzero.size else 0.0
    if mean < 0.0:
        grad = -grad

    values = np.maximum(grad, 0.0)
    values = np.maximum(values - _reference_median(values), 0.0)
    peak = values.max()
    if peak > 0.0:
        values = values / peak

    n, m = values.shape
    out = _overlap_weights(n) @ values @ _overlap_weights(m).T
    out = np.clip(out, 0.0, 1.0)
    peak = out.max()
    if peak > 0.0:
        out = out / peak
    return np.clip(out, 0.0, 1.0)


def _window(kind, rng, shape, seed):
    """Raw values of one test window of the given kind."""
    n, m = shape
    if kind == "device":
        params = q.sample_device(seed)
        center = tuple(rng.uniform(100.0, 500.0, size=2))
        scan, _ = q.render_scan(params, center, (2.0 * n, 2.0 * m), 2.0, with_noise=True, noise_seed=seed)
        return scan.values
    if kind == "random":
        return rng.normal(0.0, 1.0, size=shape) * 2.0 ** int(rng.integers(-20, 20))
    if kind == "constant":
        return np.full(shape, float(rng.choice([0.0, -0.0, 1.5, -3.25])))
    # Symmetric: the right half mirrors the left half's negation in small
    # integers, so the strongest gradients sum to exactly zero and the flip
    # falls back to the sign of the first nonzero pixel.
    left = rng.integers(-4, 5, size=(n, m // 2)).astype(float)
    return np.concatenate([left, -left, np.zeros((n, m % 2))], axis=1)


_KINDS = ("device", "random", "constant", "symmetric")


class TestStackedProcess:
    @given(
        count=st.sampled_from([1, 2, 17]),
        shape=st.sampled_from([(30, 30), (31, 31), (33, 47), (45, 30), (60, 60), (61, 75)]),
        axis=st.sampled_from(["v1", "v2"]),
        seed=st.integers(0, 2**31 - 1),
        kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_matches_the_per_window_pipeline_byte_for_byte(self, count, shape, axis, seed, kinds):
        rng = np.random.default_rng(seed)
        windows = []
        for k in range(count):
            values = _window(kinds[k % len(kinds)], rng, shape, seed + k)
            if rng.integers(2):
                values = -values  # a sensor of the other polarity
            windows.append(make_scan(values, resolution=2.0, axis=axis))
        images = process_windows(windows)
        assert images.shape == (count, IMAGE_SIZE, IMAGE_SIZE)
        for window, image in zip(windows, images):
            expect = _reference_process(window).tobytes()
            assert image.tobytes() == expect
            assert process_scan(window).tobytes() == expect

    def test_symmetric_windows_reach_the_first_pixel_fallback(self):
        """The strategy above does exercise _flip_correct's zero-mean branch."""
        values = _window("symmetric", np.random.default_rng(0), (40, 40), 0)
        grad = gradient(make_scan(values))
        magnitude = np.abs(grad)
        assert grad[magnitude >= np.quantile(magnitude, 0.9)].mean() == 0.0
        assert process_scan(make_scan(values)).tobytes() == _reference_process(make_scan(values)).tobytes()

    def test_a_stack_that_is_not_3d_or_holds_no_window_is_refused(self):
        for shape in [(30, 30), (2, 3, 30, 30), (0, 30, 30)]:
            with pytest.raises(q.ShapeError, match=r"\(N, n, m\) stack of at least one window"):
                q.process(np.zeros(shape), q.ScanMeta(2.0))

    def test_a_stack_of_any_layout_gives_the_same_bytes(self):
        """Strided sliding-window views, and windows stored column by column,
        are processed as their C-contiguous copy is."""
        values = np.random.default_rng(3).normal(size=(70, 64))
        meta = q.ScanMeta(2.0)
        views = np.lib.stride_tricks.sliding_window_view(values, (33, 31))[5, ::3]
        columns = np.ascontiguousarray(views.transpose(0, 2, 1)).transpose(0, 2, 1)
        expect = q.process(np.ascontiguousarray(views), meta).tobytes()
        assert q.process(views, meta).tobytes() == q.process(columns, meta).tobytes() == expect


class TestNonFinitePixels:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_window_is_refused_on_entry(self, bad, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (60.0, 60.0), 2.0)
        values = scan.values.copy()
        values[7, 11] = bad
        with pytest.raises(q.ShapeError, match="sensor values are not finite"):
            process_scan(on_axes(scan, values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_window_of_a_stack_is_named(self, bad):
        rng = np.random.default_rng(1)
        windows = [make_scan(rng.normal(size=(30, 30))) for _ in range(5)]
        values = windows[3].values.copy()
        values[0, 29] = bad
        windows[3] = on_axes(windows[3], values)
        with pytest.raises(q.ShapeError, match="not finite: NaN or infinite pixels in window 3 of 5"):
            process_windows(windows)
