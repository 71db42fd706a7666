import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.scans import SCAN_SUFFIX, Blocked, Sandbox, _crop_start

NAN, INF = float("nan"), float("inf")


class TestSandbox:
    def test_contains_window(self):
        box = Sandbox()
        assert box.contains_window((300, 300), (60, 60))
        assert box.contains_window((30, 570), (60, 60))
        assert not box.contains_window((20, 300), (60, 60))
        assert not box.contains_window((300, 580), (60, 60))

    @pytest.mark.parametrize(
        "center, span",
        [((NAN, 300.0), (60.0, 60.0)), ((300.0, NAN), (60.0, 60.0)), ((300.0, 300.0), (NAN, 60.0)),
         ((INF, 300.0), (60.0, 60.0)), ((300.0, -INF), (60.0, 60.0)), ((300.0, 300.0), (60.0, INF))],
        ids=["nan-v1", "nan-v2", "nan-span", "inf-v1", "-inf-v2", "inf-span"],
    )
    def test_non_finite_window_refused_for_both_sources(self, center, span, reference_source, reference_params):
        assert not Sandbox().contains_window(center, span)
        for source in (q.SimulatedDevice(reference_params), reference_source):
            got = q.acquire_with_labels(source, center, span, 2.0)
            assert isinstance(got, Blocked)
            assert got.reason == "window center or span is not finite"

    def test_contains_point_includes_edges(self):
        box = Sandbox(v1_range=(100.0, 500.0), v2_range=(0.0, 600.0))
        assert box.contains_point((100.0, 0.0))
        assert box.contains_point((500.0, 600.0))
        assert not box.contains_point((99.9, 300.0))
        assert not box.contains_point((300.0, 600.1))

    def test_acquire_blocked_outside(self, reference_params):
        source = q.SimulatedDevice(reference_params)
        got = q.acquire(source, (10.0, 300.0), (60.0, 60.0), 2.0)
        assert isinstance(got, Blocked)
        assert got.reason

    @given(
        c1=st.floats(-100, 700),
        c2=st.floats(-100, 700),
    )
    @settings(max_examples=60)
    def test_blocked_iff_window_leaves_sandbox(self, c1, c2, reference_params):
        source = q.SimulatedDevice(reference_params)
        span = (60.0, 60.0)
        got = q.acquire(source, (c1, c2), span, 2.0)
        inside = (
            0 <= c1 - 30 and c1 + 30 <= 600 and 0 <= c2 - 30 and c2 + 30 <= 600
        )
        assert isinstance(got, Blocked) == (not inside)


class TestSimulatedAcquire:
    def test_matches_render_scan(self, reference_params):
        source = q.SimulatedDevice(reference_params)
        got = q.acquire(source, (300.0, 320.0), (40.0, 40.0), 2.0)
        direct, _ = q.render_scan(reference_params, (300.0, 320.0), (40.0, 40.0), 2.0)
        np.testing.assert_array_equal(got.values, direct.values)

    def test_labels_come_along(self, reference_params):
        source = q.SimulatedDevice(reference_params)
        scan, labels = q.acquire_with_labels(source, (300.0, 320.0), (40.0, 40.0), 2.0)
        assert labels is not None
        assert labels.shape == scan.shape
        # plain acquire drops them
        assert isinstance(q.acquire(source, (300.0, 320.0), (40.0, 40.0), 2.0), q.ScanGrid)


class TestPremeasuredCrop:
    def test_crop_equals_direct_slice(self, reference_scan):
        scan, labels = reference_scan
        source = q.PremeasuredScan(scan, labels)
        # center (206, 230): native pixel centers, 20x10 px window
        got, got_labels = q.acquire_with_labels(source, (206.0, 230.0), (40.0, 20.0), 2.0)
        i0 = int(np.argmin(np.abs(scan.v1_axis - 206.0))) - 10
        j0 = int(np.argmin(np.abs(scan.v2_axis - 230.0))) - 5
        np.testing.assert_array_equal(got.values, scan.values[i0:i0 + 20, j0:j0 + 10])
        np.testing.assert_array_equal(got.v1_axis, scan.v1_axis[i0:i0 + 20])
        np.testing.assert_array_equal(got_labels.labels, labels.labels[i0:i0 + 20, j0:j0 + 10])

    def test_center_snaps_to_nearest_pixel(self, reference_scan):
        scan, labels = reference_scan
        source = q.PremeasuredScan(scan, labels)
        a = q.acquire(source, (206.0, 230.0), (40.0, 40.0), 2.0)
        b = q.acquire(source, (206.7, 229.4), (40.0, 40.0), 2.0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_coarser_resolution_strides(self, reference_scan):
        scan, labels = reference_scan
        source = q.PremeasuredScan(scan, labels)
        fine = q.acquire(source, (301.0, 330.0), (80.0, 80.0), 2.0)
        coarse = q.acquire(source, (301.0, 330.0), (80.0, 80.0), 4.0)
        assert coarse.shape == (20, 20)
        np.testing.assert_array_equal(coarse.values, fine.values[::2, ::2])
        assert coarse.meta.resolution == 4.0

    def test_finer_resolution_rejected(self, reference_source):
        with pytest.raises(q.UnsupportedResolutionError):
            q.acquire(reference_source, (300.0, 330.0), (40.0, 40.0), 1.0)

    def test_non_integer_stride_rejected(self, reference_source):
        with pytest.raises(q.UnsupportedResolutionError):
            q.acquire(reference_source, (300.0, 330.0), (60.0, 60.0), 3.0)

    def test_window_off_raster_blocked(self, reference_scan):
        scan, labels = reference_scan
        source = q.PremeasuredScan(scan, labels)
        # sandbox allows it, but the stored scan starts at 125 mV
        got = q.acquire(source, (50.0, 300.0), (60.0, 60.0), 2.0)
        assert isinstance(got, Blocked)

    @given(
        i=st.integers(20, 120),
        j=st.integers(20, 120),
        w=st.integers(2, 18),
    )
    @settings(max_examples=40)
    def test_crop_values_are_stored_values(self, i, j, w, reference_scan):
        scan, labels = reference_scan
        source = q.PremeasuredScan(scan, labels)
        center = (float(scan.v1_axis[i]), float(scan.v2_axis[j]))
        res = scan.meta.resolution
        got = q.acquire(source, center, (2 * w * res, 2 * w * res), res)
        assert not isinstance(got, Blocked)
        i0, j0 = i - w, j - w
        np.testing.assert_array_equal(got.values, scan.values[i0:i0 + 2 * w, j0:j0 + 2 * w])


def _argmin_crop(source, center, span, resolution):
    """The premeasured crop as it was first written: a full ``np.argmin``
    scan for the nearest pixel and ``np.ix_`` fancy indexing, every grid
    validated. None when the window runs off the raster."""
    scan = source.scan
    stride = int(round(resolution / scan.meta.resolution))
    index = []
    for axis, c, extent in zip((scan.v1_axis, scan.v2_axis), center, span):
        count = int(round(extent / resolution))
        nearest = int(np.argmin(np.abs(axis - c)))
        idx = nearest - (count * stride) // 2 + stride * np.arange(count)
        if idx[0] < 0 or idx[-1] >= axis.size:
            return None
        index.append(idx)
    i1, i2 = index
    v1, v2 = scan.v1_axis[i1], scan.v2_axis[i2]
    meta = q.ScanMeta(resolution=scan.meta.resolution * stride, acquisition_axis=scan.meta.acquisition_axis)
    return (
        q.ScanGrid(scan.values[np.ix_(i1, i2)], v1, v2, meta),
        q.LabelGrid(source.labels.labels[np.ix_(i1, i2)], v1, v2),
    )


def _center_coordinate(axis, kind, offset):
    """A window-center coordinate of the given kind along a stored axis."""
    res = float(axis[1] - axis[0])
    k = int(offset * (axis.size - 1))
    if kind == "pixel":
        return float(axis[k])
    if kind == "tie":  # exactly half way between two stored pixel centers
        return float(axis[min(k, axis.size - 2)]) + res / 2.0
    if kind == "off":  # anywhere, on or near the raster
        return float(axis[0]) - 40.0 + offset * (float(axis[-1] - axis[0]) + 80.0)
    return float(axis[0]) + (offset - 0.5) * 1e7  # far outside


class TestCropEquivalence:
    """Slice-view crops against the ``np.argmin``/``np.ix_`` crop they replace."""

    @given(
        kinds=st.tuples(*[st.sampled_from(["pixel", "tie", "off", "far"])] * 2),
        offsets=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        pixels=st.tuples(st.integers(1, 45), st.integers(1, 45)),
        stride=st.sampled_from([1, 2]),
    )
    @settings(max_examples=400)
    def test_same_window_axes_meta_and_refusals(self, kinds, offsets, pixels, stride, reference_source):
        scan = reference_source.scan
        resolution = scan.meta.resolution * stride
        center = tuple(
            _center_coordinate(axis, kind, offset)
            for axis, kind, offset in zip((scan.v1_axis, scan.v2_axis), kinds, offsets)
        )
        span = (pixels[0] * resolution, pixels[1] * resolution)
        everywhere = Sandbox(v1_range=(-1e9, 1e9), v2_range=(-1e9, 1e9))
        got = q.acquire_with_labels(reference_source, center, span, resolution, everywhere)
        expect = _argmin_crop(reference_source, center, span, resolution)
        if expect is None:
            assert got == Blocked("window falls outside the stored raster")
            return
        (g_scan, g_labels), (e_scan, e_labels) = got, expect
        for a, b in ((g_scan.values, e_scan.values), (g_scan.v1_axis, e_scan.v1_axis),
                     (g_scan.v2_axis, e_scan.v2_axis), (g_labels.labels, e_labels.labels),
                     (g_labels.v1_axis, e_labels.v1_axis), (g_labels.v2_axis, e_labels.v2_axis)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert g_scan.meta == e_scan.meta

    @given(
        steps=st.lists(st.floats(1e-13, 1e-9), min_size=1, max_size=40),
        position=st.floats(-0.2, 1.2),
        count=st.integers(1, 4),
    )
    @settings(max_examples=300)
    def test_nearest_pixel_on_uneven_tiny_spacing(self, steps, position, count):
        """At a 1e-12 mV spacing the axis check lets each step lie anywhere
        up to 1e-9 mV, so the arithmetic guess can be far off; the result
        must still be ``np.argmin``'s first nearest pixel."""
        axis = np.concatenate([[0.0], np.cumsum(steps)])
        q.ScanGrid(np.zeros((axis.size, 1)), axis, np.zeros(1), q.ScanMeta(1e-12))
        center = position * float(axis[-1])
        start = _crop_start(axis, 1e-12, center, count, 1)
        nearest = int(np.argmin(np.abs(axis - center)))
        first = nearest - count // 2
        assert start == (first if 0 <= first and first + count - 1 < axis.size else None)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_crops_are_read_only_views(self, stride, reference_source):
        scan, labels = q.acquire_with_labels(reference_source, (301.0, 330.0), (40.0, 40.0), 2.0 * stride)
        assert np.shares_memory(scan.values, reference_source.scan.values)
        assert np.shares_memory(labels.labels, reference_source.labels.labels)
        for array in (scan.values, scan.v1_axis, scan.v2_axis, labels.labels, labels.v1_axis, labels.v2_axis):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            scan.values[0, 0] = 1.0

    def test_stride_one_crop_shares_metadata_and_skips_checks(self, reference_source, monkeypatch):
        def refuse(self):
            raise AssertionError("a stride-1 crop validated a grid")

        monkeypatch.setattr(q.ScanGrid, "__post_init__", refuse)
        monkeypatch.setattr(q.LabelGrid, "__post_init__", refuse)
        scan, labels = q.acquire_with_labels(reference_source, (301.0, 330.0), (40.0, 40.0), 2.0)
        assert scan.meta is reference_source.scan.meta
        assert scan.shape == labels.shape == (20, 20)

    def test_trusted_crop_takes_unit_steps_only(self, reference_source):
        with pytest.raises(q.ShapeError):
            reference_source.scan.crop(slice(0, 10, 2), slice(0, 10))
        with pytest.raises(q.ShapeError):
            reference_source.labels.crop(slice(0, 10), slice(0, 10, 2))

    @pytest.mark.parametrize("span", [(0.0, 60.0), (60.0, -60.0)], ids=["zero", "negative"])
    def test_window_below_one_pixel_rejected(self, span, reference_source):
        with pytest.raises(q.ConfigurationError, match="below one"):
            q.acquire(reference_source, (300.0, 330.0), span, 2.0)


class TestSensorFlip:
    def test_negates_values_and_is_involutive(self, reference_scan):
        scan, _ = reference_scan
        flipped = q.inject_sensor_flip(scan)
        np.testing.assert_array_equal(flipped.values, -scan.values)
        back = q.inject_sensor_flip(flipped)
        np.testing.assert_array_equal(back.values, scan.values)
        np.testing.assert_array_equal(flipped.v1_axis, scan.v1_axis)


class TestScanFile:
    def test_round_trip_bit_exact(self, tmp_path, reference_params):
        scan, labels = q.render_scan(
            reference_params, (300.0, 320.0), (50.0, 50.0), 2.0, with_noise=True, noise_seed=3
        )
        path = tmp_path / f"win{SCAN_SUFFIX}"
        q.save_scan(scan, path, labels)
        scan2, labels2 = q.load_scan(path)
        np.testing.assert_array_equal(scan2.values, scan.values)
        np.testing.assert_array_equal(scan2.v1_axis, scan.v1_axis)
        np.testing.assert_array_equal(scan2.v2_axis, scan.v2_axis)
        np.testing.assert_array_equal(labels2.labels, labels.labels)
        assert scan2.meta == scan.meta

    def test_round_trip_without_labels(self, tmp_path, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (20.0, 20.0), 2.0)
        path = tmp_path / f"bare{SCAN_SUFFIX}"
        q.save_scan(scan, path)
        scan2, labels2 = q.load_scan(path)
        assert labels2 is None
        np.testing.assert_array_equal(scan2.values, scan.values)

    def test_label_code_table_is_stable(self, tmp_path, reference_params):
        scan, labels = q.render_scan(reference_params, (300.0, 320.0), (20.0, 20.0), 2.0)
        path = tmp_path / f"codes{SCAN_SUFFIX}"
        q.save_scan(scan, path, labels)
        doc = json.loads(path.read_text())
        assert doc["label_codes"] == {
            "NO_DOT": 0,
            "SINGLE_LEFT": 1,
            "SINGLE_CENTRAL": 2,
            "SINGLE_RIGHT": 3,
            "DOUBLE_DOT": 4,
        }

    def test_version_mismatch(self, tmp_path, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (20.0, 20.0), 2.0)
        path = tmp_path / f"v9{SCAN_SUFFIX}"
        q.save_scan(scan, path)
        doc = json.loads(path.read_text())
        doc["version"] = "9"
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanVersionError):
            q.load_scan(path)

    @pytest.mark.parametrize(
        "mutate", ["drop_field", "bad_base64", "truncate_blob", "not_qdscan", "infinite_resolution"]
    )
    def test_corrupt_documents_rejected(self, tmp_path, reference_params, mutate):
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (20.0, 20.0), 2.0)
        path = tmp_path / f"bad{SCAN_SUFFIX}"
        q.save_scan(scan, path)
        doc = json.loads(path.read_text())
        if mutate == "drop_field":
            del doc["values"]
        elif mutate == "bad_base64":
            doc["values"] = "!!notbase64!!"
        elif mutate == "truncate_blob":
            doc["values"] = doc["values"][: len(doc["values"]) // 2 // 4 * 4]
        elif mutate == "infinite_resolution":
            doc["resolution_mv"] = float("inf")
        else:
            doc["format"] = "something-else"
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError):
            q.load_scan(path)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    @pytest.mark.parametrize("everywhere", [True, False], ids=["all", "one_pixel"])
    def test_non_finite_values_rejected(self, tmp_path, reference_params, bad, everywhere):
        scan, labels = q.render_scan(reference_params, (300.0, 320.0), (20.0, 20.0), 2.0)
        values = np.full(scan.shape, bad) if everywhere else scan.values.copy()
        values[3, 4] = bad
        path = tmp_path / f"bad{SCAN_SUFFIX}"
        q.save_scan(scan.with_values(values), path, labels)
        with pytest.raises(q.ScanFormatError, match="'values'"):
            q.load_scan(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(q.ScanFormatError):
            q.load_scan(tmp_path / "nope.qdscan.json")
