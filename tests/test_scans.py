import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.scans import SCAN_SUFFIX, Blocked, Sandbox, _crop_start

from faults import inject_sensor_flip, on_axes

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
        got = q.acquire_with_labels(source, (10.0, 300.0), (60.0, 60.0), 2.0)
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
        got = q.acquire_with_labels(source, (c1, c2), span, 2.0)
        inside = (
            0 <= c1 - 30 and c1 + 30 <= 600 and 0 <= c2 - 30 and c2 + 30 <= 600
        )
        assert isinstance(got, Blocked) == (not inside)


class TestSimulatedAcquire:
    def test_matches_render_scan(self, reference_params):
        source = q.SimulatedDevice(reference_params)
        got, _ = q.acquire_with_labels(source, (300.0, 320.0), (40.0, 40.0), 2.0)
        direct, _ = q.render_scan(reference_params, (300.0, 320.0), (40.0, 40.0), 2.0)
        np.testing.assert_array_equal(got.values, direct.values)

    def test_labels_come_along(self, reference_params):
        source = q.SimulatedDevice(reference_params)
        scan, labels = q.acquire_with_labels(source, (300.0, 320.0), (40.0, 40.0), 2.0)
        assert labels is not None
        assert labels.shape == scan.shape
        assert isinstance(scan, q.ScanGrid)


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
        a, _ = q.acquire_with_labels(source, (206.0, 230.0), (40.0, 40.0), 2.0)
        b, _ = q.acquire_with_labels(source, (206.7, 229.4), (40.0, 40.0), 2.0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_coarser_resolution_strides(self, reference_scan):
        scan, labels = reference_scan
        source = q.PremeasuredScan(scan, labels)
        fine, _ = q.acquire_with_labels(source, (301.0, 330.0), (80.0, 80.0), 2.0)
        coarse, _ = q.acquire_with_labels(source, (301.0, 330.0), (80.0, 80.0), 4.0)
        assert coarse.shape == (20, 20)
        np.testing.assert_array_equal(coarse.values, fine.values[::2, ::2])
        assert coarse.meta.resolution == 4.0

    def test_finer_resolution_rejected(self, reference_source):
        with pytest.raises(q.UnsupportedResolutionError):
            q.acquire_with_labels(reference_source, (300.0, 330.0), (40.0, 40.0), 1.0)

    def test_non_integer_stride_rejected(self, reference_source):
        with pytest.raises(q.UnsupportedResolutionError):
            q.acquire_with_labels(reference_source, (300.0, 330.0), (60.0, 60.0), 3.0)

    def test_window_off_raster_blocked(self, reference_scan):
        scan, labels = reference_scan
        source = q.PremeasuredScan(scan, labels)
        # sandbox allows it, but the stored scan starts at 125 mV
        got = q.acquire_with_labels(source, (50.0, 300.0), (60.0, 60.0), 2.0)
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
        got = q.acquire_with_labels(source, center, (2 * w * res, 2 * w * res), res)
        assert not isinstance(got, Blocked)
        got, _ = got
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
        origin=st.sampled_from([0.0, 1e6]),
        kind=st.sampled_from(["position", "midpoint", "far above", "far below"]),
    )
    @settings(max_examples=300)
    def test_nearest_pixel_on_uneven_tiny_spacing(self, steps, position, count, origin, kind):
        """At a 1e-12 mV spacing the axis check lets each step lie anywhere
        up to 1e-9 mV; near 1e6 mV, where one float step is about 1.2e-10 mV,
        the steps are whole float steps of a 1e-10 mV axis. A center half way
        between two pixels, or 1e20 mV away, where every distance rounds to
        the same value, gives equal distances. The result must be
        ``np.argmin``'s first nearest pixel."""
        if origin == 0.0:
            axis, resolution = np.concatenate([[0.0], np.cumsum(steps)]), 1e-12
        else:
            ulp = np.spacing(origin)
            whole = np.maximum(np.round(np.array(steps) / ulp), 1.0)
            axis, resolution = origin + ulp * np.concatenate([[0.0], np.cumsum(whole)]), 1e-10
        q.ScanGrid(np.zeros((axis.size, 1)), axis, np.zeros(1), q.ScanMeta(resolution))
        if kind == "position":
            center = float(axis[0]) + position * float(axis[-1] - axis[0])
        elif kind == "midpoint":
            k = min(max(int(position * (axis.size - 1)), 0), axis.size - 2)
            center = (float(axis[k]) + float(axis[k + 1])) / 2.0
        else:
            center = 1e20 if kind == "far above" else -1e20
        start = _crop_start(axis.tolist(), center, count, 1)
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

    @pytest.mark.parametrize("stride", [1, 2])
    def test_stride_one_crop_shares_metadata_and_skips_checks(self, stride, reference_source, monkeypatch):
        """A window of any stride is views of axes checked when the source was
        built; only a stride-1 window keeps the stored metadata and its place
        in the tally."""

        def refuse(self):
            raise AssertionError("a crop validated a grid")

        monkeypatch.setattr(q.ScanGrid, "__post_init__", refuse)
        monkeypatch.setattr(q.LabelGrid, "__post_init__", refuse)
        scan, labels = q.acquire_with_labels(reference_source, (301.0, 330.0), (40.0, 40.0), 2.0 * stride)
        assert scan.shape == labels.shape == (20 // stride, 20 // stride)
        if stride == 1:
            assert scan.meta is reference_source.scan.meta
            assert labels.stored_at[0] is reference_source.tally
        else:
            assert scan.meta == q.ScanMeta(2.0 * stride, reference_source.scan.meta.acquisition_axis)
            assert labels.stored_at is None

    def test_strided_labels_are_not_checked_again(self, reference_source, monkeypatch):
        def refuse(self):
            raise AssertionError("a strided window checked the stored codes")

        _, fine = q.acquire_with_labels(reference_source, (301.0, 330.0), (40.0, 40.0), 2.0)
        monkeypatch.setattr(q.LabelGrid, "__post_init__", refuse)
        scan, labels = q.acquire_with_labels(reference_source, (301.0, 330.0), (40.0, 40.0), 4.0)
        assert labels.v1_axis is scan.v1_axis and labels.v2_axis is scan.v2_axis
        np.testing.assert_array_equal(labels.labels, fine.labels[::2, ::2])

    def test_a_write_through_the_callers_values_reaches_no_window(self, reference_scan):
        """The source copies the sensor values and axes it is given: a later
        write through the caller's arrays changes no window and no run."""
        scan, labels = reference_scan
        values, v1, v2 = scan.values.copy(), scan.v1_axis.copy(), scan.v2_axis.copy()
        source = q.PremeasuredScan(q.ScanGrid(values, v1, v2, scan.meta), labels)
        classifier = q.ModelClassifier(q.init_model(0))
        window = q.acquire_with_labels(source, (350.0, 400.0), (60.0, 60.0), 2.0)[0].values.copy()
        before = json.dumps(q.autotune(source, classifier, (350.0, 400.0)).to_json_dict())
        values[:] = values[::-1]
        v1 += 100.0
        v2 -= 100.0
        again = q.acquire_with_labels(source, (350.0, 400.0), (60.0, 60.0), 2.0)[0].values
        assert again.tobytes() == window.tobytes()
        assert json.dumps(q.autotune(source, classifier, (350.0, 400.0)).to_json_dict()) == before
        for array in (source.scan.values, source.scan.v1_axis, source.scan.v2_axis):
            assert not array.flags.writeable

    @pytest.mark.parametrize("axis", ["v1_axis", "v2_axis"])
    def test_labels_on_other_axes_refused(self, axis, reference_scan):
        """Labels 300 mV away from the scan would score every window at the wrong voltages."""
        scan, labels = reference_scan
        axes = {"v1_axis": labels.v1_axis, "v2_axis": labels.v2_axis}
        axes[axis] = axes[axis] + 300.0
        with pytest.raises(q.ShapeError, match=axis):
            q.PremeasuredScan(scan, q.LabelGrid(labels.labels, **axes))

    def test_every_stride_of_an_uneven_axis_the_scan_check_accepted(self, reference_scan):
        """v1 steps of 2 + 2.9e-9 mV pass the check of a 2 mV scan, so every
        window of that scan is delivered: a strided window's steps are the
        stored ones times the stride, and are not checked again."""
        scan, labels = reference_scan
        v1 = scan.v1_axis[0] + np.arange(scan.shape[0]) * (2.0 + 2.9e-9)
        source = q.PremeasuredScan(
            q.ScanGrid(scan.values, v1, scan.v2_axis, scan.meta), q.LabelGrid(labels.labels, v1, scan.v2_axis)
        )
        for stride in range(1, 20):
            resolution = 2.0 * stride
            got = q.acquire_with_labels(source, (325.0, 350.0), (10 * resolution, 10 * resolution), resolution)
            assert not isinstance(got, Blocked), stride
            window, window_labels = got
            assert window.shape == window_labels.shape == (10, 10)
            assert window.meta.resolution == resolution
            rows = np.searchsorted(v1, window.v1_axis)
            assert (v1[rows] == window.v1_axis).all() and (np.diff(rows) == stride).all()
        run = q.autotune(source, q.OracleClassifier(), (350.0, 400.0), resolution=4.0)
        assert run.outcome.kind != "aborted"

    @pytest.mark.parametrize("span", [(0.0, 60.0), (60.0, -60.0)], ids=["zero", "negative"])
    def test_window_below_one_pixel_rejected(self, span, reference_source):
        with pytest.raises(q.ConfigurationError, match="below one"):
            q.acquire_with_labels(reference_source, (300.0, 330.0), span, 2.0)


class TestSensorFlip:
    def test_negates_values_and_is_involutive(self, reference_scan):
        scan, _ = reference_scan
        flipped = inject_sensor_flip(scan)
        np.testing.assert_array_equal(flipped.values, -scan.values)
        back = inject_sensor_flip(flipped)
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

    @pytest.mark.parametrize("label_center, axis", [((310.0, 320.0), "v1_axis"), ((300.0, 300.0), "v2_axis")])
    def test_labels_on_other_axes_are_not_written(self, tmp_path, reference_params, label_center, axis):
        """Labels of the scan's shape rendered elsewhere would load with their
        codes at the wrong voltages; the file refuses them as the source does."""
        scan, _ = q.render_scan(reference_params, (300.0, 320.0), (20.0, 20.0), 2.0)
        _, labels = q.render_scan(reference_params, label_center, (20.0, 20.0), 2.0)
        assert labels.shape == scan.shape
        path = tmp_path / f"moved{SCAN_SUFFIX}"
        with pytest.raises(q.ShapeError, match=f"label raster {axis} does not match") as saved:
            q.save_scan(scan, path, labels)
        assert not path.exists()
        with pytest.raises(q.ShapeError) as built:
            q.PremeasuredScan(scan, labels)
        assert str(saved.value) == str(built.value)

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
        q.save_scan(on_axes(scan, values), path, labels)
        with pytest.raises(q.ScanFormatError, match="'values'"):
            q.load_scan(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(q.ScanFormatError):
            q.load_scan(tmp_path / "nope.qdscan.json")


def _window_bytes(result):
    scan, labels = result
    return (
        scan.values.tobytes(), scan.v1_axis.tobytes(), scan.v2_axis.tobytes(), scan.meta,
        labels.labels.tobytes(), labels.stored_at,
    )


class TestWindowPlan:
    """A stored scan works out a window's stride, pixel counts and metadata
    once per span and resolution, and keeps only what passed its checks."""

    @pytest.mark.parametrize(
        "resolution, match",
        [(1.0, "finer than the stored raster"), (3.0, "not an integer multiple"), (NAN, "not finite"),
         (INF, "not finite")],
        ids=["finer", "fraction", "nan", "inf"],
    )
    def test_a_bad_resolution_raises_on_every_call(self, resolution, match, reference_scan):
        source = q.PremeasuredScan(*reference_scan)
        q.acquire_with_labels(source, (301.0, 330.0), (60.0, 60.0), 2.0)  # a good plan first
        for _ in range(3):
            with pytest.raises(q.UnsupportedResolutionError, match=match):
                q.acquire_with_labels(source, (301.0, 330.0), (60.0, 60.0), resolution)
        assert list(source._plans) == [(60.0, 60.0, 2.0)]

    @pytest.mark.parametrize("span", [(61.0, 60.0), (60.0, 0.5), [60.0, 61.0], np.array([61.0, 61.0])])
    def test_a_span_of_part_pixels_raises_on_every_call(self, span, reference_scan):
        source = q.PremeasuredScan(*reference_scan)
        for _ in range(3):
            with pytest.raises(q.ConfigurationError, match=r"span (61|0\.5)"):
                q.acquire_with_labels(source, (301.0, 330.0), span, 2.0)
        assert source._plans == {}

    @pytest.mark.parametrize("resolution", [2.0, 4.0, 6.0])
    def test_list_and_numpy_spans_give_the_tuple_windows(self, resolution, reference_scan):
        source = q.PremeasuredScan(*reference_scan)
        for center in ((301.0, 330.0), (250.0, 420.0), (477.0, 199.0)):
            expect = _window_bytes(q.acquire_with_labels(source, center, (60.0, 36.0), resolution))
            for span in ([60.0, 36.0], np.array([60.0, 36.0]), (np.float64(60.0), 36), [60, 36]):
                assert _window_bytes(q.acquire_with_labels(source, center, span, resolution)) == expect
        assert len(source._plans) == 1

    def test_sources_of_other_native_resolutions_never_share_a_plan(self, reference_params):
        fine = q.PremeasuredScan(*q.render_scan(reference_params, (325.0, 350.0), (400.0, 400.0), 2.0))
        coarse = q.PremeasuredScan(*q.render_scan(reference_params, (325.0, 350.0), (400.0, 400.0), 4.0))
        for first, second in ((fine, coarse), (coarse, fine)):
            for source in (first, second):
                scan, labels = q.acquire_with_labels(source, (301.0, 330.0), (60.0, 60.0), 4.0)
                assert scan.shape == (15, 15)
                assert scan.meta == q.ScanMeta(4.0)
                if source is coarse:
                    assert scan.meta is coarse.scan.meta and labels.stored_at is not None
                    assert np.diff(scan.v1_axis).tolist() == [4.0] * 14
                else:
                    assert labels.stored_at is None
                    assert np.shares_memory(scan.v1_axis, fine.scan.v1_axis) and scan.v1_axis.strides == (16,)
        assert fine._plans[(60.0, 60.0, 4.0)][0] == 2 and coarse._plans[(60.0, 60.0, 4.0)][0] == 1

    @pytest.mark.parametrize("stride", [2, 3, 5])
    def test_a_strided_window_has_the_stored_resolution_times_the_stride(self, stride, reference_scan):
        source = q.PremeasuredScan(*reference_scan)
        metas = []
        for center in ((301.0, 330.0), (260.0, 410.0)):
            scan, _ = q.acquire_with_labels(source, center, (60.0, 60.0), 2.0 * stride)
            assert scan.meta.resolution == 2.0 * stride
            assert scan.meta.acquisition_axis == source.scan.meta.acquisition_axis
            metas.append(scan.meta)
        assert metas[0] is metas[1]  # one metadata object per plan

    def test_a_refused_window_makes_no_plan(self, reference_scan):
        source = q.PremeasuredScan(*reference_scan)
        assert isinstance(q.acquire_with_labels(source, (10.0, 330.0), (60.0, 60.0), 3.0), Blocked)
        assert source._plans == {}
