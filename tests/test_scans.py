import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.scans import SCAN_SUFFIX, Blocked, Sandbox


class TestSandbox:
    def test_contains_window(self):
        box = Sandbox()
        assert box.contains_window((300, 300), (60, 60))
        assert box.contains_window((30, 570), (60, 60))
        assert not box.contains_window((20, 300), (60, 60))
        assert not box.contains_window((300, 580), (60, 60))

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(q.ScanFormatError):
            q.load_scan(tmp_path / "nope.qdscan.json")
