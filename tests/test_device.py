import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.device import VARIATION_RANGES, _state_codes
from qdtune.grids import StateLabel


class TestStateGeometry:
    def test_region_examples(self, reference_params):
        p = reference_params
        assert q.state_at(p, 50, 50) is StateLabel.NO_DOT
        assert q.state_at(p, 550, 550) is StateLabel.SINGLE_CENTRAL
        assert q.state_at(p, 300, 320) is StateLabel.DOUBLE_DOT
        assert q.state_at(p, 500, 250) is StateLabel.SINGLE_LEFT
        assert q.state_at(p, 250, 500) is StateLabel.SINGLE_RIGHT

    def test_state_outside_domain_raises(self, reference_params):
        with pytest.raises(q.DomainError):
            q.state_at(reference_params, -5, 300)
        with pytest.raises(q.DomainError):
            q.state_at(reference_params, 300, 600.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_state_at_non_finite_voltage_raises(self, reference_params, bad, axis):
        point = [300.0, 300.0]
        point[axis] = bad
        with pytest.raises(q.DomainError):
            q.state_at(reference_params, *point)

    def test_no_dot_below_both_formation_thresholds(self, reference_params):
        v1_on, v2_on = reference_params.formation_thresholds
        v = np.linspace(0, min(v1_on, v2_on) - 1, 25)
        codes = _state_codes(reference_params, *np.meshgrid(v, v, indexing="ij"))
        assert (codes == StateLabel.NO_DOT).all()

    def test_dot_formation_is_monotone_along_diagonal(self, reference_params):
        # once any dot has formed, raising both plungers never unforms it
        v = np.linspace(0, 600, 601)
        codes = _state_codes(reference_params, v, v)
        formed = codes != StateLabel.NO_DOT
        assert not (formed[:-1] & ~formed[1:]).any()

    def test_double_dot_area_fraction(self, reference_params):
        v = np.arange(0.5, 600, 1.0)
        grid = np.meshgrid(v, v, indexing="ij")
        codes = _state_codes(reference_params, *grid)
        frac = (codes == StateLabel.DOUBLE_DOT).mean()
        assert frac == pytest.approx(0.0835, abs=1e-4)
        assert 0.05 <= frac <= 0.4

    def test_all_five_states_reachable(self, reference_params):
        v = np.arange(5.0, 600, 10.0)
        codes = _state_codes(reference_params, *np.meshgrid(v, v, indexing="ij"))
        assert set(np.unique(codes)) == {0, 1, 2, 3, 4}

    def test_variation_ranges_are_ordered(self):
        # sample_device draws uniformly from each range; a pinned (zero-width)
        # range would still spend a draw.
        unordered = [name for name, (lo, hi) in VARIATION_RANGES.items() if not lo < hi]
        assert not unordered

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_sampled_devices_have_valid_band(self, seed):
        p = q.sample_device(seed)
        lo, hi = p.dd_band
        assert lo < 0 < hi
        assert p.formation_thresholds[0] < p.merge_threshold
        assert p.formation_thresholds[1] < p.merge_threshold


class TestSensor:
    def test_deep_no_dot_response_is_pure_background(self, reference_params):
        p = reference_params
        # pixel centers at v1 = 20, 22, ..., 40 mV and v2 = 20 mV
        scan, _ = q.render_scan(p, (30.0, 20.0), (22.0, 2.0), 2.0)
        r1, r2 = scan.values[0, 0], scan.values[-1, 0]
        slope = (r2 - r1) / 20
        assert slope == pytest.approx(p.background_gradient, rel=1e-6)

    def test_charge_transition_contrast(self, reference_params):
        # the sensor jump across the first addition line dwarfs the background
        p = reference_params
        # pixel centers at v1 = 150.0, 150.1, ..., 300.0 mV and v2 = 100 mV
        scan, _ = q.render_scan(p, (225.0, 100.0), (150.1, 0.1), 0.1)
        r = scan.values[:, 0]
        dr = np.abs(np.diff(r)) / scan.meta.resolution
        assert dr.max() / p.background_gradient >= 5

    def test_noise_reproducible_by_seed(self, reference_params):
        p = reference_params

        def pixel(noise_seed):
            scan, _ = q.render_scan(p, (300.0, 320.0), (2.0, 2.0), 2.0, with_noise=True, noise_seed=noise_seed)
            return scan.values[0, 0]

        a, b, c = pixel(4), pixel(4), pixel(5)
        assert a == b
        assert a != c

    def test_response_finite_everywhere(self, reference_params):
        scan, _ = q.render_scan(reference_params, (300.0, 300.0), (600.0, 600.0), 5.0)
        assert np.isfinite(scan.values).all()


class TestRenderScan:
    def test_pixel_centers(self, reference_params):
        scan, labels = q.render_scan(reference_params, (300.0, 350.0), (60.0, 40.0), 2.0)
        assert scan.shape == (30, 20)
        assert scan.v1_axis[0] == pytest.approx(270 + 1.0)
        assert scan.v1_axis[-1] == pytest.approx(330 - 1.0)
        assert scan.v2_axis[0] == pytest.approx(330 + 1.0)
        np.testing.assert_allclose(np.diff(scan.v1_axis), 2.0)
        assert labels.labels.shape == (30, 20)

    def test_labels_match_state_at(self, reference_params):
        scan, labels = q.render_scan(reference_params, (320.0, 330.0), (30.0, 30.0), 3.0)
        for i in range(0, 10, 3):
            for j in range(0, 10, 3):
                expect = q.state_at(reference_params, scan.v1_axis[i], scan.v2_axis[j])
                assert labels.labels[i, j] == expect

    def test_non_integer_pixel_count_rejected(self, reference_params):
        with pytest.raises(q.ConfigurationError):
            q.render_scan(reference_params, (300.0, 300.0), (50.0, 50.0), 3.0)

    @pytest.mark.parametrize("extent", [float("nan"), float("inf")])
    def test_non_finite_span_rejected(self, reference_params, extent):
        with pytest.raises(q.ConfigurationError, match="integer number"):
            q.render_scan(reference_params, (300.0, 300.0), (extent, 60.0), 2.0)

    def test_window_outside_domain_rejected(self, reference_params):
        with pytest.raises(q.DomainError):
            q.render_scan(reference_params, (590.0, 300.0), (60.0, 60.0), 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_center_rejected(self, reference_params, bad, axis):
        center = [300.0, 300.0]
        center[axis] = bad
        for with_labels in (True, False):
            with pytest.raises(q.DomainError):
                q.render_scan(reference_params, center, (60.0, 60.0), 2.0, with_labels=with_labels)

    def test_noise_seed_controls_values(self, reference_params):
        a, _ = q.render_scan(reference_params, (300, 300), (20, 20), 2.0, with_noise=True, noise_seed=1)
        b, _ = q.render_scan(reference_params, (300, 300), (20, 20), 2.0, with_noise=True, noise_seed=1)
        c, _ = q.render_scan(reference_params, (300, 300), (20, 20), 2.0, with_noise=True, noise_seed=2)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


class TestDeviceIO:
    def test_round_trip(self, tmp_path):
        p = q.sample_device(123)
        path = tmp_path / "dev.json"
        q.save_device(p, path)
        assert q.load_device(path) == p

    def test_missing_file_raises_format_error(self, tmp_path):
        with pytest.raises(q.ScanFormatError):
            q.load_device(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "override",
        [
            {"formation_thresholds": (0.0, 220.0)},
            {"dd_band": (90.0, -90.0)},
            {"line_spacing": 0.0},
            {"noise_sigma": -0.1},
        ],
    )
    def test_invalid_params_rejected(self, override):
        base = dict(
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
        base.update(override)
        with pytest.raises(q.ConfigurationError):
            q.DeviceParams(**base)
