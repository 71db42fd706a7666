import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune import device
from qdtune.device import THERMAL_WIDTH_MV, VARIATION_RANGES, _label_codes
from qdtune.grids import StateLabel

from faults import file_defect


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
        codes = _label_codes(reference_params, v, v)
        assert (codes == StateLabel.NO_DOT).all()

    def test_dot_formation_is_monotone_along_diagonal(self, reference_params):
        # once any dot has formed, raising both plungers never unforms it
        v = np.linspace(0, 600, 601)
        codes = np.diagonal(_label_codes(reference_params, v, v))
        formed = codes != StateLabel.NO_DOT
        assert not (formed[:-1] & ~formed[1:]).any()

    def test_double_dot_area_fraction(self, reference_params):
        v = np.arange(0.5, 600, 1.0)
        codes = _label_codes(reference_params, v, v)
        frac = (codes == StateLabel.DOUBLE_DOT).mean()
        assert frac == pytest.approx(0.0835, abs=1e-4)
        assert 0.05 <= frac <= 0.4

    def test_all_five_states_reachable(self, reference_params):
        v = np.arange(5.0, 600, 10.0)
        codes = _label_codes(reference_params, v, v)
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

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "fraction", "bool"])
    def test_a_bad_seed_is_refused_by_name(self, seed):
        with pytest.raises(q.ConfigurationError, match=f"seed must be a non-negative integer, got {seed!r}"):
            q.sample_device(seed)


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

    @pytest.mark.parametrize("noise_seed", [-1, 2.5, True], ids=["negative", "fraction", "bool"])
    def test_a_bad_noise_seed_is_refused_by_name(self, reference_params, noise_seed):
        named = f"noise_seed must be a non-negative integer, got {noise_seed!r}"
        with pytest.raises(q.ConfigurationError, match=named):
            q.render_scan(reference_params, (300, 300), (20, 20), 2.0, with_noise=True, noise_seed=noise_seed)


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
        "field, value",
        [
            ("seed", "abc"),
            ("formation_thresholds", 5),
            ("merge_threshold", float("nan")),
            ("lever_arms", [1.0]),
            ("lever_arms", [1, 2, 3]),
            ("interdot_coupling", "x"),
        ],
    )
    def test_mistyped_field_is_format_error_naming_it(self, tmp_path, field, value):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps({**q.reference_device().to_json_dict(), field: value}))
        with pytest.raises(q.ScanFormatError, match=f"'{field}'"):
            q.load_device(path)

    def test_missing_field_is_format_error_naming_it(self, tmp_path):
        doc = q.reference_device().to_json_dict()
        del doc["dd_band"]
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(q.ScanFormatError, match="missing field 'dd_band'"):
            q.load_device(path)

    @pytest.mark.parametrize("version", ["9", 1, None])
    def test_other_schema_version_is_version_error(self, tmp_path, version):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps({**q.reference_device().to_json_dict(), "schema_version": version}))
        with pytest.raises(q.ScanVersionError, match="schema_version"):
            q.load_device(path)

    @pytest.mark.parametrize(
        "field, value",
        [("dd_band", [90.0, -90.0]), ("formation_thresholds", [700.0, 220.0]), ("seed", -1)],
    )
    def test_out_of_range_field_is_format_error_naming_it(self, tmp_path, field, value):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps({**q.reference_device().to_json_dict(), field: value}))
        with pytest.raises(q.ScanFormatError, match=f"'{field}'"):
            q.load_device(path)

    def test_line_spacing_below_the_step_width_is_format_error_naming_it(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps({**q.reference_device().to_json_dict(), "line_spacing": 1e-6}))
        with pytest.raises(q.ScanFormatError, match="'line_spacing'.*below the step width"):
            q.load_device(path)

    def test_unknown_field_is_format_error_naming_it(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps({**q.reference_device().to_json_dict(), "bogus": 1}))
        with pytest.raises(q.ScanFormatError, match="unknown field 'bogus'"):
            q.load_device(path)

    def test_integers_are_read_as_numbers(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps({**q.reference_device().to_json_dict(), "merge_threshold": 375, "dd_band": [-90, 90]}))
        assert q.load_device(path) == q.reference_device()

    @pytest.mark.parametrize(
        "override",
        [
            {"formation_thresholds": (0.0, 220.0)},
            {"dd_band": (90.0, -90.0)},
            {"line_spacing": 0.0},
            {"noise_sigma": -0.1},
            {"line_spacing": 1e-6},
            {"line_spacing": 1.99},
            {"seed": -1},
            {"seed": 1.0},
            {"seed": True},
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("line_slopes", (1e6, 1e6)),
            ("line_slopes", (0.15, -1.0000001)),
            ("interdot_coupling", -1e5),
            ("interdot_coupling", -1e-9),
        ],
    )
    def test_a_level_count_past_the_bound_is_refused_by_name(self, tmp_path, field, value):
        """A slope outside [-1, 1] or a negative coupling would let a render sum
        millions of charge levels; the parameters and the device file refuse it."""
        with pytest.raises(q.ConfigurationError, match=f"'{field}'"):
            dataclasses.replace(q.reference_device(), **{field: value})
        path = tmp_path / "dev.json"
        path.write_text(json.dumps({**q.reference_device().to_json_dict(), field: value}))
        with pytest.raises(q.ScanFormatError, match=f"'{field}'") as exc:
            q.load_device(path)
        assert type(exc.value) is q.ScanFormatError

    @pytest.mark.parametrize("slopes", [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
    def test_a_device_at_the_bounds_renders_below_1200_mv(self, slopes, monkeypatch):
        """Thresholds near the domain's floor, slopes of magnitude 1, no coupling
        and the narrowest spacing: every ``mu`` of the domain's top corner stays
        below 1200 mV, so a render sums at most 602 levels per dot."""
        params = dataclasses.replace(
            q.reference_device(),
            formation_thresholds=(1.0, 1.0),
            line_slopes=slopes,
            interdot_coupling=0.0,
            line_spacing=THERMAL_WIDTH_MV,
        )
        occupation = device._occupation
        tops = []

        def spy(mu, spacing):
            tops.append(float(mu.max()))
            return occupation(mu, spacing)

        monkeypatch.setattr(device, "_occupation", spy)
        scan, labels = q.render_scan(params, (570.0, 570.0), (60.0, 60.0), 2.0)
        assert np.isfinite(scan.values).all() and labels is not None
        assert len(tops) == 4 and max(tops) < 1200.0

    def test_line_spacing_at_the_step_width_is_accepted_and_renders(self):
        params = dataclasses.replace(q.reference_device(), line_spacing=THERMAL_WIDTH_MV)
        scan, _ = q.render_scan(params, (300.0, 300.0), (60.0, 60.0), 2.0)
        assert np.isfinite(scan.values).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field, index",
        [("merge_threshold", None), ("dd_band", 1), ("lever_arms", 0), ("line_spacing", None),
         ("line_slopes", 1), ("interdot_coupling", None), ("noise_sigma", None), ("background_gradient", None)],
    )
    def test_non_finite_field_refused_by_name(self, field, index, bad):
        value = bad
        if index is not None:
            value = list(getattr(q.reference_device(), field))
            value[index] = bad
            value = tuple(value)
        with pytest.raises(q.ConfigurationError, match=f"DeviceParams.{field} "):
            dataclasses.replace(q.reference_device(), **{field: value})


@pytest.fixture(scope="module")
def saved_device(tmp_path_factory):
    """The JSON of a saved sampled device, and a path to write variants to."""
    path = tmp_path_factory.mktemp("device_fuzz") / "device.json"
    q.save_device(q.sample_device(123), path)
    return json.loads(path.read_text()), path


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_fuzzed_device_file_is_refused_by_name(saved_device, data):
    """A NaN in any number, or a value of another kind anywhere: the loader
    raises ScanFormatError or ScanVersionError naming the field."""
    doc, path = saved_device
    broken, named = file_defect(data, doc, {}, {})
    path.write_text(json.dumps(broken))
    with pytest.raises((q.ScanFormatError, q.ScanVersionError)) as exc:
        q.load_device(path)
    assert any(re.search(rf"\b{name}\b", str(exc.value)) for name in named), (named, str(exc.value))
