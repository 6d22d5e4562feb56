"""Pass geometry, Doppler, and path-loss tests."""

import math

import numpy as np
import pytest

from leoacq.geometry import (EARTH_RADIUS, SPEED_OF_LIGHT, doppler_shift,
                             free_space_loss, radial_velocity, simulate_pass)


class TestDopplerShift:
    def test_zero_motion(self):
        assert doppler_shift(1.5e9, 0.0) == 0.0

    def test_ppm_scaling_identity(self):
        # v = c * 1e-6 gives exactly one ppm of the carrier
        assert doppler_shift(1.5e9, SPEED_OF_LIGHT * 1e-6) == 1500.0

    def test_leo_radial_speed(self):
        assert doppler_shift(1.5e9, 7500.0) == pytest.approx(37525.9607097921,
                                                             rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = rng.uniform(1e8, 1e10)
            v = rng.uniform(-7500, 7500)
            a = rng.uniform(0.1, 10)
            assert doppler_shift(a * f, v) == pytest.approx(
                a * doppler_shift(f, v), rel=1e-12)
            assert doppler_shift(f, a * v) == pytest.approx(
                a * doppler_shift(f, v), rel=1e-12)


class TestRadialVelocity:
    def test_constant_range(self):
        v = radial_velocity(np.full(10, 1e6), 1.0)
        assert np.array_equal(v, np.zeros(10))

    def test_linear_closing(self):
        r = 1e6 - 100.0 * np.arange(50)
        assert radial_velocity(r, 1.0) == pytest.approx(np.full(50, 100.0))

    def test_quadratic_exact_interior(self):
        # central difference is exact for quadratics: r = r0 + a t^2
        a = 3.7
        dt = 0.5
        t = dt * np.arange(40)
        r = 1e5 + a * t ** 2
        v = radial_velocity(r, dt)
        assert v[1:-1] == pytest.approx(-2.0 * a * t[1:-1], rel=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            radial_velocity([1.0], 1.0)


class TestFreeSpaceLoss:
    def test_range_doubling(self):
        base = free_space_loss(650e3, 1.5e9)
        assert free_space_loss(1300e3, 1.5e9) - base == pytest.approx(
            6.020599913279624, abs=1e-9)

    def test_freq_doubling(self):
        base = free_space_loss(650e3, 1.5e9)
        assert free_space_loss(650e3, 3.0e9) - base == pytest.approx(
            6.020599913279624, abs=1e-9)

    def test_pass_extremes(self):
        # shortest (~650 km) to farthest (~2000 km) visible range
        diff = free_space_loss(2000e3, 1.5e9) - free_space_loss(650e3, 1.5e9)
        assert diff == pytest.approx(9.762332780422526, rel=1e-9)

    def test_strictly_increasing(self):
        r = np.linspace(300e3, 3000e3, 50)
        losses = [free_space_loss(x, 1.5e9) for x in r]
        assert np.all(np.diff(losses) > 0)
        f = np.linspace(0.5e9, 5e9, 50)
        losses = [free_space_loss(650e3, x) for x in f]
        assert np.all(np.diff(losses) > 0)


@pytest.fixture(scope="module")
def pass645():
    return simulate_pass(645e3, elevation_mask=10.0,
                         cross_track_offset_deg=0.0, epoch_step=1.0,
                         carrier_freq=1.5e9)


class TestSimulatePass:
    def test_zenith_range_equals_orbit_height(self, pass645):
        assert min(s.range_m for s in pass645.samples) == 645e3

    def test_max_slant_range_near_closed_form(self, pass645):
        # slant range at elevation e for a circular orbit of height h
        re, h = EARTH_RADIUS, 645e3
        sin_e = math.sin(math.radians(10.0))
        closed = (math.sqrt(re * re * sin_e * sin_e + 2.0 * re * h + h * h)
                  - re * sin_e)
        assert closed == pytest.approx(2033.5e3, rel=1e-3)
        assert max(s.range_m for s in pass645.samples) == pytest.approx(
            closed, rel=0.01)

    def test_doppler_monotone_and_single_zero_crossing(self, pass645):
        dop = np.array([s.doppler for s in pass645.samples])
        assert np.all(np.diff(dop) < 0)
        signs = np.sign(dop[dop != 0.0])
        assert np.count_nonzero(np.diff(signs)) == 1
        # zero Doppler lands on the minimum-range sample
        ranges = [s.range_m for s in pass645.samples]
        assert dop[int(np.argmin(ranges))] == 0.0

    def test_doppler_consistent_with_velocity(self, pass645):
        for s in pass645.samples:
            assert s.doppler == doppler_shift(1.5e9, s.radial_velocity)

    def test_leo_doppler_magnitudes(self, pass645):
        # L-band overhead pass: tens of kHz swing, peak rate at zenith
        dop = np.array([s.doppler for s in pass645.samples])
        rate = np.array([s.doppler_rate for s in pass645.samples])
        assert 20e3 < np.abs(dop).max() < 50e3
        ranges = [s.range_m for s in pass645.samples]
        assert np.argmax(np.abs(rate)) == np.argmin(ranges)

    def test_epochs_evenly_spaced_from_zero(self, pass645):
        t = np.array([s.t for s in pass645.samples])
        assert t[0] == 0.0
        assert np.allclose(np.diff(t), 1.0)

    def test_elevation_respects_mask(self, pass645):
        assert all(s.elevation_deg >= 10.0 for s in pass645.samples)
        assert max(s.elevation_deg for s in pass645.samples) == pytest.approx(90.0)

    def test_cross_track_offset_lowers_peak_elevation(self):
        offset = simulate_pass(645e3, 10.0, 15.0, 1.0, 1.5e9)
        assert max(s.elevation_deg for s in offset.samples) < 45.0
        assert min(s.range_m for s in offset.samples) > 645e3

    def test_no_visibility_error(self):
        with pytest.raises(ValueError, match="no visibility"):
            simulate_pass(645e3, 10.0, 60.0, 1.0, 1.5e9)

    def test_bad_orbit_height(self):
        with pytest.raises(ValueError, match="orbit height"):
            simulate_pass(100e3, 10.0, 0.0, 1.0, 1.5e9)

    @pytest.mark.parametrize("step", [0.0, -5.0, float("nan")])
    def test_bad_epoch_step(self, step):
        with pytest.raises(ValueError, match="epoch_step must be positive"):
            simulate_pass(645e3, 10.0, 0.0, step, 1.5e9)

    def test_single_epoch_pass_names_its_cause(self):
        # only the zenith epoch clears an 80 deg mask at a 60 s step
        with pytest.raises(ValueError, match="at least two epochs") as e:
            simulate_pass(645e3, 80.0, 0.0, 60.0, 1.5e9)
        assert "epoch_step" in str(e.value)
        assert "elevation_mask" in str(e.value)
        assert len(simulate_pass(645e3, 70.0, 0.0, 20.0, 1.5e9).samples) == 3
