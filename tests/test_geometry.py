"""Pass geometry, Doppler, and path-loss tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from leoacq import geometry
from leoacq.geometry import (EARTH_RADIUS, MU_EARTH, SPEED_OF_LIGHT,
                             doppler_shift, free_space_loss, simulate_pass)


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
        with pytest.raises(ValueError, match="orbit_height"):
            simulate_pass(100e3, 10.0, 0.0, 1.0, 1.5e9)

    @pytest.mark.parametrize("step", [0.0, -5.0, float("nan")])
    def test_bad_epoch_step(self, step):
        with pytest.raises(ValueError, match="epoch_step must be positive"):
            simulate_pass(645e3, 10.0, 0.0, step, 1.5e9)

    @pytest.mark.parametrize("step", [538.0 / 200_000, 5e-324])
    def test_too_many_epochs(self, step):
        # the default pass's 538 s arc at about twice the epoch limit (an
        # 11 MB pass without the check), and at the smallest step, whose
        # omega * step underflows to zero
        with pytest.raises(ValueError, match="epoch_step .* too short"):
            simulate_pass(645e3, 10.0, 0.0, step, 1.5e9)

    def test_pass_under_the_epoch_limit(self):
        # the default pass's 539 epochs at a 1 s step, about 99,000 at a
        # step 99,000 / 539 times shorter
        n = len(simulate_pass(645e3, 10.0, 0.0, 539.0 / 99_000,
                              1.5e9).samples)
        assert 98_000 < n <= geometry._MAX_EPOCHS

    def test_single_epoch_pass_is_the_zenith(self):
        # only the zenith epoch clears an 80 deg mask at a 60 s step
        (s,) = simulate_pass(645e3, 80.0, 0.0, 60.0, 1.5e9).samples
        assert (s.t, s.elevation_deg, s.range_m) == (0.0, 90.0, 645e3)
        assert s.doppler == 0.0 and s.doppler_rate < 0.0
        assert len(simulate_pass(645e3, 70.0, 0.0, 20.0, 1.5e9).samples) == 3


class TestClosedForm:
    # The Doppler and its rate are those of the exact circular-orbit
    # geometry at each epoch's time, whatever the epoch step.

    @given(step=st.floats(0.5, 60.0), multiple=st.integers(2, 6),
           mask=st.floats(0.0, 80.0), offset=st.floats(0.0, 15.0),
           height=st.floats(400e3, 1500e3))
    def test_independent_of_epoch_step(self, step, multiple, mask, offset,
                                       height):
        try:
            fine = simulate_pass(height, mask, offset, step, 1.5e9)
        except ValueError as e:  # the offset hides the pass
            assume("no visibility" not in str(e))
            raise
        coarse = simulate_pass(height, mask, offset, multiple * step, 1.5e9)
        # coarse epoch j is fine epoch multiple * j, counted from the middle
        mid_f, mid_c = len(fine.samples) // 2, len(coarse.samples) // 2
        idx = mid_f + multiple * (np.arange(len(coarse.samples)) - mid_c)
        for col in ("doppler", "doppler_rate"):
            # 1e-9 relative, or 1e-6 Hz (Hz/s) where the value is near 0
            np.testing.assert_allclose(coarse.samples[col],
                                       fine.samples[col][idx],
                                       rtol=1e-9, atol=1e-6)

    @pytest.mark.parametrize("offset", [0.0, 15.0])
    def test_matches_numerical_derivatives_of_range(self, offset):
        # Range from station and satellite position vectors, independent of
        # simulate_pass's formulas: the orbit in the x-y plane, the station
        # at the cross-track angle out of it.
        h, f, dt = 645e3, 1.5e9, 1e-2
        r_orb = EARTH_RADIUS + h
        omega = math.sqrt(MU_EARTH / r_orb ** 3)
        beta = math.radians(offset)
        station = EARTH_RADIUS * np.array([math.cos(beta), 0.0, math.sin(beta)])

        def rng(t):
            theta = omega * np.asarray(t)[:, None]
            sat = r_orb * np.hstack([np.cos(theta), np.sin(theta),
                                     np.zeros_like(theta)])
            return np.linalg.norm(sat - station, axis=1)

        def doppler(t):  # closing range is positive Doppler
            return -f / SPEED_OF_LIGHT * (rng(t + dt) - rng(t - dt)) / (2 * dt)

        scen = simulate_pass(h, 10.0, offset, 7.0, f)
        # each epoch's time from closest approach, the middle epoch
        t = scen.samples.t - scen.samples.t[len(scen.samples) // 2]
        assert scen.samples.range_m == pytest.approx(rng(t), rel=1e-12)
        # Central differences at a 10 ms step come within 1e-4 Hz and
        # 1e-4 Hz/s of the exact values here; the tolerance is 1e-3.
        assert np.abs(scen.samples.doppler - doppler(t)).max() < 1e-3
        rate = (doppler(t + dt) - doppler(t - dt)) / (2 * dt)
        assert np.abs(scen.samples.doppler_rate - rate).max() < 1e-3

    def test_zenith_rate_of_an_overhead_pass(self):
        h, f = 645e3, 1.5e9
        scen = simulate_pass(h, 10.0, 0.0, 1.0, f)
        zenith = scen.samples[len(scen.samples) // 2]
        assert zenith.range_m == h and zenith.doppler == 0.0
        r_orb = EARTH_RADIUS + h
        omega_sq = MU_EARTH / r_orb ** 3
        want = -f * EARTH_RADIUS * r_orb * omega_sq / (h * SPEED_OF_LIGHT)
        assert want == pytest.approx(-400.2, abs=0.05)
        assert zenith.doppler_rate == pytest.approx(want, rel=1e-12)
