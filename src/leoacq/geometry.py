"""Overhead-pass geometry for a LEO satellite seen from a ground station.

Models a circular two-body orbit over a spherical Earth and derives the
range, elevation, radial velocity, Doppler shift, Doppler rate, and
free-space propagation loss time series that drive the long-run
acquisition experiments.  Range rate and its derivative are the closed
forms of that geometry (Vallado, Fundamentals of Astrodynamics and
Applications, 4th ed., 2013), so an epoch's Doppler and rate depend on its
time from closest approach alone, not on the epoch step.  No ephemeris
ingestion, no J2, no atmosphere: the geometry only has to reproduce
realistic LEO Doppler/power dynamics.

Sign convention: positive radial velocity means closing range and positive
Doppler, applied consistently everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s
EARTH_RADIUS = 6371e3  # m, spherical model
MU_EARTH = 3.986004418e14  # m^3/s^2

# Most epochs a pass may have.  Each epoch costs a record here and a
# SynthParams when the pass is synthesized; the default pass (645 km, 10 deg
# mask, 1 s step) has 539, and a step near zero would ask for billions.
_MAX_EPOCHS = 100_000


# Columns of a pass: t (s from scenario start), range_m, elevation_deg,
# radial_velocity (m/s, + closing), doppler (Hz), doppler_rate (Hz/s), path_loss_db
PASS_COLUMNS = ("t", "range_m", "elevation_deg", "radial_velocity",
                "doppler", "doppler_rate", "path_loss_db")


@dataclass
class PassScenario:
    """Time series of link geometry over one visibility window: a float64
    record array with the PASS_COLUMNS fields, one record per epoch."""

    samples: np.recarray


def doppler_shift(carrier_freq: float, radial_velocity: float) -> float:
    """Doppler shift f * v / c; positive when the range is closing."""
    return carrier_freq * radial_velocity / SPEED_OF_LIGHT


def free_space_loss(range_m: float, freq: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c) in dB."""
    return 20.0 * np.log10(4.0 * np.pi * range_m * freq / SPEED_OF_LIGHT)


def simulate_pass(orbit_height: float, elevation_mask: float,
                  cross_track_offset_deg: float, epoch_step: float,
                  carrier_freq: float) -> PassScenario:
    """Simulate one visibility window of an overhead (or offset) pass.

    The satellite moves on a circular orbit of radius Re + h; the station
    sits at a fixed cross-track angular offset from the orbit plane.  The
    sample grid is symmetric about the point of closest approach, so for a
    directly-overhead pass the zenith sample has range == orbit_height
    exactly.  Samples are emitted only while elevation >= elevation_mask;
    a step longer than the visible half-arc leaves the zenith sample alone,
    and one that would give more than _MAX_EPOCHS epochs is rejected.

    With R = Re + h, theta = omega * t from closest approach and beta the
    cross-track angle, r^2 = Re^2 + R^2 - 2 Re R cos(beta) cos(theta), so
        r' = Re R omega cos(beta) sin(theta) / r,
        r'' = (Re R omega^2 cos(beta) cos(theta) - r'^2) / r,
    and the Doppler and its rate are doppler_shift of -r' and -r''.
    """
    if not 200e3 < orbit_height < 2000e3:
        raise ValueError(f"orbit_height {orbit_height} m outside (200 km, 2000 km)")
    if not 0 <= elevation_mask < 90:
        raise ValueError(f"elevation_mask {elevation_mask} deg outside [0, 90)")
    if not epoch_step > 0:
        raise ValueError(f"epoch_step must be positive, got {epoch_step}")

    re = EARTH_RADIUS
    r_orb = re + orbit_height
    omega = math.sqrt(MU_EARTH / r_orb ** 3)  # orbital angular rate, rad/s
    beta = math.radians(cross_track_offset_deg)

    # Earth-central angle at which elevation drops to the mask.
    e_mask = math.radians(elevation_mask)
    psi_max = math.acos(re / r_orb * math.cos(e_mask)) - e_mask
    if math.cos(psi_max) > math.cos(beta):
        raise ValueError(
            f"no visibility: cross_track_offset_deg {cross_track_offset_deg} "
            f"keeps the satellite below the {elevation_mask} deg elevation_mask")

    # Along-track half-angle of the visible arc, then a symmetric time grid
    # about closest approach (k = 0).
    theta_vis = math.acos(min(1.0, math.cos(psi_max) / math.cos(beta)))
    half_arc = theta_vis / omega  # s from closest approach to the mask
    if half_arc >= _MAX_EPOCHS / 2 * epoch_step:
        raise ValueError(
            f"epoch_step {epoch_step} s is too short: the {2 * half_arc:.0f} s "
            f"visible arc would take more than {_MAX_EPOCHS} epochs")
    k_max = int(math.floor(theta_vis / (omega * epoch_step)))
    k = np.arange(-k_max, k_max + 1)
    theta = omega * epoch_step * k

    cos_psi = math.cos(beta) * np.cos(theta)
    # hypot form is exact at zenith: range = hypot(h, 0) = h.
    rng = np.hypot(r_orb - re, 2.0 * math.sqrt(re * r_orb)
                   * np.sin(np.arccos(np.clip(cos_psi, -1.0, 1.0)) / 2.0))
    sin_elev = (r_orb * cos_psi - re) / rng
    elev = np.degrees(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))

    # the derivatives of r^2 / 2: r r' and then r r'' + r'^2
    coupling = re * r_orb * omega * math.cos(beta)
    range_rate = coupling * np.sin(theta) / rng
    range_accel = (coupling * omega * np.cos(theta) - range_rate ** 2) / rng
    vrad = 0.0 - range_rate  # + closing; +0.0, not -0.0, at closest approach
    dopp = doppler_shift(carrier_freq, vrad)
    dopp_rate = doppler_shift(carrier_freq, -range_accel)
    loss = free_space_loss(rng, carrier_freq)

    t = (k + k_max) * float(epoch_step)  # a float column for an int step
    return PassScenario(samples=np.rec.fromarrays(
        [t, rng, elev, vrad, dopp, dopp_rate, loss], names=PASS_COLUMNS))
