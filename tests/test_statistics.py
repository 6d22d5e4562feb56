"""The correlator's statistical laws: the signal peak and the noise floor of
one 1 ms unit, which together set the post-correlation SNR.

A real IF signal A * code * sin(2 pi f t), mixed to baseband and correlated
over a unit of n samples at its Doppler and code offset, peaks at A * n / 2.
Real white noise of variance sigma^2 gives cells whose real and imaginary
parts are independent normals of variance n * sigma^2 / 2, so |c|^2 has
mean n * sigma^2 and |c| is Rayleigh with scale sqrt(n * sigma^2 / 2).  At
a C/N0 (dB-Hz) of real sampling, sigma^2 = (A^2 / 2) * (fs / 2) / C/N0, so
the peak power over the mean noise power is C/N0 * T for a unit of T = 1 ms.
The noise here is synthesize's own, so the laws hold its noise_sigma to
that definition of C/N0.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from leoacq.acq_core import FrequencyPlan
from leoacq.prn_code import CHIP_RATE, generate_code
from leoacq.signal_synth import SampledSignal, SynthParams, synthesize

from conftest import FS_FAST, FIF_FAST, FS_FULL, FIF_FULL, correlate

CN0 = 45.0  # dB-Hz
T = 1e-3  # s, one unit
UNITS = 8  # independent noise units
PROFILES = pytest.mark.parametrize("fs, fif", [(FS_FAST, FIF_FAST),
                                               (FS_FULL, FIF_FULL)],
                                   ids=["fast", "paper"])


def _params(fs, fif, amplitude, cn0, units):
    return SynthParams(prn_id=1, sample_rate=fs, intermediate_freq=fif,
                       amplitude=amplitude, cn0=cn0, duration=units * T,
                       seed=20261017)


def _cells(samples, fs, fif):
    """|c| of every cell of the 1 ms units of samples, correlated with PRN
    1's code in one bin at the IF: shape (units, n)."""
    plan = FrequencyPlan(center=fif, bin_width=500.0, bins=(0.0,))
    grids = correlate(SampledSignal(samples, fs), generate_code(1), plan)
    return np.abs(np.stack([g.values[0] for g in grids]))


def _noise_cells(fs, fif):
    """The cells of synthesize's noise alone at CN0 over UNITS units: the
    noisy signal minus the noiseless one of the same parameters."""
    params = _params(fs, fif, 1.0, CN0, UNITS)
    code = generate_code(1)
    noise = (synthesize(params, code).samples
             - synthesize(replace(params, cn0=None), code).samples)
    # lags one chip apart: at several samples a chip, neighbouring lags
    # share most of their products, so they are not independent
    return _cells(noise, fs, fif)[:, ::round(fs / CHIP_RATE)].ravel()


def _noise_power(n):
    """The mean |c|^2 of noise cells at A = 1: n * sigma^2 at CN0 by its
    definition, which is the peak power (A * n / 2)^2 over C/N0 * T."""
    return (n / 2) ** 2 / (10 ** (CN0 / 10) * T)


@PROFILES
@pytest.mark.parametrize("amplitude", [1.0, 0.25])
def test_noiseless_peak_is_half_amplitude_times_n(fs, fif, amplitude):
    signal = synthesize(_params(fs, fif, amplitude, None, 1), generate_code(1))
    cells = _cells(signal.samples, fs, fif)[0]
    n = round(fs * T)
    assert cells.shape == (n,)
    assert np.argmax(cells) == 0
    assert cells[0] / (amplitude * n / 2) == pytest.approx(1.0, rel=0.01)


@PROFILES
def test_noise_cells_have_mean_power_n_sigma_squared(fs, fif):
    cells = _noise_cells(fs, fif)
    power = _noise_power(round(fs * T))
    assert np.mean(cells ** 2) / power == pytest.approx(1.0, rel=0.05)


@PROFILES
def test_noise_cells_are_rayleigh(fs, fif):
    cells = _noise_cells(fs, fif)
    scale = np.sqrt(_noise_power(round(fs * T)) / 2)
    assert stats.kstest(cells, "rayleigh", args=(0.0, scale)).pvalue > 0.01
    # the test has the power to see a noise floor off by sqrt(2)
    for off in (np.sqrt(2), 1 / np.sqrt(2)):
        assert stats.kstest(cells, "rayleigh",
                            args=(0.0, scale * off)).pvalue < 1e-6
