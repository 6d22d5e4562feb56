"""Shared helpers for the test suite.

Fast-profile signal parameters (1 sample per chip, low IF) keep the
Monte-Carlo tests quick; the paper-profile 4 samples/chip defaults are
exercised where accuracy claims demand them.
"""

import concurrent.futures
import contextlib
import os
import threading
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import settings

from leoacq import acq_core
from leoacq.acq_core import (CorrelationGrid, FrequencyPlan, _mixing_table,
                             code_spectrum, make_plan, process_units)
from leoacq.detector import RowSearch, acquire
from leoacq.geometry import PASS_COLUMNS, PassScenario
from leoacq.integrators import integrate
from leoacq.prn_code import (CHIP_RATE, generate_code, sample_code,
                             samples_per_code)
from leoacq.signal_synth import SampledSignal, SynthParams, synthesize

# CPU speed on shared hosts drifts between runs, so per-example deadlines
# would fail examples at random.
settings.register_profile("leoacq", deadline=None)
settings.load_profile("leoacq")

# fast profile: 1 sample/chip
FS_FAST = 1.023e6
FIF_FAST = 0.25e6

# paper-style profile: 4 samples/chip
FS_FULL = 4.092e6
FIF_FULL = 1.25e6


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Every thread a test starts, the engine's row-band workers included,
    has ended when the test returns."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before, "a test left threads running"


@contextlib.contextmanager
def row_bands(cores, gate=1):
    """Split the engine's row-wise work into `cores` bands (None: the core
    count is unknown) on every grid of at least `gate` cells."""
    with mock.patch.object(acq_core, "_BAND_CELLS", gate), \
            mock.patch.object(os, "cpu_count", return_value=cores):
        yield


def no_pool(*args, **kwargs):
    """A concurrent.futures.ThreadPoolExecutor for code that must start no
    worker thread."""
    raise AssertionError("the engine started worker threads")


def counted_pools(monkeypatch):
    """Record the arguments of every ThreadPoolExecutor made."""
    pools = []
    pool = concurrent.futures.ThreadPoolExecutor

    def counted_pool(*args, **kwargs):
        pools.append(args)
        return pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        counted_pool)
    return pools


@contextlib.contextmanager
def block_rows(height, n):
    """Make acq_core.row_blocks cut plans of n-sample rows into blocks of
    `height` rows: one core, `height`-row slabs and a gate of one cell."""
    with row_bands(1), mock.patch.object(acq_core, "_SLAB_CELLS", height * n):
        yield


@pytest.fixture(scope="session")
def code1():
    return generate_code(1)


def fast_params(**overrides) -> SynthParams:
    base = dict(prn_id=1, sample_rate=FS_FAST, intermediate_freq=FIF_FAST,
                carrier_freq=1.5e9, duration=1e-3)
    base.update(overrides)
    return SynthParams(**base)


def full_params(**overrides) -> SynthParams:
    base = dict(prn_id=1, sample_rate=FS_FULL, intermediate_freq=FIF_FULL,
                carrier_freq=1.5e9, duration=1e-3)
    base.update(overrides)
    return SynthParams(**base)


def noise_only_signal(rng, sigma, n, fs=FS_FAST) -> SampledSignal:
    return SampledSignal(samples=rng.normal(0.0, sigma, n), sample_rate=fs)


def dummy_plan(n_bins=3) -> FrequencyPlan:
    side = n_bins // 2
    return FrequencyPlan(center=0.0, bin_width=500.0,
                         bins=tuple((k - side) * 500.0 for k in range(n_bins)))


def grids_from_values(value_arrays):
    """Stack raw complex matrices into one (units, rows, n) block of unit
    grids."""
    return np.stack([np.atleast_2d(np.asarray(v, dtype=np.complex128))
                     for v in value_arrays])


def correlate(signal, code, plan, count=None, out=None, table=None):
    """process_units of signal over plan, with the constants that run_span
    builds once per span made here unless given: the code spectrum, plan's
    mixing table and a (count, bins, n) unit buffer.  count defaults to the
    signal's whole units; one below 1 gets an empty buffer, so that
    process_units rejects the count itself."""
    fs = signal.sample_rate
    n = samples_per_code(len(code), fs)
    if count is None:
        count = len(signal.samples) // n
    if table is None:
        table = _mixing_table(plan, n, fs)
    if out is None:
        out = np.empty((max(count, 0), len(plan.bins), n), np.complex64)
    return process_units(signal, code_spectrum(code, fs), plan, count, out,
                         table)


def unit_block(signal, code, plan, **kwargs):
    """correlate's grids of signal over plan as one (units, bins, n)
    block, as integrate takes them."""
    return np.stack([g.values
                     for g in correlate(signal, code, plan, **kwargs)])


def reference_process_units(signal, code, plan):
    """process_units in complex128: mixing table, code spectrum, FFTs and LO
    phase all in double precision, one unit at a time.  The one oracle for
    the single-precision engine, through the two comparators below."""
    fs = signal.sample_rate
    n = samples_per_code(len(code), fs)
    freqs = plan.center + np.asarray(plan.bins)
    table = np.exp(-2j * np.pi * np.outer(freqs, np.arange(n) / fs))
    code_fft = np.conj(scipy.fft.fft(sample_code(code, fs)))
    grids = []
    for m in range(len(signal.samples) // n):
        t0 = signal.t0 + m * n / fs
        values = scipy.fft.fft(table * signal.samples[m * n:(m + 1) * n], axis=1)
        values = scipy.fft.ifft(values * code_fft, axis=1)
        values *= np.exp(-2j * np.pi * ((freqs * t0) % 1.0))[:, None]
        grids.append(CorrelationGrid(values=values))
    return grids


def reference_acquisitions(signal, code, plan, specs, threshold):
    """run_span's results for one epoch of a span's units, by the reference."""
    units = np.stack([g.values
                      for g in reference_process_units(signal, code, plan)])
    l_spc = round(signal.sample_rate / CHIP_RATE)
    return [acquire(fed_search(integrate(units, spec.strategy), l_spc, plan),
                    threshold) for spec in specs]


def assert_grids_match(got, ref):
    """Each grid of got is within 1e-5 of the largest cell of ref's grid."""
    for g, r in zip(got, ref, strict=True):
        assert g.shape == r.shape and (
            np.abs(g - r).max() <= 1e-5 * np.abs(r).max())


def assert_acquires_as(got, want, threshold):
    """got (the engine's AcqResult) acquires as want (the reference's): the
    same peak bin, code sample and decision, MTSMR and MTMR within 1e-5
    relative; the decision may flip if want's MTSMR is that near threshold."""
    assert got.doppler_hat == want.doppler_hat
    assert got.code_phase_hat == want.code_phase_hat
    assert (got.mtsmr, got.mtmr) == pytest.approx((want.mtsmr, want.mtmr),
                                                  rel=1e-5)
    assert got.decided == want.decided or want.mtsmr == pytest.approx(
        threshold, rel=1e-5)


def fed_search(values, l_spc=1, plan=None) -> RowSearch:
    """A RowSearch fed a whole detection grid of values as one block, over
    plan (by default one dummy bin per row), excluding l_spc samples around
    the peak (one chip at the fast profile's 1 sample/chip)."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    search = RowSearch(dummy_plan(len(values)) if plan is None else plan,
                       l_spc)
    search.add(values)
    return search


def synth_units(m, code, d0=1000.0, cn0=None, seed=0, fs=FS_FAST,
                fif=FIF_FAST, code_phase0=0.0, data_bits=None,
                bit_phase0=0.0, amplitude=1.0, doppler_rate=0.0, prn_id=1):
    """Synthesize m milliseconds of code, the code of prn_id, and return
    (signal, plan-ready params)."""
    params = SynthParams(prn_id=prn_id, sample_rate=fs,
                         intermediate_freq=fif, carrier_freq=1.5e9,
                         amplitude=amplitude, code_phase0=code_phase0,
                         doppler0=d0, doppler_rate=doppler_rate,
                         data_bits=data_bits, bit_phase0=bit_phase0,
                         cn0=cn0, duration=m * 1e-3, seed=seed)
    return synthesize(params, code=code), params


def plan_for(total_ms, fif=FIF_FAST, half_span=2e3):
    return make_plan(fif, half_span, total_ms)


def flat_scenario(n, doppler=0.0, step=1.0) -> PassScenario:
    """A pass of n epochs step s apart at one range (1000 km, 45 deg, 150 dB
    path loss) and one Doppler, so that every epoch gets the same amplitude."""
    link = dict(range_m=1000e3, elevation_deg=45.0, radial_velocity=0.0,
                doppler=doppler, doppler_rate=0.0, path_loss_db=150.0)
    columns = [np.arange(n) * float(step)]
    columns += [np.full(n, float(link[name])) for name in PASS_COLUMNS[1:]]
    return PassScenario(samples=np.rec.fromarrays(columns, names=PASS_COLUMNS))
