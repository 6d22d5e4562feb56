"""Shared helpers for the test suite.

Fast-profile signal parameters (1 sample per chip, low IF) keep the
Monte-Carlo tests quick; the paper-profile 4 samples/chip defaults are
exercised where accuracy claims demand them.
"""

import contextlib
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from leoacq import acq_core
from leoacq.acq_core import FrequencyPlan, make_plan, process_units
from leoacq.detector import RowSearch
from leoacq.prn_code import generate_code
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


def unit_block(signal, code, plan, **kwargs):
    """process_units' grids of signal over plan as one (units, bins, n)
    block, as integrate takes them."""
    return np.stack([g.values
                     for g in process_units(signal, code, plan, **kwargs)])


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
                bit_phase0=0.0, amplitude=1.0, doppler_rate=0.0):
    """Synthesize m milliseconds and return (signal, plan-ready params)."""
    params = SynthParams(prn_id=code.prn_id, sample_rate=fs,
                         intermediate_freq=fif, carrier_freq=1.5e9,
                         amplitude=amplitude, code_phase0=code_phase0,
                         doppler0=d0, doppler_rate=doppler_rate,
                         data_bits=data_bits, bit_phase0=bit_phase0,
                         cn0=cn0, duration=m * 1e-3, seed=seed)
    return synthesize(params, code=code), params


def plan_for(total_ms, fif=FIF_FAST, half_span=2e3):
    return make_plan(fif, half_span, total_ms)
