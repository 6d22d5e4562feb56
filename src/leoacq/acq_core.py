"""Parallel code-phase search: the 1 ms processing unit.

For each trial Doppler bin the unit mixes the real IF samples to baseband
I/Q, takes the forward DFT, multiplies by the conjugate DFT of the sampled
code, and inverse-transforms, yielding one row of circular correlations per
bin.  The grid stays complex so downstream integrators can combine units
coherently; magnitudes are taken by the integrators, not here.

The local oscillator keeps a single phase origin across units (phase derived
from each unit's absolute start time), which preserves the unit-to-unit
phase relationships that coherent and differential integration rely on.

Correlation runs in single precision: the mixing table, the code spectrum
and the LO phase are computed in float64 and stored as complex64, and each
unit is mixed, transformed and phase-rotated as complex64, so a grid costs
half the bytes of a complex128 one.  float32 rounding is about 1e-7 of a
cell's magnitude, far below the thermal noise in every cell at the weak
signal levels this engine is for.  tests/test_acq_core.py holds a complex128
reference engine and checks every grid against it within 1e-5 of the
largest reference cell (TestSinglePrecision).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .prn_code import ChipSequence, sample_code, samples_per_code
from .signal_synth import SampledSignal

_FFT_WORKERS = -1  # all cores; per-row transforms, deterministic


@dataclass(frozen=True)
class FrequencyPlan:
    """Trial Doppler offsets around a mixing center frequency."""

    center: float       # Hz, absolute (typically the IF)
    bin_width: float    # Hz
    bins: tuple         # Doppler offsets relative to center, ascending


def make_plan(center: float, half_span: float, total_coh_ms: int) -> FrequencyPlan:
    """Build the Doppler search plan for a given coherent span.

    Bin width follows the 500/T rule (T in ms): longer coherent integration
    narrows the frequency search bandwidth.
    """
    if half_span <= 0:
        raise ValueError(f"half_span must be positive, got {half_span}")
    if total_coh_ms < 1:
        raise ValueError(f"total_coh_ms must be >= 1, got {total_coh_ms}")
    bin_width = 500.0 / total_coh_ms
    n_side = math.ceil(half_span / bin_width)
    bins = tuple((k - n_side) * bin_width for k in range(2 * n_side + 1))
    return FrequencyPlan(center=center, bin_width=bin_width, bins=bins)


@dataclass
class CorrelationGrid:
    """Values over (Doppler bin, code-phase sample): one 1 ms unit's complex
    correlations, or the non-negative detection values integrated from them.

    Unit correlations from process_units are complex64 (see the module
    docstring); the integrators' detection values are float64."""

    values: np.ndarray          # shape (len(plan.bins), samples per code)
    plan: FrequencyPlan
    samples_per_chip: int


# A mixing table is a pure function of (plan, length, sample rate).  One
# cached table is enough: every caller correlates all epochs of one span (one
# plan) before moving to the next, so older tables would never be hit again.
@functools.lru_cache(maxsize=1)
def _mixing_table(plan: FrequencyPlan, n: int, sample_rate: float) -> np.ndarray:
    freqs = plan.center + np.asarray(plan.bins)
    t = np.arange(n) / sample_rate
    table = np.exp(-2j * np.pi * np.outer(freqs, t)).astype(np.complex64)
    table.flags.writeable = False  # shared by every caller
    return table


def _code_fft(code: ChipSequence, sample_rate: float) -> np.ndarray:
    spectrum = np.conj(scipy.fft.fft(sample_code(code, sample_rate)))
    return spectrum.astype(np.complex64)


def process_units(signal: SampledSignal, code: ChipSequence,
                  plan: FrequencyPlan, count: int | None = None) -> list[CorrelationGrid]:
    """Split a multi-millisecond signal into consecutive units and process each.

    All grids share the same plan; unit m starts count*m samples into the
    signal with its start time advanced accordingly.  Each unit's grid is one
    forward and one inverse FFT over the mixed (bins, n) complex64 matrix,
    both done in that matrix's memory.  Real and IQ samples of any float
    dtype are mixed the same way.
    """
    fs = signal.sample_rate
    n = samples_per_code(code, fs)
    m_total = len(signal.samples) // n
    if count is None:
        count = m_total
        if count * n != len(signal.samples):
            raise ValueError(
                f"signal length {len(signal.samples)} is not a multiple of "
                f"the {n}-sample unit")
    elif count > m_total:
        raise ValueError(
            f"signal at t={signal.t0} is too short: it has "
            f"{len(signal.samples)} samples and needs {count * n} for "
            f"{count} units")
    table = _mixing_table(plan, n, fs)
    code_fft = _code_fft(code, fs)
    freqs = plan.center + np.asarray(plan.bins)
    samples_per_chip = round(fs / code.chip_rate)
    grids = []
    for m in range(count):
        t0 = signal.t0 + m * n / fs
        # The mixed product is transformed in place and becomes the grid:
        # one (bins, n) allocation per unit.
        values = np.multiply(table, signal.samples[m * n:(m + 1) * n],
                             dtype=np.complex64)
        values = scipy.fft.fft(values, axis=1, workers=_FFT_WORKERS,
                               overwrite_x=True)
        values *= code_fft
        values = scipy.fft.ifft(values, axis=1, workers=_FFT_WORKERS,
                                overwrite_x=True)
        if t0 != 0.0:
            # Fold in the local-oscillator phase accumulated up to this unit's
            # start so the LO is continuous across units.
            lo = np.exp(-2j * np.pi * ((freqs * t0) % 1.0))
            values *= lo.astype(np.complex64)[:, None]
        grids.append(CorrelationGrid(values=values, plan=plan,
                                     samples_per_chip=samples_per_chip))
    return grids
