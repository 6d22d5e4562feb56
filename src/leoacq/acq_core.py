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

Row bands.  Every Doppler row is independent until the detector, so the
row-wise work of a large grid is split into contiguous bands of rows, one
per core (_row_bands): here the mixing product, the code-spectrum product
and the LO rotation; in integrators, each strategy's slab walk.  The
forward and inverse FFTs stay one 2-D scipy.fft call per unit on the
calling thread (they thread themselves through workers=), so a tracer
that wraps scipy.fft from outside sees every call nested in its
process_units call, with bins x units rows each way.  Results do not
depend on the band count: each cell goes through the same ufuncs in the
same unit order whatever band holds its row, and bands write disjoint
rows.  Grids under _BAND_CELLS cells (2^20) run as one band on the
calling thread, where starting threads would cost more than they save.

One block per span.  process_units returns its unit grids as views of one
(count, bins, n) complex64 block, which a caller can pass in as out and
reuse for every epoch of a span.  Grids allocated afresh per epoch often
come back from glibc as newly mapped pages, each faulted in again.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .prn_code import ChipSequence, sample_code, samples_per_code
from .signal_synth import SampledSignal

_FFT_WORKERS = -1  # all cores; per-row transforms, deterministic

# A unit grid of at least this many cells is worked on in row bands.  The
# fast profile's largest grids (201 x 1023) stay under it: banded, its CLI
# runs took 27-35% more CPU time on a 2-vCPU host.
_BAND_CELLS = 1 << 20


def _row_bands(fn, rows: int, cells: int, align: int = 1) -> None:
    """Call fn(band) on contiguous slices that together cover range(rows).

    When cells >= _BAND_CELLS, the rows are split into os.cpu_count()
    bands, each starting at a multiple of align; one band runs on the
    calling thread and the others on worker threads that are joined before
    returning.  Otherwise fn(slice(0, rows)) runs alone on the calling
    thread.  fn must only write its own band's rows.
    """
    bands = (os.cpu_count() or 1) if cells >= _BAND_CELLS else 1
    step = -(-rows // bands)
    step = -(-step // align) * align
    slices = [slice(r, min(r + step, rows)) for r in range(0, rows, step)]
    if len(slices) == 1:
        fn(slices[0])
        return
    # Looked up here, not imported by name: concurrent.futures loads its
    # thread module on first use, so a run that never bands never pays the
    # memory for loading it.
    with concurrent.futures.ThreadPoolExecutor(len(slices) - 1) as pool:
        futures = [pool.submit(fn, band) for band in slices[1:]]
        fn(slices[0])
        for f in futures:
            f.result()


def _multiply_rows(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """out = x * y in complex64, in row bands.  y is one row broadcast to
    every row, or a (rows, 1) column."""
    def band(rows):
        np.multiply(x[rows], y[rows] if y.ndim == 2 else y, out=out[rows],
                    dtype=np.complex64)
    _row_bands(band, len(out), out.size)


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
    if not (math.isfinite(half_span) and half_span > 0):
        raise ValueError(f"half_span must be finite and positive, "
                         f"got {half_span}")
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
# The table is filled _TABLE_BLOCK rows at a time, so its float64 phase and
# complex128 temporaries stay a few MB beside it; each element is computed
# as in a one-shot build, so the table is bitwise the same.
_TABLE_BLOCK = 32


@functools.lru_cache(maxsize=1)
def _mixing_table(plan: FrequencyPlan, n: int, sample_rate: float) -> np.ndarray:
    freqs = plan.center + np.asarray(plan.bins)
    t = np.arange(n) / sample_rate
    table = np.empty((len(freqs), n), dtype=np.complex64)
    for i in range(0, len(freqs), _TABLE_BLOCK):
        block = -2j * np.pi * np.outer(freqs[i:i + _TABLE_BLOCK], t)
        table[i:i + _TABLE_BLOCK] = np.exp(block, out=block)
    table.flags.writeable = False  # shared by every caller
    return table


def _code_fft(code: ChipSequence, sample_rate: float) -> np.ndarray:
    """The conjugate DFT of the sampled code, as read-only complex64, cached
    like the mixing table: a run correlates against one code at one rate."""
    return _code_spectrum(code.chips.tobytes(), code.chip_rate, sample_rate)


@functools.lru_cache(maxsize=1)  # keyed on bytes: chips are an ndarray
def _code_spectrum(chips: bytes, chip_rate: float,
                   sample_rate: float) -> np.ndarray:
    code = ChipSequence(prn_id=0, chips=np.frombuffer(chips),
                        chip_rate=chip_rate)
    spectrum = np.conj(scipy.fft.fft(sample_code(code, sample_rate)))
    spectrum = spectrum.astype(np.complex64)
    spectrum.flags.writeable = False  # shared by every caller
    return spectrum


def process_units(signal: SampledSignal, code: ChipSequence,
                  plan: FrequencyPlan, count: int | None = None,
                  out: np.ndarray | None = None) -> list[CorrelationGrid]:
    """Split a multi-millisecond signal into consecutive units and process each.

    All grids share the same plan; unit m starts count*m samples into the
    signal with its start time advanced accordingly.  Each unit's grid is one
    forward and one inverse FFT over the mixed (bins, n) complex64 matrix,
    both done in that matrix's memory.  Real and IQ samples of any float
    dtype are mixed the same way.

    Unit m is written into out[m], a C-contiguous complex64 block of shape
    (count, bins, n), and its grid's values are that view, so the grids are
    valid only until the next call with the same out.  With out=None one
    such block is allocated for this call.  eval_harness.run_span passes
    one block for every epoch of a span, so its pages are faulted in once.
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
    if count < 1:
        raise ValueError(f"process_units needs at least one unit, got "
                         f"count={count}")
    table = _mixing_table(plan, n, fs)
    shape = (count, *table.shape)
    if out is None:
        out = np.empty(shape, np.complex64)
    elif (out.shape != shape or out.dtype != np.complex64
          or not out.flags.c_contiguous):
        raise ValueError(
            f"out must be a C-contiguous complex64 array of shape {shape}, "
            f"got {out.dtype} of shape {out.shape}, C-contiguous: "
            f"{out.flags.c_contiguous}")
    code_fft = _code_fft(code, fs)
    freqs = plan.center + np.asarray(plan.bins)
    samples_per_chip = round(fs / code.chip_rate)
    grids = []
    for m in range(count):
        t0 = signal.t0 + m * n / fs
        values = out[m]  # mixed, transformed in place: the grid
        _multiply_rows(table, signal.samples[m * n:(m + 1) * n], values)
        _fft_into(scipy.fft.fft, values)
        _multiply_rows(values, code_fft, values)
        _fft_into(scipy.fft.ifft, values)
        if t0 != 0.0:
            # Fold in the local-oscillator phase accumulated up to this unit's
            # start so the LO is continuous across units.
            lo = np.exp(-2j * np.pi * ((freqs * t0) % 1.0))
            _multiply_rows(values, lo.astype(np.complex64)[:, None], values)
        grids.append(CorrelationGrid(values=values, plan=plan,
                                     samples_per_chip=samples_per_chip))
    return grids


def _fft_into(transform, values: np.ndarray) -> None:
    """Transform the rows of values in place.  scipy.fft writes a contiguous
    complex64 matrix in place with overwrite_x, but is free not to; then the
    result is copied back."""
    result = transform(values, axis=1, workers=_FFT_WORKERS, overwrite_x=True)
    if not np.may_share_memory(result, values):
        values[...] = result
