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
signal levels this engine is for.  tests/conftest.py holds a complex128
reference engine and the tests' comparators with it: grids within 1e-5 of
the largest reference cell, the same acquisitions within 1e-5 relative.

Blocks of units.  process_units correlates the units of a signal at once,
one stage at a time over their (units, bins, n) block: mixing, forward FFT,
the product with the code spectrum and the row's LO phase (a constant of
the row, applied before the linear inverse FFT), and inverse FFT.  Every
Doppler row is independent until the detector, so the block may hold any
run of a plan's rows.  The constants of a span are its caller's:
eval_harness.run_span builds the code spectrum (code_spectrum) and one unit
buffer once per span, and walks the plan in the row blocks of row_blocks in
its outer loop.  For each block it builds the block's mixing rows
(_mixing_table of its sub-plan, bitwise those rows of the whole plan's
table), correlates each epoch of a chunk of epochs with them into a prefix
of the buffer, and hands the filled buffer to integrators.integrate as it
is, so it holds one row block's mixing rows at a time, not the whole table.

Row bands.  The row-wise work of a call of at least _BAND_CELLS cells
(all units together), the least work worth a band, is split into
min(cores, steps) contiguous bands of Doppler rows (_row_bands): here the
mixing product, and the code-spectrum product with the LO rotation, over
steps of one row; in integrators, each strategy's walk over steps of one
row slab.  A row block holds two bands' worth (row_blocks), so every whole
block of a longer plan bands.  The forward and inverse FFTs stay one 2-D
scipy.fft call each on the calling thread (they thread themselves through
workers=), so a tracer that wraps scipy.fft from outside sees every call
nested in its process_units call, with bins x units rows each way.
io_cli.pass_epochs synthesizes a pass in the same bands, over rows of
epochs: each epoch's samples depend only on its own SynthParams (its
noise seed and data bits), so a band may synthesize its epochs on any
thread.  Bands write disjoint rows, so results do not depend on the band
count.  The bands of every call inside one band_scope run on its one
worker pool; a call outside any opens its own.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import math
import os
import types
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .prn_code import sample_code
from .signal_synth import SampledSignal

_FFT_WORKERS = -1  # all cores; per-row transforms, deterministic

# The least row work worth a band, in cells of all units together: on a
# 2-vCPU host a banded call costs about 40 us more than an unbanded one,
# and the fast profile's 5 ms block of 5 x 201 x 1023 cells (twice this)
# takes 0.9-3.8 ms a strategy to integrate.  A row block holds two bands'
# worth (row_blocks), so this one constant sizes blocks and gates bands.
_BAND_CELLS = 1 << 19

# Cells per row slab: 256 kB of complex64 per unit, so an integrator's
# working set stays in cache instead of sweeping whole grids once per unit.
_SLAB_CELLS = 32768


def slab_rows(n: int) -> int:
    """Doppler rows of n samples in one row slab (one at the least)."""
    return max(1, _SLAB_CELLS // n)


def row_blocks(bins: int, units: int, n: int) -> list[tuple[int, int]]:
    """The row blocks [a, b) that walk a plan of bins rows of units x n
    cells, in order: the fewest whole row slabs that hold two bands' worth
    (2 * _BAND_CELLS cells), then any shorter tail; a smaller plan is one
    block.  A block bands iff it holds one band's worth.  The height does
    not depend on the core count, so neither does a block's memory."""
    slab = slab_rows(n)
    height = min(bins, -(-2 * _BAND_CELLS // (units * n * slab)) * slab)
    return [(a, min(a + height, bins)) for a in range(0, bins, height)]


_SCOPE = contextvars.ContextVar("band scope", default=None)


@contextlib.contextmanager
def band_scope():
    """Run the banded calls inside on one worker pool, made on the first
    (a scope that never bands starts no thread) and joined on exit."""
    scope = types.SimpleNamespace(cores=os.cpu_count() or 1, pool=None)
    token = _SCOPE.set(scope)
    try:
        yield
    finally:
        _SCOPE.reset(token)
        if scope.pool is not None:
            scope.pool.shutdown()


def _row_bands(fn, rows: int, cells: int, align: int = 1) -> None:
    """Call fn(band) on contiguous slices that together cover range(rows).

    When cells >= _BAND_CELLS, the rows are split into one band per core
    (at most one per align-row step) on the current band_scope, or on one
    opened for this call; otherwise slice(0, rows) is the one band.  Band 0
    runs on the calling thread, the others on the scope's workers, and all
    have ended when this returns or raises.  fn must only write its own
    band's rows.  Bands start at multiples of align and share the
    align-row steps as evenly as whole steps go.
    """
    scope = _SCOPE.get()
    if scope is None:
        with band_scope():
            return _row_bands(fn, rows, cells, align)
    steps = -(-rows // align)
    bands = min(scope.cores, steps) if cells >= _BAND_CELLS else 1
    edges = [k * steps // bands * align for k in range(bands)] + [rows]
    slices = [slice(a, b) for a, b in zip(edges, edges[1:])]
    # Looked up here, not imported by name: concurrent.futures loads its
    # thread module on first use, so a run that never bands never pays the
    # memory for loading it (tests/test_imports.py checks that importing
    # leoacq leaves it unloaded).
    if len(slices) > 1 and scope.pool is None:
        scope.pool = concurrent.futures.ThreadPoolExecutor(scope.cores - 1)
    futures = [scope.pool.submit(fn, band) for band in slices[1:]]
    try:
        fn(slices[0])
    finally:
        concurrent.futures.wait(futures)
    for f in futures:
        f.result()


@dataclass(frozen=True)
class FrequencyPlan:
    """Trial Doppler offsets around a mixing center frequency."""

    center: float       # Hz, absolute (typically the IF)
    bin_width: float    # Hz
    bins: tuple         # Doppler offsets relative to center, ascending


def plan_side(half_span: float, total_coh_ms: int) -> tuple[int, float]:
    """make_plan's bins on each side of the center, reaching half_span, and
    their width by the 500/T rule (T in ms): longer coherent integration
    narrows the frequency search bandwidth."""
    bin_width = 500.0 / total_coh_ms
    return math.ceil(half_span / bin_width), bin_width


def make_plan(center: float, half_span: float, total_coh_ms: int) -> FrequencyPlan:
    """Build the Doppler search plan for a given coherent span (plan_side)."""
    n_side, bin_width = plan_side(half_span, total_coh_ms)
    bins = tuple((k - n_side) * bin_width for k in range(2 * n_side + 1))
    return FrequencyPlan(center=center, bin_width=bin_width, bins=bins)


@dataclass
class CorrelationGrid:
    """One 1 ms unit's complex64 correlations over (Doppler bin, code-phase
    sample).  It remains only as the traced return of process_units, until
    ROADMAP item 1 lets that function return its block; the engine passes
    the block itself on (eval_harness.run_span)."""

    values: np.ndarray          # shape (len(plan.bins), samples per code)


def _mixing_table(plan: FrequencyPlan, n: int, sample_rate: float) -> np.ndarray:
    """The (bins, n) complex64 mixing rows of plan, read-only.  Each row
    depends only on its own bin, so rows [a, b) of a plan's table are
    bitwise the table of the sub-plan of bins[a:b].  It is filled one row
    slab at a time, so the float64 and complex128 temporaries stay small;
    each element is computed as in a one-shot build."""
    freqs = plan.center + np.asarray(plan.bins)
    t = np.arange(n) / sample_rate
    table = np.empty((len(freqs), n), dtype=np.complex64)
    height = slab_rows(n)
    for i in range(0, len(freqs), height):
        block = -2j * np.pi * np.outer(freqs[i:i + height], t)
        table[i:i + height] = np.exp(block, out=block)
    table.flags.writeable = False
    return table


def code_spectrum(code: np.ndarray, sample_rate: float) -> np.ndarray:
    """The conjugate DFT of the code sampled at sample_rate, as read-only
    complex64: the code constant of a span's correlations."""
    spectrum = np.conj(scipy.fft.fft(sample_code(code, sample_rate)))
    spectrum = spectrum.astype(np.complex64)
    spectrum.flags.writeable = False
    return spectrum


def process_units(signal: SampledSignal, spectrum: np.ndarray,
                  plan: FrequencyPlan, count: int, out: np.ndarray,
                  table: np.ndarray) -> list[CorrelationGrid]:
    """Correlate the first count n-sample units of signal into out.

    spectrum (the code's code_spectrum at the signal's rate, n long) and
    out (a C-contiguous complex64 block of shape (count, bins, n)) are
    built once per span by the caller, eval_harness.run_span, and table
    (plan's (bins, n) complex64 mixing table) once per row block and chunk
    of epochs.  Samples of any float dtype are mixed the same way.  The
    stages run in out's memory: the mixing product, one forward FFT over
    the count*bins rows, the product with the code spectrum and the LO
    phase at each unit's start, and one inverse FFT.  Grid m's values are
    the view out[m], valid only until the next call with the same out.
    """
    n = len(spectrum)
    m_total = len(signal.samples) // n
    if not 1 <= count <= m_total:
        raise ValueError(
            f"signal at t={signal.t0} is too short: it has "
            f"{len(signal.samples)} samples and needs {count * n} for "
            f"{count} units (count must be 1 to {m_total})")
    rows = len(plan.bins)
    if table.shape != (rows, n) or table.dtype != np.complex64:
        raise ValueError(
            f"table must be a complex64 array of shape {(rows, n)}, got "
            f"{table.dtype} of shape {table.shape}")
    shape = (count, rows, n)
    if (out.shape != shape or out.dtype != np.complex64
            or not out.flags.c_contiguous):
        raise ValueError(
            f"out must be a C-contiguous complex64 array of shape {shape}, "
            f"got {out.dtype} of shape {out.shape}, C-contiguous: "
            f"{out.flags.c_contiguous}")
    units = signal.samples[:count * n].reshape(count, n)
    flat = out.reshape(-1, n)
    # Fold in the local-oscillator phase accumulated up to each unit's
    # start, so the LO is continuous across units: one factor per row.
    t0 = signal.t0 + np.arange(count) * n / signal.sample_rate
    freqs = plan.center + np.asarray(plan.bins)
    lo = np.exp(-2j * np.pi * ((freqs * t0[:, None]) % 1.0))
    lo = lo.astype(np.complex64).reshape(-1, 1)

    def mix(band):
        np.multiply(table[band], units[:, None], out=out[:, band],
                    dtype=np.complex64)

    def correlate(band):
        np.multiply(flat[band], spectrum, out=flat[band], dtype=np.complex64)
        np.multiply(flat[band], lo[band], out=flat[band], dtype=np.complex64)

    _row_bands(mix, rows, out.size)
    _fft_into(scipy.fft.fft, flat)
    _row_bands(correlate, len(flat), flat.size)
    _fft_into(scipy.fft.ifft, flat)
    return [CorrelationGrid(values=out[m]) for m in range(count)]


def _fft_into(transform, values: np.ndarray) -> None:
    """Transform the rows of values in place.  scipy.fft writes a contiguous
    complex64 matrix in place with overwrite_x, but is free not to; then the
    result is copied back."""
    result = transform(values, axis=1, workers=_FFT_WORKERS, overwrite_x=True)
    if not np.may_share_memory(result, values):
        values[...] = result
