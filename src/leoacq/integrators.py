"""Weak-signal integration strategies over per-unit correlation grids.

Five ways of combining M complex unit grids, cell by cell, into one
non-negative detection grid:

  non-coherent        sum of magnitudes (bit-flip immune, squaring loss)
  coherent            magnitude of the sum (full gain, killed by bit flips)
  pre-guess test      per-unit sign hypothesis maximizing the running sum
  differential        magnitude of the sum of adjacent conjugate products
  alternate half-bit  10 ms blocks, odd/even block sets accumulated
                      non-coherently, cellwise max of the two

Every strategy is evaluated in slabs of acq_core.slab_rows whole Doppler
rows, so its working set stays in cache.  Within a slab, units are
combined in ascending unit index, the same order as over whole grids, so
results are bit-identical to whole-grid evaluation and deterministic
regardless of how callers schedule the work.

When the unit grids together hold at least acq_core._BAND_CELLS cells,
their rows are split into bands, one per core (acq_core._row_bands), and
each band walks its own slabs on a thread of the caller's band_scope.
Bands start on slab boundaries, so every slab is the one a single walk
would cut, and the detection grid does not depend on the band count.
Every cell depends only on its own cell in each unit, so grids of a block
of Doppler rows integrate to those rows of the whole plan's detection
grid, which eval_harness.run_span feeds to the detector block by block.
The integrate_* functions themselves run on the caller's thread, where a
tracer wrapping them from outside sees them.

The kernels keep their accumulators and scratch buffers in the unit grids'
own precision (the real dtype of the complex units: float32 for the
complex64 grids of process_units, float64 for complex128 grids); the
detection grid they fill is float64 whatever the units' dtype.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .acq_core import CorrelationGrid, _row_bands, slab_rows

BLOCK_UNITS = 10  # alternate half-bit block length in units (10 ms)


class Strategy(enum.Enum):
    COHERENT = "coherent"
    NON_COHERENT = "noncoherent"
    PRE_GUESS = "preguess"
    DIFFERENTIAL = "differential"
    ALTERNATE_HALF_BIT = "alternatehalfbit"


def span_error(strategy: Strategy, total_ms) -> str | None:
    """Why strategy is undefined over total_ms 1 ms units, or None if it is
    defined there.  This is the one span-validity rule: specs, integrators
    and configs all ask it."""
    if not isinstance(total_ms, (int, np.integer)) or total_ms < 1:
        return (f"a span must be a whole number of at least one 1 ms unit, "
                f"got {total_ms!r}")
    if strategy is Strategy.DIFFERENTIAL and total_ms < 2:
        return f"differential integration needs at least two units, got {total_ms}"
    if strategy is Strategy.ALTERNATE_HALF_BIT and total_ms % (2 * BLOCK_UNITS):
        return (f"alternate half-bit needs a multiple of {2 * BLOCK_UNITS} "
                f"units, got {total_ms}")
    return None


@dataclass
class IntegrationSpec:
    strategy: Strategy
    total_ms: int

    def __post_init__(self):
        reason = span_error(self.strategy, self.total_ms)
        if reason:
            raise ValueError(reason)


def _by_slab(grids: list[CorrelationGrid], strategy: Strategy,
             kernel: Callable[[list[np.ndarray]], np.ndarray]) -> CorrelationGrid:
    """Apply kernel to each slab of whole rows of the unit grids.

    kernel maps the units' (rows, n) complex views, in unit order, to the
    (rows, n) detection values; every cell depends only on its own cell in
    each unit, so slab-wise and whole-grid evaluation give equal results.
    Each row band (see the module docstring) walks its own slabs; the
    band gate counts the cells of all units together.
    """
    IntegrationSpec(strategy, len(grids))  # raises if the span is undefined
    first = grids[0]
    if any(g.plan != first.plan or g.values.shape != first.values.shape
           for g in grids[1:]):
        raise ValueError("unit grids must share plan and shape")
    bins, n = first.values.shape
    out = np.empty((bins, n))
    height = slab_rows(n)

    def walk(band):
        for r in range(band.start, band.stop, height):
            rows = slice(r, min(r + height, band.stop))
            out[rows] = kernel([g.values[rows] for g in grids])

    _row_bands(walk, bins, len(grids) * bins * n, align=height)
    return replace(first, values=out)


def _noncoherent(units: list[np.ndarray]) -> np.ndarray:
    acc = np.abs(units[0])
    for u in units[1:]:
        acc += np.abs(u)
    return acc


def _coherent(units: list[np.ndarray]) -> np.ndarray:
    if len(units) == 1:
        return np.abs(units[0])
    acc = units[0].copy()
    for u in units[1:]:
        acc += u
    return np.abs(acc)


def _pre_guess(units: list[np.ndarray]) -> np.ndarray:
    if len(units) == 1:
        return np.abs(units[0])
    acc = units[0].copy()
    dot = np.empty(acc.shape, acc.real.dtype)
    sign = np.empty(acc.shape, acc.real.dtype)
    for s in units[1:]:
        np.multiply(acc.real, s.real, out=dot)
        np.multiply(acc.imag, s.imag, out=sign)
        dot += sign
        np.greater(dot, 0.0, out=sign)
        sign *= 2.0
        sign -= 1.0
        acc += sign * s
    return np.abs(acc)


def _differential(units: list[np.ndarray]) -> np.ndarray:
    acc = np.conj(units[0]) * units[1]
    term = np.empty_like(acc)
    for prev, u in zip(units[1:], units[2:]):
        np.conj(prev, out=term)
        term *= u
        acc += term
    return np.abs(acc)


def _alternate_half_bit(units: list[np.ndarray]) -> np.ndarray:
    shape, dtype = units[0].shape, units[0].real.dtype
    parity_acc = [np.zeros(shape, dtype), np.zeros(shape, dtype)]
    for b in range(len(units) // BLOCK_UNITS):
        block = units[b * BLOCK_UNITS].copy()
        for u in units[b * BLOCK_UNITS + 1:(b + 1) * BLOCK_UNITS]:
            block += u
        parity_acc[b % 2] += np.abs(block)
    return np.maximum(parity_acc[0], parity_acc[1])


def integrate_noncoherent(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Sum of unit magnitudes per cell."""
    return _by_slab(grids, Strategy.NON_COHERENT, _noncoherent)


def integrate_coherent(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Magnitude of the complex sum per cell."""
    return _by_slab(grids, Strategy.COHERENT, _coherent)


def integrate_pre_guess(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Coherent sum with a per-unit sign hypothesis, decided per cell.

    The sign of unit m is +1 iff adding it grows the running sum magnitude
    strictly, else -1 (the first unit is +1 by convention; only the relative
    pattern matters under the outer magnitude).  |a+s| > |a-s| is tested in
    its equivalent form Re(a*conj(s)) > 0, which needs no complex temporaries.
    """
    return _by_slab(grids, Strategy.PRE_GUESS, _pre_guess)


def integrate_differential(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Magnitude of the sum of adjacent conjugate products (M-1 terms)."""
    return _by_slab(grids, Strategy.DIFFERENTIAL, _differential)


def integrate_alternate_half_bit(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Coherent 10 ms blocks, odd/even block sets accumulated separately.

    With bit transitions possible only every 20 ms, one of the two block
    parities is guaranteed transition-free inside its blocks; the cellwise
    larger of the two non-coherent accumulations is the detection value.
    """
    return _by_slab(grids, Strategy.ALTERNATE_HALF_BIT, _alternate_half_bit)


_INTEGRATORS = {
    Strategy.COHERENT: integrate_coherent,
    Strategy.NON_COHERENT: integrate_noncoherent,
    Strategy.PRE_GUESS: integrate_pre_guess,
    Strategy.DIFFERENTIAL: integrate_differential,
    Strategy.ALTERNATE_HALF_BIT: integrate_alternate_half_bit,
}


def integrate(grids: list[CorrelationGrid], strategy: Strategy) -> CorrelationGrid:
    """Dispatch to the named strategy."""
    return _INTEGRATORS[strategy](grids)
