"""Weak-signal integration strategies over per-unit correlation grids.

Five ways of combining a (M, bins, n) complex block of M unit grids, cell
by cell, into one non-negative (bins, n) detection grid:

  non-coherent        sum of magnitudes (bit-flip immune, squaring loss)
  coherent            magnitude of the sum (full gain, killed by bit flips)
  pre-guess test      per-unit sign hypothesis maximizing the running sum
  differential        magnitude of the sum of adjacent conjugate products
  alternate half-bit  10 ms blocks, odd/even block sets accumulated
                      non-coherently, cellwise max of the two

integrate is the one entry point.  It evaluates a strategy's kernel in
slabs of acq_core.slab_rows whole Doppler rows, so the working set stays in
cache, and walks the slabs in the row bands of acq_core._row_bands on the
caller's band_scope; bands start on slab boundaries.  Every cell depends
only on its own cell in each unit, combined in ascending unit index, so
the detection grid is bitwise the whole-grid one whatever the slabs and
bands, and grids of a block of Doppler rows integrate to those rows of the
whole plan's detection grid (eval_harness.run_span feeds them to the
detector block by block).  integrate returns on the caller's thread, so a
tracer that wraps eval_harness.integrate from outside times each call whole.

The kernels keep their accumulators and scratch buffers in the unit grids'
own precision (the real dtype of the complex units: float32 for the
complex64 grids of process_units, float64 for complex128 grids); the
detection grid they fill is float64 whatever the units' dtype.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .acq_core import _row_bands, slab_rows

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


def _by_slab(units: np.ndarray, strategy: Strategy,
             kernel: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply kernel, which maps the units' (rows, n) complex views in unit
    order to their (rows, n) detection values, to each slab of whole rows,
    in row bands gated on the cells of all units together."""
    IntegrationSpec(strategy, len(units))  # raises if the span is undefined
    _, bins, n = units.shape
    out = np.empty((bins, n))
    height = slab_rows(n)

    def walk(band):
        for r in range(band.start, band.stop, height):
            rows = slice(r, min(r + height, band.stop))
            out[rows] = kernel(units[:, rows])

    _row_bands(walk, bins, units.size, align=height)
    return out


def _noncoherent(units: np.ndarray) -> np.ndarray:
    acc = np.abs(units[0])
    for u in units[1:]:
        acc += np.abs(u)
    return acc


def _coherent(units: np.ndarray) -> np.ndarray:
    if len(units) == 1:
        return np.abs(units[0])
    acc = units[0].copy()
    for u in units[1:]:
        acc += u
    return np.abs(acc)


def _pre_guess(units: np.ndarray) -> np.ndarray:
    """Coherent sum with a per-unit sign hypothesis, decided per cell.

    The sign of unit m is +1 iff adding it grows the running sum magnitude
    strictly, else -1 (the first unit is +1 by convention; only the relative
    pattern matters under the outer magnitude).  |a+s| > |a-s| is tested in
    its equivalent form Re(a*conj(s)) > 0, which needs no complex temporaries.
    """
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


def _differential(units: np.ndarray) -> np.ndarray:
    acc = np.conj(units[0]) * units[1]
    conj, term = np.empty_like(acc), np.empty_like(acc)
    for prev, u in zip(units[1:], units[2:]):
        # a separate out: numpy rounds a one-cell in-place product differently
        np.multiply(np.conj(prev, out=conj), u, out=term)
        acc += term
    return np.abs(acc)


def _alternate_half_bit(units: np.ndarray) -> np.ndarray:
    """Coherent 10 ms blocks, odd/even block sets accumulated separately.

    With bit transitions possible only every 20 ms, one of the two block
    parities is guaranteed transition-free inside its blocks; the cellwise
    larger of the two non-coherent accumulations is the detection value.
    """
    shape, dtype = units[0].shape, units[0].real.dtype
    parity_acc = [np.zeros(shape, dtype), np.zeros(shape, dtype)]
    for b in range(len(units) // BLOCK_UNITS):
        block = units[b * BLOCK_UNITS].copy()
        for u in units[b * BLOCK_UNITS + 1:(b + 1) * BLOCK_UNITS]:
            block += u
        parity_acc[b % 2] += np.abs(block)
    return np.maximum(parity_acc[0], parity_acc[1])


_KERNELS = {
    Strategy.COHERENT: _coherent,
    Strategy.NON_COHERENT: _noncoherent,
    Strategy.PRE_GUESS: _pre_guess,
    Strategy.DIFFERENTIAL: _differential,
    Strategy.ALTERNATE_HALF_BIT: _alternate_half_bit,
}


def integrate(units: np.ndarray, strategy: Strategy) -> np.ndarray:
    """Combine the (count, rows, n) complex block of unit grids, in unit
    order, into strategy's (rows, n) float64 detection rows."""
    return _by_slab(units, strategy, _KERNELS[strategy])
