"""Weak-signal integration strategies over per-unit correlation grids.

Five ways of combining a (M, bins, n) complex block of M unit grids, cell
by cell, into one non-negative (bins, n) detection grid:

  non-coherent        sum of magnitudes (bit-flip immune, squaring loss)
  coherent            magnitude of the sum (full gain, killed by bit flips)
  pre-guess test      per-unit sign hypothesis maximizing the running sum
  differential        magnitude of the sum of adjacent conjugate products
  alternate half-bit  coherent 10 ms blocks, their magnitudes summed per
                      block parity, cellwise max of the two sums

integrate is the one entry point, and it is the slab walk: it evaluates a
strategy's kernel in slabs of acq_core.slab_rows whole Doppler rows, so the
working set stays in cache, and walks the slabs in the row bands of
acq_core._row_bands on the caller's band_scope; bands start on slab
boundaries.  Every cell depends only on its own cell in each unit, combined
in ascending unit index, so the detection grid is bitwise the whole-grid
one whatever the slabs and bands, and grids of a block of Doppler rows
integrate to those rows of the whole plan's detection grid
(eval_harness.run_span feeds them to the detector block by block).
integrate returns on the caller's thread, so a tracer that wraps
eval_harness.integrate from outside times each call whole.

The kernels keep their accumulators and scratch buffers in the unit grids'
own precision (the real dtype of the complex units: float32 for the
complex64 grids of process_units, float64 for complex128 grids); the
detection grid they fill is float64 whatever the units' dtype.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .acq_core import _row_bands, slab_rows
from .prn_code import BIT_PERIOD_MS

# alternate half-bit block length in 1 ms units: half a data bit (10 ms)
BLOCK_UNITS = BIT_PERIOD_MS // 2


class Strategy(enum.Enum):
    COHERENT = "coherent"
    NON_COHERENT = "noncoherent"
    PRE_GUESS = "preguess"
    DIFFERENTIAL = "differential"
    ALTERNATE_HALF_BIT = "alternatehalfbit"


def span_error(strategy: Strategy, total_ms) -> str | None:
    """Why strategy is undefined over total_ms 1 ms units, or None if it is
    defined there.  This is the one span-validity rule: specs and configs
    ask it, and integrate trusts a checked spec's span."""
    if (isinstance(total_ms, bool)
            or not isinstance(total_ms, (int, np.integer)) or total_ms < 1):
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


def _noncoherent(units: np.ndarray) -> np.ndarray:
    acc = np.abs(units[0])
    for u in units[1:]:
        acc += np.abs(u)
    return acc


def _coherent(units: np.ndarray) -> np.ndarray:
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
    blocks = [_coherent(units[b:b + BLOCK_UNITS])
              for b in range(0, len(units), BLOCK_UNITS)]
    return np.maximum(sum(blocks[0::2]), sum(blocks[1::2]))


_KERNELS = {
    Strategy.COHERENT: _coherent,
    Strategy.NON_COHERENT: _noncoherent,
    Strategy.PRE_GUESS: _pre_guess,
    Strategy.DIFFERENTIAL: _differential,
    Strategy.ALTERNATE_HALF_BIT: _alternate_half_bit,
}


def integrate(units: np.ndarray, strategy: Strategy) -> np.ndarray:
    """Combine the (count, rows, n) complex block of unit grids, in unit
    order, into strategy's (rows, n) float64 detection rows: the strategy's
    kernel maps each slab of whole rows of all units to its detection rows,
    in row bands when all units together hold a band's worth of cells
    (acq_core._BAND_CELLS; every whole row block of a plan does)."""
    kernel = _KERNELS[strategy]
    _, bins, n = units.shape
    out = np.empty((bins, n))
    height = slab_rows(n)

    def walk(band):
        for r in range(band.start, band.stop, height):
            rows = slice(r, min(r + height, band.stop))
            out[rows] = kernel(units[:, rows])

    _row_bands(walk, bins, units.size, align=height)
    return out
