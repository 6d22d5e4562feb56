"""Weak-signal integration strategies over per-unit correlation grids.

Five ways of combining M complex unit grids, cell by cell, into one
non-negative detection grid:

  non-coherent        sum of magnitudes (bit-flip immune, squaring loss)
  coherent            magnitude of the sum (full gain, killed by bit flips)
  pre-guess test      per-unit sign hypothesis maximizing the running sum
  differential        magnitude of the sum of adjacent conjugate products
  alternate half-bit  10 ms blocks, odd/even block sets accumulated
                      non-coherently, cellwise max of the two

Unit-order summation is fixed (ascending unit index) so results are
deterministic regardless of how callers schedule the work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .acq_core import CorrelationGrid

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


def strategy_valid_at(strategy: Strategy, total_ms: int) -> bool:
    """Whether a strategy is mathematically defined for this span."""
    return span_error(strategy, total_ms) is None


@dataclass
class IntegrationSpec:
    strategy: Strategy
    total_ms: int

    def __post_init__(self):
        reason = span_error(self.strategy, self.total_ms)
        if reason:
            raise ValueError(reason)


def _check_grids(grids: list[CorrelationGrid], strategy: Strategy) -> None:
    IntegrationSpec(strategy, len(grids))  # raises if the span is undefined
    first = grids[0]
    for g in grids[1:]:
        if g.plan != first.plan or g.values.shape != first.values.shape:
            raise ValueError("unit grids must share plan and shape")


def integrate_noncoherent(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Sum of unit magnitudes per cell."""
    _check_grids(grids, Strategy.NON_COHERENT)
    acc = np.abs(grids[0].values)
    for g in grids[1:]:
        acc += np.abs(g.values)
    return replace(grids[0], values=acc)


def integrate_coherent(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Magnitude of the complex sum per cell."""
    _check_grids(grids, Strategy.COHERENT)
    acc = grids[0].values.copy()
    for g in grids[1:]:
        acc += g.values
    return replace(grids[0], values=np.abs(acc))


def integrate_pre_guess(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Coherent sum with a per-unit sign hypothesis, decided per cell.

    The sign of unit m is +1 iff adding it grows the running sum magnitude
    strictly, else -1 (the first unit is +1 by convention; only the relative
    pattern matters under the outer magnitude).  |a+s| > |a-s| is tested in
    its equivalent form Re(a*conj(s)) > 0, which needs no complex temporaries.
    """
    _check_grids(grids, Strategy.PRE_GUESS)
    acc = grids[0].values.copy()
    dot = np.empty(acc.shape)
    sign = np.empty(acc.shape)
    for g in grids[1:]:
        s = g.values
        np.multiply(acc.real, s.real, out=dot)
        np.multiply(acc.imag, s.imag, out=sign)
        dot += sign
        np.greater(dot, 0.0, out=sign)
        sign *= 2.0
        sign -= 1.0
        acc += sign * s
    return replace(grids[0], values=np.abs(acc))


def integrate_differential(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Magnitude of the sum of adjacent conjugate products (M-1 terms)."""
    _check_grids(grids, Strategy.DIFFERENTIAL)
    acc = np.conj(grids[0].values) * grids[1].values
    for m in range(2, len(grids)):
        acc += np.conj(grids[m - 1].values) * grids[m].values
    return replace(grids[0], values=np.abs(acc))


def integrate_alternate_half_bit(grids: list[CorrelationGrid]) -> CorrelationGrid:
    """Coherent 10 ms blocks, odd/even block sets accumulated separately.

    With bit transitions possible only every 20 ms, one of the two block
    parities is guaranteed transition-free inside its blocks; the cellwise
    larger of the two non-coherent accumulations is the detection value.
    """
    _check_grids(grids, Strategy.ALTERNATE_HALF_BIT)
    parity_acc = [np.zeros(grids[0].values.shape), np.zeros(grids[0].values.shape)]
    for b in range(len(grids) // BLOCK_UNITS):
        block = grids[b * BLOCK_UNITS].values.copy()
        for g in grids[b * BLOCK_UNITS + 1:(b + 1) * BLOCK_UNITS]:
            block += g.values
        parity_acc[b % 2] += np.abs(block)
    return replace(grids[0],
                   values=np.maximum(parity_acc[0], parity_acc[1]))


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
