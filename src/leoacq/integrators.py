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
from dataclasses import dataclass

import numpy as np

from .acq_core import CorrelationGrid, FrequencyPlan

BLOCK_UNITS = 10  # alternate half-bit block length in units (10 ms)


class Strategy(enum.Enum):
    COHERENT = "coherent"
    NON_COHERENT = "noncoherent"
    PRE_GUESS = "preguess"
    DIFFERENTIAL = "differential"
    ALTERNATE_HALF_BIT = "alternatehalfbit"


@dataclass
class IntegrationSpec:
    strategy: Strategy
    total_ms: int
    unit_ms: int = 1

    def __post_init__(self):
        if self.total_ms % self.unit_ms != 0:
            raise ValueError(
                f"total_ms {self.total_ms} not a multiple of unit_ms {self.unit_ms}")
        if (self.strategy is Strategy.ALTERNATE_HALF_BIT
                and self.total_ms % (2 * BLOCK_UNITS * self.unit_ms) != 0):
            raise ValueError(
                "alternate half-bit needs total_ms to be a multiple of 20")

    @property
    def unit_count(self) -> int:
        return self.total_ms // self.unit_ms


@dataclass
class DetectionGrid:
    """Non-negative detection values, same shape as the unit grids."""

    values: np.ndarray
    spec: IntegrationSpec
    plan: FrequencyPlan
    samples_per_chip: int


def _check_grids(grids: list[CorrelationGrid]) -> None:
    if not grids:
        raise ValueError("need at least one unit grid")
    first = grids[0]
    for g in grids[1:]:
        if g.plan != first.plan or g.values.shape != first.values.shape:
            raise ValueError("unit grids must share plan and shape")


def _result(values: np.ndarray, grids, strategy: Strategy) -> DetectionGrid:
    spec = IntegrationSpec(strategy=strategy, total_ms=len(grids))
    return DetectionGrid(values=values, spec=spec, plan=grids[0].plan,
                         samples_per_chip=grids[0].samples_per_chip)


def integrate_noncoherent(grids: list[CorrelationGrid]) -> DetectionGrid:
    """Sum of unit magnitudes per cell."""
    _check_grids(grids)
    acc = np.abs(grids[0].values)
    for g in grids[1:]:
        acc += np.abs(g.values)
    return _result(acc, grids, Strategy.NON_COHERENT)


def integrate_coherent(grids: list[CorrelationGrid]) -> DetectionGrid:
    """Magnitude of the complex sum per cell."""
    _check_grids(grids)
    acc = grids[0].values.copy()
    for g in grids[1:]:
        acc += g.values
    return _result(np.abs(acc), grids, Strategy.COHERENT)


def integrate_pre_guess(grids: list[CorrelationGrid]) -> DetectionGrid:
    """Coherent sum with a per-unit sign hypothesis, decided per cell.

    The sign of unit m is +1 iff adding it grows the running sum magnitude
    strictly, else -1 (the first unit is +1 by convention; only the relative
    pattern matters under the outer magnitude).  |a+s| > |a-s| is tested in
    its equivalent form Re(a*conj(s)) > 0, which needs no complex temporaries.
    """
    _check_grids(grids)
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
    return _result(np.abs(acc), grids, Strategy.PRE_GUESS)


def integrate_differential(grids: list[CorrelationGrid]) -> DetectionGrid:
    """Magnitude of the sum of adjacent conjugate products (M-1 terms)."""
    _check_grids(grids)
    if len(grids) < 2:
        raise ValueError("differential integration needs at least two units")
    acc = np.conj(grids[0].values) * grids[1].values
    for m in range(2, len(grids)):
        acc += np.conj(grids[m - 1].values) * grids[m].values
    return _result(np.abs(acc), grids, Strategy.DIFFERENTIAL)


def integrate_alternate_half_bit(grids: list[CorrelationGrid]) -> DetectionGrid:
    """Coherent 10 ms blocks, odd/even block sets accumulated separately.

    With bit transitions possible only every 20 ms, one of the two block
    parities is guaranteed transition-free inside its blocks; the cellwise
    larger of the two non-coherent accumulations is the detection value.
    """
    _check_grids(grids)
    m = len(grids)
    if m % (2 * BLOCK_UNITS) != 0:
        raise ValueError(
            f"alternate half-bit needs a multiple of {2 * BLOCK_UNITS} units, got {m}")
    parity_acc = [np.zeros(grids[0].values.shape), np.zeros(grids[0].values.shape)]
    for b in range(m // BLOCK_UNITS):
        block = grids[b * BLOCK_UNITS].values.copy()
        for g in grids[b * BLOCK_UNITS + 1:(b + 1) * BLOCK_UNITS]:
            block += g.values
        parity_acc[b % 2] += np.abs(block)
    return _result(np.maximum(parity_acc[0], parity_acc[1]),
                   grids, Strategy.ALTERNATE_HALF_BIT)


_INTEGRATORS = {
    Strategy.COHERENT: integrate_coherent,
    Strategy.NON_COHERENT: integrate_noncoherent,
    Strategy.PRE_GUESS: integrate_pre_guess,
    Strategy.DIFFERENTIAL: integrate_differential,
    Strategy.ALTERNATE_HALF_BIT: integrate_alternate_half_bit,
}


def integrate(grids: list[CorrelationGrid], strategy: Strategy) -> DetectionGrid:
    """Dispatch to the named strategy."""
    return _INTEGRATORS[strategy](grids)


def strategy_valid_at(strategy: Strategy, total_ms: int, unit_ms: int = 1) -> bool:
    """Whether a strategy is mathematically defined for this span."""
    m = total_ms // unit_ms
    if strategy is Strategy.DIFFERENTIAL:
        return m >= 2
    if strategy is Strategy.ALTERNATE_HALF_BIT:
        return m % (2 * BLOCK_UNITS) == 0 and m > 0
    return m >= 1
