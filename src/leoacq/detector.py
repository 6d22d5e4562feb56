"""Detection indicators and threshold decision on a detection grid.

Two ratio indicators are computed at the grid peak:

  MTSMR  peak over the largest value in the peak's Doppler row outside a
         one-chip exclusion window around the peak (cyclic in code phase)
  MTMR   peak over the mean of the grid excluding the rectangle of cells
         within one Doppler bin AND one chip of the peak (rows clamped at
         the plan's edges)

Both are the peak over a non-negative base, by one rule over a zero base:
a positive peak gives inf and a zero peak (an all-zero grid) nan, which no
threshold decides.  MTSMR against the empirical threshold 2.5 is the
default decision; MTMR has no usable global threshold across strategies,
so deciding on it always requires an explicit caller threshold.

Row blocks.  The detector reads a grid only through a RowSearch, fed as
consecutive blocks of Doppler rows, so no caller need hold a whole grid
(eval_harness.run_span walks a chunk of epochs block by block, feeds each
epoch's searches each row block as it is integrated and acquires an epoch
once its last block is fed).  Per block it adds the block's sum to a
running total and takes the block's first maximum, kept only if strictly
greater than the one before: ties break to the lowest bin, then sample.
It keeps the maximum of the peak's row outside the window, the window's
cells of the rows around the peak (what MTMR subtracts from the total) and
each block's last row in case the next block starts with the peak: one row
and at most 3 x (2 l_spc + 1) cells.  acquire reads the peak and both
indicators off a search fed every row.  The peak and MTSMR do not depend on
the blocks; MTMR's total is summed block by block, so a grid fed in several
blocks gives an MTMR within 1e-12 relative of the one-block value
(tests/test_detector.py::TestRowSearch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acq_core import FrequencyPlan

DEFAULT_MTSMR_THRESHOLD = 2.5


@dataclass
class AcqResult:
    """Outcome of one acquisition epoch."""

    doppler_hat: float      # Hz, offset from the plan center
    code_phase_hat: int     # samples
    mtsmr: float
    mtmr: float
    decided: bool


class RowSearch:
    """Peak and indicator reductions of one detection grid over plan, fed
    its rows in order by add; the indicators exclude l_spc code samples
    around the peak (a config's sample-per-chip rule leaves cells outside).
    It holds only what they read: one row and a few cells (Row blocks)."""

    def __init__(self, plan: FrequencyPlan, l_spc: int):
        self.plan = plan
        self.l_spc = l_spc
        self.rows = 0         # rows fed so far
        self.total = 0.0      # sum of every cell fed
        self._at = None       # (bin, sample, value) of the first maximum
        self._side = None     # max of the peak's row outside the window or 0
        self._cells = []      # window cells of rows max(0, bin - 1) to bin + 1
        self._last = None     # the last row fed, the row before the next block

    def add(self, block: np.ndarray) -> None:
        """Feed the grid's next rows, a non-empty (rows, n) array; numpy's
        argmax rejects an empty one."""
        a, n = self.rows, block.shape[1]
        window = np.arange(-self.l_spc, self.l_spc + 1)
        if self._at is not None and self._at[0] == a - 1:  # peak's next row
            self._cells.append(block[0, np.unique((window + self._at[1]) % n)])
        self.total += float(np.sum(block))
        r, j = divmod(int(np.argmax(block)), n)  # C order
        if self._at is None or block[r, j] > self._at[2]:
            self._at = (a + r, j, float(block[r, j]))
            cols = np.unique((window + j) % n)
            before = [self._last[cols]] if r == 0 and a > 0 else []
            self._cells = before + list(block[max(0, r - 1):r + 2, cols])
            self._side = float(np.max(np.delete(block[r], cols), initial=0.0))
        self._last = block[-1].copy()
        self.rows = a + len(block)

    def peak(self) -> tuple[int, int, float]:
        """(bin, sample, value) of the first maximum of the whole grid."""
        if self.rows != len(self.plan.bins):
            raise ValueError(f"the search was fed {self.rows} of "
                             f"{len(self.plan.bins)} rows")
        return self._at

    def mtsmr(self) -> float:
        return _ratio(self.peak()[2], self._side)

    def mtmr(self) -> float:
        r_max, cells = self.peak()[2], np.array(self._cells)
        n_kept = len(self.plan.bins) * len(self._last) - cells.size
        return _ratio(r_max, (self.total - float(np.sum(cells))) / n_kept)


def _ratio(top: float, base: float) -> float:
    """top / base, inf for a positive top over a zero base, nan for 0/0."""
    return top / base if base else (math.inf if top > 0.0 else math.nan)


def decide(indicator_value, threshold=DEFAULT_MTSMR_THRESHOLD):
    """The one decision rule, indicator >= threshold, elementwise on arrays."""
    return indicator_value >= threshold


def acquire(search: RowSearch,
            threshold: float = DEFAULT_MTSMR_THRESHOLD) -> AcqResult:
    """Peak, both indicators and the MTSMR threshold decision of a
    RowSearch fed every row of its grid."""
    ratio = search.mtsmr()
    i, j, _ = search.peak()
    return AcqResult(doppler_hat=float(search.plan.bins[i]),
                     code_phase_hat=j, mtsmr=ratio, mtmr=search.mtmr(),
                     decided=decide(ratio, threshold))
