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
It copies the peak's row and its neighbour rows, and each block's last row
in case the next block starts with the peak.  acquire reads the peak and
both indicators off a search fed every row.  The peak and MTSMR do not
depend on the blocks; MTMR's total is summed block by block, so a grid fed
in several blocks gives an MTMR within 1e-12 relative of the one-block
value (tests/test_detector.py::TestRowSearch).
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
    around the peak."""

    def __init__(self, plan: FrequencyPlan, l_spc: int):
        self.plan = plan
        self.l_spc = l_spc
        self.rows = 0         # rows fed so far
        self.total = 0.0      # sum of every cell fed
        self._at = None       # (bin, sample, value) of the first maximum
        self._near = []       # rows max(0, bin - 1) to bin + 1, as fed
        self._last = None     # the last row fed

    def add(self, block: np.ndarray) -> None:
        """Feed the grid's next rows, a non-empty (rows, n) array; numpy's
        argmax rejects an empty one."""
        a = self.rows
        if self._at is not None and self._at[0] == a - 1:
            self._near.append(block[0].copy())  # the row after the peak
        self.total += float(np.sum(block))
        r, j = divmod(int(np.argmax(block)), block.shape[1])  # C order
        if self._at is None or block[r, j] > self._at[2]:
            self._at = (a + r, j, float(block[r, j]))
            before = [self._last] if r == 0 and a > 0 else []
            self._near = before + list(block[max(0, r - 1):r + 2].copy())
        self._last = block[-1].copy()
        self.rows = a + len(block)

    def peak(self) -> tuple[int, int, float]:
        """(bin, sample, value) of the first maximum of the whole grid."""
        if self.rows != len(self.plan.bins):
            raise ValueError(f"the search was fed {self.rows} of "
                             f"{len(self.plan.bins)} rows")
        return self._at

    def mtsmr(self) -> float:
        (i, j, r_max), l_spc = self.peak(), self.l_spc
        row = self._near[i - max(0, i - 1)]
        excluded = np.zeros(len(row), dtype=bool)
        excluded[(np.arange(-l_spc, l_spc + 1) + j) % len(row)] = True
        if excluded.all():
            raise ValueError(f"exclusion window of +/-{l_spc} samples "
                             f"covers the whole {len(row)}-sample row")
        return _ratio(r_max, float(np.max(row[~excluded])))

    def mtmr(self) -> float:
        i, j, r_max = self.peak()
        near = np.array(self._near)
        n = near.shape[1]
        col_idx = np.unique((np.arange(-self.l_spc, self.l_spc + 1) + j) % n)
        n_kept = len(self.plan.bins) * n - len(near) * len(col_idx)
        if n_kept < 1:
            raise ValueError("peak exclusion leaves no cells to average")
        rect = near[np.ix_(np.arange(len(near)), col_idx)]
        return _ratio(r_max, (self.total - float(np.sum(rect))) / n_kept)


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
