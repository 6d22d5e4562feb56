"""Detection indicators and threshold decision on a detection grid.

Two ratio indicators are computed at the grid peak:

  MTSMR  peak over the largest value in the peak's Doppler row outside a
         one-chip exclusion window around the peak (cyclic in code phase)
  MTMR   peak over the mean of the grid excluding the rectangle of cells
         within one Doppler bin AND one chip of the peak

MTSMR against the empirical threshold 2.5 is the default decision; MTMR has
no usable global threshold across strategies, so deciding on it always
requires an explicit caller threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acq_core import CorrelationGrid

DEFAULT_MTSMR_THRESHOLD = 2.5


@dataclass
class AcqResult:
    """Outcome of one acquisition epoch."""

    doppler_hat: float      # Hz, offset from the plan center
    code_phase_hat: int     # samples
    mtsmr: float
    mtmr: float
    decided: bool


def peak(grid: CorrelationGrid) -> tuple[int, int, float]:
    """Global argmax over (bin, sample); ties break to lowest bin then sample."""
    v = grid.values
    if v.size == 0:
        raise ValueError("empty detection grid")
    flat = int(np.argmax(v))  # C order: lowest row, then lowest column wins ties
    i, j = divmod(flat, v.shape[1])
    return i, j, float(v[i, j])


def _cyclic_window_mask(n: int, center: int, half_width: int) -> np.ndarray:
    """Boolean mask of the cyclic interval [center-half_width, center+half_width]."""
    idx = (np.arange(-half_width, half_width + 1) + center) % n
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


def mtsmr(grid: CorrelationGrid, l_spc: int) -> float:
    """Maximum-to-second-maximum ratio.

    The runner-up search runs over the peak's Doppler row, excluding code
    phases within l_spc samples of the peak (cyclically: code phase is
    circular).
    """
    return _mtsmr(grid.values, peak(grid), l_spc)


def _mtsmr(v: np.ndarray, at: tuple[int, int, float], l_spc: int) -> float:
    i_max, j_max, r_max = at
    row = v[i_max]
    excluded = _cyclic_window_mask(len(row), j_max, l_spc)
    if excluded.all():
        raise ValueError(
            f"exclusion window of +/-{l_spc} samples covers the whole "
            f"{len(row)}-sample row")
    r_sub = float(np.max(row[~excluded]))
    if r_sub == 0.0:
        return math.inf
    return r_max / r_sub


def mtmr(grid: CorrelationGrid, l_spc: int) -> float:
    """Maximum-to-mean ratio.

    The mean excludes cells within one Doppler bin AND within l_spc code
    samples of the peak (the literal conjunction: a rectangle around the
    peak, rows clamped at the grid edge, columns cyclic).
    """
    return _mtmr(grid.values, peak(grid), l_spc)


def _mtmr(v: np.ndarray, at: tuple[int, int, float], l_spc: int) -> float:
    i_max, j_max, r_max = at
    row_idx = np.arange(max(0, i_max - 1), min(v.shape[0], i_max + 2))
    col_idx = (np.arange(-l_spc, l_spc + 1) + j_max) % v.shape[1]
    col_idx = np.unique(col_idx)
    n_excluded = len(row_idx) * len(col_idx)
    n_kept = v.size - n_excluded
    if n_kept < 1:
        raise ValueError("peak exclusion leaves no cells to average")
    kept_sum = float(np.sum(v)) - float(np.sum(v[np.ix_(row_idx, col_idx)]))
    return r_max / (kept_sum / n_kept)


def decide(indicator_value: float, threshold: float = DEFAULT_MTSMR_THRESHOLD) -> bool:
    """Threshold comparison, inclusive at the boundary."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return indicator_value >= threshold


def acquire(grid: CorrelationGrid,
            threshold: float = DEFAULT_MTSMR_THRESHOLD) -> AcqResult:
    """Peak search, both indicators (excluding one chip around the peak)
    and the MTSMR threshold decision.  The peak is searched once and both
    indicators are taken at it."""
    l_spc = grid.samples_per_chip
    at = peak(grid)
    ratio = _mtsmr(grid.values, at, l_spc)
    return AcqResult(
        doppler_hat=float(grid.plan.bins[at[0]]),
        code_phase_hat=at[1],
        mtsmr=ratio,
        mtmr=_mtmr(grid.values, at, l_spc),
        decided=decide(ratio, threshold),
    )
