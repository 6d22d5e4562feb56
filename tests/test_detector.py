"""Detection indicator tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leoacq.detector import RowSearch, _ratio, acquire, decide
from leoacq.integrators import Strategy, integrate
from leoacq.signal_synth import SampledSignal, noise_sigma

from conftest import (FS_FAST, dummy_plan, fed_search, plan_for, synth_units,
                      unit_block)


class TestPeak:
    def test_single_nonzero_cell(self):
        v = np.zeros((4, 9))
        v[2, 5] = 3.0
        assert fed_search(v).peak() == (2, 5, 3.0)

    def test_all_equal_tie_breaks_to_origin(self):
        assert fed_search(np.ones((3, 7))).peak() == (0, 0, 1.0)

    def test_tie_breaks_lowest_bin_then_sample(self):
        v = np.zeros((3, 5))
        v[1, 4] = 2.0
        v[2, 1] = 2.0
        assert fed_search(v).peak()[:2] == (1, 4)
        v[1, 2] = 2.0
        assert fed_search(v).peak()[:2] == (1, 2)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.random((5, 33))
            best = (0, 0)
            for i in range(5):
                for j in range(33):
                    if v[i, j] > v[best]:
                        best = (i, j)
            i, j, r = fed_search(v).peak()
            assert (i, j) == best and r == v[best]

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            fed_search(np.zeros((0, 0)))


class TestMtsmr:
    def test_constructed_row(self):
        # peak 10 at j=0, runner-up 4 outside the +/-2-sample cyclic window
        row = [10.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        assert fed_search(row, l_spc=2).mtsmr() == 2.5

    def test_runner_up_inside_window_is_excluded(self):
        row = [10.0, 8.0, 0.0, 4.0, 0.0, 0.0, 0.0, 9.0]
        # both 8 (j=1) and 9 (j=7, cyclic) sit inside +/-2 of the peak
        assert fed_search(row, l_spc=2).mtsmr() == 2.5

    def test_runner_up_outside_window_counts(self):
        row = [10.0, 0.0, 0.0, 8.0, 0.0, 0.0, 0.0, 0.0]
        assert fed_search(row, l_spc=2).mtsmr() == 1.25

    def test_all_equal_gives_unity(self):
        assert fed_search(np.ones((2, 9))).mtsmr() == 1.0

    def test_zero_floor_gives_infinity(self):
        row = [5.0, 0.0, 0.0, 0.0, 0.0]
        assert fed_search(row).mtsmr() == math.inf

    def test_uses_peak_row_only(self):
        v = np.zeros((2, 8))
        v[0, 1] = 9.0   # large value in another Doppler row
        v[1, 0] = 10.0
        v[1, 4] = 2.0
        assert fed_search(v).mtsmr() == 5.0


class TestMtmr:
    def test_uniform_with_single_peak(self):
        v = np.ones((5, 11))
        v[2, 5] = 5.0
        assert fed_search(v).mtmr() == 5.0

    def test_matches_masked_mean_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.random((6, 21))
            g = fed_search(v, l_spc=2)
            i0, j0, r = g.peak()
            total, count = 0.0, 0
            for i in range(6):
                for j in range(21):
                    in_rows = abs(i - i0) <= 1
                    dj = min(abs(j - j0), 21 - abs(j - j0))
                    in_cols = dj <= 2
                    if not (in_rows and in_cols):
                        total += v[i, j]
                        count += 1
            assert g.mtmr() == pytest.approx(r / (total / count), rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.random((4, 15))
        g = fed_search(v)
        ref_s = g.mtsmr()
        ref_m = g.mtmr()
        g4 = fed_search(4.0 * v)  # power of two: exact
        assert g4.mtsmr() == ref_s
        assert g4.mtmr() == ref_m
        g3 = fed_search(np.pi * v)
        assert g3.mtsmr() == pytest.approx(ref_s, rel=1e-12)
        assert g3.mtmr() == pytest.approx(ref_m, rel=1e-12)
        assert g3.peak()[:2] == g.peak()[:2]

    def test_row_band_clamps_at_grid_edge(self):
        # peak in row 0: the row band [-1, 1] clamps, leaving row 2 included
        v = np.ones((3, 3))
        v[0, 0] = 7.0
        assert fed_search(v).mtmr() == 7.0


class TestDegenerateGrids:
    """Both indicators divide by a zero base by one rule: a positive peak
    gives inf, an all-zero grid nan, which no threshold decides."""

    def test_all_zero_grid_is_undecided(self):
        g = fed_search(np.zeros((3, 9)))
        assert math.isnan(g.mtsmr()) and math.isnan(g.mtmr())
        res = acquire(g, threshold=1e-9)
        assert (res.doppler_hat, res.code_phase_hat) == (-500.0, 0)
        assert math.isnan(res.mtsmr) and math.isnan(res.mtmr)
        assert res.decided is False

    def test_one_hot_grid_is_infinite(self):
        v = np.zeros((3, 9))
        v[1, 4] = 3.0
        g = fed_search(v)
        assert g.mtsmr() == math.inf and g.mtmr() == math.inf
        res = acquire(g, threshold=1e9)
        assert (res.doppler_hat, res.code_phase_hat) == (0.0, 4)
        assert res.decided is True


class TestDecide:
    def test_boundary_inclusive(self):
        assert decide(2.5, 2.5) is True

    def test_below(self):
        assert decide(1.0, 2.5) is False

    def test_default_threshold(self):
        assert decide(2.50001) and not decide(2.49999)


def _detection(sig, code, plan, strategy):
    """The detection grid of strategy over the units of sig."""
    return integrate(unit_block(sig, code, plan), strategy)


class TestMonteCarloSeparation:
    def test_strong_signal_vs_noise_distributions(self, code1):
        plan = plan_for(5)
        sigma = noise_sigma(45.0, 1.0, FS_FAST)
        strong, noise = [], []
        for k in range(200):
            sig, _ = synth_units(5, code1, d0=500.0, cn0=48.0, seed=900 + k)
            det = _detection(sig, code1, plan, Strategy.COHERENT)
            strong.append(fed_search(det, l_spc=1).mtsmr())
            rng = np.random.default_rng(4242 + k)
            noise_sig = SampledSignal(samples=rng.normal(0, sigma, 5 * 1023),
                                      sample_rate=FS_FAST)
            det = _detection(noise_sig, code1, plan, Strategy.COHERENT)
            noise.append(fed_search(det, l_spc=1).mtsmr())
        strong = np.array(strong)
        noise = np.array(noise)
        assert np.median(strong) > 2.5
        assert np.mean(strong >= 2.5) >= 0.95
        # pure-noise ratios concentrate near 1-2
        assert np.mean((noise >= 1.0) & (noise < 2.5)) >= 0.9
        assert np.median(noise) < 2.0


class TestAcquire:
    def test_reports_plan_relative_doppler_and_sample_phase(self, code1):
        sig, _ = synth_units(2, code1, d0=500.0, cn0=None, code_phase0=100.0)
        plan = plan_for(1)
        det = _detection(sig, code1, plan, Strategy.NON_COHERENT)
        res = acquire(fed_search(det, l_spc=1, plan=plan))
        assert res.doppler_hat == 500.0
        assert res.code_phase_hat == (1023 - 100) % 1023
        assert res.decided is True
        assert res.mtsmr >= 2.5
        assert res.mtmr > res.mtsmr  # mean floor sits below the runner-up

    def test_one_peak_search(self, code1, monkeypatch):
        # acquire feeds nothing: it reads the peak and both indicators off
        # the search it is given
        sig, _ = synth_units(2, code1, d0=500.0, cn0=40.0, seed=3)
        plan = plan_for(2)
        det = _detection(sig, code1, plan, Strategy.NON_COHERENT)
        search = fed_search(det, l_spc=1, plan=plan)
        (i, j, _), ratio, mean_ratio = (search.peak(), search.mtsmr(),
                                        search.mtmr())
        monkeypatch.setattr(RowSearch, "add", None)
        res = acquire(search)
        assert (res.doppler_hat, res.code_phase_hat, res.mtsmr, res.mtmr) == (
            plan.bins[i], j, ratio, mean_ratio)

    def test_threshold_respected(self, code1):
        sig, _ = synth_units(1, code1, cn0=None)
        det = _detection(sig, code1, plan_for(1), Strategy.NON_COHERENT)
        res = acquire(fed_search(det, l_spc=1), threshold=1e9)
        assert res.decided is False


# The whole-grid detector before it read grids through RowSearch, kept as
# the oracle for the row-block search.
def whole_grid_peak(v):
    i, j = divmod(int(np.argmax(v)), v.shape[1])
    return i, j, float(v[i, j])


def whole_grid_mtsmr(v, at, l_spc):
    i_max, j_max, r_max = at
    row = v[i_max]
    idx = (np.arange(-l_spc, l_spc + 1) + j_max) % len(row)
    excluded = np.zeros(len(row), dtype=bool)
    excluded[idx] = True
    r_sub = float(np.max(row[~excluded]))
    return math.inf if r_sub == 0.0 else r_max / r_sub


def whole_grid_mtmr(v, at, l_spc):
    i_max, j_max, r_max = at
    row_idx = np.arange(max(0, i_max - 1), min(v.shape[0], i_max + 2))
    col_idx = np.unique((np.arange(-l_spc, l_spc + 1) + j_max) % v.shape[1])
    n_kept = v.size - len(row_idx) * len(col_idx)
    kept_sum = float(np.sum(v)) - float(np.sum(v[np.ix_(row_idx, col_idx)]))
    return r_max / (kept_sum / n_kept)


# The RowSearch before it kept only the window's cells: it copies the
# peak's row, its neighbour rows and each block's last row.  Kept as the
# bitwise reference for the cell-keeping search.
class RowHoldingSearch:
    def __init__(self, plan, l_spc):
        self.plan, self.l_spc = plan, l_spc
        self.rows, self.total, self._at, self._near = 0, 0.0, None, []
        self._last = None

    def add(self, block):
        a = self.rows
        if self._at is not None and self._at[0] == a - 1:
            self._near.append(block[0].copy())  # the row after the peak
        self.total += float(np.sum(block))
        r, j = divmod(int(np.argmax(block)), block.shape[1])
        if self._at is None or block[r, j] > self._at[2]:
            self._at = (a + r, j, float(block[r, j]))
            before = [self._last] if r == 0 and a > 0 else []
            self._near = before + list(block[max(0, r - 1):r + 2].copy())
        self._last = block[-1].copy()
        self.rows = a + len(block)

    def peak(self):
        assert self.rows == len(self.plan.bins)
        return self._at

    def mtsmr(self):
        (i, j, r_max), l_spc = self.peak(), self.l_spc
        row = self._near[i - max(0, i - 1)]
        outside = np.delete(row, (np.arange(-l_spc, l_spc + 1) + j) % len(row))
        return _ratio(r_max, float(np.max(outside)))

    def mtmr(self):
        i, j, r_max = self.peak()
        near = np.array(self._near)
        n = near.shape[1]
        col_idx = np.unique((np.arange(-self.l_spc, self.l_spc + 1) + j) % n)
        n_kept = len(self.plan.bins) * n - len(near) * len(col_idx)
        rect = near[np.ix_(np.arange(len(near)), col_idx)]
        return _ratio(r_max, (self.total - float(np.sum(rect))) / n_kept)


def fed_in_blocks(search, v, edges):
    """search fed the rows of grid v cut at the sorted row edges."""
    for a, b in zip(edges, edges[1:]):
        search.add(v[a:b])
    return search


def held_bytes(search):
    """Bytes of the arrays a search holds in its fields or their lists."""
    fields = [f if isinstance(f, list) else [f] for f in vars(search).values()]
    return sum(a.nbytes for f in fields for a in f
               if isinstance(a, np.ndarray))


class TestRowSearch:
    # 6 bins cut into rows 0-2 and 3-5, or into 1-row blocks: the peak on a
    # block's first row, on its last row, and on the plan's first and last
    @settings(max_examples=300)
    @given(seed=st.integers(0, 2 ** 32 - 1), bins=st.integers(1, 9),
           n=st.integers(10, 40), l_spc=st.integers(1, 4),
           cuts=st.lists(st.integers(1, 8), max_size=8),
           peak_row=st.none() | st.integers(0, 8), ties=st.integers(0, 6))
    @example(seed=1, bins=6, n=16, l_spc=2, cuts=[3], peak_row=3, ties=0)
    @example(seed=2, bins=6, n=16, l_spc=2, cuts=[3], peak_row=2, ties=0)
    @example(seed=3, bins=6, n=16, l_spc=2, cuts=[3], peak_row=0, ties=0)
    @example(seed=4, bins=6, n=16, l_spc=2, cuts=[3], peak_row=5, ties=0)
    @example(seed=5, bins=6, n=12, l_spc=4, cuts=[1, 2, 3, 4, 5],
             peak_row=3, ties=0)
    @example(seed=6, bins=6, n=12, l_spc=1, cuts=[1, 2, 3, 4, 5],
             peak_row=5, ties=0)
    @example(seed=7, bins=6, n=12, l_spc=1, cuts=[1, 2, 3, 4, 5],
             peak_row=0, ties=0)
    def test_row_blocks_equal_the_whole_grid(self, seed, bins, n, l_spc,
                                             cuts, peak_row, ties):
        rng = np.random.default_rng(seed)
        v = rng.exponential(size=(bins, n))
        if peak_row is not None:
            v[peak_row % bins, rng.integers(n)] = 2.0 * v.max()
        v.flat[rng.integers(v.size, size=ties)] = v.max()  # forced ties
        edges = sorted({c for c in cuts if c < bins} | {0, bins})
        search = fed_in_blocks(RowSearch(dummy_plan(bins), l_spc), v, edges)
        ref = fed_in_blocks(RowHoldingSearch(dummy_plan(bins), l_spc), v,
                            edges)
        # bitwise the row-holding search's, for the same cuts
        assert (search.peak(), search.mtsmr(), search.mtmr()) == (
            ref.peak(), ref.mtsmr(), ref.mtmr())
        at = whole_grid_peak(v)
        if peak_row is not None and ties == 0:
            assert at[0] == peak_row % bins
        assert search.peak() == at
        assert search.mtsmr() == whole_grid_mtsmr(v, at, l_spc)
        want = whole_grid_mtmr(v, at, l_spc)
        if len(edges) == 2:
            assert search.mtmr() == want
        else:
            assert search.mtmr() == pytest.approx(want, rel=1e-12, abs=0)

    def test_acquire_reads_the_search(self):
        v = np.ones((5, 11))
        v[3, 7] = 5.0
        search = RowSearch(dummy_plan(5), 1)
        for a in range(5):
            search.add(v[a:a + 1])
        res = acquire(search, threshold=5.0)
        assert res == acquire(fed_search(v), threshold=5.0)
        assert (res.doppler_hat, res.code_phase_hat) == (500.0, 7)
        assert (res.mtsmr, res.mtmr, res.decided) == (5.0, 5.0, True)

    # 8 bins in blocks of 4 rows: the peak on both plan edges and on a
    # block's last and first row
    @pytest.mark.parametrize("peak_row", [0, 3, 4, 7])
    def test_holds_one_row_and_the_window_cells(self, peak_row):
        n, l_spc = 64, 2
        v = np.random.default_rng(peak_row).exponential(size=(8, n))
        v[peak_row, 5] = 2.0 * v.max()
        search = fed_in_blocks(RowSearch(dummy_plan(8), l_spc), v, [0, 4, 8])
        assert search.peak()[0] == peak_row
        assert held_bytes(search) <= (n + 3 * (2 * l_spc + 1)) * 8

    def test_all_rows_must_be_fed(self):
        search = RowSearch(dummy_plan(4), 1)
        search.add(np.ones((3, 6)))
        with pytest.raises(ValueError, match="fed 3 of 4 rows"):
            acquire(search)
        search.add(np.ones((2, 6)))
        with pytest.raises(ValueError, match="fed 5 of 4 rows"):
            acquire(search)
