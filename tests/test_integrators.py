"""Integration-strategy algebra and Monte-Carlo behaviour."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from leoacq.acq_core import _SLAB_CELLS, make_plan, slab_rows
from leoacq.detector import decide
from leoacq.integrators import (BLOCK_UNITS, IntegrationSpec, Strategy,
                                _alternate_half_bit, _coherent, _differential,
                                _noncoherent, _pre_guess, integrate,
                                span_error)
from leoacq.prn_code import BIT_PERIOD_MS
from leoacq.signal_synth import SampledSignal

from conftest import (FS_FULL, FIF_FULL, FS_FAST, FIF_FAST, fed_search,
                      grids_from_values, plan_for, row_bands, synth_units,
                      unit_block)


def _random_units(rng, m, shape=(3, 16)):
    return grids_from_values(
        [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(m)])


def _signed_units(signs, z=None, shape=(3, 8), cell=(1, 3)):
    """Units that are all zero except one cell holding sign * z."""
    if z is None:
        z = 2.0 - 1.5j
    arrays = []
    for s in signs:
        a = np.zeros(shape, dtype=np.complex128)
        a[cell] = s * z
        arrays.append(a)
    return grids_from_values(arrays), z, cell


class TestAlgebraicIdentities:
    def test_single_unit_noncoherent_equals_coherent(self):
        rng = np.random.default_rng(0)
        (g,) = _random_units(rng, 1)
        nc = integrate(g[None], Strategy.NON_COHERENT)
        co = integrate(g[None], Strategy.COHERENT)
        assert np.array_equal(nc, np.abs(g))
        assert np.array_equal(nc, co)

    def test_noncoherent_is_sign_blind(self):
        grids, z, cell = _signed_units([1, -1, 1, -1])
        out = integrate(grids, Strategy.NON_COHERENT)
        assert out[cell] == pytest.approx(4 * abs(z), rel=1e-12)

    def test_coherent_alternating_cancels_exactly(self):
        grids, _, cell = _signed_units([1, -1, 1, -1])
        assert integrate(grids, Strategy.COHERENT)[cell] == 0.0

    def test_coherent_linear_gain(self):
        grids, z, cell = _signed_units([1, 1, 1, 1, 1])
        got = integrate(grids, Strategy.COHERENT)[cell]
        assert got == pytest.approx(5 * abs(z), rel=1e-12)

    def test_pre_guess_rectifies_flips(self):
        grids, z, cell = _signed_units([1, -1, 1])
        got = integrate(grids, Strategy.PRE_GUESS)[cell]
        assert got == pytest.approx(3 * abs(z), rel=1e-12)

    def test_pre_guess_equals_coherent_without_flips(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        # all units share the same values: every sign decision is +1
        grids = grids_from_values([base.copy() for _ in range(6)])
        pg = integrate(grids, Strategy.PRE_GUESS)
        co = integrate(grids, Strategy.COHERENT)
        assert np.array_equal(pg, co)

    def test_differential_identical_units(self):
        grids, z, cell = _signed_units([1, 1, 1, 1])
        out = integrate(grids, Strategy.DIFFERENTIAL)
        assert out[cell] == pytest.approx(3 * abs(z) ** 2, rel=1e-12)

    def test_differential_alternating_units(self):
        grids, z, cell = _signed_units([1, -1, 1, -1])
        out = integrate(grids, Strategy.DIFFERENTIAL)
        assert out[cell] == pytest.approx(3 * abs(z) ** 2, rel=1e-12)

    def test_differential_constant_rotation(self):
        # units z*e^{j m theta}: all products share one rotation
        theta = 0.37
        z = 1.5 + 0.5j
        arrays = []
        for m in range(6):
            a = np.zeros((2, 5), dtype=np.complex128)
            a[0, 2] = z * np.exp(1j * theta * m)
            arrays.append(a)
        out = integrate(grids_from_values(arrays), Strategy.DIFFERENTIAL)
        assert out[0, 2] == pytest.approx(5 * abs(z) ** 2, rel=1e-12)

    def test_alternate_half_bit_parities(self):
        # flips confined to one parity class leave the other at full gain
        z = 1.0 + 1.0j
        signs = [1] * 5 + [-1] * 5 + [1] * 10  # flip inside block 1 (0-based)
        grids, _, cell = _signed_units(signs, z=z)
        out = integrate(grids, Strategy.ALTERNATE_HALF_BIT)
        # blocks: |5z-5z|=0, |10z|, in parities (odd-indexed=0, even=1)
        assert out[cell] == pytest.approx(10 * abs(z), rel=1e-12)

    def test_alternate_half_bit_no_transitions_branches_equal(self):
        grids, z, cell = _signed_units([1] * 20)
        out = integrate(grids, Strategy.ALTERNATE_HALF_BIT)
        assert out[cell] == pytest.approx(10 * abs(z), rel=1e-12)


@st.composite
def unit_values(draw, min_units=1):
    """(M, bins, samples) complex unit values with magnitudes in [0.5, 2].

    Bounded magnitudes keep the running sums within a small factor of each
    unit, so the rounding of |a+s| and |a-s| stays far below the near-tie
    tolerance used by the pre-guess property.
    """
    shape = (draw(st.integers(min_units, 6)), draw(st.integers(1, 3)),
             draw(st.integers(1, 8)))
    mag = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.5, 2.0)))
    phase = draw(hnp.arrays(np.float64, shape,
                            elements=st.floats(-np.pi, np.pi)))
    return mag * np.exp(1j * phase)


# Re(a*conj(s)) within this fraction of |a||s| is a near tie: there the
# magnitude comparison |a+s| > |a-s| can round either way.
NEAR_TIE = 1e-12
# Coherent is compared with an independent sum; rounding may differ by this
# fraction of the summed magnitudes.
SUM_RTOL = 1e-12


def _pre_guess_magnitude_rule(values):
    """Pre-guess with the |a+s| > |a-s| sign rule, plus a mask of the cells
    that met a near tie at some unit."""
    acc = values[0].copy()
    near_tie = np.zeros(acc.shape, dtype=bool)
    for s in values[1:]:
        near_tie |= (np.abs((acc * np.conj(s)).real)
                     <= NEAR_TIE * np.abs(acc) * np.abs(s))
        acc += np.where(np.abs(acc + s) > np.abs(acc - s), 1.0, -1.0) * s
    return np.abs(acc), near_tie


class TestProperties:
    @given(unit_values(min_units=2))
    def test_pre_guess_sign_rule_matches_magnitude_rule(self, values):
        ref, near_tie = _pre_guess_magnitude_rule(values)
        got = integrate(grids_from_values(values), Strategy.PRE_GUESS)
        assert np.array_equal(got[~near_tie], ref[~near_tie])

    @given(unit_values())
    def test_coherent_is_magnitude_of_sum(self, values):
        got = integrate(grids_from_values(values), Strategy.COHERENT)
        ref = np.abs(values.sum(axis=0))
        assert np.all(np.abs(got - ref) <= SUM_RTOL * np.abs(values).sum(axis=0))

    @given(unit_values())
    def test_noncoherent_at_least_coherent(self, values):
        grids = grids_from_values(values)
        nc = integrate(grids, Strategy.NON_COHERENT)
        co = integrate(grids, Strategy.COHERENT)
        assert np.all(nc >= co * (1.0 - SUM_RTOL))

    @given(unit_values(),
           st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=8))
    def test_pre_guess_undoes_sign_flips(self, values, signs):
        # Units b_m * u: every sign decision restores b_0, so the sum is
        # M * b_0 * u, the most any sign pattern can reach.
        u = values[0]
        grids = grids_from_values([b * u for b in signs])
        got = integrate(grids, Strategy.PRE_GUESS)
        expected = len(signs) * np.abs(u)
        assert np.all(np.abs(got - expected) <= SUM_RTOL * expected)
        assert np.all(got >= integrate(grids, Strategy.COHERENT))


# Each strategy and the kernel that integrate runs for it over row slabs.
_KERNELS = [(Strategy.NON_COHERENT, _noncoherent),
            (Strategy.COHERENT, _coherent),
            (Strategy.PRE_GUESS, _pre_guess),
            (Strategy.DIFFERENTIAL, _differential),
            (Strategy.ALTERNATE_HALF_BIT, _alternate_half_bit)]


@st.composite
def slab_cut_units(draw, strategy):
    """(M, bins, n) complex units whose bins cut the row slabs unevenly.

    n runs from one cell to above _SLAB_CELLS (one row per slab); bins
    includes 1, a prime and counts that are not a multiple of the slab
    height, capped near three slabs to keep the arrays small.
    """
    n = draw(st.sampled_from([1, 3, 1023, 4092, _SLAB_CELLS,
                              _SLAB_CELLS + 5]))
    height = slab_rows(n)
    bins = draw(st.one_of(st.sampled_from([1, 7, height + 1]),
                          st.integers(1, 3 * height + 1)))
    m = 20 if strategy is Strategy.ALTERNATE_HALF_BIT else draw(
        st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (m, bins, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSlabs:
    # Slabs in 1-5 row bands (one band: a single slab walk); bands start on
    # slab edges and the drawn row counts cut both unevenly.
    @pytest.mark.parametrize("strategy, kernel", _KERNELS)
    @settings(max_examples=40)
    @given(data=st.data(), cores=st.integers(1, 5))
    def test_slabs_equal_whole_grid(self, strategy, kernel, data, cores):
        values = data.draw(slab_cut_units(strategy))
        with row_bands(cores):
            got = integrate(grids_from_values(values), strategy)
        assert np.array_equal(got, kernel(list(values)))


def _differential_two_temporaries(units):
    """The differential kernel as first written: two fresh complex
    temporaries per unit."""
    acc = np.conj(units[0]) * units[1]
    for m in range(2, len(units)):
        acc += np.conj(units[m - 1]) * units[m]
    return np.abs(acc)


def _alternate_half_bit_block_loop(units):
    """The alternate half-bit kernel as first written: each block summed in
    its own loop into one of two zero-started parity accumulators."""
    shape, dtype = units[0].shape, units[0].real.dtype
    parity_acc = [np.zeros(shape, dtype), np.zeros(shape, dtype)]
    for b in range(len(units) // BLOCK_UNITS):
        block = units[b * BLOCK_UNITS].copy()
        for u in units[b * BLOCK_UNITS + 1:(b + 1) * BLOCK_UNITS]:
            block += u
        parity_acc[b % 2] += np.abs(block)
    return np.maximum(parity_acc[0], parity_acc[1])


def test_half_bit_block_is_half_a_data_bit():
    # the block is derived from the one bit period, still the int 10, and
    # the span rule's message names the whole bit
    assert BLOCK_UNITS == BIT_PERIOD_MS // 2 == 10
    assert isinstance(BLOCK_UNITS, int)
    assert span_error(Strategy.ALTERNATE_HALF_BIT, 30) == \
        "alternate half-bit needs a multiple of 20 units, got 30"


def _magnitude_of_copy(units):
    """The one-unit coherent and pre-guess kernels as first written."""
    return np.abs(units[0].copy())


class TestKernelRewrites:
    """Rewritten kernels give bitwise the detection values of the originals,
    on the engine's complex64 units and on complex128 ones."""

    @settings(max_examples=40)
    @given(m=st.integers(2, 6), rows=st.integers(1, 9),
           n=st.sampled_from([1, 7, 1023]),
           dtype=st.sampled_from([np.complex64, np.complex128]),
           seed=st.integers(0, 2 ** 32 - 1))
    # one cell, where an in-place complex product rounded 1 ulp apart
    @example(m=6, rows=1, n=1, dtype=np.complex64, seed=198)
    def test_differential_with_scratch_buffers(self, m, rows, n, dtype,
                                               seed):
        rng = np.random.default_rng(seed)
        shape = (m, rows, n)
        units = list((rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape)).astype(dtype))
        got = _differential(units)
        assert got.tobytes() == _differential_two_temporaries(units).tobytes()

    @settings(max_examples=30)
    @given(m=st.sampled_from([20, 40, 60]), rows=st.integers(1, 5),
           n=st.sampled_from([1, 7, 64]),
           dtype=st.sampled_from([np.complex64, np.complex128]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_alternate_half_bit_as_coherent_blocks(self, m, rows, n, dtype,
                                                   seed):
        rng = np.random.default_rng(seed)
        shape = (m, rows, n)
        units = (rng.standard_normal(shape)
                 + 1j * rng.standard_normal(shape)).astype(dtype)
        got = _alternate_half_bit(units)
        want = _alternate_half_bit_block_loop(units)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel", [_coherent, _pre_guess])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_one_unit_without_the_copy(self, kernel, dtype):
        rng = np.random.default_rng(5)
        unit = (rng.standard_normal((4, 33))
                + 1j * rng.standard_normal((4, 33))).astype(dtype)
        before = unit.copy()
        got = kernel([unit])
        assert got.tobytes() == _magnitude_of_copy([unit]).tobytes()
        assert np.array_equal(unit, before)


class TestInvariances:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_global_phase_invariance(self, strategy):
        rng = np.random.default_rng(2)
        base = [rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
                for _ in range(20)]
        ref = integrate(grids_from_values(base), strategy)
        rotated = integrate(
            grids_from_values([np.exp(0.7j) * b for b in base]),
            strategy)
        assert np.allclose(rotated, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_full_negation_invariance(self, strategy):
        rng = np.random.default_rng(3)
        base = [rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
                for _ in range(20)]
        ref = integrate(grids_from_values(base), strategy)
        neg = integrate(grids_from_values([-b for b in base]), strategy)
        assert np.allclose(neg, ref, rtol=1e-12, atol=1e-12)

    def test_shape_and_plan_preserved(self):
        rng = np.random.default_rng(4)
        grids = _random_units(rng, 20)
        for strategy in Strategy:
            out = integrate(grids, strategy)
            assert out.shape == grids[0].shape and out.dtype == np.float64
            assert np.all(out >= 0.0)
            assert np.all(np.isfinite(out))


class TestErrors:
    def test_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            integrate(np.empty((0, 2, 4), complex), Strategy.NON_COHERENT)

    def test_differential_needs_two(self):
        grids = grids_from_values([np.ones((2, 4))])
        with pytest.raises(ValueError, match="at least two"):
            integrate(grids, Strategy.DIFFERENTIAL)

    def test_alternate_half_bit_needs_multiple_of_20(self):
        grids = grids_from_values([np.ones((2, 4))] * 10)
        with pytest.raises(ValueError, match="multiple of 20"):
            integrate(grids, Strategy.ALTERNATE_HALF_BIT)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="multiple of 20"):
            IntegrationSpec(Strategy.ALTERNATE_HALF_BIT, total_ms=30)
        with pytest.raises(ValueError, match="whole number"):
            IntegrationSpec(Strategy.COHERENT, total_ms=2.5)


    @pytest.mark.parametrize("total_ms", range(42))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_one_span_rule(self, strategy, total_ms):
        # span_error, IntegrationSpec and the integrator agree.
        def accepts(build):
            try:
                build()
            except ValueError:
                return False
            return True

        valid = span_error(strategy, total_ms) is None
        assert accepts(lambda: IntegrationSpec(strategy, total_ms)) == valid
        grids = np.ones((total_ms, 2, 4), complex)
        assert accepts(lambda: integrate(grids, strategy)) == valid


class TestSynthesizedOrdering:
    def test_coherent_gain_on_clean_signal(self, code1):
        # on-bin Doppler, no transitions: peak = M x single-unit peak
        sig, _ = synth_units(5, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL,
                             code_phase0=773.0)
        plan = make_plan(FIF_FULL, 2e3, 1)
        grids = unit_block(sig, code1, plan)
        coh = integrate(grids, Strategy.COHERENT)
        i, j = np.unravel_index(np.argmax(coh), coh.shape)
        single = np.abs(grids[0][i, j])
        assert coh[i, j] == pytest.approx(5 * single, rel=1e-9)

    def test_noiseless_ordering_no_flips(self, code1):
        sig, _ = synth_units(20, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL)
        plan = make_plan(FIF_FULL, 2e3, 1)
        grids = unit_block(sig, code1, plan)
        coh = integrate(grids, Strategy.COHERENT)
        i, j = np.unravel_index(np.argmax(coh), coh.shape)
        pg = integrate(grids, Strategy.PRE_GUESS)
        ahb = integrate(grids, Strategy.ALTERNATE_HALF_BIT)
        nc = integrate(grids, Strategy.NON_COHERENT)
        assert pg[i, j] == coh[i, j]
        assert coh[i, j] >= ahb[i, j]
        # triangle inequality; equality up to rounding on aligned units
        assert nc[i, j] >= coh[i, j] - 1e-9 * coh[i, j]
        assert nc[i, j] == pytest.approx(coh[i, j], rel=1e-6)

    def test_mid_window_flip_favors_robust_strategies(self, code1):
        bits = np.array([1.0, -1.0, 1.0])
        sig, _ = synth_units(20, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL,
                             data_bits=bits, bit_phase0=10.0)
        plan = make_plan(FIF_FULL, 2e3, 1)
        grids = unit_block(sig, code1, plan)
        truth_cell = np.unravel_index(
            np.argmax(np.abs(grids[0])), grids[0].shape)
        coh = integrate(grids, Strategy.COHERENT)[truth_cell]
        for strategy in (Strategy.NON_COHERENT, Strategy.PRE_GUESS,
                         Strategy.DIFFERENTIAL, Strategy.ALTERNATE_HALF_BIT):
            assert integrate(grids, strategy)[truth_cell] > coh

    def test_pre_guess_matches_exhaustive_oracle(self, code1):
        # noiseless on-bin units with random bit signs: the recursion must
        # reach the max over all 2^(M-1) sign patterns at the true cell
        rng = np.random.default_rng(11)
        plan = make_plan(FIF_FULL, 2e3, 1)
        for _ in range(10):
            m = int(rng.integers(2, 9))
            signs = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            bits = np.repeat(signs, 1)  # one bit per unit via 1 ms boundaries
            # emulate per-unit flips with bit period 20 ms by synthesizing
            # each unit separately and negating samples
            sig, _ = synth_units(m, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL)
            n = 4092
            x = sig.samples.copy()
            for k in range(m):
                x[k * n:(k + 1) * n] *= signs[k]
            flipped = SampledSignal(samples=x, sample_rate=FS_FULL)
            grids = unit_block(flipped, code1, plan)
            cell = np.unravel_index(np.argmax(np.abs(grids[0])),
                                    grids[0].shape)
            vals = np.array([g[cell] for g in grids])
            best = 0.0
            for pattern in range(2 ** (m - 1)):
                s = np.ones(m)
                for b in range(m - 1):
                    if (pattern >> b) & 1:
                        s[b + 1] = -1.0
                best = max(best, abs(np.sum(s * vals)))
            got = integrate(grids, Strategy.PRE_GUESS)[cell]
            assert got == pytest.approx(best, rel=1e-12)

    def test_detection_probability_grows_with_m(self, code1):
        # weak fixed C/N0: non-coherent detection rate increases with M
        cn0 = 45.0
        plan = plan_for(1)
        rates = []
        for m in (1, 4, 10):
            hits = 0
            for k in range(60):
                sig, _ = synth_units(m, code1, d0=500.0, cn0=cn0,
                                     seed=5000 + k, fs=FS_FAST, fif=FIF_FAST)
                det = integrate(unit_block(sig, code1, plan),
                                Strategy.NON_COHERENT)
                if decide(fed_search(det, l_spc=1).mtsmr()):
                    hits += 1
            rates.append(hits / 60)
        assert rates[0] < rates[1] <= rates[2]

    def test_integrate_dispatcher(self, code1):
        # each strategy runs its own kernel over the units in unit order
        sig, _ = synth_units(20, code1)
        grids = unit_block(sig, code1, plan_for(1))
        for strategy, kernel in _KERNELS:
            assert np.array_equal(integrate(grids, strategy), kernel(grids))
