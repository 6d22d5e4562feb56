"""Integration-strategy algebra and Monte-Carlo behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from leoacq.acq_core import make_plan, process_units
from leoacq.detector import decide, mtsmr
from leoacq.integrators import (_SLAB_CELLS, IntegrationSpec, Strategy,
                                _alternate_half_bit, _coherent, _differential,
                                _noncoherent, _pre_guess, integrate,
                                integrate_alternate_half_bit,
                                integrate_coherent, integrate_differential,
                                integrate_noncoherent, integrate_pre_guess,
                                strategy_valid_at)
from leoacq.signal_synth import SampledSignal, noise_sigma, synthesize

from conftest import (FS_FULL, FIF_FULL, FS_FAST, FIF_FAST, fast_params,
                      grids_from_values, plan_for, synth_units)


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
        nc = integrate_noncoherent([g])
        co = integrate_coherent([g])
        assert np.array_equal(nc.values, np.abs(g.values))
        assert np.array_equal(nc.values, co.values)

    def test_noncoherent_is_sign_blind(self):
        grids, z, cell = _signed_units([1, -1, 1, -1])
        out = integrate_noncoherent(grids)
        assert out.values[cell] == pytest.approx(4 * abs(z), rel=1e-12)

    def test_coherent_alternating_cancels_exactly(self):
        grids, _, cell = _signed_units([1, -1, 1, -1])
        assert integrate_coherent(grids).values[cell] == 0.0

    def test_coherent_linear_gain(self):
        grids, z, cell = _signed_units([1, 1, 1, 1, 1])
        assert integrate_coherent(grids).values[cell] == pytest.approx(
            5 * abs(z), rel=1e-12)

    def test_pre_guess_rectifies_flips(self):
        grids, z, cell = _signed_units([1, -1, 1])
        assert integrate_pre_guess(grids).values[cell] == pytest.approx(
            3 * abs(z), rel=1e-12)

    def test_pre_guess_equals_coherent_without_flips(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        # all units share the same values: every sign decision is +1
        grids = grids_from_values([base.copy() for _ in range(6)])
        pg = integrate_pre_guess(grids)
        co = integrate_coherent(grids)
        assert np.array_equal(pg.values, co.values)

    def test_differential_identical_units(self):
        grids, z, cell = _signed_units([1, 1, 1, 1])
        out = integrate_differential(grids)
        assert out.values[cell] == pytest.approx(3 * abs(z) ** 2, rel=1e-12)

    def test_differential_alternating_units(self):
        grids, z, cell = _signed_units([1, -1, 1, -1])
        out = integrate_differential(grids)
        assert out.values[cell] == pytest.approx(3 * abs(z) ** 2, rel=1e-12)

    def test_differential_constant_rotation(self):
        # units z*e^{j m theta}: all products share one rotation
        theta = 0.37
        z = 1.5 + 0.5j
        arrays = []
        for m in range(6):
            a = np.zeros((2, 5), dtype=np.complex128)
            a[0, 2] = z * np.exp(1j * theta * m)
            arrays.append(a)
        out = integrate_differential(grids_from_values(arrays))
        assert out.values[0, 2] == pytest.approx(5 * abs(z) ** 2, rel=1e-12)

    def test_alternate_half_bit_parities(self):
        # flips confined to one parity class leave the other at full gain
        z = 1.0 + 1.0j
        signs = [1] * 5 + [-1] * 5 + [1] * 10  # flip inside block 1 (0-based)
        grids, _, cell = _signed_units(signs, z=z)
        out = integrate_alternate_half_bit(grids)
        # blocks: |5z-5z|=0, |10z|, in parities (odd-indexed=0, even=1)
        assert out.values[cell] == pytest.approx(10 * abs(z), rel=1e-12)

    def test_alternate_half_bit_no_transitions_branches_equal(self):
        grids, z, cell = _signed_units([1] * 20)
        out = integrate_alternate_half_bit(grids)
        assert out.values[cell] == pytest.approx(10 * abs(z), rel=1e-12)


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
        got = integrate_pre_guess(grids_from_values(values)).values
        assert np.array_equal(got[~near_tie], ref[~near_tie])

    @given(unit_values())
    def test_coherent_is_magnitude_of_sum(self, values):
        got = integrate_coherent(grids_from_values(values)).values
        ref = np.abs(values.sum(axis=0))
        assert np.all(np.abs(got - ref) <= SUM_RTOL * np.abs(values).sum(axis=0))

    @given(unit_values())
    def test_noncoherent_at_least_coherent(self, values):
        grids = grids_from_values(values)
        nc = integrate_noncoherent(grids).values
        co = integrate_coherent(grids).values
        assert np.all(nc >= co * (1.0 - SUM_RTOL))

    @given(unit_values(),
           st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=8))
    def test_pre_guess_undoes_sign_flips(self, values, signs):
        # Units b_m * u: every sign decision restores b_0, so the sum is
        # M * b_0 * u, the most any sign pattern can reach.
        u = values[0]
        grids = grids_from_values([b * u for b in signs])
        got = integrate_pre_guess(grids).values
        expected = len(signs) * np.abs(u)
        assert np.all(np.abs(got - expected) <= SUM_RTOL * expected)
        assert np.all(got >= integrate_coherent(grids).values)


# Each public integrator and the kernel it runs over row slabs.
_KERNELS = [(integrate_noncoherent, _noncoherent),
            (integrate_coherent, _coherent),
            (integrate_pre_guess, _pre_guess),
            (integrate_differential, _differential),
            (integrate_alternate_half_bit, _alternate_half_bit)]


@st.composite
def slab_cut_units(draw, integrator):
    """(M, bins, n) complex units whose bins cut the row slabs unevenly.

    n runs from one cell to above _SLAB_CELLS (one row per slab); bins
    includes 1, a prime and counts that are not a multiple of the slab
    height, capped near three slabs to keep the arrays small.
    """
    n = draw(st.sampled_from([1, 3, 1023, 4092, _SLAB_CELLS,
                              _SLAB_CELLS + 5]))
    height = max(1, _SLAB_CELLS // n)
    bins = draw(st.one_of(st.sampled_from([1, 7, height + 1]),
                          st.integers(1, 3 * height + 1)))
    m = 20 if integrator is integrate_alternate_half_bit else draw(
        st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (m, bins, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSlabs:
    @pytest.mark.parametrize("integrator, kernel", _KERNELS)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_slabs_equal_whole_grid(self, integrator, kernel, data):
        values = data.draw(slab_cut_units(integrator))
        got = integrator(grids_from_values(values)).values
        assert np.array_equal(got, kernel(list(values)))


class TestInvariances:
    @pytest.mark.parametrize("op", [integrate_noncoherent, integrate_coherent,
                                    integrate_pre_guess, integrate_differential,
                                    integrate_alternate_half_bit])
    def test_global_phase_invariance(self, op):
        rng = np.random.default_rng(2)
        base = [rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
                for _ in range(20)]
        ref = op(grids_from_values(base)).values
        rotated = op(grids_from_values([np.exp(0.7j) * b for b in base])).values
        assert np.allclose(rotated, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("op", [integrate_noncoherent, integrate_coherent,
                                    integrate_pre_guess, integrate_differential,
                                    integrate_alternate_half_bit])
    def test_full_negation_invariance(self, op):
        rng = np.random.default_rng(3)
        base = [rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
                for _ in range(20)]
        ref = op(grids_from_values(base)).values
        neg = op(grids_from_values([-b for b in base])).values
        assert np.allclose(neg, ref, rtol=1e-12, atol=1e-12)

    def test_shape_and_plan_preserved(self):
        rng = np.random.default_rng(4)
        grids = _random_units(rng, 20)
        for op in (integrate_noncoherent, integrate_coherent,
                   integrate_pre_guess, integrate_differential,
                   integrate_alternate_half_bit):
            out = op(grids)
            assert out.values.shape == grids[0].values.shape
            assert out.plan == grids[0].plan
            assert np.all(out.values >= 0.0)
            assert np.all(np.isfinite(out.values))


class TestErrors:
    def test_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            integrate_noncoherent([])

    def test_shape_mismatch(self):
        a = grids_from_values([np.ones((2, 4))])
        b = grids_from_values([np.ones((3, 4))])
        with pytest.raises(ValueError, match="share plan and shape"):
            integrate_coherent([a[0], b[0]])

    def test_differential_needs_two(self):
        grids = grids_from_values([np.ones((2, 4))])
        with pytest.raises(ValueError, match="at least two"):
            integrate_differential(grids)

    def test_alternate_half_bit_needs_multiple_of_20(self):
        grids = grids_from_values([np.ones((2, 4))] * 10)
        with pytest.raises(ValueError, match="multiple of 20"):
            integrate_alternate_half_bit(grids)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="multiple of 20"):
            IntegrationSpec(Strategy.ALTERNATE_HALF_BIT, total_ms=30)
        with pytest.raises(ValueError, match="whole number"):
            IntegrationSpec(Strategy.COHERENT, total_ms=2.5)


    @pytest.mark.parametrize("total_ms", range(42))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_one_span_rule(self, strategy, total_ms):
        # strategy_valid_at, IntegrationSpec and the integrator agree.
        def accepts(build):
            try:
                build()
            except ValueError:
                return False
            return True

        valid = strategy_valid_at(strategy, total_ms)
        assert accepts(lambda: IntegrationSpec(strategy, total_ms)) == valid
        grids = grids_from_values([np.ones((2, 4))] * total_ms) if total_ms else []
        assert accepts(lambda: integrate(grids, strategy)) == valid


class TestSynthesizedOrdering:
    def test_coherent_gain_on_clean_signal(self, code1):
        # on-bin Doppler, no transitions: peak = M x single-unit peak
        sig, _ = synth_units(5, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL,
                             code_phase0=773.0)
        plan = make_plan(FIF_FULL, 2e3, 1)
        grids = process_units(sig, code1, plan)
        coh = integrate_coherent(grids)
        i, j = np.unravel_index(np.argmax(coh.values), coh.values.shape)
        single = np.abs(grids[0].values[i, j])
        assert coh.values[i, j] == pytest.approx(5 * single, rel=1e-9)

    def test_noiseless_ordering_no_flips(self, code1):
        sig, _ = synth_units(20, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL)
        plan = make_plan(FIF_FULL, 2e3, 1)
        grids = process_units(sig, code1, plan)
        coh = integrate_coherent(grids)
        i, j = np.unravel_index(np.argmax(coh.values), coh.values.shape)
        pg = integrate_pre_guess(grids)
        ahb = integrate_alternate_half_bit(grids)
        nc = integrate_noncoherent(grids)
        assert pg.values[i, j] == coh.values[i, j]
        assert coh.values[i, j] >= ahb.values[i, j]
        # triangle inequality; equality up to rounding on aligned units
        assert nc.values[i, j] >= coh.values[i, j] - 1e-9 * coh.values[i, j]
        assert nc.values[i, j] == pytest.approx(coh.values[i, j], rel=1e-6)

    def test_mid_window_flip_favors_robust_strategies(self, code1):
        bits = np.array([1.0, -1.0, 1.0])
        sig, _ = synth_units(20, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL,
                             data_bits=bits, bit_phase0=10.0)
        plan = make_plan(FIF_FULL, 2e3, 1)
        grids = process_units(sig, code1, plan)
        truth_cell = np.unravel_index(
            np.argmax(np.abs(grids[0].values)), grids[0].values.shape)
        coh = integrate_coherent(grids).values[truth_cell]
        for op in (integrate_noncoherent, integrate_pre_guess,
                   integrate_differential, integrate_alternate_half_bit):
            assert op(grids).values[truth_cell] > coh

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
            grids = process_units(flipped, code1, plan)
            cell = np.unravel_index(np.argmax(np.abs(grids[0].values)),
                                    grids[0].values.shape)
            vals = np.array([g.values[cell] for g in grids])
            best = 0.0
            for pattern in range(2 ** (m - 1)):
                s = np.ones(m)
                for b in range(m - 1):
                    if (pattern >> b) & 1:
                        s[b + 1] = -1.0
                best = max(best, abs(np.sum(s * vals)))
            got = integrate_pre_guess(grids).values[cell]
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
                det = integrate_noncoherent(process_units(sig, code1, plan))
                if decide(mtsmr(det, 1)):
                    hits += 1
            rates.append(hits / 60)
        assert rates[0] < rates[1] <= rates[2]

    def test_integrate_dispatcher(self, code1):
        sig, _ = synth_units(2, code1)
        grids = process_units(sig, code1, plan_for(1))
        for strategy, op in ((Strategy.COHERENT, integrate_coherent),
                             (Strategy.NON_COHERENT, integrate_noncoherent),
                             (Strategy.PRE_GUESS, integrate_pre_guess),
                             (Strategy.DIFFERENTIAL, integrate_differential)):
            assert np.array_equal(integrate(grids, strategy).values,
                                  op(grids).values)
