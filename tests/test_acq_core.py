"""Parallel code-phase search tests."""

import concurrent.futures
import dataclasses
import functools
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from leoacq import acq_core
from leoacq.acq_core import (FrequencyPlan, _mixing_table, _row_bands,
                             band_scope, code_spectrum, make_plan,
                             row_blocks, slab_rows)
from leoacq.detector import AcqResult, acquire
from leoacq.integrators import Strategy, integrate, span_error
from leoacq.prn_code import (CHIP_RATE, CODE_LENGTH, generate_code,
                             sample_code, samples_per_code)
from leoacq.signal_synth import SampledSignal, noise_sigma

from conftest import (FS_FAST, FIF_FAST, FS_FULL, FIF_FULL,
                      assert_acquires_as, assert_grids_match, correlate,
                      counted_pools, fed_search, no_pool, plan_for,
                      reference_process_units, row_bands, synth_units,
                      unit_block)


class TestMakePlan:
    def test_one_ms_500hz_bins(self):
        plan = make_plan(0.0, 10e3, 1)
        assert plan.bin_width == 500.0
        assert len(plan.bins) == 41
        assert plan.bins[0] == -10e3 and plan.bins[-1] == 10e3
        assert plan.bins[20] == 0.0

    def test_bin_width_shrinks_with_integration(self):
        assert make_plan(0.0, 10e3, 5).bin_width == 100.0
        assert make_plan(0.0, 10e3, 20).bin_width == 25.0

    def test_wide_span_bin_count(self):
        assert len(make_plan(0.0, 40e3, 1).bins) == 161

    def test_non_multiple_span_covers_half_span(self):
        plan = make_plan(0.0, 1.2e3, 5)  # bin width 100, ceil(12) exact
        assert plan.bins[-1] >= 1.2e3
        assert np.allclose(np.diff(plan.bins), plan.bin_width)



def _direct_circular_correlation(x_mixed, code_samples):
    n = len(code_samples)
    return np.array([np.dot(x_mixed, np.roll(code_samples, j)) for j in range(n)])


INPUT_DTYPES = [np.float64, np.float32, np.complex128, np.complex64]


def sub_plan(plan, a, b):
    return FrequencyPlan(plan.center, plan.bin_width, plan.bins[a:b])


def f32_bound(n):
    """Relative rounding bound of a length-n single-precision FFT
    correlation: float32 epsilon per radix-2 stage."""
    return np.log2(n) * np.finfo(np.float32).eps


class TestProcessUnit:
    @pytest.mark.parametrize("engine", [correlate, reference_process_units])
    def test_matches_direct_circular_correlation(self, engine):
        # DFT correlation theorem: exact up to rounding, 1e-9 in double
        # precision and f32_bound(n) in the single-precision engine
        rng = np.random.default_rng(42)
        n = CODE_LENGTH
        code = rng.choice([-1.0, 1.0], n)
        sig = SampledSignal(samples=rng.normal(size=n), sample_rate=CHIP_RATE)
        plan = make_plan(0.0, 1e3, 1)  # bins at -1000..1000
        (grid,) = engine(sig, code, plan)
        tol = 1e-9 if engine is reference_process_units else f32_bound(n)
        t = np.arange(n) / sig.sample_rate
        for i, df in enumerate(plan.bins):
            mixed = sig.samples * np.exp(-2j * np.pi * df * t)
            direct = _direct_circular_correlation(mixed, code)
            err = np.abs(grid.values[i] - direct).max()
            assert err <= tol * np.abs(direct).max()

    def test_noiseless_peak_at_true_cell(self, code1):
        # true delay of 1000 samples at 4 samples/chip: initial code phase
        # (4092 - 1000)/4 chips
        sig, _ = synth_units(1, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL,
                             code_phase0=(4092 - 1000) / 4)
        plan = make_plan(FIF_FULL, 10e3, 1)
        (grid,) = correlate(sig, code1, plan)
        i, j = np.unravel_index(np.argmax(np.abs(grid.values)), grid.values.shape)
        assert plan.bins[i] == 1000.0
        assert j == 1000
        assert grid.values.shape[1] == 4092

    @pytest.mark.parametrize("engine", [correlate, reference_process_units])
    def test_parseval_energy(self, code1, engine):
        rng = np.random.default_rng(3)
        sig = SampledSignal(samples=rng.normal(size=1023), sample_rate=FS_FAST)
        plan = plan_for(1)
        (grid,) = engine(sig, code1, plan)
        # energy is quadratic in the cells: twice their relative bound
        tol = 1e-9 if engine is reference_process_units else 2 * f32_bound(1023)
        t = np.arange(1023) / FS_FAST
        codef = np.conj(scipy.fft.fft(sample_code(code1, FS_FAST)))
        for i, df in enumerate(plan.bins):
            mixed = sig.samples * np.exp(-2j * np.pi * (plan.center + df) * t)
            spectrum = scipy.fft.fft(mixed) * codef
            row = grid.values[i].astype(np.complex128)
            row_energy = np.sum(np.abs(row) ** 2)
            assert row_energy == pytest.approx(
                np.sum(np.abs(spectrum) ** 2) / 1023, rel=tol)

    def test_pure_noise_mtsmr_rarely_exceeds_threshold(self, code1):
        sigma = noise_sigma(45.0, 1.0, FS_FAST)
        plan = plan_for(1)
        below = 0
        trials = 200
        for k in range(trials):
            rng = np.random.default_rng(1000 + k)
            sig = SampledSignal(samples=rng.normal(0, sigma, 1023),
                                sample_rate=FS_FAST)
            det = integrate(unit_block(sig, code1, plan),
                            Strategy.NON_COHERENT)
            if fed_search(det, l_spc=1).mtsmr() < 2.5:
                below += 1
        assert below >= 0.9 * trials


class TestProcessUnits:
    def test_count_slices_prefix(self, code1):
        sig, _ = synth_units(3, code1)
        grids = correlate(sig, code1, plan_for(1), count=2)
        assert len(grids) == 2
        with pytest.raises(ValueError, match="too short"):
            correlate(sig, code1, plan_for(1), count=4)

    def test_peak_phase_advances_by_residual_doppler(self, code1):
        # 100 Hz off the 1000 Hz bin center: expect 2*pi*100*1ms per unit
        sig, _ = synth_units(5, code1, d0=1100.0, fs=FS_FULL, fif=FIF_FULL)
        plan = make_plan(FIF_FULL, 10e3, 1)
        grids = correlate(sig, code1, plan)
        mags = np.abs(grids[0].values)
        i, j = np.unravel_index(np.argmax(mags), mags.shape)
        assert plan.bins[i] == 1000.0
        vals = np.array([g.values[i, j] for g in grids])
        rot = np.angle(vals[1:] * np.conj(vals[:-1]))
        assert np.allclose(rot, 2 * np.pi * 100.0 * 1e-3, atol=0.01)

    def test_bit_flip_negates_unit_grid(self, code1):
        bits = np.array([1.0, -1.0])
        sig, _ = synth_units(2, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL,
                             data_bits=bits, bit_phase0=1.0)
        plan = make_plan(FIF_FULL, 2e3, 1)
        g0, g1 = correlate(sig, code1, plan)
        mags = np.abs(g0.values)
        i, j = np.unravel_index(np.argmax(mags), mags.shape)
        ratio = g1.values[i, j] / g0.values[i, j]
        assert abs(ratio + 1.0) < 1e-3


def _wrap_fft(monkeypatch, wrapper):
    """Replace scipy.fft.fft and ifft, where process_units looks them up, by
    wrapper(name, original, x, *args, **kwargs)."""
    for name in ("fft", "ifft"):
        monkeypatch.setattr(scipy.fft, name, functools.partial(
            wrapper, name, getattr(scipy.fft, name)))


class TestInPlaceTransforms:
    """Each unit's mixed matrix is transformed in its own memory."""

    @staticmethod
    def _units(code1):
        sig, _ = synth_units(3, code1, d0=700.0, cn0=45.0, seed=4,
                             fs=FS_FULL, fif=FIF_FULL)
        return sig, make_plan(FIF_FULL, 2e3, 3)

    def test_equals_fresh_buffer_transforms(self, code1, monkeypatch):
        sig, plan = self._units(code1)
        got = correlate(sig, code1, plan)

        def fresh(name, original, x, *args, **kwargs):
            kwargs["overwrite_x"] = False
            return original(x, *args, **kwargs)

        _wrap_fft(monkeypatch, fresh)
        ref = correlate(sig, code1, plan)
        assert len(got) == len(ref) == 3
        for g, r in zip(got, ref):
            assert np.array_equal(g.values, r.values)

    def test_inputs_unchanged(self, code1):
        sig, plan = self._units(code1)
        samples = sig.samples.copy()
        n = samples_per_code(len(code1), sig.sample_rate)
        table = _mixing_table(plan, n, sig.sample_rate)
        before = table.copy()
        correlate(sig, code1, plan, table=table)
        assert np.array_equal(sig.samples, samples)
        assert not table.flags.writeable
        assert np.array_equal(table, before)

    def test_fft_rows_per_call(self, code1, monkeypatch):
        # The benchmark's traced run (perfbench, --trace 1) wraps the same
        # two functions and requires bins x units 2-D rows each way inside
        # every process_units call, and a list of the unit grids back, for
        # the whole plan and for a sub-plan of a row block.
        rows = {}

        def counted(name, original, x, *args, **kwargs):
            out = original(x, *args, **kwargs)
            if out.ndim == 2:
                rows[name] = rows.get(name, 0) + out.shape[0]
            return out

        sig, _ = synth_units(4, code1)
        plan = plan_for(1)
        table = _mixing_table(plan, 1023, FS_FAST)
        _wrap_fft(monkeypatch, counted)
        for a, b in [(0, len(plan.bins)), (0, 1), (2, 7), (8, 9)]:
            rows.clear()
            grids = correlate(sig, code1, sub_plan(plan, a, b), count=3,
                              out=np.empty((3, b - a, 1023), np.complex64),
                              table=table[a:b])
            assert isinstance(grids, list) and len(grids) == 3
            assert rows == {"fft": 3 * (b - a), "ifft": 3 * (b - a)}


class TestUnitBlock:
    """Unit grids correlated together in one (count, bins, n) block, passed
    as out, for the whole plan or a block of its Doppler rows."""

    @staticmethod
    def _block(units, plan, n=1023):
        return np.empty((units, len(plan.bins), n), np.complex64)

    @settings(max_examples=30)
    @given(paper=st.booleans(), units=st.integers(1, 3),
           t0=st.sampled_from([0.0, 1e-3, 137.25]), bands=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_out_equals_fresh_allocation(self, code1, paper, units, t0,
                                         bands, seed):
        fs, fif = (FS_FULL, FIF_FULL) if paper else (FS_FAST, FIF_FAST)
        sig, _ = synth_units(units, code1, d0=300.0, cn0=40.0, seed=seed,
                             fs=fs, fif=fif)
        sig.t0 = t0
        plan = make_plan(fif, 1e3, units)
        block = self._block(units, plan, samples_per_code(len(code1), fs))
        block.fill(np.nan)  # stale contents must not leak into the grids
        with row_bands(bands):
            want = correlate(sig, code1, plan)
            got = correlate(sig, code1, plan, out=block)
        for g, w in zip(got, want, strict=True):
            assert g.values.tobytes() == w.values.tobytes()

    # t0 = -1 ms puts the second unit at t = 0, rotated by an LO of 1 - 0j
    @settings(max_examples=40)
    @given(paper=st.booleans(), units=st.integers(1, 4),
           n_bins=st.integers(1, 12),
           t0=st.sampled_from([0.0, -1e-3, 1e-3, 137.25]),
           dtype=st.sampled_from(INPUT_DTYPES), bands=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_matches_the_reference(self, code1, paper, units, n_bins, t0,
                                   dtype, bands, seed):
        fs, fif = (FS_FULL, FIF_FULL) if paper else (FS_FAST, FIF_FAST)
        sig, _ = synth_units(units, code1, d0=300.0, cn0=40.0, seed=seed,
                             fs=fs, fif=fif)
        sig = SampledSignal(samples=sig.samples.astype(dtype), sample_rate=fs,
                            t0=t0)
        plan = FrequencyPlan(center=fif, bin_width=170.0,
                             bins=tuple(170.0 * (k - n_bins // 2)
                                        for k in range(n_bins)))
        with row_bands(bands):
            got = unit_block(sig, code1, plan)
        assert_grids_match(got, [r.values for r in reference_process_units(
            sig, code1, plan)])

    @settings(max_examples=30)
    @given(paper=st.booleans(), units=st.integers(1, 3),
           height=st.integers(1, 10), t0=st.sampled_from([0.0, 2.5]),
           seed=st.integers(0, 2 ** 16))
    def test_row_blocks_give_the_reference(self, code1, paper, units,
                                           height, t0, seed):
        # run_span's walk: sub-plans, rows of one table, and outs that are
        # prefixes of one flat buffer (the tail block shorter)
        fs, fif = (FS_FULL, FIF_FULL) if paper else (FS_FAST, FIF_FAST)
        n = samples_per_code(len(code1), fs)
        sig, _ = synth_units(units, code1, d0=-400.0, cn0=40.0, seed=seed,
                             fs=fs, fif=fif)
        sig.t0 = t0
        plan = make_plan(fif, 1e3, units)
        ref = np.stack([r.values
                        for r in reference_process_units(sig, code1, plan)])
        table = _mixing_table(plan, n, fs)
        buffer = np.full(units * height * n, np.nan, np.complex64)
        bins = len(plan.bins)
        for a in range(0, bins, height):
            b = min(a + height, bins)
            out = buffer[:units * (b - a) * n].reshape(units, b - a, n)
            grids = correlate(sig, code1, sub_plan(plan, a, b), out=out,
                              table=table[a:b])
            assert all(g.values.base is buffer for g in grids)
            assert_grids_match([g.values for g in grids], ref[:, a:b])

    def test_grids_are_views_that_the_next_call_overwrites(self, code1):
        plan = plan_for(2)
        first, _ = synth_units(2, code1, d0=700.0, cn0=45.0, seed=1)
        second, _ = synth_units(2, code1, d0=-900.0, cn0=45.0, seed=2)
        want = [g.values.copy() for g in correlate(second, code1, plan)]
        block = self._block(2, plan)
        grids = correlate(first, code1, plan, out=block)
        for m, g in enumerate(grids):
            assert g.values.base is block
            assert np.shares_memory(g.values, block[m])
        correlate(second, code1, plan, out=block)
        for g, w in zip(grids, want, strict=True):
            assert np.array_equal(g.values, w)

    def test_copied_fft_result_is_written_into_out(self, code1, monkeypatch):
        sig, _ = synth_units(2, code1, cn0=45.0, seed=3)
        sig.t0 = 4.0
        plan = plan_for(2)
        want = correlate(sig, code1, plan)

        def fresh(name, original, x, *args, **kwargs):
            kwargs["overwrite_x"] = False
            return original(x, *args, **kwargs)

        _wrap_fft(monkeypatch, fresh)
        block = self._block(2, plan)
        got = correlate(sig, code1, plan, out=block)
        for m, (g, w) in enumerate(zip(got, want, strict=True)):
            assert g.values.tobytes() == w.values.tobytes()
            assert block[m].tobytes() == w.values.tobytes()

    @pytest.mark.parametrize("bad", [
        np.empty((2, 9, 1023), np.complex64),                  # too few units
        np.empty((3, 8, 1023), np.complex64),                  # too few bins
        np.empty((3, 9, 1023), np.complex128),                 # dtype
        np.empty((3, 9, 1023), np.complex64, order="F"),       # layout
        np.empty((3, 9, 2046), np.complex64)[:, :, ::2],       # strided
    ], ids=["units", "bins", "dtype", "fortran", "strided"])
    def test_bad_out_rejected(self, code1, bad):
        sig, _ = synth_units(3, code1)
        with pytest.raises(ValueError, match="out must be"):
            correlate(sig, code1, plan_for(1), out=bad)

    @pytest.mark.parametrize("bad", [
        np.empty((8, 1023), np.complex64),              # too few bins
        np.empty((10, 1023), np.complex64),             # too many bins
        np.empty((9, 1022), np.complex64),              # wrong length
        np.empty((9, 1023), np.complex128),             # dtype
        np.empty(9 * 1023, np.complex64),               # flat
    ], ids=["few-bins", "many-bins", "length", "dtype", "flat"])
    def test_bad_table_rejected(self, code1, bad):
        sig, _ = synth_units(2, code1)
        with pytest.raises(ValueError, match="table must be"):
            correlate(sig, code1, plan_for(1), table=bad)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, code1, count):
        sig, _ = synth_units(2, code1)
        with pytest.raises(ValueError, match="too short"):
            correlate(sig, code1, plan_for(1), count=count)

    def test_empty_signal_rejected(self, code1):
        sig = SampledSignal(samples=np.zeros(0), sample_rate=FS_FAST)
        with pytest.raises(ValueError, match="too short"):
            correlate(sig, code1, plan_for(1))


class TestCodeSpectrum:
    @pytest.mark.parametrize("fs", [FS_FAST, FS_FULL])
    def test_equals_the_conjugate_code_dft(self, code1, fs):
        fresh = np.conj(scipy.fft.fft(sample_code(code1, fs)))
        got = code_spectrum(code1, fs)
        assert got.tobytes() == fresh.astype(np.complex64).tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0

    def test_depends_on_the_chips(self, code1):
        a = code_spectrum(code1, FS_FAST)
        assert not np.array_equal(a, code_spectrum(generate_code(2), FS_FAST))
        assert code_spectrum(code1, FS_FAST).tobytes() == a.tobytes()


class TestAccuracy:
    def test_sample_aligned_delay_estimated_exactly(self, code1):
        plan = make_plan(FIF_FULL, 2e3, 1)
        n = samples_per_code(len(code1), FS_FULL)
        for delay in (0, 1, 517, 4091):
            p0 = (-delay * CHIP_RATE / FS_FULL) % 1023
            sig, _ = synth_units(1, code1, d0=0.0, fs=FS_FULL, fif=FIF_FULL,
                                 code_phase0=p0)
            grid = correlate(sig, code1, plan)[0]
            assert int(np.argmax(np.abs(grid.values))) % n == delay

    def test_fractional_delay_error_below_half_sample(self, code1):
        # A sample rate incommensurate with the chip rate (4.888 samples per
        # chip) dithers the chip-boundary quantization, so the correlation
        # peak lands on the sample nearest the true fractional delay.
        fs = 5.0e6
        plan = make_plan(FIF_FULL, 2e3, 1)
        n = samples_per_code(len(code1), fs)
        for frac in np.arange(0.01, 1.0, 0.125):
            delay = 1200.0 + frac  # samples
            p0 = (-delay * CHIP_RATE / fs) % 1023
            sig, _ = synth_units(1, code1, d0=0.0, fs=fs, fif=FIF_FULL,
                                 code_phase0=p0)
            grid = correlate(sig, code1, plan)[0]
            j = int(np.argmax(np.abs(grid.values))) % n
            err = min(abs(j - delay), n - abs(j - delay))
            assert err <= 0.5

    def test_doppler_error_below_half_bin(self, code1):
        plan = make_plan(FIF_FULL, 2e3, 1)
        for d0 in np.linspace(-800.0, 800.0, 7):
            sig, _ = synth_units(1, code1, d0=float(d0), fs=FS_FULL, fif=FIF_FULL)
            grid = correlate(sig, code1, plan)[0]
            i = int(np.argmax(np.abs(grid.values))) // grid.values.shape[1]
            assert abs(plan.bins[i] - d0) <= 250.0



class TestSinglePrecision:
    """The complex64 engine against reference_process_units (complex128)."""

    @settings(max_examples=40)
    @given(paper=st.booleans(), units=st.integers(1, 5),
           t0=st.floats(1e-3, 700.0), d0=st.floats(-1500.0, 1500.0),
           cn0=st.sampled_from([None, 35.0, 45.0]),
           seed=st.integers(0, 2 ** 16), dtype=st.sampled_from(INPUT_DTYPES))
    def test_grid_within_1e5_of_reference(self, code1, paper, units, t0, d0,
                                          cn0, seed, dtype):
        fs, fif = (FS_FULL, FIF_FULL) if paper else (FS_FAST, FIF_FAST)
        sig, _ = synth_units(units, code1, d0=d0, cn0=cn0, seed=seed,
                             fs=fs, fif=fif)
        sig = SampledSignal(samples=sig.samples.astype(dtype), sample_rate=fs,
                            t0=t0)
        plan = make_plan(fif, 1e3, units)
        got = [g.values for g in correlate(sig, code1, plan)]
        assert [g.dtype for g in got] == [np.complex64] * units
        assert_grids_match(got, [r.values for r in reference_process_units(
            sig, code1, plan)])

    def test_twenty_ms_paper_epoch_same_acquisitions(self, code1):
        # 15 Hz off a 25 Hz bin, mid-pass start time: every strategy finds
        # the same cell and decision as in double precision
        sig, _ = synth_units(20, code1, d0=140.0, cn0=45.0, seed=7,
                             fs=FS_FULL, fif=FIF_FULL, code_phase0=311.4)
        sig.t0 = 137.0
        plan = make_plan(FIF_FULL, 250.0, 20)
        got = unit_block(sig, code1, plan)
        ref = np.stack([g.values
                        for g in reference_process_units(sig, code1, plan)])
        for strategy in Strategy:
            det = integrate(got, strategy)
            assert det.dtype == np.float64
            a = acquire(fed_search(det, l_spc=4, plan=plan))
            b = acquire(fed_search(integrate(ref, strategy), l_spc=4,
                                   plan=plan))
            assert b.decided and abs(b.doppler_hat - 140.0) <= 12.5
            assert_acquires_as(a, b, threshold=2.5)

    @settings(max_examples=30)
    @given(paper=st.booleans(), units=st.integers(1, 5),
           t0=st.floats(0.0, 700.0), d0=st.floats(-1500.0, 1500.0),
           cn0=st.sampled_from([None, 45.0]), seed=st.integers(0, 2 ** 16))
    def test_float32_samples_give_the_float64_grids(self, code1, paper, units,
                                                    t0, d0, cn0, seed):
        # Mixing rounds real samples to float32 anyway, so a pass held in
        # float32 (io_cli.pass_epochs) correlates bitwise as in float64.
        fs, fif = (FS_FULL, FIF_FULL) if paper else (FS_FAST, FIF_FAST)
        sig, _ = synth_units(units, code1, d0=d0, cn0=cn0, seed=seed,
                             fs=fs, fif=fif)
        plan = make_plan(fif, 1e3, units)
        grids = [correlate(SampledSignal(samples=sig.samples.astype(dtype),
                                         sample_rate=fs, t0=t0),
                           code1, plan)
                 for dtype in (np.float32, np.float64)]
        for a, b in zip(*grids):
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("dtype", INPUT_DTYPES,
                             ids=lambda d: np.dtype(d).name)
    def test_grids_are_complex64(self, code1, dtype):
        sig, _ = synth_units(2, code1, cn0=45.0)
        sig = SampledSignal(samples=sig.samples.astype(dtype),
                            sample_rate=FS_FAST, t0=0.5)
        grids = correlate(sig, code1, plan_for(2))
        assert [g.values.dtype for g in grids] == [np.complex64] * 2

    def test_table_is_complex64_and_read_only(self, code1):
        table = _mixing_table(plan_for(1), 1023, FS_FAST)
        assert table.dtype == np.complex64
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
        assert code_spectrum(code1, FS_FAST).dtype == np.complex64


class TestComparators:
    """The engine tests' comparators with the reference reject a moved peak,
    indicators 1e-4 off and a flipped decision away from the threshold,
    and pass rounding."""

    WANT = AcqResult(doppler_hat=400.0, code_phase_hat=2847, mtsmr=4.0,
                     mtmr=18.0, decided=True)

    @pytest.mark.parametrize("change", [
        dict(doppler_hat=425.0), dict(code_phase_hat=2846),
        dict(mtsmr=4.0 * (1 + 1e-4)), dict(mtmr=18.0 * (1 - 1e-4)),
        dict(decided=False)], ids=["bin", "code", "mtsmr", "mtmr", "decided"])
    def test_acquisition_differences_fail(self, change):
        with pytest.raises(AssertionError):
            assert_acquires_as(dataclasses.replace(self.WANT, **change),
                               self.WANT, threshold=2.5)

    def test_rounding_passes(self):
        assert_acquires_as(dataclasses.replace(
            self.WANT, mtsmr=4.0 * (1 + 1e-6), mtmr=18.0 * (1 - 1e-6)),
            self.WANT, threshold=2.5)
        # an MTSMR within 1e-5 of the threshold may decide either way
        near = dataclasses.replace(self.WANT, mtsmr=2.5 * (1 + 1e-6))
        assert_acquires_as(dataclasses.replace(near, decided=False), near,
                           threshold=2.5)

    def test_grids_within_1e5_of_the_largest_cell(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=(2, 3, 8)) + 1j * rng.normal(size=(2, 3, 8))
        got = ref.astype(np.complex64)
        assert_grids_match(got, ref)
        got[1, 2, 5] += 2e-5 * np.abs(ref[1]).max()
        with pytest.raises(AssertionError):
            assert_grids_match(got, ref)
        with pytest.raises(AssertionError):
            assert_grids_match(ref[:, :2], ref)


class TestMixingTable:
    @staticmethod
    def one_shot(plan, n, fs):
        freqs = plan.center + np.asarray(plan.bins)
        t = np.arange(n) / fs
        return np.exp(-2j * np.pi * np.outer(freqs, t)).astype(np.complex64)

    # 801 bins (the default +/-10 kHz at 20 ms): 25 whole blocks and a tail;
    # 9 bins: one short block
    @pytest.mark.parametrize("fif, fs, half_span, total_ms", [
        (FIF_FULL, FS_FULL, 10e3, 20), (FIF_FAST, FS_FAST, 2e3, 1)])
    def test_equals_one_shot_build_bitwise(self, code1, fif, fs, half_span,
                                           total_ms):
        plan = make_plan(fif, half_span, total_ms)
        n = samples_per_code(len(code1), fs)
        table = _mixing_table(plan, n, fs)
        want = self.one_shot(plan, n, fs)
        assert table.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    @settings(max_examples=30)
    @given(paper=st.booleans(), a=st.integers(0, 800), size=st.integers(1, 90))
    def test_rows_are_the_sub_plan_table(self, code1, paper, a, size):
        fs, fif = (FS_FULL, FIF_FULL) if paper else (FS_FAST, FIF_FAST)
        plan = make_plan(fif, 10e3, 20)  # 801 bins
        n = samples_per_code(len(code1), fs)
        b = min(a + size, len(plan.bins))
        want = _mixing_table(plan, n, fs)[a:b]
        got = _mixing_table(sub_plan(plan, a, b), n, fs)
        assert got.tobytes() == want.tobytes()

    def test_build_peaks_near_the_table(self, code1):
        # a one-shot build peaks at 4x the table: a float64 phase array,
        # two complex128 arrays and the complex64 cast
        plan = make_plan(FIF_FULL, 10e3, 20)
        n = samples_per_code(len(code1), FS_FULL)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = _mixing_table(plan, n, FS_FULL)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert table.shape == (801, 4092)
        assert peak < 1.25 * table.nbytes


class TestRowBands:
    """Row-wise work split into bands of Doppler rows, one per core."""

    @settings(max_examples=60)
    @given(rows=st.integers(1, 120), align=st.integers(1, 40),
           cores=st.one_of(st.none(), st.integers(1, 5)))
    def test_bands_cover_the_rows(self, rows, align, cores):
        calls = []
        with row_bands(cores):
            _row_bands(
                lambda band: calls.append((band, threading.get_ident())),
                rows, rows, align)
        bands = sorted((band.start, band.stop) for band, _ in calls)
        assert bands[0][0] == 0 and bands[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
        assert all(start % align == 0 and stop > start
                   for start, stop in bands)
        first = [ident for band, ident in calls if band.start == 0]
        assert first == [threading.get_ident()]  # on the calling thread
        # the align-row steps are shared out as evenly as whole steps go
        steps = -(-rows // align)
        cores = cores or 1
        assert len(bands) == min(cores, steps)
        per_band = [-(-(stop - start) // align) for start, stop in bands]
        assert max(per_band) - min(per_band) <= 1

    @settings(max_examples=40)
    @given(paper=st.booleans(), n_bins=st.integers(1, 12),
           units=st.integers(1, 3), t0=st.sampled_from([0.0, 1e-3, 137.25]),
           cores=st.integers(2, 5), seed=st.integers(0, 2 ** 16))
    def test_grids_do_not_depend_on_the_band_count(self, code1, paper, n_bins,
                                                   units, t0, cores, seed):
        fs, fif = (FS_FULL, FIF_FULL) if paper else (FS_FAST, FIF_FAST)
        sig, _ = synth_units(units, code1, d0=300.0, cn0=40.0, seed=seed,
                             fs=fs, fif=fif)
        sig.t0 = t0
        plan = FrequencyPlan(center=fif, bin_width=170.0,
                             bins=tuple(170.0 * (k - n_bins // 2)
                                        for k in range(n_bins)))
        with row_bands(1):
            one = correlate(sig, code1, plan)
        with row_bands(cores):
            banded = correlate(sig, code1, plan)
        for a, b in zip(one, banded, strict=True):
            assert a.values.tobytes() == b.values.tobytes()

    def test_ffts_stay_on_the_calling_thread(self, code1, monkeypatch):
        # The benchmark's traced run wraps scipy.fft from outside and nests
        # each call under the open process_units span of one span stack.
        calls = []

        def recorded(name, original, x, *args, **kwargs):
            out = original(x, *args, **kwargs)
            calls.append((name, threading.get_ident(),
                          out.shape[0] if out.ndim == 2 else 0))
            return out

        pools = []
        pool = concurrent.futures.ThreadPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(args)
            return pool(*args, **kwargs)

        sig, _ = synth_units(3, code1, d0=700.0, cn0=45.0, seed=4,
                             fs=FS_FULL, fif=FIF_FULL)
        sig.t0 = 2.0
        plan = make_plan(FIF_FULL, 5e3, 20)  # paper_block's 401 bins
        _wrap_fft(monkeypatch, recorded)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            counted_pool)
        with row_bands(2, gate=acq_core._BAND_CELLS):
            correlate(sig, code1, plan)
        assert pools  # 401 x 4092 cells are over the gate
        assert {ident for _, ident, _ in calls} == {threading.get_ident()}
        for name in ("fft", "ifft"):
            assert sum(r for c, _, r in calls if c == name) == 3 * 401

    def test_paper_row_blocks_are_banded(self, monkeypatch):
        # A row block of paper_block's span (20 units of 16 x 4092) is
        # under the gate one unit at a time and over it all units together
        pools = []
        pool = concurrent.futures.ThreadPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(args)
            return pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            counted_pool)
        plan = sub_plan(make_plan(FIF_FULL, 5e3, 20), 0, 16)
        block = np.zeros((20, 16, 4092), np.complex64)
        assert block[0].size < acq_core._BAND_CELLS <= block.size
        with row_bands(2, gate=acq_core._BAND_CELLS):
            integrate(block, Strategy.COHERENT)
        assert pools

    # fast_sweep's grids over +/-10 kHz: a 5 ms block (5 x 201 x 1023
    # cells) holds a band's worth, so it bands; a 1 ms block does not
    @pytest.mark.parametrize("total_ms", [5, 1])
    def test_fast_profile_bands_only_5_ms(self, code1, monkeypatch,
                                          total_ms):
        sig, _ = synth_units(total_ms, code1, cn0=45.0)
        sig.t0 = 20.0
        plan = make_plan(FIF_FAST, 10e3, total_ms)
        made = counted_pools(monkeypatch)
        with row_bands(8, gate=acq_core._BAND_CELLS), band_scope():
            units = unit_block(sig, code1, plan)
            for strategy in Strategy:
                if span_error(strategy, total_ms) is None:
                    integrate(units, strategy)
        assert made == ([(7,)] if total_ms == 5 else [])
        assert units[0].size == len(plan.bins) * 1023

    def test_unknown_core_count_runs_serially(self, code1, monkeypatch):
        sig, _ = synth_units(2, code1, cn0=45.0)
        sig.t0 = 3.0
        want = correlate(sig, code1, plan_for(2))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            no_pool)
        with row_bands(None):
            got = correlate(sig, code1, plan_for(2))
            det = integrate(np.stack([g.values for g in got]),
                            Strategy.NON_COHERENT)
        for a, b in zip(got, want, strict=True):
            assert a.values.tobytes() == b.values.tobytes()
        want_det = integrate(np.stack([g.values for g in want]),
                             Strategy.NON_COHERENT)
        assert det.tobytes() == want_det.tobytes()


class TestBandScope:
    """The banded calls of one band_scope share one worker pool."""

    def test_calls_in_a_scope_share_one_pool(self, monkeypatch):
        pools = counted_pools(monkeypatch)
        threads = set(threading.enumerate())
        calls = []
        with row_bands(3), band_scope():
            for rows in (7, 30, 2):
                _row_bands(calls.append, rows, rows)
        assert pools == [(2,)]
        assert len(calls) == 3 + 3 + 2
        assert set(threading.enumerate()) == threads  # workers joined

    def test_each_call_outside_a_scope_has_its_own(self, monkeypatch):
        pools = counted_pools(monkeypatch)
        with row_bands(2):
            _row_bands(lambda band: None, 4, 4)
            _row_bands(lambda band: None, 4, 4)
        assert pools == [(1,), (1,)]

    def test_a_scope_that_never_bands_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            no_pool)
        calls = []
        with row_bands(4, gate=acq_core._BAND_CELLS), band_scope():
            for cells in (1, 41 * 1023, acq_core._BAND_CELLS - 1):
                _row_bands(calls.append, 9, cells)
        assert calls == [slice(0, 9)] * 3

    @pytest.mark.parametrize("under", [1, 0])
    def test_a_call_bands_from_the_gate_on(self, monkeypatch, under):
        # one cell under the gate is one band on the calling thread; at the
        # gate the rows split into a band per core
        pools = counted_pools(monkeypatch)
        calls = []
        with row_bands(4, gate=acq_core._BAND_CELLS):
            _row_bands(calls.append, 9, acq_core._BAND_CELLS - under)
        assert pools == ([] if under else [(3,)])
        assert len(calls) == (1 if under else 4)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_band_raises_after_every_band_ends(self, failing):
        # band 0 runs on the calling thread, bands 1 and 2 on workers; the
        # others are slowed so they are still running when the failure
        # comes, and must have ended when _row_bands raises
        ended = []

        def band(rows):
            if rows.start == failing:
                raise RuntimeError("failed band")
            time.sleep(0.05)
            ended.append(rows.start)

        with row_bands(3), band_scope():
            with pytest.raises(RuntimeError, match="failed band"):
                _row_bands(band, 3, 3)
            assert sorted(ended) == sorted({0, 1, 2} - {failing})


class TestRowBlocks:
    """acq_core.row_blocks, the one rule for run_span's row blocks."""

    @settings(max_examples=150)
    @given(bins=st.integers(1, 500), units=st.integers(1, 40),
           n=st.sampled_from([1, 3, 1023, 4092, 16368, acq_core._SLAB_CELLS,
                              acq_core._SLAB_CELLS + 5]),
           cores=st.integers(1, 70))
    def test_blocks_tile_the_plan_with_a_slab_per_band(self, bins, units, n,
                                                        cores):
        gate, slab = acq_core._BAND_CELLS, slab_rows(n)
        blocks = row_blocks(bins, units, n)
        assert blocks[0][0] == 0 and blocks[-1][1] == bins
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        height = blocks[0][1]
        assert all(b - a == height for a, b in blocks[:-1])
        assert 0 < blocks[-1][1] - blocks[-1][0] <= height
        # the fewest whole slabs that hold two bands' worth, or the whole
        # plan; so every whole block of a longer plan holds a band's worth
        assert blocks == [(0, bins)] or (
            height % slab == 0 and height * units * n >= 2 * gate
            > (height - slab) * units * n)
        cuts = []
        with row_bands(cores, gate=gate), band_scope():
            for a, b in blocks:
                found = []
                _row_bands(found.append, b - a, (b - a) * units * n, slab)
                cuts.append(sorted((s.start, s.stop) for s in found))
        for (a, b), bands in zip(blocks, cuts):
            assert all(start % slab == 0 for start, _ in bands)
            # a block bands iff it holds a band's worth: then one band per
            # core while each gets a slab step, a whole slab or the block's
            # last one (a whole slab, on every block but a tail)
            if (b - a) * units * n < gate:
                assert bands == [(0, b - a)]
            else:
                last = (b - a - 1) % slab + 1
                assert len(bands) == min(cores, -(-(b - a) // slab))
                assert all(stop - start >= (slab if stop < b - a else last)
                           for start, stop in bands)

    def test_paper_block_shape(self):
        # 20 units of 401 x 4092: 25 blocks of two 8-row slabs (10 MiB of
        # unit grids each) and a 1-row tail, on any number of cores
        blocks = row_blocks(401, 20, 4092)
        assert slab_rows(4092) == 8
        assert blocks[:2] == [(0, 16), (16, 32)] and blocks[-1] == (400, 401)
        assert len(blocks) == 26

    @pytest.mark.parametrize("total_ms, bins", [(1, 41), (5, 201)])
    def test_fast_sweep_spans_are_one_block(self, total_ms, bins):
        assert row_blocks(bins, total_ms, 1023) == [(0, bins)]
