"""Parallel code-phase search tests."""

import functools

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from leoacq.acq_core import (CorrelationGrid, _code_fft, _mixing_table,
                             make_plan, process_units, samples_per_code)
from leoacq.detector import acquire, mtsmr
from leoacq.integrators import Strategy, integrate, integrate_noncoherent
from leoacq.prn_code import ChipSequence, generate_code, sample_code
from leoacq.signal_synth import SampledSignal, noise_sigma

from conftest import FS_FAST, FIF_FAST, FS_FULL, FIF_FULL, plan_for, synth_units


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

    def test_preconditions(self):
        with pytest.raises(ValueError):
            make_plan(0.0, -1.0, 1)
        with pytest.raises(ValueError):
            make_plan(0.0, 1e3, 0)


def _direct_circular_correlation(x_mixed, code_samples):
    n = len(code_samples)
    return np.array([np.dot(x_mixed, np.roll(code_samples, j)) for j in range(n)])


def reference_process_units(signal, code, plan):
    """process_units in complex128: mixing table, code spectrum, FFTs and LO
    phase all in double precision.  The oracle for the single-precision
    engine."""
    fs = signal.sample_rate
    n = samples_per_code(code, fs)
    freqs = plan.center + np.asarray(plan.bins)
    table = np.exp(-2j * np.pi * np.outer(freqs, np.arange(n) / fs))
    code_fft = np.conj(scipy.fft.fft(sample_code(code, fs)))
    grids = []
    for m in range(len(signal.samples) // n):
        t0 = signal.t0 + m * n / fs
        values = scipy.fft.fft(table * signal.samples[m * n:(m + 1) * n], axis=1)
        values = scipy.fft.ifft(values * code_fft, axis=1)
        if t0 != 0.0:
            values *= np.exp(-2j * np.pi * ((freqs * t0) % 1.0))[:, None]
        grids.append(CorrelationGrid(values=values, plan=plan,
                                     samples_per_chip=round(fs / code.chip_rate)))
    return grids


def f32_bound(n):
    """Relative rounding bound of a length-n single-precision FFT
    correlation: float32 epsilon per radix-2 stage."""
    return np.log2(n) * np.finfo(np.float32).eps


class TestProcessUnit:
    @pytest.mark.parametrize("engine", [process_units, reference_process_units])
    def test_matches_direct_circular_correlation(self, engine):
        # DFT correlation theorem: exact up to rounding, 1e-9 in double
        # precision and f32_bound(n) in the single-precision engine
        rng = np.random.default_rng(42)
        n = 512
        chips = rng.choice([-1.0, 1.0], n)
        code = ChipSequence(prn_id=1, chips=chips, chip_rate=n * 1000.0)
        sig = SampledSignal(samples=rng.normal(size=n), sample_rate=n * 1000.0)
        plan = make_plan(0.0, 1e3, 1)  # bins at -1000..1000
        (grid,) = engine(sig, code, plan)
        tol = 1e-9 if engine is reference_process_units else f32_bound(n)
        t = np.arange(n) / sig.sample_rate
        for i, df in enumerate(plan.bins):
            mixed = sig.samples * np.exp(-2j * np.pi * df * t)
            direct = _direct_circular_correlation(mixed, chips)
            err = np.abs(grid.values[i] - direct).max()
            assert err <= tol * np.abs(direct).max()

    def test_noiseless_peak_at_true_cell(self, code1):
        # true delay of 1000 samples at 4 samples/chip: initial code phase
        # (4092 - 1000)/4 chips
        sig, _ = synth_units(1, code1, d0=1000.0, fs=FS_FULL, fif=FIF_FULL,
                             code_phase0=(4092 - 1000) / 4)
        plan = make_plan(FIF_FULL, 10e3, 1)
        (grid,) = process_units(sig, code1, plan)
        i, j = np.unravel_index(np.argmax(np.abs(grid.values)), grid.values.shape)
        assert plan.bins[i] == 1000.0
        assert j == 1000
        assert grid.samples_per_chip == 4
        assert grid.values.shape[1] == 4092

    @pytest.mark.parametrize("engine", [process_units, reference_process_units])
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
            det = integrate_noncoherent(process_units(sig, code1, plan))
            if mtsmr(det, 1) < 2.5:
                below += 1
        assert below >= 0.9 * trials


class TestProcessUnits:
    def test_length_must_be_multiple(self, code1):
        sig = SampledSignal(samples=np.zeros(1023 + 12), sample_rate=FS_FAST)
        with pytest.raises(ValueError, match="multiple"):
            process_units(sig, code1, plan_for(1))

    def test_count_slices_prefix(self, code1):
        sig, _ = synth_units(3, code1)
        grids = process_units(sig, code1, plan_for(1), count=2)
        assert len(grids) == 2
        with pytest.raises(ValueError, match="too short"):
            process_units(sig, code1, plan_for(1), count=4)

    def test_peak_phase_advances_by_residual_doppler(self, code1):
        # 100 Hz off the 1000 Hz bin center: expect 2*pi*100*1ms per unit
        sig, _ = synth_units(5, code1, d0=1100.0, fs=FS_FULL, fif=FIF_FULL)
        plan = make_plan(FIF_FULL, 10e3, 1)
        grids = process_units(sig, code1, plan)
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
        g0, g1 = process_units(sig, code1, plan)
        mags = np.abs(g0.values)
        i, j = np.unravel_index(np.argmax(mags), mags.shape)
        ratio = g1.values[i, j] / g0.values[i, j]
        assert abs(ratio + 1.0) < 1e-3

    def test_grids_share_plan(self, code1):
        sig, _ = synth_units(3, code1)
        grids = process_units(sig, code1, plan_for(1))
        assert all(g.plan is grids[0].plan for g in grids)


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
        got = process_units(sig, code1, plan)

        def fresh(name, original, x, *args, **kwargs):
            kwargs["overwrite_x"] = False
            return original(x, *args, **kwargs)

        _wrap_fft(monkeypatch, fresh)
        ref = process_units(sig, code1, plan)
        assert len(got) == len(ref) == 3
        for g, r in zip(got, ref):
            assert np.array_equal(g.values, r.values)

    def test_inputs_unchanged(self, code1):
        sig, plan = self._units(code1)
        samples = sig.samples.copy()
        n = samples_per_code(code1, sig.sample_rate)
        table = _mixing_table(plan, n, sig.sample_rate)
        before = table.copy()
        process_units(sig, code1, plan)
        assert np.array_equal(sig.samples, samples)
        assert _mixing_table(plan, n, sig.sample_rate) is table
        assert not table.flags.writeable
        assert np.array_equal(table, before)

    def test_fft_rows_per_call(self, code1, monkeypatch):
        # The benchmark's traced run (perfbench, --trace 1) wraps the same
        # two functions and requires bins x units 2-D rows each way inside
        # every process_units call, and a list of the unit grids back.
        rows = {"fft": 0, "ifft": 0}

        def counted(name, original, x, *args, **kwargs):
            out = original(x, *args, **kwargs)
            if out.ndim == 2:
                rows[name] += out.shape[0]
            return out

        _wrap_fft(monkeypatch, counted)
        sig, _ = synth_units(4, code1)
        plan = plan_for(1)
        grids = process_units(sig, code1, plan, count=3)
        assert isinstance(grids, list) and len(grids) == 3
        assert rows == {"fft": 3 * len(plan.bins), "ifft": 3 * len(plan.bins)}


class TestAccuracy:
    def test_sample_aligned_delay_estimated_exactly(self, code1):
        plan = make_plan(FIF_FULL, 2e3, 1)
        n = samples_per_code(code1, FS_FULL)
        for delay in (0, 1, 517, 4091):
            p0 = (-delay * code1.chip_rate / FS_FULL) % 1023
            sig, _ = synth_units(1, code1, d0=0.0, fs=FS_FULL, fif=FIF_FULL,
                                 code_phase0=p0)
            grid = process_units(sig, code1, plan)[0]
            assert int(np.argmax(np.abs(grid.values))) % n == delay

    def test_fractional_delay_error_below_half_sample(self, code1):
        # A sample rate incommensurate with the chip rate (4.888 samples per
        # chip) dithers the chip-boundary quantization, so the correlation
        # peak lands on the sample nearest the true fractional delay.
        fs = 5.0e6
        plan = make_plan(FIF_FULL, 2e3, 1)
        n = samples_per_code(code1, fs)
        for frac in np.arange(0.01, 1.0, 0.125):
            delay = 1200.0 + frac  # samples
            p0 = (-delay * code1.chip_rate / fs) % 1023
            sig, _ = synth_units(1, code1, d0=0.0, fs=fs, fif=FIF_FULL,
                                 code_phase0=p0)
            grid = process_units(sig, code1, plan)[0]
            j = int(np.argmax(np.abs(grid.values))) % n
            err = min(abs(j - delay), n - abs(j - delay))
            assert err <= 0.5

    def test_doppler_error_below_half_bin(self, code1):
        plan = make_plan(FIF_FULL, 2e3, 1)
        for d0 in np.linspace(-800.0, 800.0, 7):
            sig, _ = synth_units(1, code1, d0=float(d0), fs=FS_FULL, fif=FIF_FULL)
            grid = process_units(sig, code1, plan)[0]
            i = int(np.argmax(np.abs(grid.values))) // grid.values.shape[1]
            assert abs(plan.bins[i] - d0) <= 250.0


INPUT_DTYPES = [np.float64, np.float32, np.complex128, np.complex64]


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
        got = process_units(sig, code1, plan)
        ref = reference_process_units(sig, code1, plan)
        assert len(got) == len(ref) == units
        for g, r in zip(got, ref):
            assert g.values.dtype == np.complex64
            err = np.abs(g.values - r.values).max()
            assert err <= 1e-5 * np.abs(r.values).max()

    def test_twenty_ms_paper_epoch_same_acquisitions(self, code1):
        # 15 Hz off a 25 Hz bin, mid-pass start time: every strategy finds
        # the same cell and decision as in double precision
        sig, _ = synth_units(20, code1, d0=140.0, cn0=45.0, seed=7,
                             fs=FS_FULL, fif=FIF_FULL, code_phase0=311.4)
        sig.t0 = 137.0
        plan = make_plan(FIF_FULL, 250.0, 20)
        got = process_units(sig, code1, plan)
        ref = reference_process_units(sig, code1, plan)
        for strategy in Strategy:
            det = integrate(got, strategy)
            assert det.values.dtype == np.float64
            a = acquire(det)
            b = acquire(integrate(ref, strategy))
            assert b.decided and abs(b.doppler_hat - 140.0) <= 12.5
            assert (a.doppler_hat, a.code_phase_hat, a.decided) == (
                b.doppler_hat, b.code_phase_hat, b.decided)
            assert a.mtsmr == pytest.approx(b.mtsmr, rel=1e-5)
            assert a.mtmr == pytest.approx(b.mtmr, rel=1e-5)

    @pytest.mark.parametrize("dtype", INPUT_DTYPES,
                             ids=lambda d: np.dtype(d).name)
    def test_grids_are_complex64(self, code1, dtype):
        sig, _ = synth_units(2, code1, cn0=45.0)
        sig = SampledSignal(samples=sig.samples.astype(dtype),
                            sample_rate=FS_FAST, t0=0.5)
        grids = process_units(sig, code1, plan_for(2))
        assert [g.values.dtype for g in grids] == [np.complex64] * 2

    def test_cached_table_is_complex64_and_read_only(self, code1):
        table = _mixing_table(plan_for(1), 1023, FS_FAST)
        assert table.dtype == np.complex64
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
        assert _code_fft(code1, FS_FAST).dtype == np.complex64
