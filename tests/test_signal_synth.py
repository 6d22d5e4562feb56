"""IF signal synthesis tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

from leoacq import signal_synth
from leoacq.geometry import simulate_pass
from leoacq.prn_code import CHIP_RATE, generate_code
from leoacq.signal_synth import (SynthParams, noise_sigma, pass_params,
                                 synthesize, synthesize_pass_signal)

from conftest import FS_FULL, FIF_FULL, fast_params, flat_scenario, full_params


class TestNoiseSigma:
    def test_noiseless_limit(self):
        assert noise_sigma(200.0, 1.0, 4.092e6) < 1e-7 * noise_sigma(45.0, 1.0, 4.092e6)

    def test_sample_rate_scaling(self):
        s1 = noise_sigma(45.0, 1.0, 1.023e6)
        s4 = noise_sigma(45.0, 1.0, 4 * 1.023e6)
        assert s4 / s1 == pytest.approx(2.0, rel=1e-12)

    def test_reference_value(self):
        assert noise_sigma(45.0, 1.0, 4.092e6) == pytest.approx(
            5.687714871855174, rel=1e-12)


class TestSynthesize:
    def test_first_sample_is_zero(self, code1):
        sig = synthesize(full_params(doppler0=0.0), code1)
        assert sig.samples[0] == 0.0
        assert len(sig.samples) == round(1e-3 * FS_FULL)

    def test_despread_spectrum_peaks_at_if_plus_doppler(self, code1):
        sig = synthesize(full_params(doppler0=1000.0, duration=1e-3), code1)
        from leoacq.prn_code import sample_code
        despread = sig.samples * sample_code(code1, FS_FULL)
        spec = np.abs(np.fft.rfft(despread))
        peak_hz = np.argmax(spec) * FS_FULL / len(despread)
        assert abs(peak_hz - (FIF_FULL + 1000.0)) <= FS_FULL / len(despread)

    def test_despread_energy_concentration(self, code1):
        from leoacq.prn_code import sample_code
        sig = synthesize(full_params(doppler0=1000.0), code1)
        despread = sig.samples * sample_code(code1, FS_FULL)
        spec = np.abs(np.fft.rfft(despread)) ** 2
        assert spec.max() / spec.sum() >= 0.99

    def test_deterministic_given_seed(self, code1):
        p = full_params(cn0=40.0, seed=123, duration=2e-3)
        assert np.array_equal(synthesize(p, code1).samples,
                              synthesize(p, code1).samples)
        p2 = full_params(cn0=40.0, seed=124, duration=2e-3)
        assert not np.array_equal(synthesize(p, code1).samples,
                                  synthesize(p2, code1).samples)

    def test_noise_statistics(self, code1):
        # noise = noisy minus noiseless; mean within 4 sigma / sqrt(N),
        # variance within 1% of sigma^2
        p_noisy = fast_params(cn0=45.0, seed=5, duration=1.0)
        p_clean = fast_params(cn0=None, duration=1.0)
        noise = (synthesize(p_noisy, code1).samples
                 - synthesize(p_clean, code1).samples)
        sigma = noise_sigma(45.0, 1.0, p_noisy.sample_rate)
        n = len(noise)
        assert n >= 1_000_000
        assert abs(noise.mean()) <= 4.0 * sigma / np.sqrt(n)
        assert noise.var() == pytest.approx(sigma ** 2, rel=0.01)

    def test_bit_flip_negates_signal(self, code1):
        bits = np.ones(3)
        p = full_params(data_bits=bits, duration=20e-3)
        flipped = full_params(data_bits=-bits, duration=20e-3)
        assert np.array_equal(synthesize(flipped, code1).samples,
                              -synthesize(p, code1).samples)

    def test_bit_boundary_placement(self, code1):
        # bit_phase0 = 5 ms puts the first transition 5 ms in
        bits = np.array([1.0, -1.0, 1.0])
        p = full_params(data_bits=bits, bit_phase0=5.0, duration=10e-3)
        ref = full_params(data_bits=np.ones(3), bit_phase0=5.0, duration=10e-3)
        x = synthesize(p, code1).samples
        y = synthesize(ref, code1).samples
        k = round(5e-3 * FS_FULL)
        assert np.array_equal(x[:k], y[:k])
        assert np.array_equal(x[k:], -y[k:])

    def test_carrier_phase_is_continuous_chirp(self, code1):
        # independent oracle: trapezoid integration of the instantaneous
        # frequency is exact for a linear chirp
        p = full_params(doppler0=2000.0, doppler_rate=5000.0, duration=5e-3,
                        code_phase0=0.0)
        sig = synthesize(p, code1).samples
        t = np.arange(len(sig)) / FS_FULL
        f_inst = FIF_FULL + 2000.0 + 5000.0 * t
        phase = cumulative_trapezoid(f_inst, t, initial=0.0)
        code = generate_code(1)
        # reconstruct the code chipping including code-Doppler coupling
        chip_phase = CHIP_RATE * (t + (2000.0 * t + 0.5 * 5000.0 * t * t) / 1.5e9)
        chips = code[np.floor(chip_phase).astype(np.int64) % 1023]
        expected = chips * np.sin(2 * np.pi * phase)
        assert np.allclose(sig, expected, atol=1e-7)

    def test_nyquist_precondition(self, code1):
        with pytest.raises(ValueError, match="Nyquist"):
            synthesize(SynthParams(sample_rate=2.4e6, intermediate_freq=1.25e6),
                       code1)



def _reference_synthesize(params, code):
    """synthesize as it was before its time axis was built in float64
    directly (int64 arange, then division): the bitwise oracle."""
    fs = params.sample_rate
    n = round(params.duration * fs)
    t = np.arange(n) / fs
    doppler_cycles = params.doppler0 * t + 0.5 * params.doppler_rate * t * t
    carrier_cycles = params.intermediate_freq * t + doppler_cycles
    chip_phase = (params.code_phase0
                  + CHIP_RATE * (t + doppler_cycles / params.carrier_freq))
    chips = code[np.floor(chip_phase).astype(np.int64) % len(code)]
    if params.data_bits is None:
        bits = 1.0
    else:
        data = np.asarray(params.data_bits, dtype=np.float64)
        bits = data[signal_synth._bit_indices(t, params.bit_phase0)]
    samples = params.amplitude * chips * bits * np.sin(2.0 * np.pi * carrier_cycles)
    if params.cn0 is not None:
        sigma = noise_sigma(params.cn0, params.amplitude, fs)
        rng = np.random.default_rng(params.seed)
        samples = samples + rng.normal(0.0, sigma, n)
    return samples


class TestReferenceSynthesis:
    @settings(max_examples=40)
    @given(paper=st.booleans(), with_bits=st.booleans(),
           cn0=st.sampled_from([None, 38.0, 45.0]),
           duration_ms=st.integers(1, 25), d0=st.floats(-40e3, 40e3),
           rate=st.floats(-600.0, 600.0), p0=st.floats(0.0, 1023.0),
           bit_phase0=st.floats(0.0, 19.9), seed=st.integers(0, 2 ** 16))
    def test_bitwise_equal_to_reference(self, code1, paper, with_bits, cn0,
                                        duration_ms, d0, rate, p0,
                                        bit_phase0, seed):
        make = full_params if paper else fast_params
        if not paper:
            d0 /= 4  # stay under the fast profile's Nyquist limit
        bits = (1.0 - 2.0 * np.random.default_rng(seed).integers(0, 2, 3)
                if with_bits else None)
        params = make(doppler0=d0, doppler_rate=rate, code_phase0=p0,
                      cn0=cn0, duration=duration_ms * 1e-3, data_bits=bits,
                      bit_phase0=bit_phase0, seed=seed)
        got = synthesize(params, code=code1).samples
        assert got.tobytes() == _reference_synthesize(params, code1).tobytes()


class TestPassPrefix:
    # io_cli._run_matrix synthesizes each epoch only as far as its spans
    # correlate; its outputs are those of the whole epochs because every
    # epoch of a shorter pass is bitwise the start of the longer one's.
    @settings(max_examples=30)
    @given(paper=st.booleans(), random_bits=st.booleans(),
           cn0=st.none() | st.floats(30.0, 60.0),
           short=st.integers(1, 50_000), extra=st.integers(1, 100_000),
           d0=st.floats(-40e3, 40e3), rate=st.floats(-600.0, 600.0),
           p0=st.floats(0.0, 1023.0), bit_phase0=st.floats(0.0, 19.9),
           loss=st.floats(0.0, 20.0), seed=st.integers(0, 2 ** 16))
    # 25 and 65 ms of random bits: the longer epoch draws more bits
    @example(paper=False, random_bits=True, cn0=None, short=25_575,
             extra=40_920, d0=0.0, rate=0.0, p0=0.0, bit_phase0=0.0, loss=0.0,
             seed=1)
    def test_shorter_epochs_are_prefixes(self, code1, paper, random_bits, cn0,
                                         short, extra, d0, rate, p0,
                                         bit_phase0, loss, seed):
        scenario = flat_scenario(2, doppler=d0)
        scenario.samples.doppler_rate[:] = rate
        scenario.samples.path_loss_db[1] += loss
        base = (full_params if paper else fast_params)(
            code_phase0=p0, bit_phase0=bit_phase0, cn0=cn0, seed=seed)

        def epochs(n):
            duration = n / base.sample_rate
            return [synthesize(p, code1).samples for _, p in pass_params(
                scenario, replace(base, duration=duration), random_bits)]

        for head, whole in zip(epochs(short), epochs(short + extra)):
            assert len(head) == short and len(whole) == short + extra
            assert head.tobytes() == whole[:short].tobytes()


class TestPassSignal:
    def test_constant_range_epochs_identical_params(self):
        epochs = list(synthesize_pass_signal(flat_scenario(4),
                                             fast_params(cn0=45.0)))
        assert len(epochs) == 4
        assert all(e.truth.doppler0 == 0.0 for e in epochs)
        amp = epochs[0].truth.amplitude
        assert all(e.truth.amplitude == amp for e in epochs)
        # different seeds per epoch -> different noise
        assert not np.array_equal(epochs[0].samples, epochs[1].samples)

    def test_closest_approach_strongest_and_slowest(self):
        scen = simulate_pass(645e3, 30.0, 0.0, epoch_step=5.0,
                             carrier_freq=1.5e9)
        epochs = list(synthesize_pass_signal(scen, fast_params(cn0=None)))
        amps = np.array([e.truth.amplitude for e in epochs])
        dops = np.array([abs(e.truth.doppler0) for e in epochs])
        k = int(np.argmax(amps))
        assert k == np.argmin([s.range_m for s in scen.samples])
        assert dops[k] == np.min(dops)
        assert amps[k] == fast_params().amplitude  # zero excess loss at minimum

    def test_epoch_doppler_deltas_match_rate(self):
        scen = simulate_pass(645e3, 20.0, 0.0, epoch_step=1.0,
                             carrier_freq=1.5e9)
        epochs = list(synthesize_pass_signal(scen, fast_params(cn0=None)))
        d = np.array([e.truth.doppler0 for e in epochs])
        rate = np.array([s.doppler_rate for s in scen.samples])
        # interior epochs: forward delta vs the midpoint rate, within 1%
        mid_rate = 0.5 * (rate[:-1] + rate[1:])
        lo, hi = len(d) // 4, 3 * len(d) // 4
        deltas = np.diff(d)[lo:hi]
        assert np.all(np.abs(deltas - mid_rate[lo:hi]) <= 0.01 * np.abs(deltas))

    def test_epoch_t0_and_seed_derivation(self):
        scen = flat_scenario(3)
        epochs = list(synthesize_pass_signal(scen, fast_params(cn0=40.0, seed=6)))
        assert [e.t0 for e in epochs] == [0.0, 1.0, 2.0]
        assert [e.truth.seed for e in epochs] == [6 ^ 0, 6 ^ 1, 6 ^ 2]

    def test_random_bits_reproducible_and_bipolar(self):
        scen = flat_scenario(3)
        base = fast_params(cn0=None, duration=40e-3, seed=9)
        a = list(synthesize_pass_signal(scen, base, random_bits=True))
        b = list(synthesize_pass_signal(scen, base, random_bits=True))
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.truth.data_bits, eb.truth.data_bits)
            assert np.all(np.abs(ea.truth.data_bits) == 1.0)
        assert not np.array_equal(a[0].truth.data_bits, a[1].truth.data_bits)
