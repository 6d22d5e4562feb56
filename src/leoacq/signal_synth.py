"""Sampled-IF signal synthesis: the ground-truth source for acquisition runs.

Produces real-valued IF sample streams of the BPSK-spread navigation signal:
amplitude * code * data * sin(2*pi*phase) + Gaussian noise, with 50 bps data
(possible sign transition every 20 ms), carrier phase accumulated as a chirp
(Doppler + Doppler rate), code-Doppler coupling on the chip rate, and noise
variance set from C/N0 referenced to the full real-sampling Nyquist band.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .prn_code import BIT_PERIOD_MS, CHIP_RATE, generate_code
from .geometry import PassScenario


@dataclass
class SynthParams:
    """Everything needed to synthesize (and later label) one signal epoch."""

    prn_id: int = 1
    sample_rate: float = 4.092e6
    intermediate_freq: float = 1.25e6
    carrier_freq: float = 1.5e9     # for code-Doppler coupling
    amplitude: float = 1.0
    code_phase0: float = 0.0        # chips
    doppler0: float = 0.0           # Hz at t = 0
    doppler_rate: float = 0.0       # Hz/s
    data_bits: np.ndarray | None = None  # +/-1 at 50 bps; None -> all +1
    bit_phase0: float = 0.0         # ms offset of first bit boundary in [0, 20)
    cn0: float | None = None        # dB-Hz; None -> noiseless
    duration: float = 1e-3          # s
    seed: int = 0


@dataclass
class SampledSignal:
    """IF sample stream with its sampling metadata.

    synthesize makes real float64 samples.  A synthesized pass holds them as
    float32 (io_cli.pass_epochs), and read_samples returns float32 from
    every sample format, all of them real.  The engine mixes every sample
    to complex64 (acq_core.process_units), so float32 input loses
    acquisition nothing that float64 input keeps.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0
    truth: SynthParams | None = None


def noise_sigma(cn0: float, amplitude: float, sample_rate: float) -> float:
    """Noise standard deviation for a target C/N0 (dB-Hz).

    Solves (A^2/2) / (sigma^2 / (fs/2)) = 10^(cn0/10): real sampling with the
    noise power spread over the full Nyquist band.
    """
    return float(np.sqrt(amplitude ** 2 / 2.0 * (sample_rate / 2.0)
                         / 10.0 ** (cn0 / 10.0)))


def _bit_indices(t: np.ndarray, bit_phase0: float) -> np.ndarray:
    """Index of the data bit active at each time (bit boundaries every 20 ms,
    the first boundary offset by bit_phase0 ms)."""
    offset_ms = (BIT_PERIOD_MS - bit_phase0) % BIT_PERIOD_MS
    return np.floor((t * 1e3 + offset_ms) / BIT_PERIOD_MS).astype(np.int64)


def synthesize(params: SynthParams, code: np.ndarray) -> SampledSignal:
    """Synthesize one epoch of sampled IF signal spread by code's chips.

    Deterministic given params.seed.  Carrier phase is accumulated
    continuously across the whole epoch (chirp, not stepped per
    millisecond); the code NCO runs at CHIP_RATE * (1 + doppler/carrier).
    """
    fs = params.sample_rate
    n = round(params.duration * fs)
    f_max = (params.intermediate_freq + abs(params.doppler0)
             + abs(params.doppler_rate) * params.duration)
    if fs <= 2.0 * f_max:
        raise ValueError(
            f"sample rate {fs} Hz violates Nyquist for max instantaneous "
            f"frequency {f_max} Hz")

    # In-place ufuncs over three float64 buffers (t, cycles, x), each step in
    # the order of the expression in the comment above it, so the samples
    # are bitwise those of evaluating the expressions whole.
    t = np.arange(n, dtype=np.float64)
    t /= fs
    # Doppler phase integral, shared by carrier chirp and code-rate scaling:
    # cycles = doppler0 * t + 0.5 * doppler_rate * t * t
    cycles = np.multiply(0.5 * params.doppler_rate, t)
    cycles *= t
    x = np.multiply(params.doppler0, t)
    cycles += x
    # code[floor(code_phase0 + CHIP_RATE * (t + cycles / carrier_freq)) % len(code)]
    np.divide(cycles, params.carrier_freq, out=x)
    x += t
    x *= CHIP_RATE
    x += params.code_phase0
    # One int64 temporary: with a second one here, glibc returned and
    # refaulted the heap's top pages every epoch of a pass (57k more minor
    # faults synthesizing a 539-epoch, 40 ms fast-profile pass).
    index = np.floor(x, out=x).astype(np.int64)
    index %= len(code)
    # samples = amplitude * code[index] * bits * sin(2 pi (intermediate_freq * t + cycles))
    samples = np.take(code, index, out=x, mode="clip")
    del index
    samples *= params.amplitude
    if params.data_bits is not None:
        samples *= params.data_bits[_bit_indices(t, params.bit_phase0)]
    carrier = np.multiply(params.intermediate_freq, t, out=t)
    carrier += cycles
    carrier *= 2.0 * np.pi
    samples *= np.sin(carrier, out=carrier)
    if params.cn0 is not None:
        # the draws of rng.normal(0.0, sigma, n), into the free cycles buffer
        sigma = noise_sigma(params.cn0, params.amplitude, fs)
        noise = np.random.default_rng(params.seed).standard_normal(out=cycles)
        noise *= sigma
        samples += noise
    return SampledSignal(samples=samples, sample_rate=fs, t0=0.0, truth=params)


def pass_params(scenario: PassScenario, base: SynthParams,
                random_bits: bool = False):
    """Yield each epoch's (t0, SynthParams) of a pass, one per scenario
    sample and in order, without synthesizing any samples.

    Epoch Doppler/Doppler-rate follow the scenario; amplitude and C/N0 are
    both reduced by the path-loss excess over the pass minimum, which keeps
    the synthesized noise floor constant while the signal fades.  Per-epoch
    seeds are derived as base.seed XOR epoch index, and with random_bits
    each epoch gets its own seeded random +/-1 data sequence (a stream
    independent of the noise).  So an epoch's samples depend on its params
    alone, and the epochs of a pass can be synthesized in any order, on any
    thread (io_cli.pass_epochs synthesizes them in row bands).
    """
    # Python floats, so that each SynthParams is that of the scalar sums
    columns = ("t", "doppler", "doppler_rate", "path_loss_db")
    ts, dopplers, rates, losses = (scenario.samples[c].tolist() for c in columns)
    loss_min = min(losses)
    n_bits = int(base.duration * 1e3 / BIT_PERIOD_MS) + 2
    for k, (t, doppler, rate, loss) in enumerate(zip(ts, dopplers, rates, losses)):
        excess_db = loss - loss_min
        params = replace(
            base,
            doppler0=doppler,
            doppler_rate=rate,
            amplitude=base.amplitude * 10.0 ** (-excess_db / 20.0),
            cn0=None if base.cn0 is None else base.cn0 - excess_db,
            seed=base.seed ^ k,
        )
        if random_bits:
            bit_rng = np.random.default_rng([base.seed, k])
            params = replace(
                params,
                data_bits=1.0 - 2.0 * bit_rng.integers(0, 2, n_bits))
        yield t, params


def synthesize_pass_signal(scenario: PassScenario, base: SynthParams,
                           random_bits: bool = False):
    """Yield one signal epoch per scenario sample, synthesized one after
    another from pass_params: the serial pass, one epoch held at a time."""
    code = generate_code(base.prn_id)
    for t0, params in pass_params(scenario, base, random_bits):
        epoch = synthesize(params, code=code)
        epoch.t0 = t0
        yield epoch
