"""Spreading-code generation and resampling tests."""

import numpy as np
import pytest

from leoacq.prn_code import (CHIP_RATE, CODE_LENGTH, generate_code,
                             sample_code, samples_per_code)


def _lfsr_oracle_prn(tap1, tap2):
    """Independent Gold-code oracle: registers as integer bitmasks.

    Bit i of the mask is stage i+1; output taken from stage 10, feedback
    reinserted at stage 1.
    """
    g1 = 0x3FF
    g2 = 0x3FF
    seq = []
    for _ in range(CODE_LENGTH):
        out1 = (g1 >> 9) & 1
        out2 = ((g2 >> (tap1 - 1)) ^ (g2 >> (tap2 - 1))) & 1
        seq.append(out1 ^ out2)
        fb1 = ((g1 >> 2) ^ (g1 >> 9)) & 1
        fb2 = ((g2 >> 1) ^ (g2 >> 2) ^ (g2 >> 5) ^ (g2 >> 7)
               ^ (g2 >> 8) ^ (g2 >> 9)) & 1
        g1 = ((g1 << 1) | fb1) & 0x3FF
        g2 = ((g2 << 1) | fb2) & 0x3FF
    return np.array(seq)


def _lfsr_period(taps):
    """Period of a single LFSR, counted by direct state evolution."""
    state = 0x3FF
    seen = state
    period = 0
    while True:
        fb = 0
        for t in taps:
            fb ^= (state >> (t - 1)) & 1
        state = ((state << 1) | fb) & 0x3FF
        period += 1
        if state == seen:
            return period


def test_generator_registers_are_maximal_length():
    assert _lfsr_period((3, 10)) == 1023
    assert _lfsr_period((2, 3, 6, 8, 9, 10)) == 1023


def test_code_length_is_one_register_period():
    code = generate_code(1)
    assert CODE_LENGTH == 1023
    assert code.shape == (1023,)
    # one period at the chip rate spans the 1 ms unit
    assert samples_per_code(len(code), CHIP_RATE) == 1023


def test_matches_independent_lfsr_oracle():
    # PRN 1 uses G2 stages 2 and 6.
    oracle_bits = _lfsr_oracle_prn(2, 6)
    assert np.array_equal(generate_code(1), 1.0 - 2.0 * oracle_bits)


def test_known_first_chips_prn1():
    # First ten chips of PRN 1 are 1100100000 in bit form.
    bits = ((1 - generate_code(1)[:10]) / 2).astype(int)
    assert "".join(map(str, bits)) == "1100100000"


@pytest.mark.parametrize("prn", [1, 7, 19, 37])
def test_determinism(prn):
    assert np.array_equal(generate_code(prn), generate_code(prn))


def test_balance_single_chip_imbalance():
    for prn in range(1, 38):
        assert abs(int(generate_code(prn).sum())) == 1


@pytest.mark.parametrize("prn", [0, 38, -3])
def test_unknown_prn_rejected(prn):
    with pytest.raises(ValueError, match="unknown PRN"):
        generate_code(prn)


def test_sample_code_integer_oversampling(code1):
    out = sample_code(code1, 4 * CHIP_RATE)
    assert len(out) == 4092
    assert np.array_equal(out, np.repeat(code1, 4))


def test_sample_code_non_integer_rate(code1):
    # 2.5 samples per chip: one unit of samples, nearest-lower chip each
    fs = 2.5 * CHIP_RATE
    out = sample_code(code1, fs)
    assert len(out) == samples_per_code(len(code1), fs) == 2558
    k = np.arange(len(out))
    assert np.array_equal(out, code1[(k * 2 // 5)])


def test_gold_family_cross_correlation_bound():
    # Three-valued cross-correlation: bounded by 65 for every distinct pair
    # in the family except 34/37, which are the same sequence by design.
    ffts = {p: np.fft.fft(generate_code(p)) for p in range(1, 38)}
    for a in range(1, 38):
        cc_auto = np.fft.ifft(ffts[a] * np.conj(ffts[a])).real
        assert round(cc_auto[0]) == CODE_LENGTH
        for b in range(a + 1, 38):
            if (a, b) == (34, 37):
                assert np.array_equal(generate_code(34),
                                      generate_code(37))
                continue
            cc = np.fft.ifft(ffts[a] * np.conj(ffts[b])).real
            assert np.abs(np.rint(cc)).max() <= 65
