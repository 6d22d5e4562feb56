"""The transmitted signal's constants, and its spreading codes.

A 1023-chip Gold code (CODE_LENGTH) at 1.023 Mchip/s (CHIP_RATE) spreads
the signal, so one code period, the acquisition unit, spans 1 ms.  The
50 bps data changes sign only at 20 ms bit boundaries (BIT_PERIOD_MS),
which alternate half-bit integration splits in two.  The codes come from
two 10-stage LFSRs; the target satellite's code family is not public, so
the GPS C/A family (PRN 1..37) stands in.
"""

from __future__ import annotations

import numpy as np

CODE_LENGTH = 1023
CHIP_RATE = 1.023e6  # chips/s; one period spans exactly 1 ms
BIT_PERIOD_MS = 20  # 50 bps navigation data

# Per-PRN phase-selector taps on the G2 register (1-based stage numbers).
# PRNs 34 and 37 intentionally share taps and produce identical sequences.
_G2_TAPS = {
    1: (2, 6), 2: (3, 7), 3: (4, 8), 4: (5, 9), 5: (1, 9),
    6: (2, 10), 7: (1, 8), 8: (2, 9), 9: (3, 10), 10: (2, 3),
    11: (3, 4), 12: (5, 6), 13: (6, 7), 14: (7, 8), 15: (8, 9),
    16: (9, 10), 17: (1, 4), 18: (2, 5), 19: (3, 6), 20: (4, 7),
    21: (5, 8), 22: (6, 9), 23: (1, 3), 24: (4, 6), 25: (5, 7),
    26: (6, 8), 27: (7, 9), 28: (8, 10), 29: (1, 6), 30: (2, 7),
    31: (3, 8), 32: (4, 9), 33: (5, 10), 34: (4, 10), 35: (1, 7),
    36: (2, 8), 37: (4, 10),
}


def check_prn(prn_id: int) -> None:
    """Raise ValueError unless prn_id names a code of the family."""
    if prn_id not in _G2_TAPS:
        raise ValueError(f"unknown PRN {prn_id} (supported: 1..{len(_G2_TAPS)})")


def generate_code(prn_id: int) -> np.ndarray:
    """One period of the Gold code for the given PRN: CODE_LENGTH +/-1 chips.

    Deterministic: the same prn_id always yields an identical sequence.
    Register bit 0 maps to chip +1 and bit 1 to chip -1, so BPSK modulation
    is plain multiplication.
    """
    check_prn(prn_id)
    tap1, tap2 = _G2_TAPS[prn_id]
    g1 = [1] * 10
    g2 = [1] * 10
    out = np.empty(CODE_LENGTH, dtype=np.float64)
    for i in range(CODE_LENGTH):
        bit = g1[9] ^ g2[tap1 - 1] ^ g2[tap2 - 1]
        out[i] = 1.0 - 2.0 * bit
        fb1 = g1[2] ^ g1[9]
        fb2 = g2[1] ^ g2[2] ^ g2[5] ^ g2[7] ^ g2[8] ^ g2[9]
        g1 = [fb1] + g1[:9]
        g2 = [fb2] + g2[:9]
    return out


def samples_per_code(chips: int, sample_rate: float) -> int:
    """Samples in one period of a code chips long, at CHIP_RATE."""
    return round(sample_rate * chips / CHIP_RATE)


def sample_code(code: np.ndarray, sample_rate: float) -> np.ndarray:
    """Resample one code period at the receiver sampling rate.

    Sample k holds the chip at index floor(k * CHIP_RATE / sample_rate),
    the nearest-lower chip.  The output covers exactly one code period
    (samples_per_code samples).
    """
    k = np.arange(samples_per_code(len(code), sample_rate))
    return code[np.floor(k * (CHIP_RATE / sample_rate)).astype(np.int64)]
