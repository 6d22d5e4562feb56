"""Spreading-code generation and resampling.

The transmitted navigation signal is BPSK-spread with a 1023-chip Gold code
at 1.023 Mchip/s (one period per millisecond), generated from the classic
pair of 10-stage linear feedback shift registers.  The actual code family of
the target satellite is not public, so the GPS C/A family (PRN 1..37) is
used as a stand-in; the chip rate is carried on the sequence object and the
length is that of its chips, so other families can be substituted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CODE_LENGTH = 1023
CHIP_RATE = 1.023e6  # chips/s; one period spans exactly 1 ms

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


@dataclass
class ChipSequence:
    """One period of a bipolar spreading code.

    chips take values in {+1, -1}; one period at chip_rate spans the unit
    duration used by acquisition (1 ms with the defaults).
    """

    prn_id: int
    chips: np.ndarray
    chip_rate: float = CHIP_RATE

    def __post_init__(self):
        self.chips = np.asarray(self.chips, dtype=np.float64)
        if not np.all(np.abs(self.chips) == 1.0):
            raise ValueError("chips must all be +1 or -1")

    @property
    def code_length(self) -> int:
        return len(self.chips)

    @property
    def period_s(self) -> float:
        """Duration of one code period in seconds."""
        return self.code_length / self.chip_rate


def generate_code(prn_id: int) -> ChipSequence:
    """Generate one period of the Gold code for the given PRN.

    Deterministic: the same prn_id always yields an identical sequence.
    Register bit 0 maps to chip +1 and bit 1 to chip -1, so BPSK modulation
    is plain multiplication.
    """
    if prn_id not in _G2_TAPS:
        raise ValueError(f"unknown PRN {prn_id} (supported: 1..{len(_G2_TAPS)})")
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
    return ChipSequence(prn_id=prn_id, chips=out)


def sample_code(code: ChipSequence, sample_rate: float,
                code_phase: float = 0.0,
                code_rate_scale: float = 1.0) -> np.ndarray:
    """Resample one code period at the receiver sampling rate.

    Sample k holds the chip at index floor(k * chip_rate * code_rate_scale
    / sample_rate + code_phase) mod code_length, i.e. a phase-accumulator
    NCO with fractional phases resolved by nearest-lower chip.  The output
    covers exactly one unit duration (code_length / chip_rate seconds).
    """
    if not np.isfinite(sample_rate) or sample_rate <= 0:
        raise ValueError(f"sample_rate must be finite and positive, got {sample_rate}")
    n = round(sample_rate * code.code_length / code.chip_rate)
    k = np.arange(n)
    idx = np.floor(k * (code.chip_rate * code_rate_scale / sample_rate)
                   + code_phase).astype(np.int64) % code.code_length
    return code.chips[idx]
