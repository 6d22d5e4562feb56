"""Pass-level evaluation: labeling, false-alarm sweeps, duration curves.

Acquisition results are labelled epoch by epoch against the truth each
epoch was synthesized with, its own SynthParams (correct Doppler to half a
search bin, correct code phase to one sample, cyclically; see
label_epochs), and give the two figure-analog products:

  * probability of false alarm versus decision threshold, where a "false
    alarm" counts both decided-but-wrong and undecided-but-right epochs
    (the combined error rate against ground truth; the two components are
    also reported separately), and
  * successful-acquisition duration versus integration duration.

One path leads from epochs to labelled results.  run_span, the one epoch
loop of acquisition, correlates each epoch of a span once, integrates the
units with every strategy at that span and feeds each strategy's rows to
the detector's row search, block by block (see run_span); run_epoch calls
it with one epoch and one strategy.  acquisition_timeline then labels the
results it is given into a table of COLUMNS, a row per epoch, and acquires
nothing itself; both products reduce its columns (pf_sweep, durations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prn_code import CHIP_RATE, generate_code, samples_per_code
from .signal_synth import SampledSignal, SynthParams
from .acq_core import (FrequencyPlan, _mixing_table, band_scope,
                       code_spectrum, process_units, row_blocks)
from .integrators import IntegrationSpec, integrate
from .detector import AcqResult, RowSearch, acquire, decide


@dataclass
class EpochLabel:
    t: float
    truth_doppler: float
    estimate_ok: bool


@dataclass
class PfCurve:
    thresholds: np.ndarray
    pf: np.ndarray
    miss_rate: np.ndarray
    false_alarm_rate: np.ndarray


# The per-epoch table's columns (acquisition_timeline), in the CSV's order
COLUMNS = ("t_s", "strategy", "total_ms", "doppler_hz", "code_phase_samples",
           "mtsmr", "mtmr", "decided", "ok")


def truth_code_phase(params: SynthParams, n_samples: int) -> float:
    """Grid code-phase position (in samples) where a signal synthesized with
    the given initial code phase correlates: the phase-accumulator start
    offset maps to the negated sample delay, cyclically."""
    return (-params.code_phase0 * params.sample_rate / CHIP_RATE) % n_samples


def cyclic_distance(a: float, b: float, n: int) -> float:
    d = abs(a - b) % n
    return min(d, n - d)


def label_epochs(results: Sequence[AcqResult], epochs: Sequence[SampledSignal],
                 plan: FrequencyPlan, code: np.ndarray) -> list[EpochLabel]:
    """Label each epoch against its own SynthParams (doppler0, code_phase0,
    intermediate_freq) and t0: the estimate is correct iff its peak is
    positive (MTSMR > 0, not NaN), its Doppler within half a search bin of
    doppler0 and its code phase within one sample of truth_code_phase.

    Doppler is compared in make_plan's 500/T Hz bins, exactly at a tie (a
    truth half a bin from two bins is ok at both): d Hz is d * T / 500
    bins, and a grid estimate is its whole bin index, not Doppler / width.
    """
    span_ms = round(500.0 / plan.bin_width)
    labels = []
    for res, epoch in zip(results, epochs):
        truth = epoch.truth
        n = samples_per_code(len(code), epoch.sample_rate)
        code_phase = truth_code_phase(truth, n)
        j = round(res.doppler_hat / plan.bin_width)
        est_bins = (j if j * plan.bin_width == res.doppler_hat
                    else res.doppler_hat / plan.bin_width)
        offset = truth.doppler0 - (plan.center - truth.intermediate_freq)
        dopp_ok = abs(est_bins - offset * span_ms / 500.0) <= 0.5
        code_ok = cyclic_distance(res.code_phase_hat, code_phase, n) <= 1.0
        labels.append(EpochLabel(t=epoch.t0, truth_doppler=truth.doppler0,
                                 estimate_ok=bool(dopp_ok and code_ok
                                                  and res.mtsmr > 0)))
    return labels


def pf_sweep(mtsmr, ok, thresholds: Sequence[float]) -> PfCurve:
    """Combined error rate (misses + false alarms) per ascending threshold."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    decided = decide(np.asarray(mtsmr, dtype=np.float64), thresholds[:, None])
    ok = np.asarray(ok, dtype=bool)
    fa = np.count_nonzero(decided & ~ok, axis=1) / len(ok)
    miss = np.count_nonzero(~decided & ok, axis=1) / len(ok)
    return PfCurve(thresholds=thresholds, pf=fa + miss, miss_rate=miss,
                   false_alarm_rate=fa)


def durations(table: np.ndarray, epoch_step: float) -> tuple[float, float]:
    """A table's ok and decided counts times epoch_step, always as floats."""
    ok, decided = (int(np.count_nonzero(table[c])) for c in ("ok", "decided"))
    return ok * float(epoch_step), decided * float(epoch_step)


def threshold_bounds(curve: PfCurve, target: float) -> tuple[float, float] | None:
    """Smallest and largest threshold with pf <= target, or None."""
    below = np.flatnonzero(curve.pf <= target)
    if below.size == 0:
        return None
    return float(curve.thresholds[below[0]]), float(curve.thresholds[below[-1]])


# Epochs walked together when a plan has several row blocks.  The chunk
# bounds the live search state at _EPOCH_CHUNK x len(specs) RowSearches of
# up to 4 rows each, and each chunk builds the plan's mixing rows once more:
# a whole table costs about 1/16 of one epoch's correlation CPU (401 x 4092
# paper-profile rows), so over 8 epochs the rebuild stays under 1%.
_EPOCH_CHUNK = 8


def run_span(epochs: Sequence[SampledSignal], code: np.ndarray,
             plan: FrequencyPlan, specs: Sequence[IntegrationSpec],
             threshold: float) -> list[list[AcqResult]]:
    """Acquire every epoch with every strategy in specs: result [k][i] is
    epoch k under specs[i].

    All specs must share one span (the plan is built for it).  Each epoch
    is correlated once and every strategy integrates the same unit block.

    run_span owns the span's correlation constants and builds each once:
    the code spectrum, the sub-plans of acq_core.row_blocks, one unit
    buffer and a band_scope.  It walks the row blocks in the outer loop,
    over chunks of epochs: for each block it builds the block's mixing
    rows, then process_units correlates each epoch of the chunk into a
    (count, rows, n) prefix of the buffer, and every strategy integrates
    it and feeds the rows to the epoch's RowSearch.  An epoch is acquired
    once its last block is fed.  A plan of one block is one chunk of every
    epoch, so its table is built once and each epoch is acquired right
    after it is correlated; a longer plan walks chunks of _EPOCH_CHUNK
    epochs, so only one block's rows of the table are held at a time.
    """
    spans = {spec.total_ms for spec in specs}
    if len(spans) != 1:
        raise ValueError(f"specs must share one span, got {sorted(spans)} ms")
    if not epochs:
        return []
    count = specs[0].total_ms
    fs = epochs[0].sample_rate
    n = samples_per_code(len(code), fs)
    results = []
    blocks = row_blocks(len(plan.bins), count, n)
    sub_plans = [FrequencyPlan(plan.center, plan.bin_width, plan.bins[a:b])
                 for a, b in blocks]
    spectrum = code_spectrum(code, fs)
    buffer = np.empty(count * blocks[0][1] * n, np.complex64)
    l_spc = round(fs / CHIP_RATE)  # one chip excluded around the peak
    chunk = len(epochs) if len(blocks) == 1 else _EPOCH_CHUNK
    with band_scope():
        for start in range(0, len(epochs), chunk):
            group = epochs[start:start + chunk]
            searches = [[RowSearch(plan, l_spc) for _ in specs]
                        for _ in group]
            for (a, b), sub_plan in zip(blocks, sub_plans):
                table = _mixing_table(sub_plan, n, fs)
                out = buffer[:count * (b - a) * n].reshape(count, b - a, n)
                for k, epoch in enumerate(group):
                    process_units(epoch, spectrum, sub_plan, count, out,
                                  table)
                    for search, spec in zip(searches[k], specs):
                        search.add(integrate(out, spec.strategy))
                    if b == len(plan.bins):  # the epoch's last block
                        results.append([acquire(search, threshold=threshold)
                                        for search in searches[k]])
                        searches[k] = None  # frees the rows they copied
    return results


def run_epoch(epoch: SampledSignal, code: np.ndarray, plan: FrequencyPlan,
              spec: IntegrationSpec, threshold: float) -> AcqResult:
    """Acquire one epoch with the given integration strategy."""
    return run_span([epoch], code, plan, [spec], threshold)[0][0]


def acquisition_timeline(pass_epochs: Sequence[SampledSignal],
                         spec: IntegrationSpec, plan: FrequencyPlan,
                         threshold: float, results: list[AcqResult],
                         code: np.ndarray | None = None,
                         ) -> tuple[list[AcqResult], list[EpochLabel], np.ndarray]:
    """Label one strategy's results, one per epoch of a pass (see run_span),
    into a table: a structured array of COLUMNS with a row per epoch, its
    decided and ok 0 or 1 (ok the desk-scale analog of Doppler-continuity
    checking).  threshold names the run that gave the results and is not
    read; code is made from the first epoch's truth when None."""
    if code is None:
        code = generate_code(pass_epochs[0].truth.prn_id)
    labels = label_epochs(results, pass_epochs, plan, code)
    rows = [(l.t, spec.strategy.value, spec.total_ms, float(r.doppler_hat),
             r.code_phase_hat, float(r.mtsmr), float(r.mtmr), int(r.decided),
             int(l.estimate_ok)) for r, l in zip(results, labels)]
    return results, labels, np.rec.fromrecords(rows, names=COLUMNS)
