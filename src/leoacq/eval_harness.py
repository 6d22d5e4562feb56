"""Pass-level evaluation: labeling, false-alarm sweeps, duration curves.

Acquisition results are labelled epoch by epoch against the injected
ground truth (correct Doppler to half a search bin, correct code phase to
one sample, cyclically), and give the two figure-analog products:

  * probability of false alarm versus decision threshold, where a "false
    alarm" counts both decided-but-wrong and undecided-but-right epochs
    (the combined error rate against ground truth; the two components are
    also reported separately), and
  * successful-acquisition duration versus integration duration.

One path leads from epochs to labelled results.  run_span, the one epoch
loop of acquisition, correlates each epoch of a span once, integrates the
units with every strategy at that span and feeds each strategy's rows to
the detector's row search, block by block (see run_span); run_epoch calls
it with one epoch and one strategy.  acquisition_timeline then labels and
summarises the results it is given, and acquires nothing itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prn_code import ChipSequence, generate_code, samples_per_code
from .signal_synth import SampledSignal, SynthParams
from .acq_core import (FrequencyPlan, _mixing_table, band_scope,
                       process_units, row_blocks)
from .integrators import IntegrationSpec, integrate
from .detector import AcqResult, RowSearch, acquire


@dataclass
class EpochTruth:
    """Injected ground truth for one epoch."""

    t: float
    doppler: float              # Hz
    code_phase_samples: float   # truth peak position, may be fractional


@dataclass
class EpochLabel:
    t: float
    truth_doppler: float
    truth_code_phase: float
    estimate_ok: bool


@dataclass
class PfCurve:
    thresholds: np.ndarray
    pf: np.ndarray
    miss_rate: np.ndarray
    false_alarm_rate: np.ndarray


@dataclass
class TimelineSummary:
    success_s: float
    decided_s: float


def truth_code_phase(params: SynthParams, n_samples: int,
                     chip_rate: float) -> float:
    """Grid code-phase position (in samples) where a signal synthesized with
    the given initial code phase correlates: the phase-accumulator start
    offset maps to the negated sample delay, cyclically."""
    return (-params.code_phase0 * params.sample_rate / chip_rate) % n_samples


def truth_from_epoch(epoch: SampledSignal, code: ChipSequence) -> EpochTruth:
    """Pull the injected truth out of a synthesized epoch."""
    if epoch.truth is None:
        raise ValueError("epoch carries no truth metadata")
    n = samples_per_code(code, epoch.sample_rate)
    return EpochTruth(
        t=epoch.t0,
        doppler=epoch.truth.doppler0,
        code_phase_samples=truth_code_phase(epoch.truth, n, code.chip_rate),
    )


def cyclic_distance(a: float, b: float, n: int) -> float:
    d = abs(a - b) % n
    return min(d, n - d)


def label_epochs(results: Sequence[AcqResult], truths: Sequence[EpochTruth],
                 plan: FrequencyPlan, intermediate_freq: float,
                 n_samples: int) -> list[EpochLabel]:
    """Label each epoch: estimate correct iff Doppler within half a search
    bin and code phase within one sample, cyclically."""
    if len(results) != len(truths):
        raise ValueError(
            f"{len(results)} results vs {len(truths)} truth epochs")
    labels = []
    for res, tru in zip(results, truths):
        doppler_est = (plan.center - intermediate_freq) + res.doppler_hat
        dopp_ok = abs(doppler_est - tru.doppler) <= plan.bin_width / 2.0
        code_ok = cyclic_distance(res.code_phase_hat,
                                  tru.code_phase_samples, n_samples) <= 1.0
        labels.append(EpochLabel(t=tru.t, truth_doppler=tru.doppler,
                                 truth_code_phase=tru.code_phase_samples,
                                 estimate_ok=bool(dopp_ok and code_ok)))
    return labels


def pf_sweep(results: Sequence[AcqResult], labels: Sequence[EpochLabel],
             thresholds: Sequence[float]) -> PfCurve:
    """Combined error rate (misses + false alarms) per MTSMR threshold."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.size == 0 or not results:
        raise ValueError("empty inputs to pf_sweep")
    if len(results) != len(labels):
        raise ValueError(f"{len(results)} results vs {len(labels)} labels")
    if np.any(np.diff(thresholds) <= 0):
        raise ValueError("thresholds must be strictly ascending")
    decided = np.array([r.mtsmr for r in results]) >= thresholds[:, None]
    ok = np.array([l.estimate_ok for l in labels])
    fa = np.count_nonzero(decided & ~ok, axis=1) / len(results)
    miss = np.count_nonzero(~decided & ok, axis=1) / len(results)
    return PfCurve(thresholds=thresholds, pf=fa + miss, miss_rate=miss,
                   false_alarm_rate=fa)


def threshold_bounds(curve: PfCurve, target: float) -> tuple[float, float] | None:
    """Smallest and largest threshold with pf <= target, or None."""
    if not 0 < target < 1:
        raise ValueError(f"target must be in (0, 1), got {target}")
    below = np.flatnonzero(curve.pf <= target)
    if below.size == 0:
        return None
    return float(curve.thresholds[below[0]]), float(curve.thresholds[below[-1]])


def run_span(epochs: Sequence[SampledSignal], code: ChipSequence,
             plan: FrequencyPlan, specs: Sequence[IntegrationSpec],
             threshold: float) -> list[list[AcqResult]]:
    """Acquire every epoch with every strategy in specs: result [k][i] is
    epoch k under specs[i].

    All specs must share one span (the plan is built for it).  Each epoch
    is correlated once and every strategy integrates the same unit block.

    The plan is walked in the row blocks of acq_core.row_blocks:
    process_units correlates the block's sub-plan into the (count, rows, n)
    unit block, and every strategy integrates that block and feeds the rows
    to its RowSearch for the epoch.  One grid buffer, the sub-plans, the
    plan's mixing table and a band_scope are made once per span.
    """
    spans = {spec.total_ms for spec in specs}
    if len(spans) != 1:
        raise ValueError(f"specs must share one span, got {sorted(spans)} ms")
    if not epochs:
        return []
    count = specs[0].total_ms
    fs = epochs[0].sample_rate
    n = samples_per_code(code, fs)
    results = []
    blocks = row_blocks(len(plan.bins), count, n)
    sub_plans = [FrequencyPlan(plan.center, plan.bin_width, plan.bins[a:b])
                 for a, b in blocks]
    table = _mixing_table(plan, n, fs)
    buffer = np.empty(count * blocks[0][1] * n, np.complex64)
    l_spc = round(fs / code.chip_rate)  # one chip excluded around the peak
    with band_scope():
        for epoch in epochs:
            searches = [RowSearch(plan, l_spc) for _ in specs]
            for (a, b), sub_plan in zip(blocks, sub_plans):
                out = buffer[:count * (b - a) * n].reshape(count, b - a, n)
                process_units(epoch, code, sub_plan, count=count, out=out,
                              table=table[a:b])
                for search, spec in zip(searches, specs):
                    search.add(integrate(out, spec.strategy))
            results.append([acquire(search, threshold=threshold)
                            for search in searches])
    return results


def run_epoch(epoch: SampledSignal, code: ChipSequence, plan: FrequencyPlan,
              spec: IntegrationSpec, threshold: float) -> AcqResult:
    """Acquire one epoch with the given integration strategy."""
    return run_span([epoch], code, plan, [spec], threshold)[0][0]


def acquisition_timeline(pass_epochs: Sequence[SampledSignal],
                         spec: IntegrationSpec, plan: FrequencyPlan,
                         threshold: float, results: list[AcqResult],
                         code: ChipSequence | None = None,
                         ) -> tuple[list[AcqResult], list[EpochLabel], TimelineSummary]:
    """Label one strategy's results, one per epoch of a pass (see run_span),
    and summarize.  spec and threshold name the run that gave the results
    and are not read; code is made from the first epoch's truth when None.

    Success duration counts truth-correct epochs (the desk-scale analog of
    Doppler-continuity checking); the threshold-based decided duration is
    reported separately.  Durations are epoch counts scaled by the epoch
    cadence inferred from the stream.
    """
    epochs = list(pass_epochs)
    if not epochs:
        raise ValueError("empty epoch stream")
    if code is None:
        code = generate_code(epochs[0].truth.prn_id)
    truths = [truth_from_epoch(e, code) for e in epochs]
    n = samples_per_code(code, epochs[0].sample_rate)
    labels = label_epochs(results, truths, plan,
                          epochs[0].truth.intermediate_freq, n)
    step = epochs[1].t0 - epochs[0].t0 if len(epochs) > 1 else 1.0
    summary = TimelineSummary(
        success_s=sum(1 for l in labels if l.estimate_ok) * step,
        decided_s=sum(1 for r in results if r.decided) * step,
    )
    return results, labels, summary
