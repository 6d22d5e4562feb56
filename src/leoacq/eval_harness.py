"""Pass-level evaluation: labeling, false-alarm sweeps, duration curves.

Runs acquisition epoch by epoch over a synthesized pass, labels each epoch
against the injected ground truth (correct Doppler to half a search bin,
correct code phase to one sample, cyclically), and derives the two
figure-analog products:

  * probability of false alarm versus decision threshold, where a "false
    alarm" counts both decided-but-wrong and undecided-but-right epochs
    (the combined error rate against ground truth; the two components are
    also reported separately), and
  * successful-acquisition duration versus integration duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .prn_code import ChipSequence, generate_code
from .signal_synth import SampledSignal, SynthParams
from .acq_core import FrequencyPlan, process_units, samples_per_code
from .integrators import IntegrationSpec, integrate
from .detector import AcqResult, acquire


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
    first_ok_t: Optional[float]
    last_ok_t: Optional[float]


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
                 n_samples: int, doppler_slack_hz: float = 0.0) -> list[EpochLabel]:
    """Label each epoch: estimate correct iff Doppler within half a search
    bin (plus optional slack) and code phase within one sample, cyclically."""
    if len(results) != len(truths):
        raise ValueError(
            f"{len(results)} results vs {len(truths)} truth epochs")
    labels = []
    for res, tru in zip(results, truths):
        doppler_est = (plan.center - intermediate_freq) + res.doppler_hat
        dopp_ok = abs(doppler_est - tru.doppler) <= plan.bin_width / 2.0 + doppler_slack_hz
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
    if np.any(np.diff(thresholds) <= 0):
        raise ValueError("thresholds must be strictly ascending")
    mtsmr_vals = np.array([r.mtsmr for r in results])
    ok = np.array([l.estimate_ok for l in labels])
    n = len(results)
    pf = np.empty_like(thresholds)
    miss = np.empty_like(thresholds)
    fa = np.empty_like(thresholds)
    for k, theta in enumerate(thresholds):
        decided = mtsmr_vals >= theta
        fa[k] = np.count_nonzero(decided & ~ok) / n
        miss[k] = np.count_nonzero(~decided & ok) / n
        pf[k] = fa[k] + miss[k]
    return PfCurve(thresholds=thresholds, pf=pf, miss_rate=miss,
                   false_alarm_rate=fa)


def threshold_bounds(curve: PfCurve, target: float) -> Optional[tuple[float, float]]:
    """Smallest and largest threshold with pf <= target, or None."""
    if not 0 < target < 1:
        raise ValueError(f"target must be in (0, 1), got {target}")
    below = np.flatnonzero(curve.pf <= target)
    if below.size == 0:
        return None
    return float(curve.thresholds[below[0]]), float(curve.thresholds[below[-1]])


def run_strategies(epoch: SampledSignal, code: ChipSequence,
                   plan: FrequencyPlan, specs: Sequence[IntegrationSpec],
                   threshold: float) -> list[AcqResult]:
    """Acquire one epoch with every strategy in specs, one result per spec.

    The unit grids depend only on the epoch and the plan, so they are
    computed once and every strategy integrates the same grids.  All specs
    must share one span (the plan is built for it).
    """
    spans = {spec.total_ms for spec in specs}
    if len(spans) != 1:
        raise ValueError(f"specs must share one span, got {sorted(spans)} ms")
    n = samples_per_code(code, epoch.sample_rate)
    m = specs[0].total_ms
    if len(epoch.samples) < m * n:
        raise ValueError(
            f"epoch at t={epoch.t0} has {len(epoch.samples)} samples, "
            f"needs {m * n} for {specs[0].total_ms} ms integration")
    grids = process_units(epoch, code, plan, count=m)
    return [acquire(integrate(grids, spec.strategy), threshold=threshold)
            for spec in specs]


def run_epoch(epoch: SampledSignal, code: ChipSequence, plan: FrequencyPlan,
              spec: IntegrationSpec, threshold: float) -> AcqResult:
    """Acquire one epoch with the given integration strategy."""
    return run_strategies(epoch, code, plan, [spec], threshold)[0]


def acquisition_timeline(pass_epochs: Sequence[SampledSignal],
                         spec: IntegrationSpec, plan: FrequencyPlan,
                         threshold: float,
                         code: ChipSequence | None = None,
                         doppler_slack_hz: float = 0.0,
                         results: list[AcqResult] | None = None,
                         ) -> tuple[list[AcqResult], list[EpochLabel], TimelineSummary]:
    """Run one strategy over every epoch of a pass and summarize.

    Success duration counts truth-correct epochs (the desk-scale analog of
    Doppler-continuity checking); the threshold-based decided duration is
    reported separately.  Durations are epoch counts scaled by the epoch
    cadence inferred from the stream.  doppler_slack_hz loosens the labeling
    tolerance for strategies whose Doppler resolution stays at the 1 ms unit
    width (magnitude-combined grids do not sharpen with total span).
    results, one per epoch, are this strategy's acquisitions when the caller
    has already run them (see run_strategies); they are computed otherwise.
    """
    epochs = list(pass_epochs)
    if not epochs:
        raise ValueError("empty epoch stream")
    if code is None:
        code = generate_code(epochs[0].truth.prn_id)
    if results is None:
        results = [run_epoch(e, code, plan, spec, threshold) for e in epochs]
    truths = [truth_from_epoch(e, code) for e in epochs]
    n = samples_per_code(code, epochs[0].sample_rate)
    labels = label_epochs(results, truths, plan,
                          epochs[0].truth.intermediate_freq, n,
                          doppler_slack_hz=doppler_slack_hz)
    step = epochs[1].t0 - epochs[0].t0 if len(epochs) > 1 else 1.0
    ok_ts = [l.t for l in labels if l.estimate_ok]
    summary = TimelineSummary(
        success_s=len(ok_ts) * step,
        decided_s=sum(1 for r in results if r.decided) * step,
        first_ok_t=ok_ts[0] if ok_ts else None,
        last_ok_t=ok_ts[-1] if ok_ts else None,
    )
    return results, labels, summary
