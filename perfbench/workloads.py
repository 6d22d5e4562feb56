"""The benchmark's workloads: scenario configs, CLI command sequences and
the output checks that feed ``failed``.

Every check holds whatever the seed: the seed moves the noise realisation,
and the checks gate only on properties the pipeline guarantees at any
noise level (row counts, finiteness, span coverage, monotone rates, exact
file layout and sidecar round-trip) plus coherent 20 ms acquisition near
zenith, where the post-integration SNR is about 28 dB (45 dB-Hz over 20 ms).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

ALL_STRATEGIES = ["coherent", "noncoherent", "preguess", "differential",
                  "alternatehalfbit"]

FAST_PROFILE = {"sample_rate": 1.023e6, "intermediate_freq": 0.25e6}
PAPER_PROFILE = {"sample_rate": 4.092e6, "intermediate_freq": 1.25e6}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # (out_dir, config_path, seed) -> list of CLI argv lists.
    commands: Callable[[str, str, int], list[list[str]]]
    # Adds the checks of the output files to a Checks.
    check_files: Callable
    # Valid (strategy, total_ms) pairs the CLI must run; None: those of config.
    combos: tuple | None = None
    # A (strategy, total_ms) pair that must be ok on every in-span epoch.
    must_acquire: tuple | None = None


def _duration_cmds(out, cfg, seed):
    return [["duration", "--config", cfg, "--out", os.path.join(out, "duration.csv"),
             "--seed", str(seed)]]


def _sweep_cmds(out, cfg, seed):
    return [["sweep", "--config", cfg, "--out-dir", os.path.join(out, "sweep"),
             "--seed", str(seed)]]


def _roundtrip_cmds(out, cfg, seed):
    samples = os.path.join(out, "pass.bin")
    return [["synth", "--config", cfg, "--out", samples, "--seed", str(seed)],
            ["acquire", "--samples", samples, "--strategy", "coherent",
             "--total-ms", "1", "--out", os.path.join(out, "timeline.csv")]]


class Capture:
    """Return values at the io_cli -> eval_harness boundary, for the checks.

    Holds each acquisition_timeline call's (strategy, total_ms, plan, IF,
    epoch count, results, labels) and each pass_epochs call's truths; it
    keeps no sample arrays alive.
    """

    def __init__(self):
        self.timelines = []
        self.truths = []
        self._undo = []

    def install(self) -> None:
        from leoacq import io_cli
        from tracer import patch

        timeline, pass_epochs = io_cli.acquisition_timeline, io_cli.pass_epochs

        def captured_timeline(epochs, spec, plan, threshold, *args, **kwargs):
            results, labels, summary = timeline(epochs, spec, plan, threshold,
                                                *args, **kwargs)
            epochs = list(epochs)
            self.timelines.append({
                "strategy": spec.strategy.value, "total_ms": spec.total_ms,
                "plan": plan, "intermediate_freq": epochs[0].truth.intermediate_freq,
                "epochs": len(epochs), "results": results, "labels": labels})
            return results, labels, summary

        def captured_pass_epochs(config):
            epochs = pass_epochs(config)
            self.truths.append([(e.t0, e.truth) for e in epochs])
            return epochs

        patch(io_cli, "acquisition_timeline", captured_timeline, self._undo)
        patch(io_cli, "pass_epochs", captured_pass_epochs, self._undo)

    def uninstall(self) -> None:
        from tracer import unpatch

        unpatch(self._undo)


def in_span(truth_doppler: float, plan, intermediate_freq: float) -> bool:
    """Whether a truth Doppler lies inside the plan's bin coverage."""
    offset = plan.center - intermediate_freq
    lo = offset + plan.bins[0] - plan.bin_width / 2.0
    hi = offset + plan.bins[-1] + plan.bin_width / 2.0
    return lo <= truth_doppler <= hi


class Checks:
    """Counts attempted and failed operations and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, problem: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(problem)


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def check_outputs(workload: Workload, config, out_dir: str, capture: Capture,
                  exits: list[tuple[list[str], int]]) -> dict:
    """Check a finished command sequence.

    ``config`` is its ScenarioConfig and ``exits`` pairs each CLI argv with
    its exit code.  Attempted operations are the CLI commands, the
    acquisitions (epochs x valid combos) and the output files.
    """
    c = Checks()
    n_epochs = len(config.scenario().samples)
    expected = (list(workload.combos) if workload.combos is not None else
                [(s.value, t) for s, t in config.run_combos()])
    for argv, rc in exits:
        c.op(rc == 0, f"leoacq {argv[0]} exited {rc}")

    # Acquisitions: one finite row per epoch for each valid (strategy, span).
    by_combo = {}
    for t in capture.timelines:
        by_combo.setdefault((t["strategy"], t["total_ms"]), []).append(t)
    in_span_epochs = total_epochs = 0
    for combo in expected:
        runs = by_combo.pop(combo, [])
        if len(runs) != 1 or runs[0]["epochs"] != n_epochs \
                or len(runs[0]["labels"]) != n_epochs:
            c.op(False, f"{combo}: {len(runs)} timelines, expected one of "
                        f"{n_epochs} epochs", count=n_epochs)
            continue
        t = runs[0]
        for res, lab in zip(t["results"], t["labels"]):
            inside = in_span(lab.truth_doppler, t["plan"], t["intermediate_freq"])
            in_span_epochs += inside
            total_epochs += 1
            ok = (_finite(res.doppler_hat, res.mtsmr, res.mtmr)
                  and (inside or not lab.estimate_ok)
                  and (combo != workload.must_acquire or not inside
                       or lab.estimate_ok))
            c.op(ok, f"{combo} t={lab.t}: ok={lab.estimate_ok} "
                     f"in_span={inside} mtsmr={res.mtsmr}")
    for combo, runs in by_combo.items():
        c.op(False, f"unexpected timeline {combo}",
             count=sum(t["epochs"] for t in runs))

    workload.check_files(c, config, out_dir, capture, expected, n_epochs)
    return {"attempted": c.attempted, "failed": c.failed,
            "problems": c.problems, "acquisitions": n_epochs * len(expected),
            "in_span_frac": in_span_epochs / total_epochs if total_epochs else 0.0}


def _file_op(c: Checks, name: str, check) -> None:
    """One output-file operation: ``check()`` returns (ok, problem); a file
    that is missing or does not parse fails the operation too."""
    try:
        ok, problem = check()
    except (OSError, ValueError, KeyError) as e:
        ok, problem = False, f"{type(e).__name__}: {e}"
    c.op(ok, f"{name}: {problem}")


def _check_duration(c, config, out_dir, capture, expected, n_epochs):
    ok_counts = {(t["strategy"], t["total_ms"]):
                 sum(lab.estimate_ok for lab in t["labels"])
                 for t in capture.timelines}

    def check():
        rows = _read_csv(os.path.join(out_dir, "duration.csv"))
        combos = [(r["strategy"], int(r["total_ms"])) for r in rows]
        ok = combos == expected and all(
            _finite(r["success_s"], r["decided_s"])
            and float(r["success_s"]) == ok_counts.get(combo, -1) * config.epoch_step
            for r, combo in zip(rows, combos))
        return ok, f"rows {rows} disagree with the timelines {ok_counts}"

    _file_op(c, "duration.csv", check)


def _check_sweep(c, config, out_dir, capture, expected, n_epochs):
    sweep = os.path.join(out_dir, "sweep")
    n_thresholds = len(config.threshold_grid())

    def curve(name):
        rows = _read_csv(os.path.join(sweep, name))
        fa = [float(r["false_alarm_rate"]) for r in rows]
        miss = [float(r["miss_rate"]) for r in rows]
        ok = (len(rows) == n_thresholds
              and all(_finite(r["threshold"], r["pf"]) for r in rows)
              and all(a >= b for a, b in zip(fa, fa[1:]))
              and all(a <= b for a, b in zip(miss, miss[1:])))
        return ok, f"{len(rows)} rows, false_alarm_rate {fa}, miss_rate {miss}"

    def bounds():
        rows = _read_csv(os.path.join(sweep, "bounds.csv"))
        return ([(r["strategy"], int(r["total_ms"])) for r in rows] == expected,
                f"rows {rows}")

    for name in [f"pf_curve_{s}_{t}ms.csv" for s, t in expected] + ["pf_curve.csv"]:
        _file_op(c, name, lambda: curve(name))
    _file_op(c, "bounds.csv", bounds)


def _check_roundtrip(c, config, out_dir, capture, expected, n_epochs):
    from leoacq.io_cli import SampleFileMeta, read_truth_sidecar

    samples = os.path.join(out_dir, "pass.bin")
    per_epoch = round(config.duration * config.sample_rate)

    def size():
        frame = SampleFileMeta(config.sample_rate, config.intermediate_freq,
                               format=config.sample_format).bytes_per_sample
        want = n_epochs * per_epoch * frame
        got = os.path.getsize(samples)
        return got == want, f"{got} bytes, expected {want}"

    def sidecar():
        header, epochs = read_truth_sidecar(samples + ".truth")
        truths = capture.truths[0] if len(capture.truths) == 1 else []
        ok = (len(truths) == n_epochs
              and header["format"] == config.sample_format
              and header["sample_rate"] == config.sample_rate
              and header["intermediate_freq"] == config.intermediate_freq
              and header["samples_per_epoch"] == per_epoch
              and header["epoch_count"] == n_epochs
              and all(_same_truth(e, t0, p) for e, (t0, p) in zip(epochs, truths)))
        return ok, "does not round-trip the synthesized truth"

    def timeline():
        rows = _read_csv(os.path.join(out_dir, "timeline.csv"))
        labels = capture.timelines[0]["labels"] if capture.timelines else []
        ok = (len(rows) == len(labels) == n_epochs
              and all(_finite(r["t_s"], r["doppler_hz"], r["mtsmr"], r["mtmr"])
                      and int(r["ok"]) == lab.estimate_ok
                      for r, lab in zip(rows, labels)))
        return ok, f"{len(rows)} rows disagree with {len(labels)} labels"

    _file_op(c, "pass.bin", size)
    _file_op(c, "pass.bin.truth", sidecar)
    _file_op(c, "timeline.csv", timeline)


def _same_truth(epoch: dict, t0: float, params) -> bool:
    bits = params.data_bits
    return (epoch["t"] == t0 and epoch["doppler0"] == params.doppler0
            and epoch["doppler_rate"] == params.doppler_rate
            and epoch["amplitude"] == params.amplitude
            and epoch["cn0"] == params.cn0
            and epoch["code_phase0"] == params.code_phase0
            and epoch["seed"] == params.seed
            and ((epoch["data_bits"] is None and bits is None)
                 or (epoch["data_bits"] is not None and bits is not None
                     and list(epoch["data_bits"]) == list(bits))))


WORKLOADS = {w.name: w for w in [
    # All five strategies at 20 ms, paper profile: the per-unit FFT grids and
    # their 5x recomputation dominate.  The pass is cut to the 3 epochs above
    # 70 deg elevation (+-4 kHz Doppler).  The +-5 kHz span (401 bins) keeps
    # them all in span and halves the +-10 kHz cost, so that one untraced
    # and one traced iteration end well inside a run's time limit.
    Workload("paper_block",
             {**PAPER_PROFILE, "elevation_mask": 70.0, "epoch_step": 20.0,
              "duration": 0.02, "half_span": 5e3, "strategies": ALL_STRATEGIES,
              "total_ms": [20]},
             _duration_cmds, _check_duration, must_acquire=("coherent", 20)),
    # Many small acquisitions (M <= 5) over the whole pass, most epochs out
    # of span: per-acquisition fixed costs, the 1023-point FFT, detector,
    # labelling and the Pf sweep.
    Workload("fast_sweep",
             {**FAST_PROFILE, "epoch_step": 20.0, "strategies": ALL_STRATEGIES,
              "total_ms": [1, 5], "pf_thresholds": [1.0, 6.0, 0.05]},
             _sweep_cmds, _check_sweep),
    # Write the whole 1 s-step pass to int16 (which clips most samples) and
    # acquire it back from the file: sample and sidecar I/O next to a light
    # acquisition.
    Workload("file_roundtrip",
             {**FAST_PROFILE, "epoch_step": 1.0, "sample_format": "int16-real"},
             _roundtrip_cmds, _check_roundtrip, combos=(("coherent", 1),)),
]}
