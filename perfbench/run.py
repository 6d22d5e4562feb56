"""Benchmark runner for leoacq.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's leoacq CLI commands, one fresh process per iteration
(perfbench/child.py), one process at a time, until ``--seconds`` are used
(at least one iteration).  With ``--trace 0`` it reports the end-to-end
metrics as medians over the iterations, and set-up time as the median over
several set-up-only processes plus the iterations.  With ``--trace 1`` it
alternates untraced and traced iterations and reports the per-layer metrics
of the traced ones, the tracing overhead, and fails if the traced outputs
differ from the untraced ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The run record (host, per-iteration values,
output digests, problems) goes to perfbench/out/.  Exit code: 0 when every
output check passed, 1 when a check failed, 2 when the run itself failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import fft_row_mismatches, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 9          # set-up-only processes per untraced run
CHILD_TIMEOUT_S = 170.0   # the whole run must end within 180 s

# The end-to-end metrics of the result line.  Wall time and the throughput
# derived from it are printed too but are not among them: the host steals
# CPU in bursts of minutes, and their run-to-run spread then exceeds any
# bound a regression check can use.  cpu_s and cores_used (CPU seconds per
# wall second not stolen) stay steady and, as wall time is their quotient,
# together they catch what a wall-time bound would.
END_TO_END_UNITS = {
    "setup_s": "s", "cpu_s": "s", "cores_used": "cores", "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
REPORTED_UNITS = {"wall_s": "s", "acq_per_s": "1/s", "failed_frac": "ratio",
                  "steal_s": "s", "setup_wall_s": "s"}

PER_LAYER_UNITS = {
    "acq_core.process_units.calls": "count",
    "acq_core.process_units.s": "s",
    "acq_core.process_units.self_s": "s",
    "acq_core.units": "count",
    "acq_core.units_per_unique": "ratio",
    "acq_core.fft_fwd.rows": "count",
    "acq_core.fft_fwd.s": "s",
    "acq_core.fft_inv.rows": "count",
    "acq_core.fft_inv.s": "s",
    "acq_core.fft_fwd_rows_per_unit": "ratio",
    "acq_core.grid_bytes": "bytes",
    "integrators.coherent.s": "s",
    "integrators.noncoherent.s": "s",
    "integrators.preguess.s": "s",
    "integrators.differential.s": "s",
    "integrators.alternatehalfbit.s": "s",
    "detector.acquire.calls": "count",
    "detector.acquire.s": "s",
    "eval_harness.acquisition_timeline.self_s": "s",
    "eval_harness.label_epochs.s": "s",
    "eval_harness.pf_sweep.s": "s",
    "eval_harness.in_span_frac": "ratio",
    "signal_synth.synthesize.calls": "count",
    "signal_synth.synthesize.s": "s",
    "signal_synth.synthesize.msamples_per_s": "Msamples/s",
    "io_cli.pass_epochs.s": "s",
    "io_cli.write_samples.s": "s",
    "io_cli.write_samples.mb": "MB",
    "io_cli.write_samples.clip_frac": "ratio",
    "io_cli.read_samples.calls": "count",
    "io_cli.read_samples.s": "s",
    "io_cli.read_samples.mb": "MB",
    "io_cli.write_truth_sidecar.s": "s",
    "io_cli.read_truth_sidecar.s": "s",
    "io_cli.sidecar_kb": "kB",
    "prn_code.generate_code.calls": "count",
    "prn_code.generate_code.s": "s",
    "geometry.simulate_pass.s": "s",
    "trace.overhead_s": "s",
}


class RunError(Exception):
    """A child process failed to produce a record."""


class Runner:
    """Starts the child processes of one benchmark run in one work directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        record = self.workdir / f"record-{self.count}.json"
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(self.workdir), "--record", str(record)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunError("out of time before starting a child process")
        try:
            proc = subprocess.run(cmd + ["--t-spawn", repr(time.monotonic())],
                                  capture_output=True, text=True, timeout=timeout,
                                  cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise RunError(f"child process exceeded {timeout:.0f} s") from None
        if proc.returncode != 0 or not record.exists():
            raise RunError(f"child process exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
        with open(record) as f:
            return json.load(f)


def repeat(step, seconds: float) -> list:
    """Call ``step`` at least once, and again while the mean duration so far
    says another call still ends within ``seconds``."""
    start = time.monotonic()
    out = [step()]
    while True:
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(out) > seconds:
            return out
        out.append(step())


def cores_used(r: dict) -> float:
    """CPU seconds per wall second of one iteration, with the stall that
    time stolen from the VM caused taken out of the wall time.

    A stolen second delays the commands by 1/nproc s when their threads
    share the work out evenly, and by up to 1 s when all of them wait for
    the stolen one, as at the end of each multi-threaded FFT.  The midpoint
    of the two fits both: over ten seeds on a 2-vCPU host with 9-26% of
    its CPU stolen, it gave fast_sweep a 2.8% spread, against 8.8% for
    1/nproc and 7.7% for 1.
    """
    share = (1.0 + 1.0 / os.cpu_count()) / 2.0
    return r["cpu_s"] / (r["wall_s"] - share * (r["steal_s"] or 0.0))


def end_to_end(setups: list[dict], iterations: list[dict]) -> dict[str, float]:
    """The end-to-end metrics followed by the reported ones."""
    attempted = sum(r["checks"]["attempted"] for r in iterations)
    failed = sum(r["checks"]["failed"] for r in iterations)
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in setups),
        "cpu_s": med(r["cpu_s"] for r in iterations),
        "cores_used": med(cores_used(r) for r in iterations),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in iterations),
        "ok_frac": 1.0 - failed / attempted,
        "wall_s": med(r["wall_s"] for r in iterations),
        "acq_per_s": med(r["checks"]["acquisitions"] / r["wall_s"] for r in iterations),
        "failed_frac": failed / attempted,
        "steal_s": med(r["steal_s"] or 0.0 for r in iterations),
        "setup_wall_s": med(r["setup_wall_s"] for r in setups),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict[str, float], list]:
    """Per-layer medians over the traced iterations, and two checks per pair:
    traced outputs byte-identical to untraced ones, and FFT rows equal to
    bins x units in every process_units call."""
    checks, layers = [], []
    for plain, traced in pairs:
        checks.append((plain["digests"] == traced["digests"],
                       f"traced outputs {traced['digests']} differ from "
                       f"untraced {plain['digests']}"))
        rows = fft_row_mismatches(traced["spans"])
        checks.append((not rows, "; ".join(rows[:3])))
        m = layer_metrics(traced["spans"])
        m["eval_harness.in_span_frac"] = traced["checks"]["in_span_frac"]
        layers.append(m)
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for _, t in pairs)
                                   - statistics.median(p["wall_s"] for p, _ in pairs))
    return metrics, checks


def host_record(workload: str, seed: int, fft_threads) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "fft_threads": fft_threads,
        "git_commit": commit, "source_sha256": src.hexdigest(),
        "note": ("shared sandbox: other tenants' load is not controlled; the "
                 "benchmark runs one process at a time, with at most nproc "
                 "threads (scipy.fft workers=-1)"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        with open(workdir / "config.json", "w") as f:
            json.dump(WORKLOADS[args.workload].config, f)
        runner = Runner(args.workload, args.seed, workdir,
                        started + CHILD_TIMEOUT_S)
        runner.spawn(setup_only=True)  # warm-up: byte-compile, page cache
        if args.trace:
            pairs = repeat(lambda: (runner.spawn(), runner.spawn(trace=True)),
                           args.seconds)
            iterations = [r for pair in pairs for r in pair]
            metrics, trace_checks = per_layer(pairs)
            units = PER_LAYER_UNITS
        else:
            setups = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
            iterations = repeat(runner.spawn, args.seconds)
            metrics = end_to_end(setups + iterations, iterations)
            trace_checks = []
            units = {**END_TO_END_UNITS, **REPORTED_UNITS}
    except RunError as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = (sum(r["checks"]["attempted"] for r in iterations)
                 + len(trace_checks))
    problems = [q for ok, q in trace_checks if not ok]
    failed = sum(r["checks"]["failed"] for r in iterations) + len(problems)
    problems += [q for r in iterations for q in r["checks"]["problems"]]
    host = host_record(args.workload, args.seed, iterations[0]["fft_threads"])
    record = {
        "host": host, "seconds": args.seconds, "trace": args.trace,
        "config": WORKLOADS[args.workload].config,
        "in_span_frac": iterations[0]["checks"]["in_span_frac"],
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": problems[:50],
        "iterations": [{k: v for k, v in r.items() if k != "spans"}
                       for r in iterations],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{name}.json", "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        with open(OUT / f"{name}-spans.json", "w") as f:
            json.dump(iterations[-1]["spans"], f)

    for q in problems[:20]:
        print(f"perfbench: check failed: {q}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key:44s} {value:14.6g} {units[key]}")
    print(f"{'iterations':44s} {len(iterations):14d}")
    print("host " + json.dumps(host))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k not in REPORTED_UNITS},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
