"""One workload process: set up, run the workload's CLI commands, check them.

run.py starts a fresh interpreter for every iteration:

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR \
        --record FILE --t-spawn T [--trace] [--setup-only]

Set-up spans interpreter start, ``import leoacq`` and loading the workload
config.  ``--t-spawn`` is the parent's ``time.monotonic()`` just before the
process was started, which gives set-up wall time.  ``setup_s`` is set-up
CPU time scaled to a reference host speed (see ``calibrate``).  The record
(a JSON file) holds set-up and iteration timings, the output checks, output
digests and, with ``--trace``, the spans.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Main-thread CPU seconds of ``calibrate``'s loop at the host speed that
# set-up times are quoted at: its median on a 2-vCPU x86-64 VM with
# Python 3.11.
CALIBRATION_REF_S = 0.125


def calibrate() -> float:
    """Main-thread CPU seconds of a fixed pure-Python loop.

    The shared host's speed drifts by up to 1.7x within seconds, and CPU
    time drifts with it.  Run right after set-up, in the same process, the
    loop measures the speed set-up ran at; set-up CPU time divided by it
    holds within a few per cent across host states.  The loop is the
    benchmark's own code, so a slower set-up still shows in full.
    """
    t0 = time.thread_time()
    total = 0
    for i in range(1_000_000):
        total += i * i
    names = {}
    for i in range(100_000):
        names[str(i)] = i
    return time.thread_time() - t0


def steal_s() -> float | None:
    """CPU seconds the hypervisor has stolen from this VM, all CPUs summed
    (the steal column of /proc/stat), or None where it is not available."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_iteration(workload, seed: int, workdir: str, config_path: str, config,
                  trace: bool) -> dict:
    """Run the workload's CLI commands once; return timings, checks, digests."""
    # Imported here, after set-up has been timed.
    import hashlib
    import resource
    import traceback

    from leoacq import io_cli
    from tracer import Tracer, install
    from workloads import Capture, check_outputs

    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    capture = Capture()
    capture.install()
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)

    exits = []
    steal0 = steal_s()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for argv in workload.commands(out_dir, config_path, seed):
        span = tracer.open(f"io_cli.cli.{argv[0]}") if tracer else None
        try:
            rc = io_cli.cli(argv)
        except Exception:  # a crash counts as a failed command, not a lost run
            traceback.print_exc()
            rc = -1
        if span is not None:
            tracer.close(span)
        exits.append((argv, rc))
    wall_s = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    steal1 = steal_s()
    if tracer is not None:
        tracer.uninstall()
    capture.uninstall()

    checks = check_outputs(workload, config, out_dir, capture, exits)
    digests = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(out_dir))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return {
        "wall_s": wall_s,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "exit_codes": [rc for _, rc in exits],
        "checks": checks,
        "digests": digests,
        "spans": tracer.spans if tracer is not None else None,
    }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    # Time the checkout's own source, never an installed copy.
    if not (ROOT / "src" / "leoacq").is_dir():
        sys.exit(f"no leoacq source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import leoacq  # noqa: F401  (the import is part of set-up)
    from leoacq.io_cli import ScenarioConfig

    config_path = os.path.join(args.workdir, "config.json")
    config = ScenarioConfig.from_file(config_path)
    setup_cpu_s = time.thread_time()
    setup_wall_s = time.monotonic() - args.t_spawn
    calibration_s = calibrate()
    record = {"setup_s": setup_cpu_s * CALIBRATION_REF_S / calibration_s,
              "setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_wall_s,
              "calibration_s": calibration_s}

    if not args.setup_only:
        from leoacq import acq_core
        from workloads import WORKLOADS

        workers = getattr(acq_core, "_FFT_WORKERS", None)
        record["fft_threads"] = os.cpu_count() if workers == -1 else workers
        record.update(run_iteration(WORKLOADS[args.workload], args.seed,
                                    args.workdir, config_path, config, args.trace))
    with open(args.record, "w") as f:
        json.dump(record, f)


if __name__ == "__main__":
    main()
