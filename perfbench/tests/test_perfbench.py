"""Tests of the benchmark itself: tracer counts, output identity under
tracing, output checks, and the metric names the runner emits.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from child import run_iteration  # noqa: E402
from tracer import Tracer, fft_row_mismatches, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Capture, check_outputs  # noqa: E402

from leoacq import eval_harness  # noqa: E402
from leoacq.acq_core import make_plan  # noqa: E402
from leoacq.integrators import IntegrationSpec, Strategy  # noqa: E402
from leoacq.io_cli import ScenarioConfig  # noqa: E402
from leoacq.prn_code import generate_code  # noqa: E402
from leoacq.signal_synth import SynthParams, synthesize  # noqa: E402


def _tiny(name: str, **overrides):
    """A workload with its command sequence and checks but a short pass."""
    w = WORKLOADS[name]
    return dataclasses.replace(w, config={**w.config, **overrides})


def _iterate(workload, workdir: Path, trace: bool, seed: int = 7) -> dict:
    workdir.mkdir()
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(workload.config))
    config = ScenarioConfig.from_file(config_path)
    return run_iteration(workload, seed, str(workdir), str(config_path), config,
                         trace)


def test_fft_rows_equal_bins_times_units():
    code = generate_code(1)
    epoch = synthesize(SynthParams(sample_rate=1.023e6, intermediate_freq=0.25e6,
                                   doppler0=1200.0, cn0=45.0, duration=5e-3),
                       code=code)
    tracer = Tracer()
    install(tracer)
    try:
        for total_ms in (1, 5):
            plan = make_plan(0.25e6, 2e3, total_ms)
            spec = IntegrationSpec(Strategy.NON_COHERENT, total_ms)
            eval_harness.run_epoch(epoch, code, plan, spec, 2.5)
    finally:
        tracer.uninstall()
    calls = [s for s in tracer.spans if s["name"] == "acq_core.process_units"]
    assert [(s["attrs"]["bins"], s["attrs"]["units"]) for s in calls] == [(9, 1), (41, 5)]
    assert fft_row_mismatches(tracer.spans) == []
    m = layer_metrics(tracer.spans)
    assert m["acq_core.fft_fwd.rows"] == m["acq_core.fft_inv.rows"] == 9 + 41 * 5
    assert m["acq_core.units"] == 6
    assert m["integrators.noncoherent.s"] > 0


def test_fft_row_mismatch_is_reported():
    spans = [{"id": 0, "name": "acq_core.process_units", "parent": None,
              "start": 0.0, "end": 1.0, "attrs": {"bins": 3, "units": 2}},
             {"id": 1, "name": "acq_core.fft_fwd", "parent": 0,
              "start": 0.1, "end": 0.2, "attrs": {"rows": 6}},
             {"id": 2, "name": "acq_core.fft_inv", "parent": 0,
              "start": 0.3, "end": 0.4, "attrs": {"rows": 5}}]
    assert len(fft_row_mismatches(spans)) == 1


@pytest.mark.parametrize("workload", [
    _tiny("fast_sweep", epoch_step=60.0),
    _tiny("file_roundtrip", epoch_step=30.0, duration=0.002),
], ids=lambda w: w.name)
def test_wrappers_leave_cli_outputs_unchanged(workload, tmp_path):
    plain = _iterate(workload, tmp_path / "plain", trace=False)
    traced = _iterate(workload, tmp_path / "traced", trace=True)
    assert plain["checks"]["failed"] == traced["checks"]["failed"] == 0
    assert plain["digests"] and plain["digests"] == traced["digests"]
    assert plain["spans"] is None and traced["spans"]
    assert fft_row_mismatches(traced["spans"]) == []


def test_missing_outputs_fail_the_checks(tmp_path):
    workload = _tiny("fast_sweep", epoch_step=60.0)
    (tmp_path / "config.json").write_text(json.dumps(workload.config))
    config = ScenarioConfig.from_file(tmp_path / "config.json")
    argv = workload.commands(str(tmp_path), "config.json", 1)[0]
    checks = check_outputs(workload, config, str(tmp_path), Capture(),
                           [(argv, 2)])
    # the command, every acquisition of the 7 combos, 7 + 1 curves, bounds
    n_epochs = len(config.scenario().samples)
    assert checks["attempted"] == checks["failed"] == 1 + 7 * n_epochs + 9


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_emits_every_benchmark_metric(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in bench["end_to_end" if trace == "0" else "per_layer"]}
    proc = _run(["--workload", "file_roundtrip", "--seed", "3", "--seconds", "1",
                 "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace == "0":
        printed = {line.split()[0] for line in proc.stdout.splitlines()}
        assert {"wall_s", "acq_per_s", "failed_frac"} <= printed


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "fast_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
