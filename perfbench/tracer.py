"""Span tracing of leoacq by wrapping its functions from outside.

The tracer replaces module attributes at the places where leoacq looks them
up (``eval_harness.process_units``, ``io_cli.read_samples``,
``scipy.fft.fft``, ...), so nothing under ``src/`` changes.  Each call
becomes one span: name, start, end, parent span and a few counts measured
at that boundary.  Spans stay in memory until the caller writes them out;
``layer_metrics`` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from workloads import ALL_STRATEGIES


def patch(owner, attr: str, replacement, undo: list) -> None:
    """Set ``owner.attr`` to ``replacement``; push the old value on ``undo``."""
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def unpatch(undo: list) -> None:
    """Undo the ``patch`` calls recorded in ``undo``, last first."""
    while undo:
        owner, attr, orig = undo.pop()
        setattr(owner, attr, orig)


class Tracer:
    """Collects spans from the wrappers it installs; ``uninstall`` undoes them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, measure=None) -> None:
        """Replace ``owner.attr`` by a traced call.

        ``name`` is the span name, or a function of the call's arguments
        that returns it.  ``measure(args, kwargs, result)`` returns the
        span's counts; it runs after the span has closed.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span["attrs"] = measure(args, kwargs, out)
            return out

        patch(owner, attr, traced, self._undo)

    def uninstall(self) -> None:
        unpatch(self._undo)


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _process_units_attrs(args, kwargs, grids):
    signal = _arg(args, kwargs, 0, "signal")
    plan = _arg(args, kwargs, 2, "plan")
    return {"units": len(grids), "bins": len(plan.bins),
            "grid_bytes": sum(g.values.nbytes for g in grids),
            "unit_key": [signal.t0, len(grids)]}


def _fft_attrs(args, kwargs, out):
    # Only 2-D calls transform grid rows; the 1-D call is the code spectrum.
    return {"rows": out.shape[0] if out.ndim == 2 else 0}


def _read_samples_attrs(args, kwargs, signal):
    meta = _arg(args, kwargs, 1, "meta")
    return {"bytes": len(signal.samples) * meta.bytes_per_sample}


def _write_samples_attrs(args, kwargs, clipped):
    signal = _arg(args, kwargs, 0, "signal")
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path), "samples": len(signal.samples),
            "clipped": clipped}


def _sidecar_attrs(args, kwargs, out):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _integrate_name(grids, strategy):
    return f"integrators.{strategy.value}"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every leoacq layer where they are looked up."""
    import scipy.fft
    from leoacq import eval_harness, io_cli, signal_synth

    w = tracer.wrap
    w(scipy.fft, "fft", "acq_core.fft_fwd", _fft_attrs)
    w(scipy.fft, "ifft", "acq_core.fft_inv", _fft_attrs)
    w(eval_harness, "process_units", "acq_core.process_units",
      _process_units_attrs)
    w(eval_harness, "integrate", _integrate_name)
    w(eval_harness, "acquire", "detector.acquire")
    w(eval_harness, "label_epochs", "eval_harness.label_epochs")
    w(signal_synth, "synthesize", "signal_synth.synthesize",
      lambda a, k, out: {"samples": len(out.samples)})
    for module in (io_cli, signal_synth, eval_harness):
        w(module, "generate_code", "prn_code.generate_code")
    w(io_cli, "simulate_pass", "geometry.simulate_pass")
    w(io_cli, "pass_epochs", "io_cli.pass_epochs")
    w(io_cli, "acquisition_timeline", "eval_harness.acquisition_timeline")
    w(io_cli, "pf_sweep", "eval_harness.pf_sweep")
    w(io_cli, "threshold_bounds", "eval_harness.threshold_bounds")
    w(io_cli, "read_samples", "io_cli.read_samples", _read_samples_attrs)
    w(io_cli, "write_samples", "io_cli.write_samples", _write_samples_attrs)
    w(io_cli, "write_truth_sidecar", "io_cli.write_truth_sidecar",
      _sidecar_attrs)
    w(io_cli, "read_truth_sidecar", "io_cli.read_truth_sidecar")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are sequential on one thread, so children never overlap and their
    durations can be summed.
    """
    own = [s["end"] - s["start"] for s in spans]
    out = list(own)
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= own[s["id"]]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (see BENCHMARK.json)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    unit_keys = {}
    grid_bytes = 0
    for s, self_s in zip(spans, self_times(spans)):
        name = s["name"]
        calls[name] += 1
        total[name] += s["end"] - s["start"]
        own[name] += self_s
        a = s["attrs"]
        for key, value in a.items():
            if key != "unit_key":
                attrs[name][key] += value
        if name == "acq_core.process_units":
            unit_keys[tuple(a["unit_key"])] = a["units"]
            grid_bytes = max(grid_bytes, a["grid_bytes"])

    def ratio(num, den):
        return num / den if den else 0.0

    pu, synth = "acq_core.process_units", "signal_synth.synthesize"
    units = attrs[pu]["units"]
    fwd_rows = attrs["acq_core.fft_fwd"]["rows"]
    write = attrs["io_cli.write_samples"]
    m = {
        "acq_core.process_units.calls": calls[pu],
        "acq_core.process_units.s": total[pu],
        "acq_core.process_units.self_s": own[pu],
        "acq_core.units": units,
        "acq_core.units_per_unique": ratio(units, sum(unit_keys.values())),
        "acq_core.fft_fwd.rows": fwd_rows,
        "acq_core.fft_fwd.s": total["acq_core.fft_fwd"],
        "acq_core.fft_inv.rows": attrs["acq_core.fft_inv"]["rows"],
        "acq_core.fft_inv.s": total["acq_core.fft_inv"],
        "acq_core.fft_fwd_rows_per_unit": ratio(fwd_rows, units),
        "acq_core.grid_bytes": grid_bytes,
    }
    for strategy in ALL_STRATEGIES:
        m[f"integrators.{strategy}.s"] = total[f"integrators.{strategy}"]
    m.update({
        "detector.acquire.calls": calls["detector.acquire"],
        "detector.acquire.s": total["detector.acquire"],
        "eval_harness.acquisition_timeline.self_s":
            own["eval_harness.acquisition_timeline"],
        "eval_harness.label_epochs.s": total["eval_harness.label_epochs"],
        "eval_harness.pf_sweep.s": total["eval_harness.pf_sweep"],
        "signal_synth.synthesize.calls": calls[synth],
        "signal_synth.synthesize.s": total[synth],
        "signal_synth.synthesize.msamples_per_s":
            ratio(attrs[synth]["samples"] / 1e6, total[synth]),
        "io_cli.pass_epochs.s": total["io_cli.pass_epochs"],
        "io_cli.write_samples.s": total["io_cli.write_samples"],
        "io_cli.write_samples.mb": write["bytes"] / 1e6,
        "io_cli.write_samples.clip_frac": ratio(write["clipped"], write["samples"]),
        "io_cli.read_samples.calls": calls["io_cli.read_samples"],
        "io_cli.read_samples.s": total["io_cli.read_samples"],
        "io_cli.read_samples.mb": attrs["io_cli.read_samples"]["bytes"] / 1e6,
        "io_cli.write_truth_sidecar.s": total["io_cli.write_truth_sidecar"],
        "io_cli.read_truth_sidecar.s": total["io_cli.read_truth_sidecar"],
        "io_cli.sidecar_kb": attrs["io_cli.write_truth_sidecar"]["bytes"] / 1e3,
        "prn_code.generate_code.calls": calls["prn_code.generate_code"],
        "prn_code.generate_code.s": total["prn_code.generate_code"],
        "geometry.simulate_pass.s": total["geometry.simulate_pass"],
    })
    return {k: float(v) for k, v in m.items()}


def fft_row_mismatches(spans: list[dict]) -> list[str]:
    """process_units calls whose grid FFT rows differ from bins x units."""
    rows = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s["name"] in ("acq_core.fft_fwd", "acq_core.fft_inv") and s["parent"] is not None:
            rows[s["parent"]][s["name"]] += s["attrs"]["rows"]
    bad = []
    for s in spans:
        if s["name"] == "acq_core.process_units":
            want = s["attrs"]["bins"] * s["attrs"]["units"]
            got = rows[s["id"]]
            if got["acq_core.fft_fwd"] != want or got["acq_core.fft_inv"] != want:
                bad.append(f"process_units span {s['id']}: {dict(got)} rows, "
                           f"expected {want} each")
    return bad

