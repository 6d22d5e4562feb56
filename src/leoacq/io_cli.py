"""Raw sample file I/O, scenario configuration, CSV output, and the CLI.

Binary sample formats are little-endian; integer formats carry samples
scaled to [-1, 1) by the type's max magnitude, and the -iq variants
interleave I then Q per sample.  A synthesized sample file is accompanied
by a JSON truth sidecar (<name>.truth) that records the file layout and
each epoch's start time and SynthParams, which is enough to label
acquisition results without re-synthesizing.  Sidecars in the older
key=value text form are rejected with a data error (exit 2).

Subcommands: synth, pass, acquire, sweep, duration.  Exit codes: 0 success,
1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from .prn_code import generate_code
from .geometry import simulate_pass, PassScenario
from .signal_synth import SampledSignal, SynthParams, synthesize_pass_signal
from .acq_core import make_plan
from .integrators import IntegrationSpec, Strategy, span_error, strategy_valid_at
from .eval_harness import (acquisition_timeline, pf_sweep, run_strategies,
                           threshold_bounds)


class SampleFileError(Exception):
    """Base for sample-file data errors."""


class UnknownFormatError(SampleFileError):
    pass


class TruncatedFileError(SampleFileError):
    pass


class ReadRangeError(SampleFileError):
    pass


# format tag -> (little-endian dtype, integer full-scale or None, is_iq)
_FORMATS = {
    "int8-real": ("<i1", 128.0, False),
    "int16-real": ("<i2", 32768.0, False),
    "float32-real": ("<f4", None, False),
    "int8-iq": ("<i1", 128.0, True),
    "int16-iq": ("<i2", 32768.0, True),
    "float32-iq": ("<f4", None, True),
}

# samples converted per write: keeps write_samples' temporaries near 0.5 MB
_CHUNK_SAMPLES = 1 << 16


@dataclass
class SampleFileMeta:
    sample_rate: float
    intermediate_freq: float
    format: str = "float32-real"
    t0: float = 0.0

    def __post_init__(self):
        if self.format not in _FORMATS:
            raise UnknownFormatError(
                f"unknown sample format {self.format!r}; "
                f"supported: {', '.join(sorted(_FORMATS))}")

    @property
    def bytes_per_sample(self) -> int:
        dtype, _, is_iq = _FORMATS[self.format]
        return np.dtype(dtype).itemsize * (2 if is_iq else 1)


def read_samples(path, meta: SampleFileMeta, offset: int = 0,
                 count: int | None = None) -> SampledSignal:
    """Read samples [offset, offset+count) from a binary sample file.

    Samples come back as float32 (real formats) or complex64 (IQ formats).
    Both are exact: every int8 and int16 code is a float32, and dividing it
    by the power-of-two full scale only changes its exponent.
    """
    dtype, scale, is_iq = _FORMATS[meta.format]
    frame = meta.bytes_per_sample
    size = os.path.getsize(path)
    if size % frame != 0:
        raise TruncatedFileError(
            f"{path}: file truncated at byte {size}: length is not a "
            f"multiple of the {frame}-byte sample frame "
            f"(last whole sample ends at byte {size - size % frame})")
    total = size // frame
    if count is None:
        count = total - offset
    if offset < 0 or count < 0 or offset + count > total:
        raise ReadRangeError(
            f"{path}: read range [{offset}, {offset + count}) outside the "
            f"{total} samples in the file")
    raw = np.fromfile(path, dtype=dtype, count=count * (2 if is_iq else 1),
                      offset=offset * frame)
    vals = raw.astype(np.float32, copy=False)
    if scale is not None:
        vals /= scale
    if is_iq:
        vals = vals.view(np.complex64)
    return SampledSignal(samples=vals, sample_rate=meta.sample_rate,
                         t0=meta.t0 + offset / meta.sample_rate)


def write_samples(signal: SampledSignal, path, meta: SampleFileMeta) -> int:
    """Write samples to a binary file; returns the clip-saturation count
    (0 for lossless writes).

    The samples are quantised and written _CHUNK_SAMPLES at a time, so the
    temporaries stay chunk-sized whatever the signal's length; each step is
    elementwise, so the bytes equal a one-shot conversion.  The samples are
    checked (finite, and real for a real format) before the file is opened:
    on a validation error nothing is written and an existing file is left
    as it was.
    """
    dtype, scale, is_iq = _FORMATS[meta.format]
    x = np.asarray(signal.samples)
    starts = range(0, len(x), _CHUNK_SAMPLES)
    if not all(np.isfinite(x[i:i + _CHUNK_SAMPLES]).all() for i in starts):
        raise ValueError("signal contains non-finite samples")
    if not is_iq and np.iscomplexobj(x):
        raise ValueError(
            f"complex samples cannot be written to real format {meta.format}")
    clipped = 0
    with open(path, "wb") as f:
        for i in starts:
            chunk = x[i:i + _CHUNK_SAMPLES]
            if is_iq:  # I, Q float64 pairs
                flat = chunk.astype(np.complex128).view(np.float64)
            else:
                flat = chunk.astype(np.float64, copy=False)
            if scale is None:
                out = flat.astype(dtype)
            else:
                scaled = np.round(flat * scale)
                info = np.iinfo(dtype)
                clipped += int(np.count_nonzero((scaled < info.min)
                                                | (scaled > info.max)))
                out = np.clip(scaled, info.min, info.max).astype(dtype)
            f.write(out)
    return clipped


# ---------------------------------------------------------------------------
# Truth sidecar
# ---------------------------------------------------------------------------

def write_truth_sidecar(path, meta: SampleFileMeta, epochs: list[SampledSignal],
                        epoch_step: float) -> None:
    """Record the file layout plus each epoch's start time and SynthParams."""
    record = {**asdict(meta), "epoch_step": epoch_step,
              "samples_per_epoch": len(epochs[0].samples),
              "epoch_count": len(epochs),
              "epochs": [{"t": e.t0, **vars(e.truth)} for e in epochs]}
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(record, default=np.ndarray.tolist))  # data_bits arrays


def read_truth_sidecar(path) -> tuple[dict, list[dict]]:
    """Parse a truth sidecar into a header dict and per-epoch dicts.

    Each epoch dict holds "t" plus every SynthParams field, data_bits as an
    array or None.
    """
    try:
        with open(path) as f:
            header = json.load(f)
    except json.JSONDecodeError as e:
        raise SampleFileError(
            f"{path}: not a JSON truth sidecar ({e}); re-run synth to "
            f"regenerate it") from e
    epochs = header.pop("epochs")
    keys = {"t"} | {f.name for f in fields(SynthParams)}
    for e in epochs:
        if e.keys() != keys:
            raise SampleFileError(f"{path}: epoch fields {sorted(e)} are not "
                                  f"t plus the SynthParams fields")
        if e["data_bits"] is not None:
            e["data_bits"] = np.array(e["data_bits"], dtype=np.float64)
    return header, epochs


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

_STRATEGY_NAMES = {s.value: s for s in Strategy}

# ScenarioConfig field annotation -> the JSON value types it accepts
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
               "float | None": (int, float, type(None)), "list": (list,)}


@dataclass
class ScenarioConfig:
    """One experiment: synthesis + geometry + run parameters (JSON file)."""

    prn_id: int = 1
    sample_rate: float = 1.023e6
    intermediate_freq: float = 0.25e6
    carrier_freq: float = 1.5e9
    amplitude: float = 1.0
    code_phase0: float = 0.0
    bit_phase0: float = 0.0
    data_bits: str = "ones"         # "ones" | "random"
    cn0: float | None = 45.0        # dB-Hz at the pass minimum range
    duration: float = 0.04          # s of signal per epoch
    seed: int = 1
    orbit_height: float = 645e3
    elevation_mask: float = 10.0
    cross_track_offset_deg: float = 0.0
    epoch_step: float = 1.0
    strategies: list = field(default_factory=lambda: ["coherent"])
    total_ms: list = field(default_factory=lambda: [1])
    threshold: float = 2.5
    half_span: float = 10e3
    pf_thresholds: list = field(default_factory=lambda: [1.0, 6.0, 0.05])
    sample_format: str = "float32-real"

    def __post_init__(self):
        for name in self.strategies:
            if not isinstance(name, str) or name not in _STRATEGY_NAMES:
                raise ValueError(
                    f"strategies: unknown strategy {name!r}; "
                    f"supported: {', '.join(sorted(_STRATEGY_NAMES))}")
        for t_ms in self.total_ms:
            # coherent is defined at every valid span
            reason = span_error(Strategy.COHERENT, t_ms)
            if reason:
                raise ValueError(f"total_ms: {reason}")
        for name, entries in (("strategies", self.strategies),
                              ("total_ms", self.total_ms)):
            if not entries or len(set(entries)) != len(entries):
                raise ValueError(f"{name} must be a non-empty list without "
                                 f"repeats, got {entries!r}")
        t = self.pf_thresholds
        if not t or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                            and math.isfinite(v) for v in t):
            raise ValueError(f"pf_thresholds must be a non-empty list of "
                             f"finite numbers, got {t!r}")
        if self._pf_is_range():
            if not t[2] > 0:
                raise ValueError(f"pf_thresholds: the range [lo, hi, step] "
                                 f"needs a positive step, got {t!r}")
        elif any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"pf_thresholds must be strictly ascending, "
                             f"got {t!r}")
        if self.data_bits not in ("ones", "random"):
            raise ValueError("data_bits must be 'ones' or 'random'")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.duration < max(self.total_ms) / 1e3:
            raise ValueError(
                f"epoch duration {self.duration}s shorter than the longest "
                f"integration {max(self.total_ms)} ms")
        if self.sample_format not in _FORMATS:
            raise UnknownFormatError(f"unknown sample format {self.sample_format!r}")
        generate_code(self.prn_id)  # validates the PRN id
        if next(self.run_combos(), None) is None:
            raise ValueError(
                f"no strategy in strategies {self.strategies} is defined at "
                f"any span in total_ms {self.total_ms}")

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        """Load a JSON object whose keys are field names with values of the
        field's type (a JSON number for a float field)."""
        with open(path) as f:
            record = json.load(f)
        if not isinstance(record, dict):
            raise ValueError(f"{path}: a config must be a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        for key, value in record.items():
            if key not in types:
                raise ValueError(f"{path}: unknown config key {key!r}")
            if (isinstance(value, bool)
                    or not isinstance(value, _JSON_TYPES[types[key]])):
                raise ValueError(f"{path}: {key} must be {types[key]}, "
                                 f"got {value!r}")
        return cls(**record)

    def base_synth_params(self) -> SynthParams:
        return SynthParams(
            prn_id=self.prn_id, sample_rate=self.sample_rate,
            intermediate_freq=self.intermediate_freq,
            carrier_freq=self.carrier_freq, amplitude=self.amplitude,
            code_phase0=self.code_phase0, bit_phase0=self.bit_phase0,
            cn0=self.cn0, duration=self.duration, seed=self.seed)

    def scenario(self) -> PassScenario:
        return simulate_pass(self.orbit_height, self.elevation_mask,
                             self.cross_track_offset_deg, self.epoch_step,
                             self.carrier_freq)

    def _pf_is_range(self) -> bool:
        """Whether pf_thresholds reads as [lo, hi, step] rather than a list:
        three entries, the last below the span of the first two."""
        t = self.pf_thresholds
        return len(t) == 3 and t[2] < t[1] - t[0]

    def threshold_grid(self) -> np.ndarray:
        t = self.pf_thresholds
        if self._pf_is_range():
            lo, hi, step = t
            return np.round(np.arange(lo, hi + step / 2, step), 10)
        return np.asarray(t, dtype=np.float64)

    def run_combos(self):
        """Valid (strategy, total_ms) pairs in config order."""
        for name in self.strategies:
            strat = _STRATEGY_NAMES[name]
            for t_ms in self.total_ms:
                if strategy_valid_at(strat, t_ms):
                    yield strat, t_ms


def pass_epochs(config: ScenarioConfig) -> list[SampledSignal]:
    """Geometry + synthesis for the configured pass, in memory.

    All samples live in one C-ordered (epochs, samples per epoch) array:
    epoch k's samples are a view of row k.  Each epoch is copied into its
    row as it is synthesized and its own array dropped, so the pass is held
    once, and the whole array is one contiguous stream in epoch order.
    """
    scenario = config.scenario()
    rows, epochs = None, []
    for k, epoch in enumerate(synthesize_pass_signal(
            scenario, config.base_synth_params(),
            random_bits=config.data_bits == "random")):
        if rows is None:
            rows = np.empty((len(scenario.samples), len(epoch.samples)),
                            dtype=epoch.samples.dtype)
        rows[k] = epoch.samples
        # The epoch's own array is freed only after the next epoch is made.
        # Freed at once, it would leave the whole synthesis heap free, and
        # glibc malloc would return those pages to the kernel and fault them
        # in again every epoch: about 0.7 s of system time for a 539-epoch
        # pass on a 2-vCPU x86-64 host.
        held, epoch.samples = epoch.samples, rows[k]
        epochs.append(epoch)
    return epochs


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path, header: str, rows) -> None:
    """Write a comma-separated header and then rows as CSV with \n line
    endings, to path or to stdout when path is None.  Python floats are
    written as their repr."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="")) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="leoacq",
                     description="LEO navigation-signal acquisition engine")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="synthesize a pass into a sample file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default=None, help="override sample format")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("pass", help="write the pass geometry CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="default: stdout")

    p = sub.add_parser("acquire", help="acquire epochs from a sample file")
    p.add_argument("--samples", required=True)
    p.add_argument("--strategy", default="coherent",
                   choices=sorted(_STRATEGY_NAMES))
    p.add_argument("--total-ms", type=int, default=1)
    p.add_argument("--threshold", type=float, default=2.5)
    p.add_argument("--half-span", type=float, default=10e3)
    p.add_argument("--out", default=None, help="default: stdout")

    p = sub.add_parser("sweep", help="false-alarm-vs-threshold sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pf-target", type=float, default=0.10)

    p = sub.add_parser("duration", help="success duration vs integration duration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _load_config(args) -> ScenarioConfig:
    config = ScenarioConfig.from_file(args.config)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_synth(args) -> int:
    config = _load_config(args)
    # validates the format, an override included, before any synthesis
    meta = SampleFileMeta(sample_rate=config.sample_rate,
                          intermediate_freq=config.intermediate_freq,
                          format=args.format or config.sample_format)
    epochs = pass_epochs(config)
    meta.t0 = epochs[0].t0
    rows = epochs[0].samples.base
    if (rows is None or len(rows) != len(epochs) or not rows.flags.c_contiguous
            or any(e.samples.base is not rows for e in epochs)):
        # flattening anything else would copy the whole pass
        raise RuntimeError("pass_epochs did not return the rows of one "
                           "C-ordered pass array")
    stream = SampledSignal(samples=rows.reshape(-1),
                           sample_rate=config.sample_rate, t0=meta.t0)
    clipped = write_samples(stream, args.out, meta)
    write_truth_sidecar(args.out + ".truth", meta, epochs,
                        epoch_step=config.epoch_step)
    msg = (f"wrote {len(epochs)} epochs x {len(epochs[0].samples)} samples "
           f"({meta.format}) to {args.out}")
    if clipped:
        msg += f" [{clipped} samples clipped]"
    print(msg)
    return 0


def _cmd_pass(args) -> int:
    config = _load_config(args)
    write_csv(args.out, "t_s,range_m,elev_deg,vrad_mps,doppler_hz,"
              "doppler_rate_hzps,path_loss_db",
              map(astuple, config.scenario().samples))
    return 0


def _cmd_acquire(args) -> int:
    strategy = _STRATEGY_NAMES[args.strategy]
    spec = IntegrationSpec(strategy=strategy, total_ms=args.total_ms)
    header, epoch_truths = read_truth_sidecar(args.samples + ".truth")
    meta = SampleFileMeta(**{f.name: header[f.name] for f in fields(SampleFileMeta)})
    plan = make_plan(meta.intermediate_freq, args.half_span, args.total_ms)

    spe = header["samples_per_epoch"]
    epochs = []
    for k, truth in enumerate(epoch_truths):
        sig = read_samples(args.samples, meta, offset=k * spe, count=spe)
        sig.t0 = truth.pop("t")
        sig.truth = SynthParams(**truth)
        epochs.append(sig)

    results, labels, summary = acquisition_timeline(
        epochs, spec, plan, args.threshold)
    write_csv(args.out, "t_s,strategy,total_ms,doppler_hz,code_phase_samples,"
              "mtsmr,mtmr,decided,ok",
              ([l.t, strategy.value, args.total_ms, float(r.doppler_hat),
                r.code_phase_hat, float(r.mtsmr), float(r.mtmr),
                int(r.decided), int(l.estimate_ok)]
               for r, l in zip(results, labels)))
    print(f"success {summary.success_s!r} s, decided {summary.decided_s!r} s",
          file=sys.stderr)
    return 0


def _run_matrix(config: ScenarioConfig):
    """Run every valid (strategy, span) of the config over its pass.

    Yields (strategy, total_ms, results, labels, summary) in config order.
    Each epoch is correlated once per span: the strategies at that span all
    integrate the same unit grids.
    """
    epochs = pass_epochs(config)
    code = generate_code(config.prn_id)
    combos = list(config.run_combos())
    by_span: dict[int, list[IntegrationSpec]] = {}
    for strategy, t_ms in combos:
        by_span.setdefault(t_ms, []).append(IntegrationSpec(strategy, t_ms))
    plans, results = {}, {}
    for t_ms, specs in by_span.items():
        plans[t_ms] = make_plan(config.intermediate_freq, config.half_span, t_ms)
        per_epoch = [run_strategies(e, code, plans[t_ms], specs, config.threshold)
                     for e in epochs]
        for k, spec in enumerate(specs):
            results[spec.strategy, t_ms] = [r[k] for r in per_epoch]
    for strategy, t_ms in combos:
        yield (strategy, t_ms, *acquisition_timeline(
            epochs, IntegrationSpec(strategy, t_ms), plans[t_ms],
            config.threshold, code=code, results=results[strategy, t_ms]))


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    thresholds = config.threshold_grid()
    bounds = []
    for strategy, t_ms, results, labels, _ in _run_matrix(config):
        curve = pf_sweep(results, labels, thresholds)
        rows = np.column_stack((curve.thresholds, curve.pf, curve.miss_rate,
                                curve.false_alarm_rate)).tolist()
        names = [f"pf_curve_{strategy.value}_{t_ms}ms.csv"]
        if not bounds:
            names.append("pf_curve.csv")
        for name in names:
            write_csv(os.path.join(args.out_dir, name),
                      "threshold,pf,miss_rate,false_alarm_rate", rows)
        lower_upper = threshold_bounds(curve, args.pf_target) or ("none", "none")
        bounds.append([strategy.value, t_ms, *lower_upper])
    write_csv(os.path.join(args.out_dir, "bounds.csv"),
              "strategy,total_ms,lower,upper", bounds)
    print(f"wrote pf curves and bounds for "
          f"{len(bounds)} strategy/duration combos to {args.out_dir}")
    return 0


def _cmd_duration(args) -> int:
    config = _load_config(args)
    rows = [[strategy.value, t_ms, summary.success_s, summary.decided_s]
            for strategy, t_ms, _, _, summary in _run_matrix(config)]
    write_csv(args.out, "strategy,total_ms,success_s,decided_s", rows)
    print(f"wrote {len(rows)} duration rows to {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "pass": _cmd_pass,
    "acquire": _cmd_acquire,
    "sweep": _cmd_sweep,
    "duration": _cmd_duration,
}


def cli(argv) -> int:
    """Run the CLI; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SampleFileError, OSError, ValueError, KeyError) as e:
        print(f"leoacq {args.command}: error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
