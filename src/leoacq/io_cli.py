"""Raw sample file I/O, scenario configuration, CSV output, and the CLI.

Binary sample formats are little-endian; integer formats carry samples
scaled to [-1, 1) by the type's max magnitude, and the -iq variants
interleave I then Q per sample.  A synthesized sample file is accompanied
by a JSON truth sidecar (<name>.truth) that records the file layout and
each epoch's start time and SynthParams, which is enough to label
acquisition results without re-synthesizing.  A sidecar in the older
key=value text form, or with a field missing, unknown or of the wrong
type, is rejected with a data error (exit 2).

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

from .prn_code import generate_code, samples_per_code
from .geometry import simulate_pass, PassScenario
from .signal_synth import SampledSignal, SynthParams, synthesize_pass_signal
from .acq_core import make_plan
from .detector import DEFAULT_MTSMR_THRESHOLD
from .integrators import IntegrationSpec, Strategy, span_error
from .eval_harness import (acquisition_timeline, pf_sweep, run_span,
                           threshold_bounds)


class SampleFileError(Exception):
    """A sample file, its format or its truth sidecar is unusable."""


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
            raise SampleFileError(
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
    by the power-of-two full scale only changes its exponent.  A float32
    file that holds NaN or an infinity in the range is a data error.
    """
    dtype, scale, is_iq = _FORMATS[meta.format]
    frame = meta.bytes_per_sample
    size = os.path.getsize(path)
    if size % frame != 0:
        raise SampleFileError(
            f"{path}: file truncated at byte {size}: length is not a "
            f"multiple of the {frame}-byte sample frame "
            f"(last whole sample ends at byte {size - size % frame})")
    total = size // frame
    if count is None:
        count = total - offset
    if offset < 0 or count < 0 or offset + count > total:
        raise SampleFileError(
            f"{path}: read range [{offset}, {offset + count}) outside the "
            f"{total} samples in the file")
    raw = np.fromfile(path, dtype=dtype, count=count * (2 if is_iq else 1),
                      offset=offset * frame)
    if scale is None and not np.isfinite(raw).all():
        bad = offset + int(np.argmin(np.isfinite(raw))) // (2 if is_iq else 1)
        raise SampleFileError(f"{path}: sample {bad} is not finite")
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
    elementwise, so the bytes equal a one-shot conversion.  Each chunk is
    quantised in the samples' own precision: float32 and complex64 samples
    in float32, others in float64.  Scaling by a power-of-two full scale,
    rounding to an integer and clipping are exact in either, so float32
    samples give the same bytes and clip count as their float64 upcast,
    without a float64 copy of each chunk.  The samples are
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
            if is_iq:  # I, Q pairs
                flat = np.ascontiguousarray(
                    chunk, np.result_type(chunk.dtype, np.complex64))
                flat = flat.view(np.finfo(flat.dtype).dtype)
            else:
                flat = chunk.astype(np.result_type(chunk.dtype, np.float32),
                                    copy=False)
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

# dataclass field annotation -> the JSON value types it accepts
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
               "float | None": (int, float, type(None)), "list": (list,),
               "np.ndarray | None": (list, type(None))}


def _check_json_types(where, record, types: dict, error=ValueError,
                      complete: bool = False) -> None:
    """Raise error, naming the key, unless record is a JSON object of keys
    that types annotates (all of them if complete), each with a finite JSON
    value of its annotation's type (json reads NaN and 1e400 as floats)."""
    if not isinstance(record, dict):
        raise error(f"{where}: not a JSON object: {record!r}")
    if complete and types.keys() - record.keys():
        raise error(f"{where}: missing {sorted(types.keys() - record.keys())}")
    for key, value in record.items():
        if key not in types:
            raise error(f"{where}: unknown key {key!r}")
        if (isinstance(value, bool)
                or not isinstance(value, _JSON_TYPES[types[key]])):
            raise error(f"{where}: {key} must be {types[key]}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{where}: {key} must be a finite number, "
                        f"got {value!r}")


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

    The header must hold exactly the keys write_truth_sidecar writes, with
    epoch_count the length of a non-empty epochs list, and each epoch
    exactly "t" plus every SynthParams field, each a JSON value of its
    field's type; data_bits comes back as an array or None.
    """
    try:
        with open(path) as f:
            header = json.load(f)
    except json.JSONDecodeError as e:
        raise SampleFileError(
            f"{path}: not a JSON truth sidecar ({e}); re-run synth to "
            f"regenerate it") from e
    head = {**{f.name: f.type for f in fields(SampleFileMeta)},
            "epoch_step": "float", "samples_per_epoch": "int",
            "epoch_count": "int", "epochs": "list"}
    _check_json_types(path, header, head, SampleFileError, complete=True)
    epochs = header.pop("epochs")
    if not epochs:
        raise SampleFileError(f"{path}: the sidecar lists no epochs")
    per_epoch = {"t": "float", **{f.name: f.type for f in fields(SynthParams)}}
    for k, e in enumerate(epochs):
        _check_json_types(f"{path}: epoch {k}", e, per_epoch, SampleFileError,
                          complete=True)
        if e["data_bits"] is not None:
            e["data_bits"] = np.array(e["data_bits"], dtype=np.float64)
    if header["epoch_count"] != len(epochs):
        raise SampleFileError(
            f"{path}: epoch_count is {header['epoch_count']}, but the "
            f"sidecar lists {len(epochs)} epochs")
    return header, epochs


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

_STRATEGY_NAMES = {s.value: s for s in Strategy}


def _check_search(threshold: float, half_span: float, sample_rate: float) -> None:
    """Reject a detection threshold or Doppler half-span no search can use.

    The threshold must be finite and positive.  The half-span must lie in
    (0, sample_rate / 2): past Nyquist, bins alias onto each other.  A NaN
    fails both comparisons and is rejected too.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, "
                         f"got {threshold!r}")
    if not 0 < half_span < sample_rate / 2:
        raise ValueError(f"half_span must lie in (0, {sample_rate / 2!r}) Hz, "
                         f"below Nyquist at sample rate {sample_rate!r} Hz, "
                         f"got {half_span!r}")


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
    threshold: float = DEFAULT_MTSMR_THRESHOLD
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
        # An MTSMR is at least 1.  With positive entries an ascending list
        # never reads as a range, nor a valid range as an ascending list.
        if min(t) <= 0:
            raise ValueError(f"pf_thresholds must be positive, got {t!r}")
        if not self._pf_is_range() and any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"pf_thresholds must be [lo, hi, step] or "
                             f"strictly ascending, got {t!r}")
        if self.data_bits not in ("ones", "random"):
            raise ValueError("data_bits must be 'ones' or 'random'")
        _check_search(self.threshold, self.half_span, self.sample_rate)
        if self.duration < max(self.total_ms) / 1e3:
            raise ValueError(
                f"epoch duration {self.duration}s shorter than the longest "
                f"integration {max(self.total_ms)} ms")
        if self.sample_format not in _FORMATS:
            raise SampleFileError(f"unknown sample format {self.sample_format!r}")
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
        _check_json_types(path, record, {f.name: f.type for f in fields(cls)})
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
                if span_error(strat, t_ms) is None:
                    yield strat, t_ms


def pass_epochs(config: ScenarioConfig) -> list[SampledSignal]:
    """Geometry + synthesis for the configured pass, in memory.

    All samples live in one C-ordered (epochs, samples per epoch) float32
    array: epoch k's samples are a view of row k.  Each epoch is synthesized
    in float64, rounded to float32 as it is copied into its row, and its own
    array dropped, so the pass is held once, at 4 bytes a sample, and the
    whole array is one contiguous stream in epoch order.

    The rounding costs acquisition nothing: process_units mixes real samples
    as complex64, which rounds them to float32 in the same way, so the
    grids, and the duration and sweep outputs, are bitwise those of the
    float64 epochs.  A written integer format can differ by one code where a
    float64 sample lay within float32 resolution of a rounding tie.
    """
    scenario = config.scenario()
    rows, epochs = None, []
    for k, epoch in enumerate(synthesize_pass_signal(
            scenario, config.base_synth_params(),
            random_bits=config.data_bits == "random")):
        if rows is None:
            rows = np.empty((len(scenario.samples), len(epoch.samples)),
                            dtype=np.float32)
        rows[k] = epoch.samples  # the one rounding to float32
        # The epoch's own array is freed only after the next epoch is made,
        # so the allocator reuses the synthesis heap instead of returning
        # its pages and faulting them in again every epoch.
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
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("pass", help="write the pass geometry CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(run=_cmd_pass)

    p = sub.add_parser("acquire", help="acquire epochs from a sample file")
    p.add_argument("--samples", required=True)
    p.add_argument("--strategy", default="coherent",
                   choices=sorted(_STRATEGY_NAMES))
    p.add_argument("--total-ms", type=int, default=1)
    p.add_argument("--threshold", type=float, default=ScenarioConfig.threshold)
    p.add_argument("--half-span", type=float, default=ScenarioConfig.half_span)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(run=_cmd_acquire)

    p = sub.add_parser("sweep", help="false-alarm-vs-threshold sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pf-target", type=float, default=0.10)
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("duration", help="success duration vs integration duration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=_cmd_duration)
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
    _check_search(args.threshold, args.half_span, meta.sample_rate)
    plan = make_plan(meta.intermediate_freq, args.half_span, args.total_ms)

    spe = header["samples_per_epoch"]
    total = os.path.getsize(args.samples) // meta.bytes_per_sample
    if total < len(epoch_truths) * spe:
        raise SampleFileError(
            f"{args.samples}: {total} samples, fewer than the sidecar's "
            f"{len(epoch_truths)} epochs of {spe}")
    # Each epoch is read only as far as the span correlates; an epoch
    # shorter than the span fails in process_units as too short.
    code = generate_code(epoch_truths[0]["prn_id"])
    count = min(spe, args.total_ms * samples_per_code(code, meta.sample_rate))
    epochs = []
    for k, truth in enumerate(epoch_truths):
        sig = read_samples(args.samples, meta, offset=k * spe, count=count)
        sig.t0 = truth.pop("t")
        sig.truth = SynthParams(**truth)
        epochs.append(sig)

    results = [r for (r,) in run_span(epochs, code, plan, [spec],
                                      args.threshold)]
    results, labels, summary = acquisition_timeline(
        epochs, spec, plan, args.threshold, results, code=code)
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
    Each epoch is correlated once per span, into one unit block reused for
    every epoch (eval_harness.run_span): the strategies at that span all
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
        per_epoch = run_span(epochs, code, plans[t_ms], specs,
                             config.threshold)
        for k, spec in enumerate(specs):
            results[spec.strategy, t_ms] = [r[k] for r in per_epoch]
    for strategy, t_ms in combos:
        yield (strategy, t_ms, *acquisition_timeline(
            epochs, IntegrationSpec(strategy, t_ms), plans[t_ms],
            config.threshold, results[strategy, t_ms], code=code))


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


def cli(argv) -> int:
    """Run the CLI; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.run(args)
    except (SampleFileError, OSError, ValueError, KeyError) as e:
        print(f"leoacq {args.command}: error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
