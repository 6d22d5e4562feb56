"""Raw sample file I/O, scenario configuration, CSV output, and the CLI.

Sample files hold the real IF signal, one little-endian value a sample;
integer formats carry samples scaled to [-1, 1) by the type's max
magnitude.  A synthesized sample file is accompanied by a JSON truth
sidecar (<name>.truth): the effective ScenarioConfig that synthesized it,
with every field.  The file layout (format, rate, samples per epoch, epoch
count) and each epoch's start time and SynthParams follow from that config
(signal_synth.pass_params), which is enough to label acquisition results
without re-synthesizing any samples.

Validation.  Each input rule is checked once, where the input enters, and a
violation is a data error (exit 2).  ScenarioConfig.__post_init__ holds
every field rule, JSON types and finiteness too, however a config is made
(from_file, directly or by replace); a checked config is frozen, its lists
tuples.  from_file checks only what a file alone can get wrong: its JSON,
an unknown key, a sidecar lacking a field (complete).  acquire replaces
only a sidecar's strategies and total_ms, so it searches the sidecar's
half_span at its threshold.  A sample file is checked by acquire's byte
count and read_samples.  The engine modules trust their inputs and check
only what no boundary sees, such as process_units' buffer shapes; the
sampling rules (a sample per chip, real-IF) live in __post_init__.

Subcommands: synth, pass, acquire, sweep, duration.  acquire writes its
per-epoch table (eval_harness.COLUMNS), sweep all its tables as results.csv,
and sweep's curves and duration's rows are reductions of those tables.
Exit codes: 0 success, 1 usage error, 2 data error.
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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .prn_code import (CHIP_RATE, CODE_LENGTH, check_prn, generate_code,
                       samples_per_code)
from .geometry import simulate_pass, PassScenario
from . import signal_synth
from .signal_synth import SampledSignal, SynthParams, pass_params
from .acq_core import _row_bands, make_plan, plan_side
from .detector import DEFAULT_MTSMR_THRESHOLD
from .integrators import IntegrationSpec, Strategy, span_error
from .eval_harness import (COLUMNS, acquisition_timeline, durations,
                           pf_sweep, run_span, threshold_bounds)


class SampleFileError(Exception):
    """A sample file or its format is unusable."""


# format tag -> (little-endian dtype, integer full-scale or None)
_FORMATS = {
    "int8-real": ("<i1", 128.0),
    "int16-real": ("<i2", 32768.0),
    "float32-real": ("<f4", None),
}

# samples converted per write: keeps write_samples' temporaries near 0.5 MB
_CHUNK_SAMPLES = 1 << 16


@dataclass
class SampleFileMeta:
    sample_rate: float
    intermediate_freq: float
    format: str = "float32-real"

    def __post_init__(self):
        if self.format not in _FORMATS:
            raise SampleFileError(
                f"sample_format: unknown sample format {self.format!r}; "
                f"supported: {', '.join(sorted(_FORMATS))}")

    @property
    def bytes_per_sample(self) -> int:
        return np.dtype(_FORMATS[self.format][0]).itemsize


def read_samples(path, meta: SampleFileMeta, offset: int = 0,
                 count: int | None = None) -> SampledSignal:
    """Read samples [offset, offset+count) from a binary sample file.

    Samples come back as float32, exactly: every int8 and int16 code is a
    float32, and dividing it by the power-of-two full scale only changes
    its exponent.  A float32 file that holds NaN or an infinity in the
    range is a data error.
    """
    dtype, scale = _FORMATS[meta.format]
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
    raw = np.fromfile(path, dtype=dtype, count=count, offset=offset * frame)
    if scale is None and not np.isfinite(raw).all():
        bad = offset + int(np.argmin(np.isfinite(raw)))
        raise SampleFileError(f"{path}: sample {bad} is not finite")
    vals = raw.astype(np.float32, copy=False)
    if scale is not None:
        vals /= scale
    return SampledSignal(samples=vals, sample_rate=meta.sample_rate,
                         t0=offset / meta.sample_rate)


def write_samples(signal: SampledSignal, path, meta: SampleFileMeta) -> int:
    """Write samples to a binary file; returns the clip-saturation count
    (0 for lossless writes).

    The samples are quantised and written _CHUNK_SAMPLES at a time, so the
    temporaries stay chunk-sized whatever the signal's length; each step is
    elementwise, so the bytes equal a one-shot conversion.  Each chunk is
    quantised in the samples' own precision: float32 samples in float32,
    others in float64.  Scaling by a power-of-two full scale, rounding to
    an integer and clipping are exact in either, so float32 samples give
    the same bytes and clip count as their float64 upcast, without a
    float64 copy of each chunk.  Complex samples are refused before the
    file is opened; finite samples are the caller's (pass_epochs).
    """
    dtype, scale = _FORMATS[meta.format]
    x = np.asarray(signal.samples)
    if np.iscomplexobj(x):
        raise ValueError("complex samples cannot be written: formats are real")
    clipped = 0
    with open(path, "wb") as f:
        for i in range(0, len(x), _CHUNK_SAMPLES):
            chunk = x[i:i + _CHUNK_SAMPLES]
            chunk = chunk.astype(np.result_type(chunk.dtype, np.float32),
                                 copy=False)
            if scale is None:
                out = chunk.astype(dtype)
            else:
                scaled = np.round(chunk * scale)
                info = np.iinfo(dtype)
                clipped += int(np.count_nonzero((scaled < info.min)
                                                | (scaled > info.max)))
                out = np.clip(scaled, info.min, info.max).astype(dtype)
            f.write(out)
    return clipped


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

_STRATEGY_NAMES = {s.value: s for s in Strategy}
_MAX_THRESHOLDS = 10_000  # pf_thresholds grid points (the default grid: 101)

# dataclass field annotation -> the JSON value types it accepts
_JSON_TYPES = {"int": (int,), "float": (int, float), "tuple": (list, tuple),
               "str": (str,), "float | None": (int, float, type(None))}


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: synthesis + geometry + run parameters (JSON file).

    It is also a sample file's truth sidecar (write_truth_sidecar)."""

    prn_id: int = 1
    sample_rate: float = 1.023e6
    intermediate_freq: float = 0.25e6
    carrier_freq: float = 1.5e9
    amplitude: float = 1.0
    code_phase0: float = 0.0
    bit_phase0: float = 0.0
    data_bits: str = "ones"         # "ones" | "random"
    cn0: float | None = 45.0        # dB-Hz at the pass minimum range
    # s of signal per epoch that synth writes; duration and sweep
    # synthesize only the span_samples of the longest span in total_ms
    duration: float = 0.04
    seed: int = 1
    orbit_height: float = 645e3
    elevation_mask: float = 10.0
    cross_track_offset_deg: float = 0.0
    epoch_step: float = 1.0
    strategies: tuple = ("coherent",)
    total_ms: tuple = (1,)
    threshold: float = DEFAULT_MTSMR_THRESHOLD
    half_span: float = 10e3
    pf_thresholds: tuple = (1.0, 6.0, 0.05)
    sample_format: str = "float32-real"

    def __post_init__(self):
        for f in fields(self):  # JSON's types, where a bool is not a number
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, _JSON_TYPES[f.type]):
                raise ValueError(f"{f.name} must be {f.type}, got {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
            if isinstance(v, list):  # a tuple, so that no entry can change
                object.__setattr__(self, f.name, tuple(v))
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
        if next(self.run_combos(), None) is None:
            reasons = "; ".join(span_error(_STRATEGY_NAMES[name], t_ms)
                                for name in self.strategies
                                for t_ms in self.total_ms)
            raise ValueError(
                f"no strategy in strategies {self.strategies} is defined at "
                f"any span in total_ms {self.total_ms}: {reasons}")
        t = self.pf_thresholds
        if not (len(t) == 3 and all(isinstance(v, numbers.Real)
                                    and not isinstance(v, bool)
                                    and math.isfinite(v) for v in t)
                and 0 < t[0] <= t[1] and t[2] > 0
                # np.arange's length, before threshold_grid builds the grid
                and (t[1] + t[2] / 2 - t[0]) / t[2] <= _MAX_THRESHOLDS
                and np.all(np.diff(self.threshold_grid()) > 0)):
            raise ValueError(f"pf_thresholds must be [lo, hi, step], finite "
                             f"with 0 < lo <= hi and step > 0, giving at most "
                             f"{_MAX_THRESHOLDS} thresholds, distinct to 10 "
                             f"decimals; got {t!r}")
        if self.data_bits not in ("ones", "random"):
            raise ValueError("data_bits must be 'ones' or 'random'")
        for name in ("carrier_freq", "amplitude"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        # a sample per chip leaves the detector cells outside its exclusion
        if not self.sample_rate >= CHIP_RATE:
            raise ValueError(f"sample_rate must be at least the chip rate "
                             f"{CHIP_RATE!r} Hz, got {self.sample_rate!r}")
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold!r}")
        SampleFileMeta(self.sample_rate, self.intermediate_freq,
                       self.sample_format)  # validates the sample format
        geo = self.scenario().samples  # validates the geometry's fields
        check_prn(self.prn_id)
        have = self.duration * self.sample_rate
        need = self.span_samples()
        if not (math.isfinite(have) and round(have) >= need):
            raise ValueError(
                f"epoch duration {self.duration}s ({have:.0f} samples) is "
                f"shorter than the longest integration {max(self.total_ms)} "
                f"ms ({need} samples)")
        # Real-IF sampling: every epoch's chirp and every bin make_plan
        # searches, +- half a bin, lie in (0, fs/2), so none meets its image.
        reach = math.nan  # fails a half_span that is not positive
        if self.half_span > 0:
            sides = [plan_side(self.half_span, t_ms) for t_ms in self.total_ms]
            chirps = abs(geo.doppler) + abs(geo.doppler_rate) * self.duration
            reach = max(float(chirps.max()), *((n + 0.5) * w for n, w in sides))
        f = self.intermediate_freq
        if not (0 < f - reach and f + reach < self.sample_rate / 2):
            raise ValueError(
                f"intermediate_freq {f!r} Hz +- {reach!r} Hz (the pass's Doppler"
                f" over duration {self.duration!r} s, or a search of half_span "
                f"{self.half_span!r} Hz > 0) must lie in (0, sample_rate/2) at "
                f"sample_rate {self.sample_rate!r} Hz")

    @classmethod
    def from_file(cls, path, complete: bool = False) -> "ScenarioConfig":
        """Load a JSON object whose keys are field names: a config file, or a
        truth sidecar (complete), which must name every field it was made
        with.  Every field rule, types and finiteness too (json reads NaN
        and 1e400 as floats), is __post_init__'s, however a config is made."""
        with open(path) as f:
            try:
                record = json.load(f)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: not a JSON scenario config "
                                 f"({e})") from e
        if not isinstance(record, dict):
            raise ValueError(f"{path}: not a JSON object: {record!r}")
        names = [f.name for f in fields(cls)]
        for key in record:
            if key not in names:
                raise ValueError(f"{path}: unknown key {key!r}")
        missing = [name for name in names if name not in record]
        if complete and missing:
            raise ValueError(f"{path}: truth sidecar lacks {', '.join(missing)}")
        return cls(**record)

    @property
    def samples_per_epoch(self) -> int:
        """Samples of each epoch that synth writes."""
        return round(self.duration * self.sample_rate)

    def span_samples(self) -> int:
        """Samples the longest span in total_ms correlates from the start of
        each epoch (eval_harness.run_span): duration and sweep synthesize,
        and acquire reads, only these samples of each epoch."""
        return max(self.total_ms) * samples_per_code(CODE_LENGTH, self.sample_rate)

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

    def pass_truths(self) -> list[tuple[float, SynthParams]]:
        """Each epoch's (t0, SynthParams) of the pass, in order, without
        synthesizing any samples (signal_synth.pass_params)."""
        return list(pass_params(self.scenario(), self.base_synth_params(),
                                random_bits=self.data_bits == "random"))

    def threshold_grid(self) -> np.ndarray:
        """lo, lo + step, ... through hi, each rounded to 10 decimals."""
        lo, hi, step = self.pf_thresholds
        return np.round(np.arange(lo, hi + step / 2, step), 10)

    def run_combos(self):
        """Valid (strategy, total_ms) pairs in config order."""
        for name in self.strategies:
            strat = _STRATEGY_NAMES[name]
            for t_ms in self.total_ms:
                if span_error(strat, t_ms) is None:
                    yield strat, t_ms


# Most samples a pass may hold: pass_epochs allocates it whole as float32,
# so 2^30 samples is 4 GiB (the default pass holds 22 M).  duration and
# sweep synthesize only their spans, so only synth counts a long duration.
_MAX_PASS_SAMPLES = 1 << 30


def pass_epochs(config: ScenarioConfig) -> list[SampledSignal]:
    """Geometry + synthesis for the configured pass, in memory: each epoch
    holds config.duration of signal.  An epoch of a shorter duration is
    bitwise the start of a longer one (its time base, chirp, code index,
    noise draws and data bits are all prefixes), so _run_matrix asks only
    for the samples its spans correlate.

    All samples live in one C-ordered (epochs, samples per epoch) float32
    array: epoch k's samples are a view of row k.  Each epoch is synthesized
    in float64 and rounded to float32 as it is copied into its row, so the
    pass is held once, at 4 bytes a sample, and the whole array is one
    contiguous stream in epoch order.

    The rows are synthesized in the row bands of acq_core._row_bands, on
    its gate: a pass of at least _BAND_CELLS samples gets one band of
    epochs per core, each band writing only its own rows.  An epoch's
    samples depend on its own SynthParams alone (its seed, its data bits;
    see signal_synth.pass_params), so whatever the band count each row is
    bitwise the serial pass's epoch (synthesize_pass_signal) in float32.

    The rounding costs acquisition nothing: process_units mixes real samples
    as complex64, which rounds them to float32 in the same way, so the
    grids, and the duration and sweep outputs, are bitwise those of the
    float64 epochs.  A written integer format can differ by one code where a
    float64 sample lay within float32 resolution of a rounding tie.  Samples
    that overflow float32 are a data error, raised before any output.
    """
    t0s, truths = zip(*config.pass_truths())
    if len(truths) * config.samples_per_epoch > _MAX_PASS_SAMPLES:
        raise ValueError(
            f"a pass of {len(truths)} epochs (epoch_step {config.epoch_step} s)"
            f" x {config.samples_per_epoch} samples (duration {config.duration}"
            f" s, sample_rate {config.sample_rate} Hz) exceeds "
            f"{_MAX_PASS_SAMPLES} samples")
    code = generate_code(config.prn_id)
    rows = np.empty((len(truths), config.samples_per_epoch), dtype=np.float32)

    def band(epochs):
        for k in range(epochs.start, epochs.stop):
            # samples keeps the last epoch's array until the next is made,
            # so the allocator reuses its heap instead of returning the
            # pages and faulting them in again every epoch
            with np.errstate(over="ignore", invalid="ignore"):
                samples = signal_synth.synthesize(truths[k], code=code).samples
                rows[k] = samples  # the one rounding to float32
            if not np.isfinite(rows[k]).all():
                raise ValueError(
                    f"samples of the epoch at t={t0s[k]} s overflow float32: "
                    f"amplitude {config.amplitude}, cn0 {config.cn0} dB-Hz")

    _row_bands(band, len(rows), rows.size)
    return [SampledSignal(samples=row, sample_rate=config.sample_rate,
                          t0=t0, truth=truth)
            for row, t0, truth in zip(rows, t0s, truths)]


# ---------------------------------------------------------------------------
# Truth sidecar
# ---------------------------------------------------------------------------

def write_truth_sidecar(path, config: ScenarioConfig) -> None:
    """Write config, the effective config of a synthesized sample file
    (after any --seed), as the file's JSON truth sidecar."""
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(asdict(config)))


def read_truth_sidecar(path) -> tuple[dict, list[dict]]:
    """Load a truth sidecar with ScenarioConfig.from_file and derive from it
    a header of the file layout and each epoch's dict of "t" plus every
    SynthParams field (data_bits an array or None).

    The epochs are regenerated (ScenarioConfig.pass_truths), so an existing
    sidecar keeps its meaning only while pass_params and synthesize do.
    """
    config = ScenarioConfig.from_file(path, complete=True)
    truths = config.pass_truths()
    header = {"format": config.sample_format,
              "sample_rate": config.sample_rate,
              "intermediate_freq": config.intermediate_freq,
              "epoch_step": config.epoch_step,
              "samples_per_epoch": config.samples_per_epoch,
              "epoch_count": len(truths)}
    return header, [{"t": t0, **vars(truth)} for t0, truth in truths]


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
    meta = SampleFileMeta(config.sample_rate, config.intermediate_freq,
                          format=config.sample_format)
    epochs = pass_epochs(config)
    rows = epochs[0].samples.base
    if (rows is None or len(rows) != len(epochs) or not rows.flags.c_contiguous
            or any(e.samples.base is not rows for e in epochs)):
        # flattening anything else would copy the whole pass
        raise RuntimeError("pass_epochs did not return the rows of one "
                           "C-ordered pass array")
    stream = SampledSignal(samples=rows.reshape(-1),
                           sample_rate=config.sample_rate)
    clipped = write_samples(stream, args.out, meta)
    write_truth_sidecar(args.out + ".truth", config)
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
              config.scenario().samples.tolist())
    return 0


def _cmd_acquire(args) -> int:
    # the sidecar's config, running the arguments' one strategy and span:
    # __post_init__ checks them before any sample is read
    config = replace(ScenarioConfig.from_file(args.samples + ".truth",
                                              complete=True),
                     strategies=[args.strategy], total_ms=[args.total_ms])
    meta = SampleFileMeta(config.sample_rate, config.intermediate_freq,
                          format=config.sample_format)
    truths = config.pass_truths()
    spe = config.samples_per_epoch
    size, frame = os.path.getsize(args.samples), meta.bytes_per_sample
    want = len(truths) * spe * frame
    if size != want:  # else epoch k would not start at sample k * spe
        which = "fewer" if size < want else "more"
        raise SampleFileError(
            f"{args.samples}: {size} bytes, {which} than the sidecar's "
            f"{len(truths)} epochs of {spe} {frame}-byte samples ({want})")
    # Each epoch is read only as far as the span correlates.
    count = config.span_samples()
    epochs = []
    for k, (t0, truth) in enumerate(truths):
        sig = read_samples(args.samples, meta, offset=k * spe, count=count)
        sig.t0, sig.truth = t0, truth
        epochs.append(sig)

    [table] = _run_matrix(config, epochs)
    write_csv(args.out, ",".join(COLUMNS), table.tolist())
    success_s, decided_s = durations(table, config.epoch_step)
    print(f"success {success_s!r} s, decided {decided_s!r} s", file=sys.stderr)
    return 0


def _span_pass(config: ScenarioConfig) -> list[SampledSignal]:
    """The config's pass, synthesized only as far as its longest span
    correlates (span_samples), not at the full duration that synth writes;
    the outputs of _run_matrix are those of the full epochs."""
    return pass_epochs(replace(
        config, duration=config.span_samples() / config.sample_rate))


def _run_matrix(config: ScenarioConfig, epochs: list[SampledSignal]):
    """Run every valid (strategy, span) of the config over epochs, the
    pass's epochs through at least their first span_samples, and return
    each combo's table (eval_harness.acquisition_timeline) in config order.

    duration and sweep run it over _span_pass, acquire over the epochs it
    reads from a sample file.  Each epoch is correlated once per span, into
    one unit block reused for every epoch (eval_harness.run_span): the
    strategies at that span all integrate the same unit grids.
    """
    code = generate_code(config.prn_id)
    combos = list(config.run_combos())
    tables = {}
    for t_ms in dict.fromkeys(t for _, t in combos):
        specs = [IntegrationSpec(s, t) for s, t in combos if t == t_ms]
        plan = make_plan(config.intermediate_freq, config.half_span, t_ms)
        per_epoch = run_span(epochs, code, plan, specs, config.threshold)
        for k, spec in enumerate(specs):
            tables[spec.strategy, t_ms] = acquisition_timeline(
                epochs, spec, plan, config.threshold,
                [r[k] for r in per_epoch], code=code)[2]
    return [tables[combo] for combo in combos]


def _cmd_sweep(args) -> int:
    if not 0 < args.pf_target < 1:  # before the pass runs
        raise ValueError(
            f"--pf-target must be in (0, 1), got {args.pf_target}")
    config = _load_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    thresholds = config.threshold_grid()
    tables = _run_matrix(config, _span_pass(config))
    write_csv(os.path.join(args.out_dir, "results.csv"), ",".join(COLUMNS),
              np.concatenate(tables).tolist())
    bounds = []
    for table in tables:
        strategy, t_ms = table["strategy"][0], table["total_ms"][0]
        curve = pf_sweep(table["mtsmr"], table["ok"], thresholds)
        rows = np.column_stack((curve.thresholds, curve.pf, curve.miss_rate,
                                curve.false_alarm_rate)).tolist()
        names = [f"pf_curve_{strategy}_{t_ms}ms.csv"]
        if not bounds:
            names.append("pf_curve.csv")
        for name in names:
            write_csv(os.path.join(args.out_dir, name),
                      "threshold,pf,miss_rate,false_alarm_rate", rows)
        lower_upper = threshold_bounds(curve, args.pf_target) or ("none", "none")
        bounds.append([strategy, t_ms, *lower_upper])
    write_csv(os.path.join(args.out_dir, "bounds.csv"),
              "strategy,total_ms,lower,upper", bounds)
    print(f"wrote pf curves and bounds for "
          f"{len(bounds)} strategy/duration combos to {args.out_dir}")
    return 0


def _cmd_duration(args) -> int:
    config = _load_config(args)
    rows = [[t["strategy"][0], t["total_ms"][0],
             *durations(t, config.epoch_step)]
            for t in _run_matrix(config, _span_pass(config))]
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
    except (SampleFileError, OSError, ValueError) as e:
        print(f"leoacq {args.command}: error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
