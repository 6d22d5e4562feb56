"""Sample-file I/O, scenario config, and CLI tests."""

import json
import tempfile
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from leoacq import eval_harness, io_cli, signal_synth
from leoacq.acq_core import make_plan
from leoacq.eval_harness import run_span
from leoacq.integrators import IntegrationSpec, Strategy
from leoacq.io_cli import (_FORMATS, SampleFileError, SampleFileMeta,
                           ScenarioConfig, cli, pass_epochs, read_samples,
                           read_truth_sidecar, write_samples,
                           write_truth_sidecar)
from leoacq.prn_code import generate_code
from leoacq.signal_synth import (SampledSignal, SynthParams, synthesize,
                                 synthesize_pass_signal)

from conftest import (FS_FAST, FIF_FAST, FS_FULL, FIF_FULL, block_rows,
                      fast_params, row_bands)


def _meta(fmt="float32-real", fs=FS_FAST):
    return SampleFileMeta(sample_rate=fs, intermediate_freq=FIF_FAST, format=fmt)


def _sig(samples, fs=FS_FAST):
    return SampledSignal(samples=np.asarray(samples), sample_rate=fs)


# a small write chunk for tests, so that short signals span several chunks
CHUNK = 8


class TestSampleFiles:
    def test_float32_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=256).astype(np.float32).astype(np.float64)
        path = tmp_path / "f32.bin"
        assert write_samples(_sig(vals), path, _meta()) == 0
        back = read_samples(path, _meta())
        assert np.array_equal(back.samples, vals)

    def test_int16_full_negative_scale(self, tmp_path):
        path = tmp_path / "i16.bin"
        np.array([-32768, 16384, 0], dtype="<i2").tofile(path)
        back = read_samples(path, _meta("int16-real"))
        assert back.samples[0] == -1.0
        assert back.samples[1] == 0.5
        assert back.samples[2] == 0.0

    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    def test_reads_single_precision_exactly(self, tmp_path, fmt):
        # every code of every format, scaled by its power-of-two full scale,
        # is a float32: the single-precision read equals a float64 read
        dtype, scale, is_iq = _FORMATS[fmt]
        if scale is None:
            raw = np.random.default_rng(5).normal(size=512).astype(dtype)
        else:
            info = np.iinfo(dtype)
            raw = np.arange(info.min, info.max + 1).astype(dtype)
        path = tmp_path / "x.bin"
        raw.tofile(path)
        back = read_samples(path, _meta(fmt)).samples
        want = raw.astype(np.float64) / (scale or 1.0)
        if is_iq:
            assert back.dtype == np.complex64
            want = want.view(np.complex128)
        else:
            assert back.dtype == np.float32
        assert np.array_equal(back, want)

    def test_int8_quantization_bound(self, tmp_path):
        sig = synthesize(fast_params(cn0=None, duration=1e-3))
        path = tmp_path / "i8.bin"
        write_samples(sig, path, _meta("int8-real"))
        back = read_samples(path, _meta("int8-real"))
        assert np.abs(back.samples - sig.samples).max() <= 1.0 / 127.0

    def test_clip_count_reported(self, tmp_path):
        sig = synthesize(fast_params(cn0=None, duration=1e-3, amplitude=2.0))
        clipped = write_samples(sig, tmp_path / "clip.bin", _meta("int8-real"))
        assert clipped > 0

    def test_empty_signal_is_valid(self, tmp_path):
        path = tmp_path / "empty.bin"
        assert write_samples(_sig(np.zeros(0)), path, _meta()) == 0
        assert path.stat().st_size == 0
        assert len(read_samples(path, _meta()).samples) == 0

    def test_iq_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = (rng.normal(size=64) + 1j * rng.normal(size=64))
        vals = vals.astype(np.complex64).astype(np.complex128)
        path = tmp_path / "iq.bin"
        write_samples(_sig(vals), path, _meta("float32-iq"))
        back = read_samples(path, _meta("float32-iq"))
        assert np.array_equal(back.samples, vals)

    def test_real_signal_to_iq_gets_zero_q(self, tmp_path):
        path = tmp_path / "riq.bin"
        write_samples(_sig(np.array([0.5, -0.25])), path, _meta("float32-iq"))
        back = read_samples(path, _meta("float32-iq"))
        assert np.array_equal(back.samples.real, [0.5, -0.25])
        assert np.array_equal(back.samples.imag, [0.0, 0.0])

    def test_complex_to_real_format_rejected(self, tmp_path, monkeypatch):
        # checked before the file is opened: an existing file keeps its bytes
        monkeypatch.setattr(io_cli, "_CHUNK_SAMPLES", CHUNK)
        path = tmp_path / "x.bin"
        path.write_bytes(b"old bytes")
        with pytest.raises(ValueError, match="complex"):
            write_samples(_sig(np.full(3 * CHUNK + 1, 1j)), path, _meta())
        assert path.read_bytes() == b"old bytes"

    def test_offset_and_count_read(self, tmp_path):
        vals = np.arange(32, dtype=np.float32).astype(np.float64)
        path = tmp_path / "f32.bin"
        write_samples(_sig(vals), path, _meta())
        back = read_samples(path, _meta(), offset=8, count=4)
        assert np.array_equal(back.samples, vals[8:12])
        assert back.t0 == 8 / FS_FAST

    def test_unknown_format(self):
        with pytest.raises(SampleFileError, match="unknown sample format"):
            SampleFileMeta(sample_rate=1e6, intermediate_freq=0.0, format="int4-real")

    def test_truncated_file_names_byte_offset(self, tmp_path):
        path = tmp_path / "trunc.bin"
        write_samples(_sig(np.zeros(16)), path, _meta())
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(SampleFileError, match="byte 65"):
            read_samples(path, _meta())

    def test_out_of_range_read(self, tmp_path):
        path = tmp_path / "f32.bin"
        write_samples(_sig(np.zeros(16)), path, _meta())
        with pytest.raises(SampleFileError, match="outside"):
            read_samples(path, _meta(), offset=10, count=10)

    @pytest.mark.parametrize("fmt", ["float32-real", "float32-iq"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_read_rejected(self, tmp_path, fmt, bad):
        # sample 5 holds the bad value (its Q part in an IQ file); reads
        # that cover it fail naming the file and the sample, others do not
        is_iq = fmt.endswith("-iq")
        raw = np.arange(32 if is_iq else 16, dtype="<f4")
        raw[11 if is_iq else 5] = bad
        path = tmp_path / "x.bin"
        raw.tofile(path)
        for offset, count in [(0, None), (3, 4), (5, 1)]:
            with pytest.raises(SampleFileError,
                               match=rf"x\.bin: sample 5 is not finite"):
                read_samples(path, _meta(fmt), offset=offset, count=count)
        for offset, count in [(0, 5), (6, None)]:
            back = read_samples(path, _meta(fmt), offset=offset, count=count)
            assert np.isfinite(back.samples).all()

    def test_nonfinite_rejected(self, tmp_path, monkeypatch):
        # a NaN in the last chunk: nothing is written, the old file stays
        monkeypatch.setattr(io_cli, "_CHUNK_SAMPLES", CHUNK)
        path = tmp_path / "x.bin"
        path.write_bytes(b"old bytes")
        with pytest.raises(ValueError, match="non-finite"):
            write_samples(_sig(np.r_[np.zeros(3 * CHUNK), np.nan]), path,
                          _meta("int16-real"))
        assert path.read_bytes() == b"old bytes"


def _reference_write(signal, path, meta) -> int:
    """write_samples as a one-shot quantiser: the whole signal at once."""
    dtype, scale, is_iq = _FORMATS[meta.format]
    x = np.asarray(signal.samples)
    flat = (x.astype(np.complex128).view(np.float64) if is_iq
            else x.astype(np.float64))
    clipped = 0
    if scale is None:
        out = flat.astype(dtype)
    else:
        scaled = np.round(flat * scale)
        info = np.iinfo(dtype)
        clipped = int(np.count_nonzero((scaled < info.min) | (scaled > info.max)))
        out = np.clip(scaled, info.min, info.max).astype(dtype)
    out.tofile(path)
    return clipped


def _round_trip(signal, fmt):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.bin"
        clipped = write_samples(signal, path, _meta(fmt))
        return read_samples(path, _meta(fmt)).samples, clipped


finite = st.floats(allow_nan=False, allow_infinity=False)
float32s = st.floats(allow_nan=False, allow_infinity=False, width=32)
unit_interval = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


class TestSampleFileProperties:
    @given(hnp.arrays(np.float32, st.integers(0, 64), elements=float32s))
    def test_float32_real_round_trip_bitwise(self, vals):
        back, _ = _round_trip(_sig(vals.astype(np.float64)), "float32-real")
        assert back.dtype == np.float32
        assert back.tobytes() == vals.tobytes()

    @given(hnp.arrays(np.float32, st.tuples(st.integers(0, 64), st.just(2)),
                      elements=float32s))
    def test_float32_iq_round_trip_bitwise(self, pairs):
        x = pairs.astype(np.float64).view(np.complex128).ravel()
        back, _ = _round_trip(_sig(x), "float32-iq")
        assert back.dtype == np.complex64
        assert back.tobytes() == pairs.tobytes()

    @pytest.mark.parametrize("fmt", ["int8-real", "int16-real",
                                     "int8-iq", "int16-iq"])
    @given(data=st.data())
    def test_integer_round_trip_within_half_lsb(self, fmt, data):
        # Inside the format's range the error is at most half an LSB.
        # Samples that round past the largest code saturate there and are
        # counted as clipped.
        n = data.draw(st.integers(0, 64))
        x = data.draw(hnp.arrays(np.float64, n, elements=unit_interval))
        if fmt.endswith("-iq"):
            x = x + 1j * data.draw(hnp.arrays(np.float64, n,
                                              elements=unit_interval))
        scale = {"int8": 128.0, "int16": 32768.0}[fmt.split("-")[0]]
        top = (scale - 1) / scale
        back, clipped = _round_trip(_sig(x), fmt)
        parts = [(x, back)] if not fmt.endswith("-iq") else [
            (x.real, back.real), (x.imag, back.imag)]
        saturated = 0
        for want, got in parts:
            over = np.round(want * scale) > scale - 1
            saturated += np.count_nonzero(over)
            assert np.all(np.abs(got - want)[~over] <= 0.5 / scale)
            assert np.all(got[over] == top)
        assert clipped == saturated


class TestChunkedWriter:
    @given(fmt=st.sampled_from(sorted(_FORMATS)), data=st.data())
    def test_equals_one_shot_reference(self, fmt, data):
        # [-3, 3] drives the integer formats into clipping
        n = data.draw(st.integers(0, 3 * CHUNK + 5))
        dtypes = [np.float64, np.float32] + (
            [np.complex128, np.complex64] if _FORMATS[fmt][2] else [])
        dtype = np.dtype(data.draw(st.sampled_from(dtypes)))
        values = st.floats(-3.0, 3.0, width=32)
        x = data.draw(hnp.arrays(np.float64, n, elements=values))
        if dtype.kind == "c":
            x = x + 1j * data.draw(hnp.arrays(np.float64, n, elements=values))
        x = x.astype(dtype)
        with tempfile.TemporaryDirectory() as d, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_cli, "_CHUNK_SAMPLES", CHUNK)
            got, want = Path(d) / "chunked.bin", Path(d) / "one_shot.bin"
            assert (write_samples(_sig(x), got, _meta(fmt))
                    == _reference_write(_sig(x), want, _meta(fmt)))
            assert got.read_bytes() == want.read_bytes()


# half-code ties of the int8 and int16 full scales out to 3x full scale:
# float32 values where rounding to a code is decided by half-to-even
half_codes = st.sampled_from([128, 32768]).flatmap(
    lambda scale: st.integers(-3 * scale, 3 * scale).map(
        lambda k: (k + 0.5) / scale))


def _upcast(x):
    return x.astype(np.complex128 if x.dtype.kind == "c" else np.float64)


def _write_both_precisions(x, d, fmt):
    """write_samples on x and on its double-precision upcast: the clip
    counts and the bytes of both files."""
    single, double = Path(d) / "single.bin", Path(d) / "double.bin"
    clips = (write_samples(_sig(x), single, _meta(fmt)),
             write_samples(_sig(_upcast(x)), double, _meta(fmt)))
    return clips, (single.read_bytes(), double.read_bytes())


class TestSinglePrecisionWrite:
    """Single-precision samples are quantised in float32; that must write
    what their float64 upcast writes."""

    @given(fmt=st.sampled_from(sorted(_FORMATS)), data=st.data())
    def test_equals_double_upcast(self, fmt, data):
        n = data.draw(st.integers(0, 3 * CHUNK + 5))
        values = st.floats(-3.0, 3.0, width=32) | half_codes
        x = data.draw(hnp.arrays(np.float32, n, elements=values))
        if _FORMATS[fmt][2] and data.draw(st.booleans()):
            q = data.draw(hnp.arrays(np.float32, n, elements=values))
            x = np.stack([x, q], axis=-1).reshape(-1).view(np.complex64)
        with tempfile.TemporaryDirectory() as d, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_cli, "_CHUNK_SAMPLES", CHUNK)
            (clip32, clip64), (got, want) = _write_both_precisions(x, d, fmt)
        assert clip32 == clip64
        assert got == want

    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    def test_every_tie_and_clip_edge(self, tmp_path, fmt):
        # every half-code tie of both integer scales, every int16 code, the
        # float32 neighbours of the clip edges, and normal samples
        k = np.arange(-32770, 32770)
        edges = np.array([-1.0, 1.0, 32767 / 32768, 127 / 128], np.float32)
        x = np.concatenate([
            (k + 0.5) / 32768, k / 32768, (np.arange(-130, 130) + 0.5) / 128,
            edges, np.nextafter(edges, np.float32(-2)),
            np.nextafter(edges, np.float32(2)),
            np.random.default_rng(3).normal(0.0, 0.6, 1 << 16)]).astype(
                np.float32)
        if _FORMATS[fmt][2]:
            x = np.stack([x, x[::-1]], axis=-1).reshape(-1).view(np.complex64)
        (clip32, clip64), (got, want) = _write_both_precisions(x, tmp_path,
                                                               fmt)
        assert clip32 == clip64
        assert got == want


synth_params = st.builds(
    SynthParams,
    prn_id=st.integers(1, 37), sample_rate=finite, intermediate_freq=finite,
    carrier_freq=finite, amplitude=finite, code_phase0=finite,
    doppler0=finite, doppler_rate=finite,
    data_bits=st.none() | hnp.arrays(np.float64, st.integers(1, 8),
                                     elements=st.sampled_from([1.0, -1.0])),
    bit_phase0=finite, cn0=st.none() | finite, duration=finite,
    seed=st.integers(0, 2 ** 64 - 1))

EXTREMES = SynthParams(
    prn_id=37, sample_rate=1.7976931348623157e308, intermediate_freq=-0.0,
    carrier_freq=5e-324, amplitude=-1.7976931348623157e308,
    code_phase0=2.2250738585072014e-308, doppler0=-0.0, doppler_rate=0.1,
    data_bits=np.array([-1.0, 1.0, -1.0]), bit_phase0=-5e-324, cn0=None,
    duration=1e-3, seed=2 ** 64 - 1)


class TestTruthSidecarProperties:
    @given(st.lists(st.tuples(finite, synth_params), min_size=1, max_size=4))
    @example([(-0.0, EXTREMES), (1.0, SynthParams())])
    def test_synth_params_round_trip(self, epochs):
        signals = [SampledSignal(samples=np.zeros(3), sample_rate=1.0, t0=t,
                                 truth=p) for t, p in epochs]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "x.bin.truth"
            write_truth_sidecar(path, _meta(), signals, epoch_step=1.0)
            header, truths = read_truth_sidecar(path)
        assert header["epoch_count"] == len(epochs)
        for (t, want), truth in zip(epochs, truths):
            assert repr(truth.pop("t")) == repr(t)
            got = SynthParams(**truth)
            for f in fields(SynthParams):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name == "data_bits" and b is not None:
                    assert np.array_equal(a, b)
                else:
                    assert repr(a) == repr(b), f.name


class TestTruthSidecar:
    def test_round_trip(self, tmp_path):
        epochs = []
        for k in range(3):
            p = fast_params(cn0=44.0, duration=2e-3, seed=10 ^ k,
                            doppler0=100.0 * k, code_phase0=7.5,
                            data_bits=np.array([1.0, -1.0]))
            e = synthesize(p)
            e.t0 = float(k)
            epochs.append(e)
        path = tmp_path / "x.bin.truth"
        write_truth_sidecar(path, _meta(), epochs, epoch_step=1.0)
        header, truths = read_truth_sidecar(path)
        assert header["epoch_count"] == 3
        assert header["sample_rate"] == FS_FAST
        assert header["samples_per_epoch"] == 2046
        assert truths[1]["doppler0"] == 100.0
        assert truths[2]["code_phase0"] == 7.5
        assert truths[0]["cn0"] == 44.0
        assert np.array_equal(truths[0]["data_bits"], [1.0, -1.0])

    def test_noneless_fields(self, tmp_path):
        e = synthesize(fast_params(cn0=None, duration=1e-3))
        e.t0 = 0.0
        path = tmp_path / "y.truth"
        write_truth_sidecar(path, _meta(), [e], 1.0)
        _, truths = read_truth_sidecar(path)
        assert truths[0]["cn0"] is None
        assert truths[0]["data_bits"] is None


class TestScenarioConfig:
    def _write(self, tmp_path, **kw):
        cfg = dict(prn_id=1, sample_rate=FS_FAST, intermediate_freq=FIF_FAST,
                   carrier_freq=4.0e8, cn0=47.0, duration=5e-3, seed=3,
                   orbit_height=645e3, elevation_mask=60.0, epoch_step=10.0,
                   strategies=["noncoherent"], total_ms=[5], half_span=2e3)
        cfg.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_load_and_defaults(self, tmp_path):
        config = ScenarioConfig.from_file(self._write(tmp_path))
        assert config.threshold == 2.5
        assert config.base_synth_params().cn0 == 47.0
        assert list(config.run_combos()) == [(pytest.importorskip(
            "leoacq.integrators").Strategy.NON_COHERENT, 5)]

    def test_bad_strategy(self, tmp_path):
        with pytest.raises(ValueError, match="unknown strategy"):
            ScenarioConfig.from_file(self._write(tmp_path, strategies=["fancy"]))

    def test_duration_shorter_than_integration(self, tmp_path):
        with pytest.raises(ValueError, match="shorter"):
            ScenarioConfig.from_file(self._write(tmp_path, total_ms=[40],
                                                 duration=5e-3))

    def test_invalid_combos_skipped(self, tmp_path):
        from leoacq.integrators import Strategy
        config = ScenarioConfig.from_file(self._write(
            tmp_path, strategies=["differential", "alternatehalfbit"],
            total_ms=[1, 20], duration=20e-3))
        combos = list(config.run_combos())
        assert (Strategy.DIFFERENTIAL, 1) not in combos
        assert (Strategy.DIFFERENTIAL, 20) in combos
        assert (Strategy.ALTERNATE_HALF_BIT, 1) not in combos
        assert (Strategy.ALTERNATE_HALF_BIT, 20) in combos

    @pytest.mark.parametrize("command, out_flag",
                             [("duration", "--out"), ("sweep", "--out-dir")])
    @pytest.mark.parametrize("overrides, field_name", [
        (dict(strategies=["coherent", "coherent"]), "strategies"),
        (dict(total_ms=[1, 1]), "total_ms"),
        (dict(total_ms=[5.0]), "total_ms"),
        (dict(total_ms=[0]), "total_ms"),
        (dict(strategies=[]), "strategies"),
        (dict(strategies=["differential"], total_ms=[1]), "total_ms"),
        (dict(strategy=["coherent"]), "strategy"),
        (dict(strategies=[["coherent"]]), "strategies"),
        (dict(total_ms=[[1]]), "total_ms"),
        (dict(threshold="2.5"), "threshold"),
    ])
    def test_bad_lists_exit_two(self, tmp_path, capsys, command, out_flag,
                                overrides, field_name):
        config = self._write(tmp_path, **overrides)
        out = tmp_path / "out"
        assert cli([command, "--config", str(config), out_flag, str(out)]) == 2
        assert field_name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, out_flag",
                             [("duration", "--out"), ("sweep", "--out-dir")])
    @pytest.mark.parametrize("pf_thresholds", [
        [1.0, 6.0, 0.0], [1.0, 6.0, -0.5], [3.0, 2.0, 1.0], [1.0, 1.0], [],
        [1.0, "a"], [1.0, True], [1.0, None], [1.0, float("nan")],
        [1.0, float("inf"), 0.5], [-5.0, 0.0, 2.0], [0.0, 1.0],
        [0.0, 5.0, 1.0],
    ])
    def test_bad_pf_thresholds_exit_two_before_correlating(
            self, tmp_path, capsys, monkeypatch, command, out_flag,
            pf_thresholds):
        calls = []
        monkeypatch.setattr(eval_harness, "process_units",
                            lambda *args, **kwargs: calls.append(args))
        config = self._write(tmp_path, pf_thresholds=pf_thresholds)
        out = tmp_path / "out"
        assert cli([command, "--config", str(config), out_flag, str(out)]) == 2
        assert "pf_thresholds" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command, out_flag", [
        ("synth", "--out"), ("duration", "--out"), ("sweep", "--out-dir")])
    @pytest.mark.parametrize("overrides, field_name", [
        (dict(half_span=float("inf")), "half_span"),
        (dict(half_span=float("nan")), "half_span"),
        (dict(half_span=1e300), "half_span"),  # a plan of 1e297 bins
        (dict(half_span=FS_FAST / 2), "half_span"),  # bins alias past Nyquist
        (dict(half_span=0.0), "half_span"),
        (dict(duration=float("nan")), "duration"),
        (dict(threshold=float("nan")), "threshold"),
        (dict(threshold=float("inf")), "threshold"),
        (dict(threshold=0.0), "threshold"),
        (dict(cn0=float("-inf")), "cn0"),
        (dict(epoch_step=float("nan")), "epoch_step"),
    ])
    def test_bad_numbers_exit_two_before_synthesis_or_plan(
            self, tmp_path, capsys, monkeypatch, command, out_flag,
            overrides, field_name):
        # the calls are recorded, not run: a 1e300 half-span that got through
        # would build its plan until killed
        calls = []
        monkeypatch.setattr(signal_synth, "synthesize",
                            lambda *args, **kwargs: calls.append("synthesize"))
        monkeypatch.setattr(io_cli, "make_plan",
                            lambda *args, **kwargs: calls.append("make_plan"))
        config = self._write(tmp_path, **overrides)
        out = tmp_path / "out"
        assert cli([command, "--config", str(config), out_flag, str(out)]) == 2
        assert field_name in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_overflowing_json_number_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"half_span": 1e400}')  # json reads inf
        with pytest.raises(ValueError, match="half_span must be a finite"):
            ScenarioConfig.from_file(path)

    def test_default_threshold_grid(self):
        grid = ScenarioConfig().threshold_grid()
        assert np.array_equal(grid, np.round(np.arange(1.0, 6.025, 0.05), 10))
        assert len(grid) == 101 and grid[0] == 1.0 and grid[-1] == 6.0

    def test_threshold_grid_forms(self, tmp_path):
        config = ScenarioConfig.from_file(self._write(
            tmp_path, pf_thresholds=[1.0, 3.0, 0.5]))
        assert config.threshold_grid() == pytest.approx(
            [1.0, 1.5, 2.0, 2.5, 3.0])
        config = ScenarioConfig.from_file(self._write(
            tmp_path, pf_thresholds=[1.5, 2.5, 4.0]))
        assert config.threshold_grid() == pytest.approx([1.5, 2.5, 4.0])

    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    def test_positive_thresholds_have_one_reading(self, t):
        # with positive entries at most one reading is valid, and the
        # config takes that one or rejects the list
        as_range = len(t) == 3 and t[2] < t[1] - t[0]
        as_list = all(a < b for a, b in zip(t, t[1:]))
        assert not (as_range and as_list)
        if not (as_range or as_list):
            with pytest.raises(ValueError, match="pf_thresholds"):
                ScenarioConfig(pf_thresholds=t)
            return
        grid = ScenarioConfig(pf_thresholds=t).threshold_grid()
        if as_list:
            assert grid.tolist() == t
        else:
            assert grid[0] == round(t[0], 10) and np.all(np.diff(grid) > 0)
            assert grid[-1] <= t[1] + t[2] / 2


@pytest.fixture(scope="module")
def strong_config(tmp_path_factory):
    # a tiny, strong, high-elevation pass: a few epochs, fast to synthesize
    path = tmp_path_factory.mktemp("cfg") / "scenario.json"
    path.write_text(json.dumps(dict(
        prn_id=5, sample_rate=FS_FAST, intermediate_freq=FIF_FAST,
        carrier_freq=4.0e8, cn0=50.0, duration=5e-3, seed=11,
        orbit_height=645e3, elevation_mask=85.0, epoch_step=5.0,
        strategies=["coherent", "noncoherent"], total_ms=[1, 5],
        half_span=2e3, pf_thresholds=[1.0, 5.0, 0.25])))
    return str(path)


def _config_with(path, data_bits) -> ScenarioConfig:
    return replace(ScenarioConfig.from_file(path), data_bits=data_bits)


class TestPassWrite:
    @pytest.mark.parametrize("data_bits", ["ones", "random"])
    def test_pass_epochs_are_rows_of_one_array(self, strong_config, data_bits):
        config = _config_with(strong_config, data_bits)
        epochs = pass_epochs(config)
        want = list(synthesize_pass_signal(
            config.scenario(), config.base_synth_params(),
            random_bits=data_bits == "random"))
        rows = epochs[0].samples.base
        assert rows.shape == (len(want), len(want[0].samples))
        assert rows.dtype == np.float32
        assert rows.flags.c_contiguous
        for k, (got, ref) in enumerate(zip(epochs, want)):
            assert got.samples.base is rows
            assert np.shares_memory(got.samples, rows[k])
            # the synthesized float64 epoch, rounded once to float32
            assert (got.samples.tobytes()
                    == ref.samples.astype(np.float32).tobytes())
            assert got.t0 == ref.t0

    @pytest.mark.parametrize("data_bits", ["ones", "random"])
    def test_sidecar_bytes_equal_asdict_reference(self, strong_config,
                                                  tmp_path, data_bits):
        config = _config_with(strong_config, data_bits)
        epochs = pass_epochs(config)
        meta = SampleFileMeta(config.sample_rate, config.intermediate_freq,
                              t0=epochs[0].t0)
        path = tmp_path / "pass.bin.truth"
        write_truth_sidecar(path, meta, epochs, epoch_step=config.epoch_step)
        reference = {**asdict(meta), "epoch_step": config.epoch_step,
                     "samples_per_epoch": len(epochs[0].samples),
                     "epoch_count": len(epochs),
                     "epochs": [{"t": e.t0, **asdict(e.truth)} for e in epochs]}
        assert path.read_bytes() == json.dumps(
            reference, default=np.ndarray.tolist).encode()

    @pytest.mark.parametrize("fmt", ["int16-real", "float32-iq"])
    def test_synth_file_equals_concatenated_one_shot_write(
            self, strong_config, tmp_path, monkeypatch, capsys, fmt):
        # 1000-sample chunks straddle the 5115-sample epochs
        monkeypatch.setattr(io_cli, "_CHUNK_SAMPLES", 1000)
        out = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config, "--out", str(out),
                    "--format", fmt]) == 0
        config = ScenarioConfig.from_file(strong_config)
        epochs = synthesize_pass_signal(config.scenario(),
                                        config.base_synth_params())
        ref = tmp_path / "ref.bin"
        clipped = _reference_write(
            _sig(np.concatenate([e.samples.astype(np.float32)
                                 for e in epochs])), ref, _meta(fmt))
        assert out.read_bytes() == ref.read_bytes()
        assert (f"[{clipped} samples clipped]" in capsys.readouterr().out) \
            == (clipped > 0)

    def test_synth_refuses_to_copy_separate_epochs(self, strong_config,
                                                   tmp_path, monkeypatch):
        def separate(config):
            return [replace(e, samples=e.samples.copy())
                    for e in pass_epochs(config)]

        monkeypatch.setattr(io_cli, "pass_epochs", separate)
        with pytest.raises(RuntimeError, match="rows of one"):
            cli(["synth", "--config", strong_config,
                 "--out", str(tmp_path / "pass.bin")])

    def test_synth_bad_format_exits_two_before_synthesizing(
            self, strong_config, tmp_path, monkeypatch, capsys):
        calls = []
        synthesize = signal_synth.synthesize

        def counted(*args, **kwargs):
            calls.append(1)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(signal_synth, "synthesize", counted)
        out = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config, "--out", str(out),
                    "--format", "bogus"]) == 2
        assert "unknown sample format 'bogus'" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the allocations tracemalloc traced while it
    ran, numpy buffers included, above what was held before the call."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestWriteMemory:
    """A full-pass temporary in the write path fails these, not only the
    benchmark's peak RSS."""

    def test_synth_holds_the_pass_about_once(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "sample_rate": FS_FAST, "intermediate_freq": FIF_FAST,
            "epoch_step": 10.0, "sample_format": "int16-real"}))
        config = ScenarioConfig.from_file(path)
        pass_bytes = (len(config.scenario().samples)
                      * round(config.duration * config.sample_rate) * 4)
        rc, peak = _traced_peak(cli, ["synth", "--config", str(path),
                                      "--out", str(tmp_path / "pass.bin")])
        assert rc == 0
        # the float32 pass plus one epoch's synthesis and one write chunk;
        # a float64 pass alone is twice pass_bytes
        assert peak < 1.5 * pass_bytes

    def test_write_samples_temporaries_are_chunk_sized(self, tmp_path):
        x = np.random.default_rng(0).normal(0.0, 0.5, 1 << 22)  # 33.5 MB
        _, peak = _traced_peak(write_samples, _sig(x), tmp_path / "x.bin",
                               _meta("int16-real"))
        assert peak < 8e6


class TestCli:
    def test_help_exits_zero(self, capsys):
        assert cli(["synth", "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_flag_exits_one(self, capsys):
        assert cli(["synth", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_one(self, capsys):
        assert cli([]) == 1

    def test_pass_csv_stdout(self, strong_config, capsys):
        assert cli(["pass", "--config", strong_config]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t_s,range_m,elev_deg,")
        assert len(out.strip().split("\n")) > 3

    def test_pass_csv_file_bytes(self, strong_config, tmp_path):
        out = tmp_path / "pass.csv"
        assert cli(["pass", "--config", strong_config, "--out", str(out)]) == 0
        samples = ScenarioConfig.from_file(strong_config).scenario().samples
        s = samples[1]
        lines = out.read_bytes().split(b"\n")
        assert lines[0] == (b"t_s,range_m,elev_deg,vrad_mps,doppler_hz,"
                            b"doppler_rate_hzps,path_loss_db")
        assert lines[2] == (f"{s.t!r},{s.range_m!r},{s.elevation_deg!r},"
                            f"{s.radial_velocity!r},{s.doppler!r},"
                            f"{s.doppler_rate!r},{s.path_loss_db!r}").encode()
        assert len(lines) == len(samples) + 2 and lines[-1] == b""

    def test_single_epoch_pass_exits_two(self, strong_config, tmp_path,
                                         capsys):
        config = tmp_path / "one_epoch.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "elevation_mask": 80.0, "epoch_step": 60.0}))
        assert cli(["duration", "--config", str(config),
                    "--out", str(tmp_path / "d.csv")]) == 2
        err = capsys.readouterr().err
        assert "epoch_step" in err and "elevation_mask" in err
        assert "at least two epochs" in err

    def test_synth_acquire_end_to_end(self, strong_config, tmp_path, capsys):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        capsys.readouterr()
        out_csv = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", samples, "--strategy", "coherent",
                    "--total-ms", "5", "--half-span", "2000",
                    "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == ("t_s,strategy,total_ms,doppler_hz,"
                            "code_phase_samples,mtsmr,mtmr,decided,ok")
        rows = [l.split(",") for l in lines[1:]]
        assert all(r[7] == "1" for r in rows)  # strong signal: all decided
        assert all(r[8] == "1" for r in rows)  # and all correct

    def test_acquire_all_zero_file_decides_nothing(self, strong_config,
                                                   tmp_path, capsys):
        # no signal and no noise: every grid is zero, every indicator nan
        config = tmp_path / "silent.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "amplitude": 0.0, "cn0": None}))
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", str(config), "--out", samples]) == 0
        assert not np.fromfile(samples, dtype="<f4").any()
        out_csv = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", samples, "--total-ms", "5",
                    "--half-span", "2000", "--out", str(out_csv)]) == 0
        rows = [l.split(",") for l in
                out_csv.read_text().strip().split("\n")[1:]]
        assert rows and all(r[5:] == ["nan", "nan", "0", "0"] for r in rows)
        assert "decided 0.0 s" in capsys.readouterr().err

    def test_acquire_noncoherent_decides_strong_epochs(self, strong_config,
                                                       tmp_path, capsys):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        capsys.readouterr()
        out_csv = tmp_path / "timeline_nc.csv"
        assert cli(["acquire", "--samples", samples, "--strategy", "noncoherent",
                    "--total-ms", "5", "--half-span", "2000",
                    "--out", str(out_csv)]) == 0
        rows = [l.split(",") for l in
                out_csv.read_text().strip().split("\n")[1:]]
        assert all(r[7] == "1" for r in rows)

    def test_acquire_nonfinite_sample_exits_two(self, strong_config, tmp_path,
                                                capsys):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        raw = np.fromfile(samples, dtype="<f4")
        raw[5] = np.nan
        raw.tofile(samples)
        capsys.readouterr()
        out = tmp_path / "t.csv"
        assert cli(["acquire", "--samples", samples, "--out", str(out)]) == 2
        assert f"{samples}: sample 5 is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_acquire_truncated_exits_two(self, strong_config, tmp_path, capsys):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        with open(samples, "ab") as f:
            f.write(b"\x01")
        capsys.readouterr()
        assert cli(["acquire", "--samples", samples]) == 2
        assert "byte" in capsys.readouterr().err

    def test_acquire_reads_only_the_span(self, strong_config, tmp_path,
                                         capsys, monkeypatch):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        counts, timelines = [], []
        read = io_cli.read_samples
        for whole_epochs in (False, True):
            def recorded(path, meta, offset, count):
                counts.append(count)
                return read(path, meta, offset=offset,
                            count=5115 if whole_epochs else count)

            monkeypatch.setattr(io_cli, "read_samples", recorded)
            out = tmp_path / f"timeline{whole_epochs}.csv"
            assert cli(["acquire", "--samples", samples, "--total-ms", "2",
                        "--half-span", "2000", "--out", str(out)]) == 0
            timelines.append(out.read_bytes())
        assert set(counts) == {2 * 1023}  # of 5 ms (5115-sample) epochs
        assert timelines[0] == timelines[1]

    def test_acquire_span_longer_than_epochs_exits_two(self, strong_config,
                                                       tmp_path, capsys):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        capsys.readouterr()
        assert cli(["acquire", "--samples", samples, "--total-ms", "6"]) == 2
        assert "too short" in capsys.readouterr().err

    def test_acquire_file_short_of_whole_samples_exits_two(
            self, strong_config, tmp_path, capsys):
        # the missing samples are past the span that acquire reads
        samples = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config,
                    "--out", str(samples)]) == 0
        samples.write_bytes(samples.read_bytes()[:-4])  # one float32 sample
        capsys.readouterr()
        assert cli(["acquire", "--samples", str(samples)]) == 2
        assert "fewer than" in capsys.readouterr().err

    def test_acquire_sidecar_without_epochs_exits_two(self, strong_config,
                                                      tmp_path, capsys):
        samples = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config,
                    "--out", str(samples)]) == 0
        sidecar = Path(str(samples) + ".truth")
        sidecar.write_text(json.dumps(
            {**json.loads(sidecar.read_text()), "epochs": []}))
        capsys.readouterr()
        assert cli(["acquire", "--samples", str(samples)]) == 2
        assert "no epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, field_name", [
        (lambda r: [], "not a JSON object"),
        (lambda r: {**r, "epochs": [5]}, "epoch 0"),
        (lambda r: {**r, "epochs": 5}, "epochs"),
        (lambda r: {**r, "sample_rate": "x"}, "sample_rate"),
        (lambda r: {**r, "intermediate_freq": None}, "intermediate_freq"),
        (lambda r: {**r, "t0": True}, "t0"),
        (lambda r: {**r, "samples_per_epoch": 5115.0}, "samples_per_epoch"),
        (lambda r: {**r, "format": ["float32-real"]}, "format"),
        (lambda r: {k: v for k, v in r.items() if k != "sample_rate"},
         "sample_rate"),
        (lambda r: {**r, "epochs": [{**r["epochs"][0], "doppler0": "x"}]},
         "doppler0"),
        (lambda r: {**r, "epoch_count": len(r["epochs"]) + 1}, "epoch_count"),
        (lambda r: {**r, "epoch_count": len(r["epochs"]) - 1}, "epoch_count"),
    ], ids=["list", "epoch-int", "epochs-int", "sample_rate-str",
            "intermediate_freq-null", "t0-bool", "samples_per_epoch-float",
            "format-list", "sample_rate-missing", "doppler0-str",
            "epoch_count-more", "epoch_count-fewer"])
    def test_acquire_malformed_sidecar_exits_two(
            self, strong_config, tmp_path, capsys, edit, field_name):
        samples = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config,
                    "--out", str(samples)]) == 0
        sidecar = Path(str(samples) + ".truth")
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        with pytest.raises(SampleFileError, match=field_name):
            read_truth_sidecar(sidecar)
        capsys.readouterr()
        assert cli(["acquire", "--samples", str(samples)]) == 2
        assert field_name in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, total_ms", [
        ("coherent", 1), ("noncoherent", 5), ("differential", 2)])
    def test_acquire_equals_run_span_over_the_pass(
            self, strong_config, tmp_path, capsys, strategy, total_ms):
        # a float32 file holds the pass bit for bit, so acquiring it back
        # takes the one path to the acquisitions of the in-memory pass
        config = ScenarioConfig.from_file(strong_config)
        config = replace(config, elevation_mask=60.0, epoch_step=6.0)
        path = tmp_path / "pass.json"
        path.write_text(json.dumps(asdict(config)))
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", str(path), "--out", samples]) == 0
        out = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", samples, "--strategy", strategy,
                    "--total-ms", str(total_ms), "--half-span", "2000",
                    "--out", str(out)]) == 0
        rows = [line.split(",")[3:8]
                for line in out.read_text().splitlines()[1:]]
        spec = IntegrationSpec(Strategy(strategy), total_ms)
        plan = make_plan(config.intermediate_freq, config.half_span, total_ms)
        want = [[str(float(r.doppler_hat)), str(r.code_phase_hat),
                 str(float(r.mtsmr)), str(float(r.mtmr)), str(int(r.decided))]
                for (r,) in run_span(pass_epochs(config),
                                     generate_code(config.prn_id), plan,
                                     [spec], config.threshold)]
        assert len(want) == 17 and rows == want

    def test_duration_bytes_do_not_depend_on_threads(self, strong_config,
                                                     tmp_path, capsys):
        # paper profile, every strategy at 20 ms, in 1 or 3 row bands
        config = tmp_path / "paper.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "sample_rate": FS_FULL, "intermediate_freq": FIF_FULL,
            "duration": 0.02, "total_ms": [20], "half_span": 500.0,
            "strategies": ["coherent", "noncoherent", "preguess",
                           "differential", "alternatehalfbit"]}))
        outputs = []
        for cores in (1, 3):
            out = tmp_path / f"duration{cores}.csv"
            with row_bands(cores):
                assert cli(["duration", "--config", str(config),
                            "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 6

    def test_acquire_missing_sidecar_exits_two(self, tmp_path, capsys):
        path = tmp_path / "lonely.bin"
        path.write_bytes(b"\x00" * 16)
        assert cli(["acquire", "--samples", str(path)]) == 2

    def test_sweep_outputs(self, strong_config, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert cli(["sweep", "--config", strong_config,
                    "--out-dir", str(out_dir)]) == 0
        pf = (out_dir / "pf_curve.csv").read_text()
        assert pf.startswith("threshold,pf,miss_rate,false_alarm_rate\n")
        bounds = (out_dir / "bounds.csv").read_text()
        assert bounds.startswith("strategy,total_ms,lower,upper\n")
        assert (out_dir / "pf_curve_coherent_1ms.csv").exists()
        assert (out_dir / "pf_curve_noncoherent_5ms.csv").exists()

    def test_duration_outputs(self, strong_config, tmp_path, capsys):
        out = tmp_path / "duration.csv"
        assert cli(["duration", "--config", strong_config,
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "strategy,total_ms,success_s,decided_s"
        assert len(lines) == 5  # 2 strategies x 2 durations

    def test_sweep_unreachable_target_bounds_none(self, strong_config,
                                                  tmp_path, capsys):
        # no epoch reaches an MTSMR of 1000, so every correct epoch is a
        # miss and pf stays above the target at both thresholds
        config = tmp_path / "high_thresholds.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "pf_thresholds": [1e3, 2e3]}))
        out_dir = tmp_path / "sweep"
        assert cli(["sweep", "--config", str(config), "--out-dir",
                    str(out_dir), "--pf-target", "0.1"]) == 0
        assert (out_dir / "bounds.csv").read_bytes() == (
            b"strategy,total_ms,lower,upper\n"
            b"coherent,1,none,none\ncoherent,5,none,none\n"
            b"noncoherent,1,none,none\nnoncoherent,5,none,none\n")
        rows = [line.split(",") for line in
                (out_dir / "pf_curve.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["1000.0", "2000.0"]
        assert all(r[1] == r[2] and r[3] == "0.0" for r in rows)

    @pytest.mark.parametrize("command, out_flag",
                             [("duration", "--out"), ("sweep", "--out-dir")])
    def test_each_epoch_correlated_once_per_span(self, strong_config, tmp_path,
                                                 monkeypatch, capsys, command,
                                                 out_flag):
        calls = []
        process_units = eval_harness.process_units

        def counted(*args, **kwargs):
            calls.append(1)
            return process_units(*args, **kwargs)

        monkeypatch.setattr(eval_harness, "process_units", counted)
        assert cli([command, "--config", strong_config,
                    out_flag, str(tmp_path / "out")]) == 0
        config = ScenarioConfig.from_file(strong_config)
        spans = {t_ms for _, t_ms in config.run_combos()}
        assert len(calls) == len(config.scenario().samples) * len(spans)

    @pytest.mark.parametrize("command", ["duration", "acquire"])
    def test_one_unit_block_per_span(self, strong_config, tmp_path,
                                     monkeypatch, capsys, command):
        # One buffer of unit grids and one mixing table per span, and one
        # process_units call per (epoch, block of Doppler rows).  Blocks
        # of 16 rows split the 5 ms plan (41 bins) into 16, 16 and 9 rows
        # and leave the 1 ms plan (9 bins) whole; the outputs are those of
        # whole plans.
        samples = str(tmp_path / "pass.bin")
        if command == "acquire":
            assert cli(["synth", "--config", strong_config,
                        "--out", samples]) == 0
            argv = ["acquire", "--samples", samples, "--total-ms", "5",
                    "--half-span", "2000", "--out"]
            spans = [5]
        else:
            argv = ["duration", "--config", strong_config, "--out"]
            spans = [1, 5]
        assert cli(argv + [str(tmp_path / "whole.csv")]) == 0
        calls = []
        process_units = eval_harness.process_units

        def recorded(signal, code, plan, count=None, out=None, table=None):
            calls.append((count, len(plan.bins), out, table))
            return process_units(signal, code, plan, count=count, out=out,
                                 table=table)

        monkeypatch.setattr(eval_harness, "process_units", recorded)
        with block_rows(16, 1023):
            assert cli(argv + [str(tmp_path / "blocks.csv")]) == 0
        assert ((tmp_path / "blocks.csv").read_bytes()
                == (tmp_path / "whole.csv").read_bytes())
        config = ScenarioConfig.from_file(strong_config)
        epochs = len(config.scenario().samples)
        heights = {1: [9], 5: [16, 16, 9]}
        assert [(count, rows) for count, rows, _, _ in calls] == [
            (t_ms, rows) for t_ms in spans for _ in range(epochs)
            for rows in heights[t_ms]]
        start = 0
        for t_ms in spans:
            span = calls[start:start + epochs * len(heights[t_ms])]
            start += len(span)
            buffer, table = span[0][2].base, span[0][3].base
            assert buffer.size == t_ms * heights[t_ms][0] * 1023
            assert all(out.base is buffer and tab.base is table
                       for _, _, out, tab in span)
        assert start == len(calls)

    def test_pipeline_determinism(self, strong_config, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli(["sweep", "--config", strong_config, "--out-dir", str(d1)]) == 0
        assert cli(["sweep", "--config", strong_config, "--out-dir", str(d2)]) == 0
        for name in ("pf_curve.csv", "bounds.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_override_changes_output(self, strong_config, tmp_path, capsys):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        assert cli(["sweep", "--config", strong_config, "--out-dir", str(d1),
                    "--seed", "1"]) == 0
        assert cli(["sweep", "--config", strong_config, "--out-dir", str(d2),
                    "--seed", "2"]) == 0
        assert ((d1 / "pf_curve.csv").read_bytes()
                != (d2 / "pf_curve.csv").read_bytes())

    def test_acquire_old_key_value_sidecar_exits_two(self, strong_config,
                                                     tmp_path, capsys):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        with open(samples + ".truth", "w") as f:
            f.write("format=float32-real\nsample_rate=1023000.0\n")
        capsys.readouterr()
        assert cli(["acquire", "--samples", samples]) == 2
        assert samples + ".truth" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field_name", [
        ("--half-span", "inf", "half_span"),
        ("--half-span", "nan", "half_span"),
        ("--half-span", "1e300", "half_span"),
        ("--half-span", str(FS_FAST / 2), "half_span"),
        ("--half-span", "-1", "half_span"),
        ("--threshold", "nan", "threshold"),
        ("--threshold", "inf", "threshold"),
        ("--threshold", "0", "threshold"),
    ])
    def test_acquire_bad_search_exits_two_before_reading(
            self, strong_config, tmp_path, capsys, monkeypatch, flag, value,
            field_name):
        samples = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config,
                    "--out", str(samples)]) == 0
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(io_cli, "make_plan",
                            lambda *args, **kwargs: calls.append("make_plan"))
        monkeypatch.setattr(io_cli, "read_samples",
                            lambda *args, **kwargs: calls.append("read"))
        out = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", str(samples), flag, value,
                    "--out", str(out)]) == 2
        assert field_name in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("strategy, total_ms, reason", [
        ("alternatehalfbit", "10", "multiple of 20"),
        ("differential", "1", "at least two"),
    ])
    def test_acquire_undefined_span_exits_two(self, strong_config, tmp_path,
                                              capsys, strategy, total_ms,
                                              reason):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        capsys.readouterr()
        assert cli(["acquire", "--samples", samples, "--strategy", strategy,
                    "--total-ms", total_ms]) == 2
        assert reason in capsys.readouterr().err

    def test_bad_config_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ("{not json", "[1, 2]"):
            bad.write_text(text)
            assert cli(["pass", "--config", str(bad)]) == 2
