"""Sample-file I/O, scenario config, and CLI tests."""

import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from leoacq import acq_core, eval_harness, io_cli, prn_code, signal_synth
from leoacq.acq_core import make_plan
from leoacq.detector import AcqResult
from leoacq.eval_harness import COLUMNS, run_span
from leoacq.integrators import IntegrationSpec, Strategy
from leoacq.io_cli import (_FORMATS, SampleFileError, SampleFileMeta,
                           ScenarioConfig, cli, pass_epochs, read_samples,
                           read_truth_sidecar, write_samples,
                           write_truth_sidecar)
from leoacq.prn_code import CHIP_RATE, generate_code
from leoacq.signal_synth import (SampledSignal, SynthParams, synthesize,
                                 synthesize_pass_signal)

from conftest import (FS_FAST, FIF_FAST, FS_FULL, FIF_FULL,
                      assert_acquires_as, block_rows, fast_params, no_pool,
                      row_bands)


def _pop_result(row):
    """Take the AcqResult out of a row of acquire's table, by column name."""
    return AcqResult(*(float(row.pop(c)) for c in COLUMNS[3:8]))


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
        dtype, scale = _FORMATS[fmt]
        if scale is None:
            raw = np.random.default_rng(5).normal(size=512).astype(dtype)
        else:
            info = np.iinfo(dtype)
            raw = np.arange(info.min, info.max + 1).astype(dtype)
        path = tmp_path / "x.bin"
        raw.tofile(path)
        back = read_samples(path, _meta(fmt)).samples
        assert back.dtype == np.float32
        assert np.array_equal(back, raw.astype(np.float64) / (scale or 1.0))

    def test_int8_quantization_bound(self, code1, tmp_path):
        sig = synthesize(fast_params(cn0=None, duration=1e-3), code1)
        path = tmp_path / "i8.bin"
        write_samples(sig, path, _meta("int8-real"))
        back = read_samples(path, _meta("int8-real"))
        assert np.abs(back.samples - sig.samples).max() <= 1.0 / 127.0

    def test_clip_count_reported(self, code1, tmp_path):
        sig = synthesize(fast_params(cn0=None, duration=1e-3, amplitude=2.0),
                         code1)
        clipped = write_samples(sig, tmp_path / "clip.bin", _meta("int8-real"))
        assert clipped > 0

    def test_empty_signal_is_valid(self, tmp_path):
        path = tmp_path / "empty.bin"
        assert write_samples(_sig(np.zeros(0)), path, _meta()) == 0
        assert path.stat().st_size == 0
        assert len(read_samples(path, _meta()).samples) == 0

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
        # the message names the config field, as every field rule's does
        with pytest.raises(SampleFileError,
                           match="^sample_format: unknown sample format"):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_read_rejected(self, tmp_path, bad):
        # sample 5 holds the bad value; reads that cover it fail naming the
        # file and the sample, others do not
        raw = np.arange(16, dtype="<f4")
        raw[5] = bad
        path = tmp_path / "x.bin"
        raw.tofile(path)
        for offset, count in [(0, None), (3, 4), (5, 1)]:
            with pytest.raises(SampleFileError,
                               match=rf"x\.bin: sample 5 is not finite"):
                read_samples(path, _meta(), offset=offset, count=count)
        for offset, count in [(0, 5), (6, None)]:
            back = read_samples(path, _meta(), offset=offset, count=count)
            assert np.isfinite(back.samples).all()


def _reference_write(signal, path, meta) -> int:
    """write_samples as a one-shot quantiser: the whole signal at once."""
    dtype, scale = _FORMATS[meta.format]
    flat = np.asarray(signal.samples).astype(np.float64)
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


float32s = st.floats(allow_nan=False, allow_infinity=False, width=32)
unit_interval = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


class TestSampleFileProperties:
    @given(hnp.arrays(np.float32, st.integers(0, 64), elements=float32s))
    def test_float32_real_round_trip_bitwise(self, vals):
        back, _ = _round_trip(_sig(vals.astype(np.float64)), "float32-real")
        assert back.dtype == np.float32
        assert back.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("fmt", ["int8-real", "int16-real"])
    @given(data=st.data())
    def test_integer_round_trip_within_half_lsb(self, fmt, data):
        # Inside the format's range the error is at most half an LSB.
        # Samples that round past the largest code saturate there and are
        # counted as clipped.
        n = data.draw(st.integers(0, 64))
        x = data.draw(hnp.arrays(np.float64, n, elements=unit_interval))
        scale = _FORMATS[fmt][1]
        back, clipped = _round_trip(_sig(x), fmt)
        over = np.round(x * scale) > scale - 1
        assert np.all(np.abs(back - x)[~over] <= 0.5 / scale)
        assert np.all(back[over] == (scale - 1) / scale)
        assert clipped == np.count_nonzero(over)


class TestChunkedWriter:
    @given(fmt=st.sampled_from(sorted(_FORMATS)), data=st.data())
    def test_equals_one_shot_reference(self, fmt, data):
        # [-3, 3] drives the integer formats into clipping
        n = data.draw(st.integers(0, 3 * CHUNK + 5))
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        values = st.floats(-3.0, 3.0, width=32)
        x = data.draw(hnp.arrays(np.float64, n, elements=values)).astype(dtype)
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


def _write_both_precisions(x, d, fmt):
    """write_samples on x and on its double-precision upcast: the clip
    counts and the bytes of both files."""
    single, double = Path(d) / "single.bin", Path(d) / "double.bin"
    clips = (write_samples(_sig(x), single, _meta(fmt)),
             write_samples(_sig(x.astype(np.float64)), double, _meta(fmt)))
    return clips, (single.read_bytes(), double.read_bytes())


class TestSinglePrecisionWrite:
    """Single-precision samples are quantised in float32; that must write
    what their float64 upcast writes."""

    @given(fmt=st.sampled_from(sorted(_FORMATS)), data=st.data())
    def test_equals_double_upcast(self, fmt, data):
        n = data.draw(st.integers(0, 3 * CHUNK + 5))
        values = st.floats(-3.0, 3.0, width=32) | half_codes
        x = data.draw(hnp.arrays(np.float32, n, elements=values))
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
        (clip32, clip64), (got, want) = _write_both_precisions(x, tmp_path,
                                                               fmt)
        assert clip32 == clip64
        assert got == want


class TestTruthSidecar:
    # Passes of 1 ms epochs over masks and steps that keep them under about
    # 60 epochs.
    @given(seed=st.integers(0, 2 ** 64 - 1),
           data_bits=st.sampled_from(["ones", "random"]),
           cn0=st.none() | st.floats(20.0, 60.0),
           elevation_mask=st.floats(30.0, 89.9),
           epoch_step=st.floats(5.0, 600.0))
    def test_epochs_are_the_synthesized_truths(self, seed, data_bits, cn0,
                                               elevation_mask, epoch_step):
        config = ScenarioConfig(
            prn_id=5, sample_rate=FS_FAST, intermediate_freq=FIF_FAST,
            duration=1e-3, seed=seed, data_bits=data_bits, cn0=cn0,
            elevation_mask=elevation_mask, epoch_step=epoch_step)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "x.bin.truth"
            write_truth_sidecar(path, config)
            header, epochs = read_truth_sidecar(path)
        want = [(e.t0, e.truth) for e in pass_epochs(config)]
        assert header == {"format": "float32-real", "sample_rate": FS_FAST,
                          "intermediate_freq": FIF_FAST,
                          "epoch_step": epoch_step, "samples_per_epoch": 1023,
                          "epoch_count": len(want)}
        assert len(epochs) == len(want)
        for epoch, (t0, truth) in zip(epochs, want):
            assert repr(epoch.pop("t")) == repr(t0)
            got = SynthParams(**epoch)
            for f in fields(SynthParams):
                a, b = getattr(got, f.name), getattr(truth, f.name)
                if f.name == "data_bits" and b is not None:
                    assert np.array_equal(a, b)
                else:
                    assert repr(a) == repr(b), f.name

    def test_round_trip(self, tmp_path):
        # three epochs of a 70 deg mask at a 20 s step, closest in the middle
        config = ScenarioConfig(
            sample_rate=FS_FAST, intermediate_freq=FIF_FAST, cn0=44.0,
            duration=2e-3, seed=10, data_bits="random", elevation_mask=70.0,
            epoch_step=20.0)
        path = tmp_path / "x.bin.truth"
        write_truth_sidecar(path, config)
        header, truths = read_truth_sidecar(path)
        assert header["epoch_count"] == len(truths) == 3
        assert header["sample_rate"] == FS_FAST
        assert header["samples_per_epoch"] == 2046
        assert [e["t"] - truths[0]["t"] for e in truths] == [0.0, 20.0, 40.0]
        assert truths[1]["cn0"] == 44.0
        assert truths[0]["cn0"] == truths[2]["cn0"] < 44.0
        assert truths[1]["doppler0"] == 0.0
        assert truths[0]["doppler0"] == -truths[2]["doppler0"] > 0.0
        for e in truths:
            assert e["prn_id"] == 1 and e["duration"] == 2e-3
            assert e["data_bits"].shape == (2,)
            assert set(np.abs(e["data_bits"])) == {1.0}

    def test_noneless_fields(self, tmp_path):
        config = ScenarioConfig(
            sample_rate=FS_FAST, intermediate_freq=FIF_FAST, cn0=None,
            duration=1e-3, elevation_mask=80.0, epoch_step=60.0)
        path = tmp_path / "y.truth"
        write_truth_sidecar(path, config)
        _, truths = read_truth_sidecar(path)
        assert len(truths) == 1
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

    def test_epoch_a_few_samples_short_of_the_span(self, tmp_path):
        # 0.02 s at 4.0919 MHz is 81,838 samples; 20 code periods need
        # 81,840, though duration equals max(total_ms) / 1e3
        with pytest.raises(ValueError, match="shorter.*81840 samples"):
            ScenarioConfig.from_file(self._write(
                tmp_path, sample_rate=4.0919e6, intermediate_freq=1.25e6,
                strategies=["coherent"], total_ms=[20], duration=0.02))
        config = ScenarioConfig.from_file(self._write(
            tmp_path, sample_rate=4.0919e6, intermediate_freq=1.25e6,
            strategies=["coherent"], total_ms=[20], duration=0.0201))
        assert config.duration == 0.0201

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
        (dict(total_ms=[True]), "total_ms"),  # a bool is not a span
        (dict(total_ms=[0]), "total_ms"),
        (dict(strategies=[]), "strategies"),
        (dict(strategies=["differential"], total_ms=[1]), "total_ms"),
        (dict(strategy=["coherent"]), "strategy"),
        (dict(strategies=[["coherent"]]), "strategies"),
        (dict(total_ms=[[1]]), "total_ms"),
        (dict(threshold="2.5"), "threshold"),
    ])
    def test_bad_lists_exit_two(self, tmp_path, capsys, monkeypatch, command,
                                out_flag, overrides, field_name):
        calls = []
        monkeypatch.setattr(signal_synth, "synthesize",
                            lambda *args, **kwargs: calls.append("synthesize"))
        monkeypatch.setattr(eval_harness, "process_units",
                            lambda *args, **kwargs: calls.append("correlate"))
        config = self._write(tmp_path, **overrides)
        out = tmp_path / "out"
        assert cli([command, "--config", str(config), out_flag, str(out)]) == 2
        assert field_name in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command, out_flag",
                             [("duration", "--out"), ("sweep", "--out-dir")])
    @pytest.mark.parametrize("pf_thresholds", [
        [1.0, 6.0, 0.0], [1.0, 6.0, -0.5], [3.0, 2.0, 1.0], [1.0, 1.0], [],
        [1.0, "a"], [1.0, True], [1.0, None], [1.0, float("nan")],
        [1.0, float("inf"), 0.5], [-5.0, 0.0, 2.0], [0.0, 1.0],
        [0.0, 5.0, 1.0], [1.5, 2.5], [1.0, 2.0, 3.0, 4.0],
        [1.0, 1e9, 1e-3],  # 1e12 thresholds
        [1.0, 1.000000001, 1e-11],  # 101 thresholds, 11 distinct
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
        ("synth", "--out"), ("duration", "--out"), ("sweep", "--out-dir"),
        ("pass", "--out")])
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
        (dict(carrier_freq=0.0), "carrier_freq"),  # -inf path loss
        (dict(carrier_freq=-1.5e9), "carrier_freq"),  # nan path loss
        (dict(amplitude=0.0, cn0=None), "amplitude"),  # an all-zero pass
        (dict(amplitude=-1.0), "amplitude"),
        (dict(seed=-1), "seed"),
        (dict(sample_rate=0.0), "sample_rate"),
        (dict(sample_rate=-1.023e6), "sample_rate"),
        (dict(intermediate_freq=0.0), "intermediate_freq"),
        (dict(intermediate_freq=-2.5e5), "intermediate_freq"),
        (dict(intermediate_freq=6e5), "intermediate_freq"),  # past Nyquist
        (dict(code_phase0=float("nan")), "code_phase0"),
        (dict(code_phase0=float("inf")), "code_phase0"),
        (dict(code_phase0=float("-inf")), "code_phase0"),
        (dict(bit_phase0=float("nan")), "bit_phase0"),
        (dict(duration=0.0), "duration"),  # under one sample
        (dict(duration=-1e-3), "duration"),
        (dict(data_bits="zeros"), "data_bits"),
        # the pass geometry's rules, checked when the config loads
        (dict(orbit_height=100e3), "orbit_height"),
        (dict(elevation_mask=90.0), "elevation_mask"),
        (dict(epoch_step=0.0), "epoch_step"),
        (dict(cross_track_offset_deg=60.0), "cross_track_offset_deg"),
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

    def test_threshold_grid_is_the_range(self, tmp_path):
        config = ScenarioConfig.from_file(self._write(
            tmp_path, pf_thresholds=[1.0, 3.0, 0.5]))
        assert config.threshold_grid() == pytest.approx(
            [1.0, 1.5, 2.0, 2.5, 3.0])
        # a step past hi leaves lo alone
        config = ScenarioConfig.from_file(self._write(
            tmp_path, pf_thresholds=[1.5, 2.5, 4.0]))
        assert config.threshold_grid().tolist() == [1.5]

    @given(lo=st.floats(1e-3, 1e3), step=st.floats(1e-6, 1e2),
           steps=st.floats(0.0, 500.0))
    @example(lo=1.0, step=0.05, steps=100.0)  # the default grid
    # hi half a step past the grid: arange keeps or drops that point by a
    # rounding of its end, here keeping it 2e-11 past hi + step / 2
    @example(lo=63.48832395937063, step=1.4554592568085667, steps=0.5)
    def test_range_grid_runs_lo_to_hi(self, lo, step, steps):
        # every valid [lo, hi, step] gives a grid from lo that ascends
        # strictly and ends within half a step of hi, up to float rounding
        hi = lo + steps * step
        grid = ScenarioConfig(pf_thresholds=[lo, hi, step]).threshold_grid()
        assert grid[0] == np.round(lo, 10)  # not round(): 1 ulp apart at times
        assert np.all(np.diff(grid) > 0)
        assert abs(grid[-1] - hi) <= step / 2 + 1e-9


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
    # The 3 noisy epochs of strong_config in 1, 2 or 3 row bands: each band
    # must draw every epoch's noise and bits from that epoch's own streams
    # and write only its own rows.
    @pytest.mark.parametrize("data_bits", ["ones", "random"])
    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_pass_epochs_are_rows_of_one_array(self, strong_config,
                                               monkeypatch, cores, data_bits):
        config = _config_with(strong_config, data_bits)
        want = list(synthesize_pass_signal(
            config.scenario(), config.base_synth_params(),
            random_bits=data_bits == "random"))
        threads = set()
        synthesize = signal_synth.synthesize

        def recorded(params, **kwargs):
            threads.add(threading.get_ident())
            # Later epochs return sooner, so a band that wrote a row past
            # its own would write it after the band that owns it.
            time.sleep(0.005 * (len(want) - (params.seed ^ config.seed)))
            return synthesize(params, **kwargs)

        monkeypatch.setattr(signal_synth, "synthesize", recorded)
        with row_bands(cores):
            epochs = pass_epochs(config)
        assert (len(threads) > 1) == (cores > 1)
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
    def test_sidecar_is_the_effective_config(self, strong_config, tmp_path,
                                             capsys, data_bits):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(asdict(_config_with(strong_config,
                                                       data_bits))))
        out = tmp_path / "pass.bin"
        assert cli(["synth", "--config", str(path), "--out", str(out),
                    "--seed", "7"]) == 0
        config = replace(ScenarioConfig.from_file(path), seed=7)
        assert (Path(str(out) + ".truth").read_bytes()
                == json.dumps(asdict(config)).encode())

    @pytest.mark.parametrize("fmt", ["int16-real", "float32-real"])
    def test_synth_file_equals_concatenated_one_shot_write(
            self, strong_config, tmp_path, monkeypatch, capsys, fmt):
        # 1000-sample chunks straddle the 5115-sample epochs
        monkeypatch.setattr(io_cli, "_CHUNK_SAMPLES", 1000)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "sample_format": fmt}))
        out = tmp_path / "pass.bin"
        assert cli(["synth", "--config", str(path), "--out", str(out)]) == 0
        config = ScenarioConfig.from_file(path)
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

    def test_pass_under_the_gate_starts_no_thread(self, tmp_path,
                                                  monkeypatch):
        # paper_block's pass: the 3 paper-profile epochs of 20 ms above 70 deg
        path = tmp_path / "paper.json"
        path.write_text(json.dumps({
            "sample_rate": FS_FULL, "intermediate_freq": FIF_FULL,
            "elevation_mask": 70.0, "epoch_step": 20.0, "duration": 0.02,
            "total_ms": [20]}))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        with row_bands(8, gate=acq_core._BAND_CELLS):
            epochs = pass_epochs(ScenarioConfig.from_file(path))
        assert len(epochs) == 3
        assert epochs[0].samples.base.size < acq_core._BAND_CELLS

    def test_synth_bad_format_exits_two_before_synthesizing(
            self, strong_config, tmp_path, monkeypatch, capsys):
        calls = []
        synthesize = signal_synth.synthesize

        def counted(*args, **kwargs):
            calls.append(1)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(signal_synth, "synthesize", counted)
        config = tmp_path / "bogus.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "sample_format": "bogus"}))
        out = tmp_path / "pass.bin"
        assert cli(["synth", "--config", str(config), "--out", str(out)]) == 2
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

    @staticmethod
    def _config(tmp_path):
        """A fast-profile int16 pass: 53 epochs of 40,920 samples."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "sample_rate": FS_FAST, "intermediate_freq": FIF_FAST,
            "epoch_step": 10.0, "sample_format": "int16-real"}))
        return path

    def test_synth_holds_the_pass_about_once(self, tmp_path, capsys):
        path = self._config(tmp_path)
        config = ScenarioConfig.from_file(path)
        pass_bytes = (len(config.scenario().samples)
                      * round(config.duration * config.sample_rate) * 4)
        # two row bands, so the banded pass is checked on any host
        with row_bands(2):
            rc, peak = _traced_peak(cli, ["synth", "--config", str(path),
                                          "--out", str(tmp_path / "pass.bin")])
        assert rc == 0
        # the float32 pass plus one epoch's synthesis per band and one write
        # chunk; a float64 pass alone is twice pass_bytes
        assert peak < 1.5 * pass_bytes

    def test_synthesis_scratch_per_band(self, tmp_path):
        # Each band of pass_epochs synthesizes its epochs one at a time in
        # float64 scratch: three float64 buffers, the int64 code index and
        # the held samples, about 40 B a sample of one epoch.  So the peak
        # grows with the band count; this bounds the growth until streaming
        # synthesis (ROADMAP item 3) removes it.
        config = ScenarioConfig.from_file(self._config(tmp_path))
        epoch = round(config.duration * config.sample_rate)
        peaks = {}
        for bands in (1, 2, 4):
            with row_bands(bands):
                _, peaks[bands] = _traced_peak(pass_epochs, config)
        for bands in (2, 4):
            assert peaks[bands] - peaks[1] <= (bands - 1) * 48 * epoch

    def test_write_samples_temporaries_are_chunk_sized(self, tmp_path):
        x = np.random.default_rng(0).normal(0.0, 0.5, 1 << 22)  # 33.5 MB
        _, peak = _traced_peak(write_samples, _sig(x), tmp_path / "x.bin",
                               _meta("int16-real"))
        assert peak < 8e6


class TestCli:
    # a bad sample_format gets the sample file's one message, whichever
    # command loads the config
    @pytest.mark.parametrize("command", ["duration", "synth"])
    def test_unknown_format_has_one_message(self, strong_config, tmp_path,
                                            capsys, command):
        with pytest.raises(SampleFileError) as rule:
            SampleFileMeta(FS_FAST, FIF_FAST, format="int4-real")
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "sample_format": "int4-real"}))
        argv = [command, "--config", str(config),
                "--out", str(tmp_path / "out")]
        assert cli(argv) == 2
        assert capsys.readouterr().err == \
            f"leoacq {command}: error: {rule.value}\n"
        assert "supported: " in str(rule.value)
        assert str(rule.value).startswith("sample_format: ")

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
        lines = out.read_bytes().split(b"\n")
        assert lines[0] == (b"t_s,range_m,elev_deg,vrad_mps,doppler_hz,"
                            b"doppler_rate_hzps,path_loss_db")
        # each column of the epoch as its Python float repr
        assert lines[2] == ",".join(map(repr, samples.tolist()[1])).encode()
        assert len(lines) == len(samples) + 2 and lines[-1] == b""

    def test_pass_zenith_row_reads_positive_zero(self, strong_config, capsys):
        # closest approach of an overhead pass: no range rate, no Doppler,
        # written as 0.0 rather than -0.0
        assert cli(["pass", "--config", strong_config]) == 0
        rows = [line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]]
        zenith = rows[len(rows) // 2]
        assert len(rows) % 2 == 1 and zenith[3:5] == ["0.0", "0.0"]

    def test_single_epoch_pass_runs(self, strong_config, tmp_path):
        # only the zenith epoch clears an 80 deg mask at a 60 s step
        config = tmp_path / "one_epoch.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "elevation_mask": 80.0, "epoch_step": 60.0}))
        out = tmp_path / "d.csv"
        assert cli(["duration", "--config", str(config),
                    "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
        assert rows and all(float(r[2]) in (0.0, 60.0) for r in rows)

    def test_synth_acquire_end_to_end(self, strong_config, tmp_path, capsys):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        capsys.readouterr()
        out_csv = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", samples, "--strategy", "coherent",
                    "--total-ms", "5", "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == ("t_s,strategy,total_ms,doppler_hz,"
                            "code_phase_samples,mtsmr,mtmr,decided,ok")
        rows = [l.split(",") for l in lines[1:]]
        assert all(r[7] == "1" for r in rows)  # strong signal: all decided
        assert all(r[8] == "1" for r in rows)  # and all correct

    def test_acquire_all_zero_file_decides_nothing(self, strong_config,
                                                   tmp_path, capsys):
        # no signal and no noise: every grid is zero, every indicator nan
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        np.zeros_like(np.fromfile(samples, dtype="<f4")).tofile(samples)
        out_csv = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", samples, "--total-ms", "5",
                    "--out", str(out_csv)]) == 0
        rows = [l.split(",") for l in
                out_csv.read_text().strip().split("\n")[1:]]
        assert rows and all(r[5:] == ["nan", "nan", "0", "0"] for r in rows)
        assert "decided 0.0 s" in capsys.readouterr().err

    def test_acquire_labels_no_all_zero_epoch_ok(self, tmp_path, capsys):
        # int8 codes of 0.001-amplitude samples are all 0; the t = 20 s
        # epoch's truth (-2000 Hz, sample 0) is where a zero grid peaks
        config = tmp_path / "zero.json"
        config.write_text(json.dumps(dict(
            elevation_mask=80.0, half_span=2000.0, amplitude=0.001, cn0=None,
            sample_format="int8-real")))
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", str(config), "--out", samples]) == 0
        assert not np.fromfile(samples, dtype="<i1").any()
        out_csv = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", samples, "--out", str(out_csv)]) == 0
        rows = [*csv.DictReader(out_csv.read_text().splitlines())]
        assert "20.0,coherent,1,-2000.0,0," in out_csv.read_text()
        assert rows and all(r["ok"] == "0" for r in rows)
        assert "success 0.0 s" in capsys.readouterr().err

    def test_acquire_noncoherent_decides_strong_epochs(self, strong_config,
                                                       tmp_path, capsys):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        capsys.readouterr()
        out_csv = tmp_path / "timeline_nc.csv"
        assert cli(["acquire", "--samples", samples, "--strategy", "noncoherent",
                    "--total-ms", "5", "--out", str(out_csv)]) == 0
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
                        "--out", str(out)]) == 0
            timelines.append(out.read_bytes())
        assert set(counts) == {2 * 1023}  # of 5 ms (5115-sample) epochs
        assert timelines[0] == timelines[1]

    def test_acquire_span_longer_than_epochs_exits_two(self, strong_config,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(io_cli, "read_samples",
                            lambda *args, **kwargs: calls.append("read"))
        assert cli(["acquire", "--samples", samples, "--total-ms", "6"]) == 2
        assert ("shorter than the longest integration 6 ms"
                in capsys.readouterr().err)
        assert calls == []

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

    @pytest.mark.parametrize("edit, which", [
        ("shorter_epochs", "more"), ("extra_epoch", "more"),
        ("lower_mask", "fewer")])
    def test_acquire_file_off_the_sidecar_layout_exits_two(
            self, strong_config, tmp_path, capsys, edit, which):
        # epoch k starts at sample k * samples_per_epoch only when the file
        # holds exactly the sidecar's epochs
        samples = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config,
                    "--out", str(samples)]) == 0
        sidecar = Path(str(samples) + ".truth")
        record = json.loads(sidecar.read_text())
        total = 5115 * 3  # 5 ms float32 epochs
        if edit == "shorter_epochs":
            sidecar.write_text(json.dumps({**record, "duration": 0.004,
                                           "total_ms": [1]}))
        elif edit == "lower_mask":
            sidecar.write_text(json.dumps({**record, "elevation_mask": 70.0}))
        else:  # one more float32 epoch than the sidecar lists
            data = samples.read_bytes()
            samples.write_bytes(data + data[:4 * 5115])
            total += 5115
        header, _ = read_truth_sidecar(sidecar)
        spe, epochs = header["samples_per_epoch"], header["epoch_count"]
        assert (spe == 5115) != (edit == "shorter_epochs")
        assert (epochs == 3) != (edit == "lower_mask")
        capsys.readouterr()
        out = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", str(samples),
                    "--out", str(out)]) == 2
        assert (f"{4 * total} bytes, {which} than the sidecar's {epochs} "
                f"epochs of {spe} 4-byte samples ({4 * epochs * spe})"
                ) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, which", [(1, "more"), (-1, "fewer")])
    def test_acquire_byte_off_the_layout_exits_two(
            self, strong_config, tmp_path, capsys, monkeypatch, extra, which):
        # a byte more or fewer than the sidecar's epochs is a layout error,
        # reported before any sample is read, whatever the file's last frame
        samples = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config,
                    "--out", str(samples)]) == 0
        data = samples.read_bytes()
        samples.write_bytes(data + b"\x01" if extra > 0 else data[:-1])
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(io_cli, "read_samples",
                            lambda *args, **kwargs: calls.append("read"))
        assert cli(["acquire", "--samples", str(samples)]) == 2
        err = capsys.readouterr().err
        assert err == (f"leoacq acquire: error: {samples}: {len(data) + extra} "
                       f"bytes, {which} than the sidecar's 3 epochs of 5115 "
                       f"4-byte samples ({len(data)})\n")
        assert len(data) == 3 * 5115 * 4 and calls == []

    @pytest.mark.parametrize("edit, field_name", [
        (lambda r: [], "not a JSON object"),
        (lambda r: {**r, "sample_rate": "x"}, "sample_rate"),
        (lambda r: {**r, "intermediate_freq": None}, "intermediate_freq"),
        (lambda r: {**r, "duration": True}, "duration"),
        (lambda r: {**r, "seed": 11.0}, "seed"),
        (lambda r: {**r, "sample_format": ["float32-real"]}, "sample_format"),
        (lambda r: {**r, "sample_format": "int16-iq"}, "supported: float32"),
        (lambda r: {**r, "epoch_step": -5.0}, "epoch_step"),
        (lambda r: {**r, "epoch_step": 0}, "epoch_step"),
        (lambda r: {**r, "intermediate_freq": 6e5}, "intermediate_freq"),
        (lambda r: {**r, "intermediate_freq": -2.5e5}, "intermediate_freq"),
        (lambda r: {**r, "sample_rate": 0.0}, "sample_rate"),
        (lambda r: {**r, "sample_rate": -1.023e6}, "sample_rate"),
        (lambda r: {**r, "sample_rate": float("inf")}, "sample_rate"),
        (lambda r: {**r, "cn0": "50"}, "cn0"),
        (lambda r: {**r, "prn_id": 38}, "PRN 38"),
        (lambda r: {**r, "data_bits": "zeros"}, "data_bits"),
        (lambda r: {**r, "carrier_freq": -4.0e8}, "carrier_freq"),
        (lambda r: {**r, "seed": -1}, "seed"),
        (lambda r: {**r, "duration": 0.0}, "duration"),
        # the epoch count comes from the pass, never from the sidecar
        (lambda r: {**r, "epoch_count": 3}, "unknown key 'epoch_count'"),
        (lambda r: {**r, "cross_track_offset_deg": 60.0},
         "cross_track_offset_deg"),
    ], ids=["list", "sample_rate-str", "intermediate_freq-null",
            "duration-bool", "seed-float", "sample_format-list",
            "sample_format-iq",
            "epoch_step-negative", "epoch_step-zero",
            "intermediate_freq-past-nyquist", "intermediate_freq-negative",
            "sample_rate-zero", "sample_rate-negative", "sample_rate-infinite",
            "cn0-str", "prn_id-unknown", "data_bits-unknown",
            "carrier_freq-negative", "seed-negative", "duration-zero",
            "epoch_count-key", "no-epochs"])
    def test_acquire_malformed_sidecar_exits_two(
            self, strong_config, tmp_path, capsys, monkeypatch, edit,
            field_name):
        samples = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config,
                    "--out", str(samples)]) == 0
        sidecar = Path(str(samples) + ".truth")
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        with pytest.raises((ValueError, SampleFileError), match=field_name):
            read_truth_sidecar(sidecar)
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(io_cli, "read_samples",
                            lambda *args, **kwargs: calls.append("read"))
        assert cli(["acquire", "--samples", str(samples)]) == 2
        assert field_name in capsys.readouterr().err
        assert calls == []

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
                    "--total-ms", str(total_ms), "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("command, out_flag",
                             [("duration", "--out"), ("sweep", "--out-dir")])
    def test_matrix_synthesizes_only_the_longest_span(
            self, strong_config, tmp_path, monkeypatch, capsys, command,
            out_flag):
        # 40 ms epochs and spans of 1 and 5 ms: each epoch is synthesized
        # to its first 5 code periods, and the outputs are those of the
        # whole epochs
        config = tmp_path / "long.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "duration": 0.04, "data_bits": "random"}))
        lengths, outputs = [], []
        synthesize_pass = io_cli.pass_epochs
        for whole_epochs in (False, True):
            def recorded(cfg):
                epochs = synthesize_pass(
                    replace(cfg, duration=0.04) if whole_epochs else cfg)
                lengths.append({len(e.samples) for e in epochs})
                return epochs

            monkeypatch.setattr(io_cli, "pass_epochs", recorded)
            out = tmp_path / str(whole_epochs) / "out"
            out.parent.mkdir()
            assert cli([command, "--config", str(config),
                        out_flag, str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in
                            (out.iterdir() if out.is_dir() else [out])})
        assert lengths == [{5 * 1023}, {40920}]
        assert outputs[0] == outputs[1]

    def test_acquire_one_epoch_counts_the_sidecar_epoch_step(
            self, strong_config, tmp_path, capsys):
        # a one-epoch file: only the zenith epoch clears an 80 deg mask at a
        # 60 s step, and its durations come from the sidecar's epoch_step
        config = tmp_path / "one_epoch.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "elevation_mask": 80.0, "epoch_step": 60.0}))
        samples = tmp_path / "pass.bin"
        assert cli(["synth", "--config", str(config),
                    "--out", str(samples)]) == 0
        assert samples.stat().st_size == 4 * 5115
        capsys.readouterr()
        out = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", str(samples), "--total-ms", "5",
                    "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 2
        assert capsys.readouterr().err == "success 60.0 s, decided 60.0 s\n"

    # a config may leave a field to its default, a sidecar may not: the
    # default did not synthesize the file
    @pytest.mark.parametrize("dropped", [
        ["half_span"], ["carrier_freq"], ["threshold", "half_span"]],
        ids=["half_span", "carrier_freq", "threshold-half_span"])
    def test_acquire_incomplete_sidecar_exits_two(
            self, strong_config, tmp_path, capsys, monkeypatch, dropped):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        sidecar = Path(samples + ".truth")
        record = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(
            {k: v for k, v in record.items() if k not in dropped}))
        ScenarioConfig.from_file(sidecar)  # a complete config otherwise
        missing = ", ".join(f.name for f in fields(ScenarioConfig)
                            if f.name in dropped)
        with pytest.raises(ValueError, match=f"lacks {missing}$"):
            read_truth_sidecar(sidecar)
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(io_cli, "read_samples",
                            lambda *args, **kwargs: calls.append("read"))
        assert cli(["acquire", "--samples", samples]) == 2
        assert capsys.readouterr().err == (f"leoacq acquire: error: {sidecar}: "
                                           f"truth sidecar lacks {missing}\n")
        assert calls == []

    @pytest.mark.parametrize("command", ["synth", "duration"])
    def test_iq_format_exits_two(self, strong_config, tmp_path, capsys,
                                 command):
        # sample files are real IF: the IQ formats are gone
        config = tmp_path / "iq.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "sample_format": "float32-iq"}))
        out = tmp_path / "out"
        assert cli([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            "unknown sample format 'float32-iq'; supported: float32-real, "
            "int16-real, int8-real\n")
        assert not out.exists()

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

    def test_results_csv_rebuilds_every_reduction(self, strong_config,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        # duration's rows and sweep's curves and bounds are reductions of
        # the tables that sweep writes as results.csv: read back, with no
        # correlation, they give every output byte for byte
        def run(name):
            out = tmp_path / name
            assert cli(["sweep", "--config", strong_config,
                        "--out-dir", str(out)]) == 0
            assert cli(["duration", "--config", strong_config,
                        "--out", str(out / "duration.csv")]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        made = run("made")
        with open(tmp_path / "made" / "results.csv", newline="") as f:
            reader = csv.DictReader(f)
            assert tuple(reader.fieldnames) == COLUMNS
            rows = [tuple(_COLUMN_TYPES[c](row[c]) for c in COLUMNS)
                    for row in reader]
        combos = list(dict.fromkeys(row[1:3] for row in rows))
        config = ScenarioConfig.from_file(strong_config)
        assert combos == [(s.value, t) for s, t in config.run_combos()]
        assert len(rows) == len(combos) * len(config.scenario().samples)
        tables = [np.rec.fromrecords([r for r in rows if r[1:3] == combo],
                                     names=COLUMNS) for combo in combos]

        def correlate(*args, **kwargs):
            raise AssertionError("the rebuild correlated an epoch")

        monkeypatch.setattr(eval_harness, "process_units", correlate)
        monkeypatch.setattr(io_cli, "_run_matrix", lambda *args: tables)
        assert run("rebuilt") == made
        assert sorted(made) == sorted(
            ["results.csv", "duration.csv", "bounds.csv", "pf_curve.csv"]
            + [f"pf_curve_{s}_{t}ms.csv" for s, t in combos])

    def test_acquire_timeline_is_sweeps_table_of_its_combo(
            self, strong_config, tmp_path, capsys):
        # a float32 file holds the pass bit for bit, so acquire's timeline
        # is the (noncoherent, 5 ms) table of sweep's results.csv
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        out = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", samples, "--strategy",
                    "noncoherent", "--total-ms", "5", "--out", str(out)]) == 0
        assert cli(["sweep", "--config", strong_config,
                    "--out-dir", str(tmp_path / "sweep")]) == 0
        header, *rows = (tmp_path / "sweep" / "results.csv").read_text(
            ).splitlines()
        timeline = out.read_text().splitlines()
        assert timeline == [header] + [r for r in rows
                                       if ",noncoherent,5," in r]
        assert len(timeline) == 4

    def test_duration_outputs(self, strong_config, tmp_path, capsys):
        out = tmp_path / "duration.csv"
        assert cli(["duration", "--config", strong_config,
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "strategy,total_ms,success_s,decided_s"
        assert len(lines) == 5  # 2 strategies x 2 durations

    @pytest.mark.parametrize("target", ["0", "1", "1.5", "-0.1", "nan"])
    def test_sweep_target_checked_before_the_pass(self, strong_config, tmp_path,
                                                  monkeypatch, capsys, target):
        def run_span(*args, **kwargs):
            raise AssertionError("sweep ran the pass")

        monkeypatch.setattr(io_cli, "run_span", run_span)
        out_dir = tmp_path / "sweep"
        assert cli(["sweep", "--config", strong_config, "--out-dir",
                    str(out_dir), "--pf-target", target]) == 2
        assert "target must be in (0, 1)" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_sweep_unreachable_target_bounds_none(self, strong_config,
                                                  tmp_path, capsys):
        # no epoch reaches an MTSMR of 1000, so every correct epoch is a
        # miss and pf stays above the target at both thresholds
        config = tmp_path / "high_thresholds.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "pf_thresholds": [1e3, 2e3, 1e3]}))
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
        # One buffer of unit grids per span, and one process_units call per
        # (epoch, block of Doppler rows).  Blocks of 16 rows split the 5 ms
        # plan (41 bins) into 16, 16 and 9 rows, walked block by block over
        # chunks of 2 of the 3 epochs, with each block's mixing rows built
        # once per chunk; they leave the 1 ms plan (9 bins) whole, one
        # chunk of every epoch and one table.  The outputs are those of
        # whole plans, acquire's indicators within the comparator's bound.
        samples = str(tmp_path / "pass.bin")
        if command == "acquire":
            assert cli(["synth", "--config", strong_config,
                        "--out", samples]) == 0
            argv = ["acquire", "--samples", samples, "--total-ms", "5", "--out"]
            spans = [5]
        else:
            argv = ["duration", "--config", strong_config, "--out"]
            spans = [1, 5]
        assert cli(argv + [str(tmp_path / "whole.csv")]) == 0
        calls = []
        process_units = eval_harness.process_units

        def recorded(signal, spectrum, plan, count, out, table):
            calls.append((signal.t0, count, len(plan.bins), out, table))
            return process_units(signal, spectrum, plan, count, out, table)

        monkeypatch.setattr(eval_harness, "process_units", recorded)
        monkeypatch.setattr(eval_harness, "_EPOCH_CHUNK", 2)
        with block_rows(16, 1023):
            assert cli(argv + [str(tmp_path / "blocks.csv")]) == 0
        config = ScenarioConfig.from_file(strong_config)
        got, want = ([*csv.DictReader((tmp_path / f).read_text().splitlines())]
                     for f in ("blocks.csv", "whole.csv"))
        for g, w in zip(got, want, strict=True):
            if command == "acquire":
                assert_acquires_as(_pop_result(g), _pop_result(w),
                                   config.threshold)
            assert g == w
        t0 = list(config.scenario().samples.t)
        assert len(t0) == 3
        heights = {1: [9], 5: [16, 16, 9]}
        chunks = {1: [t0], 5: [t0[:2], t0[2:]]}
        assert [call[:3] for call in calls] == [
            (t, t_ms, rows) for t_ms in spans for chunk in chunks[t_ms]
            for rows in heights[t_ms] for t in chunk]
        start = 0
        for t_ms in spans:
            span = calls[start:start + len(t0) * len(heights[t_ms])]
            start += len(span)
            buffer = span[0][3].base
            assert buffer.size == t_ms * heights[t_ms][0] * 1023
            assert all(out.base is buffer for *_, out, _ in span)
            # one table per (chunk, block), shared by the chunk's epochs
            tables = [tab for k, (*_, tab) in enumerate(span)
                      if k == 0 or tab is not span[k - 1][4]]
            assert [len(tab) for tab in tables] == [
                rows for _ in chunks[t_ms] for rows in heights[t_ms]]
            assert len({id(tab) for tab in tables}) == len(tables)
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

    @pytest.mark.parametrize("old", [
        "format=float32-real\nsample_rate=1023000.0\n",
        json.dumps({"sample_rate": FS_FAST, "intermediate_freq": FIF_FAST,
                    "format": "float32-real", "t0": -5.0, "epoch_step": 5.0,
                    "samples_per_epoch": 5115, "epoch_count": 1,
                    "epochs": [{"t": -5.0, **asdict(SynthParams())}]}),
    ], ids=["key-value", "per-epoch"])
    def test_acquire_old_sidecar_exits_two(self, strong_config, tmp_path,
                                           capsys, monkeypatch, old):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        with open(samples + ".truth", "w") as f:
            f.write(old)
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(io_cli, "read_samples",
                            lambda *args, **kwargs: calls.append("read"))
        assert cli(["acquire", "--samples", samples]) == 2
        assert samples + ".truth: " in capsys.readouterr().err
        assert calls == []

    # acquire searches the sidecar's half_span at its threshold, so a bad
    # search is a sidecar edit (NaN and infinities are JSON's extensions)
    @pytest.mark.parametrize("field_name, value", [
        ("half_span", float("inf")),
        ("half_span", float("nan")),
        ("half_span", 1e300),  # a plan of 1e297 bins
        ("half_span", FS_FAST / 2),  # bins alias past Nyquist
        ("half_span", -1.0),
        ("half_span", 505000.0),  # searches the image at -2 IF
        ("threshold", float("nan")),
        ("threshold", float("inf")),
        ("threshold", 0.0),
    ])
    def test_acquire_bad_search_exits_two_before_reading(
            self, strong_config, tmp_path, capsys, monkeypatch, field_name,
            value):
        samples = tmp_path / "pass.bin"
        assert cli(["synth", "--config", strong_config,
                    "--out", str(samples)]) == 0
        sidecar = Path(str(samples) + ".truth")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                       field_name: value}))
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(io_cli, "make_plan",
                            lambda *args, **kwargs: calls.append("make_plan"))
        monkeypatch.setattr(io_cli, "read_samples",
                            lambda *args, **kwargs: calls.append("read"))
        out = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", str(samples),
                    "--out", str(out)]) == 2
        assert field_name in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_acquire_searches_as_the_sidecar_says(self, strong_config,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        # half_span and threshold come from the config synth wrote, with no
        # acquire flag: a 2 kHz plan, not the default 10 kHz, and decided at
        # MTSMR 3.0; at 48 dB-Hz an epoch's MTSMR lies between the default
        # 2.5 and 3.0, so it is decided only at the default
        config = tmp_path / "search.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()),
            "cn0": 48.0, "half_span": 2000.0, "threshold": 3.0}))
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", str(config), "--out", samples]) == 0
        plans = []

        def recorded(center, half_span, total_ms):
            plans.append((half_span, total_ms))
            return make_plan(center, half_span, total_ms)

        monkeypatch.setattr(io_cli, "make_plan", recorded)
        out = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", samples, "--out", str(out)]) == 0
        assert plans == [(2000.0, 1)]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 3
        assert any(2.5 <= float(r[5]) < 3.0 for r in rows)
        assert all(r[7] == str(int(float(r[5]) >= 3.0)) for r in rows)

    @pytest.mark.parametrize("strategy, total_ms, reason", [
        ("alternatehalfbit", "10", "multiple of 20"),
        ("differential", "1", "at least two"),
        ("coherent", "0", "at least one"),
    ])
    def test_acquire_undefined_span_exits_two(self, strong_config, tmp_path,
                                              capsys, monkeypatch, strategy,
                                              total_ms, reason):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(io_cli, "make_plan",
                            lambda *args, **kwargs: calls.append("make_plan"))
        monkeypatch.setattr(io_cli, "read_samples",
                            lambda *args, **kwargs: calls.append("read"))
        assert cli(["acquire", "--samples", samples, "--strategy", strategy,
                    "--total-ms", total_ms]) == 2
        assert reason in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("argv, code", [
        (["pass", "--config", "CONFIG"], 0),
        (["fly"], 1),  # unknown subcommand
        (["pass", "--config", "missing.json"], 2),
    ], ids=["pass", "unknown-subcommand", "missing-config"])
    def test_module_entry_point_exit_codes(self, strong_config, tmp_path,
                                           argv, code):
        # python -m leoacq.io_cli runs main(), the console script's target
        src = str(Path(io_cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [strong_config if a == "CONFIG" else a for a in argv]
        run = subprocess.run([sys.executable, "-m", "leoacq.io_cli", *argv],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True)
        assert run.returncode == code, run.stderr
        if code == 0:
            assert run.stdout.startswith("t_s,range_m,elev_deg,")

    def test_bad_config_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ("{not json", "[1, 2]"):
            bad.write_text(text)
            assert cli(["pass", "--config", str(bad)]) == 2


class TestConfigMakesNoCode:
    # A config counts its span samples from CODE_LENGTH and checks its PRN
    # by the code table's own rule, so it never generates a code.
    @staticmethod
    def _forbid_codes(monkeypatch):
        def generate_code(prn_id):
            raise AssertionError(f"generated the code of PRN {prn_id}")
        monkeypatch.setattr(prn_code, "generate_code", generate_code)
        monkeypatch.setattr(io_cli, "generate_code", generate_code)

    def test_load_replace_and_span_samples(self, strong_config, monkeypatch):
        self._forbid_codes(monkeypatch)
        config = ScenarioConfig.from_file(strong_config)
        config = replace(config, seed=3, total_ms=[1, 5], duration=0.04)
        assert config.span_samples() == 5 * 1023

    def test_unknown_prn_has_the_code_rule_message(
            self, strong_config, tmp_path, capsys, monkeypatch):
        with pytest.raises(ValueError) as rule:
            generate_code(38)
        assert str(rule.value) == "unknown PRN 38 (supported: 1..37)"
        self._forbid_codes(monkeypatch)
        config = tmp_path / "prn38.json"
        config.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()), "prn_id": 38}))
        assert cli(["pass", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"leoacq pass: error: {rule.value}\n"


# Configs that break the receiver's sampling rules, with the rule's field
# and a fragment of its message: a search past Nyquist, which finds the
# signal's image at -2 IF; under a sample per chip, a code period of no
# samples; end epochs that chirp past Nyquist.
_SAMPLING_VIOLATIONS = [
    ({"half_span": 505000.0, "elevation_mask": 85.0, "epoch_step": 30.0,
      "duration": 0.001}, "half_span", "(0, sample_rate/2)"),
    ({"sample_rate": 400.0, "intermediate_freq": 100.0, "half_span": 50.0,
      "carrier_freq": 1e6, "total_ms": [20], "epoch_step": 60.0},
     "sample_rate", "at least the chip rate"),
    ({"intermediate_freq": 500000.0, "half_span": 5000.0},
     "intermediate_freq", "(0, sample_rate/2)"),
]
_VIOLATION_IDS = ["image-search", "under-a-sample-per-chip", "chirp-past-nyquist"]


@st.composite
def _sampling_fields(draw):
    """A config's sampling fields, valid or not, over a short pass."""
    fs = draw(st.sampled_from([FS_FAST, FS_FULL])
              | st.floats(0.5 * CHIP_RATE, 8 * CHIP_RATE))
    total_ms = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3,
                             unique=True))
    return dict(sample_rate=fs, total_ms=total_ms,
                intermediate_freq=draw(st.floats(-0.02, 0.52)) * fs,
                half_span=draw(st.floats(1e-4, 0.3)) * fs,
                duration=(max(total_ms) + 1) * 1e-3, epoch_step=30.0,
                elevation_mask=draw(st.sampled_from([10.0, 80.0])))


class TestSamplingRules:
    """A sample per chip and real-IF sampling: checked once, when a config
    or sidecar loads, and trusted by synthesize and the detector."""

    @staticmethod
    def _record_engine(monkeypatch):
        calls = []
        for module, name in ((signal_synth, "synthesize"),
                             (io_cli, "make_plan"), (io_cli, "read_samples")):
            monkeypatch.setattr(module, name, lambda *args, _name=name,
                                **kwargs: calls.append(_name))
        return calls

    @pytest.mark.parametrize("command, out_flag", [
        ("pass", "--out"), ("synth", "--out"), ("duration", "--out"),
        ("sweep", "--out-dir")])
    @pytest.mark.parametrize("overrides, field_name, rule",
                             _SAMPLING_VIOLATIONS, ids=_VIOLATION_IDS)
    def test_config_exits_two_at_load(self, tmp_path, capsys, monkeypatch,
                                      command, out_flag, overrides,
                                      field_name, rule):
        calls = self._record_engine(monkeypatch)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(overrides))
        out = tmp_path / "out"
        assert cli([command, "--config", str(config), out_flag, str(out)]) == 2
        err = capsys.readouterr().err
        assert field_name in err and rule in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("overrides, field_name, rule",
                             _SAMPLING_VIOLATIONS, ids=_VIOLATION_IDS)
    def test_sidecar_exits_two_at_load(self, tmp_path, capsys, monkeypatch,
                                       overrides, field_name, rule):
        calls = self._record_engine(monkeypatch)
        samples = tmp_path / "pass.bin"
        samples.write_bytes(b"")
        Path(str(samples) + ".truth").write_text(
            json.dumps({**asdict(ScenarioConfig()), **overrides}))
        out = tmp_path / "timeline.csv"
        assert cli(["acquire", "--samples", str(samples),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field_name in err and rule in err
        assert calls == [] and not out.exists()

    @settings(max_examples=300)
    @given(fields=_sampling_fields())
    @example(fields=dict(_SAMPLING_VIOLATIONS[0][0], sample_rate=FS_FAST,
                         intermediate_freq=FIF_FAST, total_ms=[1]))
    @example(fields=dict(_SAMPLING_VIOLATIONS[2][0], sample_rate=FS_FAST,
                         total_ms=[1], duration=2e-3, epoch_step=30.0,
                         elevation_mask=10.0))
    # the outermost bin's centre lies above 0 Hz, its lower half below
    @example(fields=dict(sample_rate=FS_FAST, intermediate_freq=249600.0,
                         half_span=249400.0, total_ms=[1], duration=2e-3,
                         epoch_step=30.0, elevation_mask=80.0))
    def test_loads_exactly_when_every_epoch_and_bin_is_below_nyquist(
            self, fields):
        fs, f_if = fields["sample_rate"], fields["intermediate_freq"]
        # the same pass at a valid IF and search: its epochs' Doppler
        epochs = ScenarioConfig(**{**fields, "sample_rate": FS_FULL,
                                   "intermediate_freq": FIF_FULL,
                                   "half_span": 1e3}).pass_truths()
        bands = [(f_if - reach, f_if + reach) for reach in (
            abs(p.doppler0) + abs(p.doppler_rate) * p.duration
            for _, p in epochs)]
        for t_ms in fields["total_ms"]:
            plan = make_plan(f_if, fields["half_span"], t_ms)
            freqs = plan.center + np.asarray(plan.bins)
            bands += [(np.min(freqs - plan.bin_width / 2),
                       np.max(freqs + plan.bin_width / 2))]
        brute = fs >= CHIP_RATE and all(0 < lo and hi < fs / 2
                                        for lo, hi in bands)
        try:
            config = ScenarioConfig(**fields)
        except ValueError:
            config = None
        assert (config is not None) == brute
        if config is None:
            return
        # what synthesize and the detector checked before
        for _, p in config.pass_truths():
            f_max = (p.intermediate_freq + abs(p.doppler0)
                     + abs(p.doppler_rate) * p.duration)
            assert not p.sample_rate <= 2.0 * f_max
        n = prn_code.samples_per_code(prn_code.CODE_LENGTH, fs)
        assert n >= 2 * round(fs / CHIP_RATE) + 2


class TestPassCap:
    # A pass is held whole as float32 (pass_epochs), so one over the cap is
    # a data error before any epoch is synthesized.  duration and sweep
    # synthesize only their spans, so only those count against it.
    @pytest.fixture
    def long_epochs(self, strong_config, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            **json.loads(Path(strong_config).read_text()), "duration": 0.04}))
        config = ScenarioConfig.from_file(path)
        return str(path), len(config.pass_truths()), config

    def test_synth_over_the_cap_exits_two_before_synthesis(
            self, long_epochs, tmp_path, capsys, monkeypatch):
        path, epochs, config = long_epochs
        monkeypatch.setattr(io_cli, "_MAX_PASS_SAMPLES",
                            epochs * config.samples_per_epoch - 1,
                            raising=False)
        calls = []
        monkeypatch.setattr(signal_synth, "synthesize",
                            lambda *args, **kwargs: calls.append("synth"))
        out = tmp_path / "pass.bin"
        assert cli(["synth", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for name in ("duration", "epoch_step", "sample_rate"):
            assert name in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["duration", "sweep"])
    def test_runs_count_only_their_spans(self, long_epochs, tmp_path,
                                         monkeypatch, command):
        path, epochs, config = long_epochs
        monkeypatch.setattr(io_cli, "_MAX_PASS_SAMPLES",
                            epochs * config.span_samples(), raising=False)
        out = ["--out", str(tmp_path / "d.csv")] if command == "duration" \
            else ["--out-dir", str(tmp_path / "sweep")]
        assert cli([command, "--config", path, *out]) == 0
        assert cli(["synth", "--config", path,
                    "--out", str(tmp_path / "pass.bin")]) == 2


def test_a_key_error_is_a_bug_not_a_data_error(strong_config, monkeypatch):
    # No input raises KeyError, so one from a command is a bug: it
    # propagates with its traceback instead of exiting 2.
    def broken(*args, **kwargs):
        raise KeyError("bug")
    monkeypatch.setattr(io_cli, "simulate_pass", broken)
    with pytest.raises(KeyError):
        cli(["pass", "--config", strong_config])


# how results.csv's columns (eval_harness.COLUMNS) read back
_COLUMN_TYPES = {"t_s": float, "strategy": str, "total_ms": int,
                 "doppler_hz": float, "code_phase_samples": int,
                 "mtsmr": float, "mtmr": float, "decided": int, "ok": int}

# every scalar field -> its annotation: int, float, "float | None" or str
_SCALAR_FIELDS = {f.name: f.type for f in fields(ScenarioConfig)
                  if f.type != "tuple"}
# a short pass that loads in well under a millisecond
_BASE = dict(elevation_mask=80.0, half_span=2000.0)


@st.composite
def _bad_scalar(draw):
    """A scalar field and a value of it that is not finite or not of its
    JSON type; json writes and reads every one of them."""
    name = draw(st.sampled_from(sorted(_SCALAR_FIELDS)))
    kind = _SCALAR_FIELDS[name]
    bad = [st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf])]
    if kind == "str":
        bad += [st.floats(), st.integers()]
    else:
        bad.append(st.text(max_size=4))
    if kind == "int":
        bad.append(st.floats())  # 1.5, and 1.0: JSON keeps it a float
    return name, draw(st.one_of(bad))


class TestOneValidationPath:
    # __post_init__ holds the type and finiteness rule, so a config built
    # directly, by replace, or from a file meets the same rule.
    @given(case=_bad_scalar())
    # unchecked, these three give passes that read 1 s or 0 s with no error,
    # PRN True runs as PRN 1, seed 1.5 is a TypeError in pass_params, and
    # an infinite rate an OverflowError
    @example(case=("cn0", math.nan))
    @example(case=("amplitude", math.inf))
    @example(case=("code_phase0", math.nan))
    @example(case=("prn_id", True))
    @example(case=("seed", 1.5))
    @example(case=("sample_rate", math.inf))
    @example(case=("seed", 1.0))
    @example(case=("data_bits", 1.5))
    @example(case=("sample_format", None))
    def test_every_way_of_making_a_config_names_the_field(self, case):
        name, bad = case
        named = rf"^{name} must be "
        with pytest.raises(ValueError, match=named):
            ScenarioConfig(**{**_BASE, name: bad})
        with pytest.raises(ValueError, match=named):
            replace(ScenarioConfig(**_BASE), **{name: bad})
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "cfg.json"
            path.write_text(json.dumps({**_BASE, name: bad}))
            with pytest.raises(ValueError, match=named):
                ScenarioConfig.from_file(path)

    def test_a_config_is_frozen(self):
        config = ScenarioConfig(**_BASE)
        for name, value in [("cn0", math.nan), ("seed", 2), ("strategies", [])]:
            with pytest.raises(FrozenInstanceError):
                setattr(config, name, value)
        assert config == ScenarioConfig(**_BASE)
        # the list fields are held as tuples, so no entry can change either
        listed = ScenarioConfig(**_BASE, strategies=["coherent", "preguess"],
                                total_ms=[1, 5], pf_thresholds=[1.0, 2.0, 0.5])
        for name in ("strategies", "total_ms", "pf_thresholds"):
            assert type(getattr(listed, name)) is tuple
            with pytest.raises(AttributeError):
                getattr(listed, name).append("bogus")
        assert listed == replace(listed) == ScenarioConfig(
            **_BASE, strategies=("coherent", "preguess"), total_ms=(1, 5),
            pf_thresholds=(1.0, 2.0, 0.5))
        assert hash(listed) == hash(replace(listed))
        assert [(s.value, t) for s, t in listed.run_combos()] == [
            ("coherent", 1), ("coherent", 5), ("preguess", 1), ("preguess", 5)]


# An amplitude or a noise level beyond float32 is a data error where the
# pass is rounded to float32 (pass_epochs): exit 2 naming the fields, no
# RuntimeWarning (pytest turns one into an error) and no file written; an
# existing file stays as it was.
@pytest.mark.parametrize("field, value", [("amplitude", 1e39),
                                          ("cn0", -800.0)])
@pytest.mark.parametrize("command", ["synth", "duration"])
def test_pass_beyond_float32_exits_two(tmp_path, capsys, field, value,
                                       command):
    config = tmp_path / "loud.json"
    config.write_text(json.dumps({**_BASE, field: value}))
    out = tmp_path / "out"
    out.write_bytes(b"old bytes")
    assert cli([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "overflow float32" in err and "amplitude" in err and "cn0" in err
    assert out.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loud.json", "out"]
