"""Sample-file I/O, scenario config, and CLI tests."""

import json

import numpy as np
import pytest

from leoacq import eval_harness
from leoacq.io_cli import (ReadRangeError, SampleFileMeta, ScenarioConfig,
                           TruncatedFileError, UnknownFormatError, cli,
                           read_samples, read_truth_sidecar, write_samples,
                           write_truth_sidecar)
from leoacq.signal_synth import SampledSignal, synthesize

from conftest import FS_FAST, FIF_FAST, fast_params


def _meta(fmt="float32-real", fs=FS_FAST):
    return SampleFileMeta(sample_rate=fs, intermediate_freq=FIF_FAST, format=fmt)


def _sig(samples, fs=FS_FAST):
    return SampledSignal(samples=np.asarray(samples), sample_rate=fs)


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
        assert len(read_samples(path, _meta())) == 0

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

    def test_complex_to_real_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="complex"):
            write_samples(_sig(np.array([1j])), tmp_path / "x.bin", _meta())

    def test_offset_and_count_read(self, tmp_path):
        vals = np.arange(32, dtype=np.float32).astype(np.float64)
        path = tmp_path / "f32.bin"
        write_samples(_sig(vals), path, _meta())
        back = read_samples(path, _meta(), offset=8, count=4)
        assert np.array_equal(back.samples, vals[8:12])
        assert back.t0 == 8 / FS_FAST

    def test_unknown_format(self):
        with pytest.raises(UnknownFormatError, match="unknown sample format"):
            SampleFileMeta(sample_rate=1e6, intermediate_freq=0.0, format="int4-real")

    def test_truncated_file_names_byte_offset(self, tmp_path):
        path = tmp_path / "trunc.bin"
        write_samples(_sig(np.zeros(16)), path, _meta())
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(TruncatedFileError, match="byte 65"):
            read_samples(path, _meta())

    def test_out_of_range_read(self, tmp_path):
        path = tmp_path / "f32.bin"
        write_samples(_sig(np.zeros(16)), path, _meta())
        with pytest.raises(ReadRangeError, match="outside"):
            read_samples(path, _meta(), offset=10, count=10)

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_samples(_sig(np.array([np.nan])), tmp_path / "x.bin", _meta())


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
        write_truth_sidecar(path, _meta(), epochs, chip_rate=1.023e6,
                            code_length=1023, epoch_step=1.0)
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
        write_truth_sidecar(path, _meta(), [e], 1.023e6, 1023, 1.0)
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

    def test_threshold_grid_forms(self, tmp_path):
        config = ScenarioConfig.from_file(self._write(
            tmp_path, pf_thresholds=[1.0, 3.0, 0.5]))
        assert config.threshold_grid() == pytest.approx(
            [1.0, 1.5, 2.0, 2.5, 3.0])
        config = ScenarioConfig.from_file(self._write(
            tmp_path, pf_thresholds=[1.5, 2.5, 4.0]))
        assert config.threshold_grid() == pytest.approx([1.5, 2.5, 4.0])


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

    def test_acquire_truncated_exits_two(self, strong_config, tmp_path, capsys):
        samples = str(tmp_path / "pass.bin")
        assert cli(["synth", "--config", strong_config, "--out", samples]) == 0
        with open(samples, "ab") as f:
            f.write(b"\x01")
        capsys.readouterr()
        assert cli(["acquire", "--samples", samples]) == 2
        assert "byte" in capsys.readouterr().err

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

    def test_bad_config_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli(["pass", "--config", str(bad)]) == 2
