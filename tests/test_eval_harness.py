"""Evaluation-harness tests: labeling, P_f sweeps, timelines."""

import concurrent.futures
import contextlib
import dataclasses
import functools
import os
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leoacq import acq_core, eval_harness
from leoacq.acq_core import make_plan, samples_per_code
from leoacq.detector import AcqResult, RowSearch, acquire
from leoacq.eval_harness import (EpochLabel, EpochTruth, PfCurve,
                                 acquisition_timeline, cyclic_distance,
                                 label_epochs, pf_sweep, run_epoch,
                                 run_span, threshold_bounds,
                                 truth_code_phase, truth_from_epoch)
from leoacq.geometry import PassSample, PassScenario
from leoacq.integrators import (IntegrationSpec, Strategy, integrate,
                                span_error)
from leoacq.prn_code import generate_code
from leoacq.signal_synth import synthesize_pass_signal

from conftest import (FS_FAST, FIF_FAST, FS_FULL, FIF_FULL, block_rows,
                      fast_params, fed_search, plan_for, row_bands,
                      synth_units, unit_block)


def _result(doppler=0.0, code=0, ratio=5.0, decided=True):
    return AcqResult(doppler_hat=doppler, code_phase_hat=code, mtsmr=ratio,
                     mtmr=ratio * 2, decided=decided)


def _truth(t=0.0, doppler=0.0, code=0.0):
    return EpochTruth(t=t, doppler=doppler, code_phase_samples=code)


PLAN1 = plan_for(1)  # 500 Hz bins around the fast-profile IF


class TestLabeling:
    def test_exact_estimate_ok(self):
        labels = label_epochs([_result()], [_truth()], PLAN1, FIF_FAST, 1023)
        assert labels[0].estimate_ok

    def test_one_bin_off_not_ok(self):
        labels = label_epochs([_result(doppler=500.0)], [_truth(doppler=0.0)],
                              PLAN1, FIF_FAST, 1023)
        assert not labels[0].estimate_ok

    def test_half_bin_boundary_inclusive(self):
        labels = label_epochs([_result(doppler=250.0)], [_truth(doppler=0.0)],
                              PLAN1, FIF_FAST, 1023)
        assert labels[0].estimate_ok

    def test_code_phase_cyclic_tolerance(self):
        ok = label_epochs([_result(code=0)], [_truth(code=1022.5)],
                          PLAN1, FIF_FAST, 1023)[0].estimate_ok
        assert ok  # 0 vs 1022.5 is 0.5 samples away cyclically
        bad = label_epochs([_result(code=3)], [_truth(code=1022.0)],
                           PLAN1, FIF_FAST, 1023)[0].estimate_ok
        assert not bad

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="truth"):
            label_epochs([_result()], [], PLAN1, FIF_FAST, 1023)

    def test_cyclic_distance(self):
        assert cyclic_distance(0, 1022, 1023) == 1.0
        assert cyclic_distance(511, 512, 1023) == 1.0
        assert cyclic_distance(5.25, 5.25, 1023) == 0.0

    def test_truth_code_phase_mapping(self, code1):
        params = fast_params(code_phase0=100.0)
        assert truth_code_phase(params, 1023, code1.chip_rate) == 923.0
        params = fast_params(code_phase0=0.0)
        assert truth_code_phase(params, 1023, code1.chip_rate) == 0.0

    def test_noiseless_sweep_labels_all_ok(self, code1):
        # fractional delays across the sweep all label ok (ties acquisition
        # accuracy to the 1-sample labeling tolerance)
        spec = IntegrationSpec(Strategy.COHERENT, total_ms=1)
        for frac in np.linspace(0.0, 0.9, 10):
            sig, params = synth_units(1, code1, d0=300.0,
                                      code_phase0=200.0 + frac)
            res = run_epoch(sig, code1, PLAN1, spec, threshold=2.5)
            truth = truth_from_epoch(sig, code1)
            label = label_epochs([res], [truth], PLAN1, FIF_FAST, 1023)[0]
            assert label.estimate_ok


def _no_pool(*args, **kwargs):
    raise AssertionError("the engine started worker threads")


def _span_epochs(count, **params):
    return list(synthesize_pass_signal(
        _flat_scenario(count), fast_params(duration=5e-3, **params)))


class TestRunSpan:
    @pytest.mark.parametrize("total_ms", [1, 5, 20])
    def test_equals_one_run_epoch_per_strategy(self, code1, total_ms):
        sig, _ = synth_units(20, code1, d0=700.0, cn0=42.0, seed=9)
        plan = plan_for(total_ms)
        specs = [IntegrationSpec(s, total_ms) for s in Strategy
                 if span_error(s, total_ms) is None]
        (shared,) = run_span([sig], code1, plan, specs, threshold=2.5)
        assert shared == [run_epoch(sig, code1, plan, spec, threshold=2.5)
                          for spec in specs]

    @pytest.mark.parametrize("total_ms", [1, 2, 5])
    def test_equals_one_span_per_epoch(self, code1, total_ms):
        epochs = _span_epochs(4, cn0=41.0, seed=3)
        plan = plan_for(total_ms)
        specs = [IntegrationSpec(s, total_ms) for s in Strategy
                 if span_error(s, total_ms) is None]
        got = run_span(epochs, code1, plan, specs, threshold=2.5)
        want = [run_span([e], code1, plan, specs, threshold=2.5)[0]
                for e in epochs]
        assert len(got) == len(epochs)
        for g, w in zip(got, want, strict=True):
            assert len(g) == len(specs)
            for a, b in zip(g, w, strict=True):
                assert dataclasses.astuple(a) == dataclasses.astuple(b)

    # Heights of one slab: one row, uneven tails, the whole plan, each
    # block in 1-3 bands
    @settings(max_examples=25)
    @given(paper=st.booleans(), total_ms=st.sampled_from([1, 2, 5, 20]),
           slab=st.sampled_from([1, 2, 4, 7, 1000]), cores=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_row_blocks_give_the_whole_plan_results(
            self, code1, paper, total_ms, slab, cores, seed):
        fs, fif = (FS_FULL, FIF_FULL) if paper else (FS_FAST, FIF_FAST)
        n = samples_per_code(code1, fs)
        epochs = []
        for k, d0 in enumerate((350.0, -600.0)):
            sig, _ = synth_units(total_ms, code1, d0=d0, cn0=44.0,
                                 seed=seed + k, fs=fs, fif=fif)
            sig.t0 = 20.0 * k
            epochs.append(sig)
        plan = make_plan(fif, 1e3, total_ms)
        specs = [IntegrationSpec(s, total_ms) for s in Strategy
                 if span_error(s, total_ms) is None]
        with row_bands(cores), mock.patch.object(acq_core, "_SLAB_CELLS",
                                                 slab * n):
            got = run_span(epochs, code1, plan, specs, threshold=2.5)
        for epoch, row in zip(epochs, got, strict=True):
            units = unit_block(epoch, code1, plan)
            want = [acquire(fed_search(integrate(units, spec.strategy),
                                       l_spc=round(fs / code1.chip_rate),
                                       plan=plan), threshold=2.5)
                    for spec in specs]
            assert ([dataclasses.astuple(r) for r in row]
                    == [dataclasses.astuple(r) for r in want])

    # repr of (doppler_hat, code_phase_hat, mtsmr, mtmr, decided) for each
    # epoch of test_pinned_results under every Strategy in enum order
    PINNED = [
        ["(400.0, 2847, 4.886606732515521, 18.08389229422203, True)",
         "(400.0, 2847, 4.34358216324115, 6.374565201672938, True)",
         "(425.0, 2847, 5.154272468169673, 8.764460168100456, True)",
         "(400.0, 2847, 38.82010351549685, 133.84030187523203, True)",
         "(425.0, 2847, 5.21158851570191, 14.680564262078994, True)"],
        ["(-575.0, 647, 5.418885418414605, 19.51437243818314, True)",
         "(-600.0, 647, 4.380997797139517, 6.5854425745012195, True)",
         "(-625.0, 647, 5.421563872170249, 8.764001658208745, True)",
         "(-600.0, 647, 28.15191927664434, 140.32653802951097, True)",
         "(-625.0, 647, 5.354189719960957, 16.016963023215837, True)"],
    ]

    @pytest.mark.parametrize("blocks", [
        lambda: row_bands(1, gate=1 << 62), lambda: block_rows(8, 4092)],
        ids=["one-block", "8-row-blocks"])
    def test_pinned_results(self, code1, blocks):
        # Two 20 ms paper-profile epochs at 45 dB-Hz with a bit transition
        # 7 ms in, over +/-1 kHz (81 bins): the engine's results are bitwise
        # those pinned, whether the plan is one block or 8-row blocks.
        epochs = []
        for k, (d0, phase) in enumerate(((430.0, 311.25), (-615.0, 2907.5))):
            sig, _ = synth_units(20, code1, d0=d0, cn0=45.0,
                                 seed=20261017 + k, fs=FS_FULL, fif=FIF_FULL,
                                 code_phase0=phase,
                                 data_bits=np.array([1.0, -1.0]),
                                 bit_phase0=7.0)
            sig.t0 = 20.0 * k
            epochs.append(sig)
        specs = [IntegrationSpec(s, 20) for s in Strategy]
        with blocks():
            got = run_span(epochs, code1, make_plan(FIF_FULL, 1e3, 20), specs,
                           threshold=2.5)
        assert [[repr(dataclasses.astuple(r)) for r in row]
                for row in got] == self.PINNED

    @staticmethod
    def _record(monkeypatch):
        calls = []
        process_units = eval_harness.process_units

        def recorded(signal, code, plan, count=None, out=None, table=None):
            calls.append((signal, plan, count, out, table))
            return process_units(signal, code, plan, count=count, out=out,
                                 table=table)

        monkeypatch.setattr(eval_harness, "process_units", recorded)
        return calls

    def test_one_buffer_and_table_per_span(self, code1, monkeypatch):
        # 21 bins in blocks of 8 rows: 8, 8 and a tail of 5
        calls = self._record(monkeypatch)
        epochs = _span_epochs(3, cn0=45.0)
        plan = make_plan(FIF_FAST, 1e3, 5)
        with block_rows(8, 1023):
            run_span(epochs, code1, plan,
                     [IntegrationSpec(Strategy.COHERENT, 5)], threshold=2.5)
        assert [(c[0], c[2]) for c in calls] == [
            (e, 5) for e in epochs for _ in range(3)]
        buffer, table = calls[0][3].base, calls[0][4].base
        assert buffer.shape == (5 * 8 * 1023,)
        assert table.shape == (21, 1023) and not table.flags.writeable
        blocks = [(0, 8), (8, 16), (16, 21)]
        for k, (signal, sub_plan, count, out, tab) in enumerate(calls):
            a, b = blocks[k % 3]
            assert sub_plan is calls[k % 3][1]  # made once per span
            assert sub_plan.bins == plan.bins[a:b]
            assert (sub_plan.center, sub_plan.bin_width) == (
                plan.center, plan.bin_width)
            assert out.base is buffer and out.flags.c_contiguous
            assert out.shape == (5, b - a, 1023)
            assert out.ctypes.data == buffer.ctypes.data  # a prefix
            assert tab.base is table and tab.shape == (b - a, 1023)
            assert tab.ctypes.data == table[a:b].ctypes.data

    def test_split_plan_acquires_row_searches(self, code1, monkeypatch):
        # 21 bins in blocks of 8 rows: each strategy's rows feed one search
        # per epoch in three blocks, and no (bins, n) grid is integrated
        acquired, integrated = [], []
        real_acquire = eval_harness.acquire
        real_integrate = eval_harness.integrate

        def recorded_acquire(search, threshold):
            acquired.append((search, search.rows))
            return real_acquire(search, threshold=threshold)

        def recorded_integrate(units, strategy):
            rows = real_integrate(units, strategy)
            integrated.append(rows.shape)
            return rows

        monkeypatch.setattr(eval_harness, "acquire", recorded_acquire)
        monkeypatch.setattr(eval_harness, "integrate", recorded_integrate)
        plan = make_plan(FIF_FAST, 1e3, 5)
        specs = [IntegrationSpec(s, 5) for s in Strategy
                 if span_error(s, 5) is None]
        epochs = _span_epochs(3, cn0=45.0)
        with block_rows(8, 1023):
            got = run_span(epochs, code1, plan, specs, 2.5)
        assert len(acquired) == 3 * len(specs)
        assert len({id(search) for search, _ in acquired}) == len(acquired)
        for search, rows in acquired:
            assert isinstance(search, RowSearch)
            assert search.plan is plan and rows == 21
        assert integrated == [(h, 1023) for _ in epochs
                              for h in (8, 8, 5) for _ in specs]
        # a split plan sums MTMR's total block by block
        for epoch, row in zip(epochs, got, strict=True):
            units = unit_block(epoch, code1, plan)
            for r, spec in zip(row, specs, strict=True):
                want = acquire(fed_search(integrate(units, spec.strategy),
                                          l_spc=1, plan=plan), 2.5)
                assert r.mtmr == pytest.approx(want.mtmr, rel=1e-12, abs=0)
                assert dataclasses.replace(r, mtmr=want.mtmr) == want

    @pytest.mark.parametrize("height", [None, 8], ids=["one-block", "split"])
    def test_one_integrated_grid_alive_at_a_time(self, code1, monkeypatch,
                                                 height):
        earlier = []
        real_integrate = eval_harness.integrate

        def recorded(units, strategy):
            assert all(ref() is None for ref in earlier)
            rows = real_integrate(units, strategy)
            earlier.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(eval_harness, "integrate", recorded)
        specs = [IntegrationSpec(s, 5) for s in Strategy
                 if span_error(s, 5) is None]
        with (contextlib.nullcontext() if height is None
              else block_rows(height, 1023)):
            run_span(_span_epochs(2, cn0=45.0), code1,
                     make_plan(FIF_FAST, 1e3, 5), specs, 2.5)
        assert len(earlier) == 2 * len(specs) * (1 if height is None else 3)

    @pytest.mark.parametrize("total_ms", [1, 5])
    def test_fast_profile_spans_are_one_block_and_one_band(
            self, code1, monkeypatch, total_ms):
        # fast_sweep's spans over the default +/-10 kHz: 201 bins at 5 ms
        calls = self._record(monkeypatch)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            _no_pool)
        plan = make_plan(FIF_FAST, 10e3, total_ms)
        specs = [IntegrationSpec(s, total_ms) for s in Strategy
                 if span_error(s, total_ms) is None]
        with row_bands(8, gate=acq_core._BAND_CELLS):
            run_span(_span_epochs(2, cn0=45.0), code1, plan, specs, 2.5)
        assert [c[1] for c in calls] == [plan, plan]
        assert calls[0][3].shape == (total_ms, len(plan.bins), 1023)

    @staticmethod
    @functools.cache
    def _paper_span(cores):
        """One epoch of paper_block's shape (20 units of 401 x 4092, five
        strategies) through run_span, banded for `cores` cores (None: the
        host's own count), once per count: its tracemalloc peak, the
        worker pools it made and the threads that outlived it."""
        code1 = generate_code(1)
        sig, _ = synth_units(20, code1, d0=1200.0, cn0=45.0, fs=FS_FULL,
                             fif=FIF_FULL)
        sig.t0 = 40.0
        plan = make_plan(FIF_FULL, 5e3, 20)
        specs = [IntegrationSpec(s, 20) for s in Strategy]
        pools = []
        pool = concurrent.futures.ThreadPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(args)
            return pool(*args, **kwargs)

        threads = set(threading.enumerate())
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with (contextlib.nullcontext() if cores is None
                  else row_bands(cores, gate=acq_core._BAND_CELLS)), \
                    mock.patch.object(concurrent.futures,
                                      "ThreadPoolExecutor", counted_pool):
                (row,) = run_span([sig], code1, plan, specs, 2.5)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert all(r.decided and r.code_phase_hat == 0 for r in row)
        return peak, pools, set(threading.enumerate()) - threads

    def test_paper_span_holds_under_half_the_unit_block(self):
        # A whole-span (units, bins, n) complex64 block alone is 262.5 MB.
        block_bytes = 20 * 401 * 4092 * 8
        assert self._paper_span(None)[0] < block_bytes / 2

    def test_paper_span_holds_no_detection_grid(self):
        # The unit-grid buffer, the 12.5 MiB mixing table and a block's
        # rows in flight fit; five held (401, 4092) float64 detection grids
        # (62.6 MiB) would not.
        assert self._paper_span(None)[0] < 56 << 20

    @pytest.mark.parametrize("cores", [None, 2, 8, 64])
    def test_paper_span_holds_whole_slab_blocks(self, cores):
        # 16-row blocks (10 MiB of unit grids, two 8-row slabs) beside the
        # 12.5 MiB mixing table, whatever the core count; 51-row blocks
        # (32 MiB) would not fit.
        assert self._paper_span(cores)[0] < 28 << 20

    @pytest.mark.parametrize("cores", [None, 2, 8, 64])
    def test_paper_span_makes_one_pool(self, cores):
        # every banded pass of the span's 26 blocks runs on one pool, and
        # its workers are joined when the span ends
        _, pools, outlived = self._paper_span(cores)
        workers = (cores or os.cpu_count() or 1) - 1
        assert pools == ([(workers,)] if workers else [])
        assert not outlived

    def test_no_epochs_no_results(self, code1):
        assert run_span([], code1, PLAN1,
                        [IntegrationSpec(Strategy.COHERENT, 1)], 2.5) == []

    def test_specs_must_share_span(self, code1):
        specs = [IntegrationSpec(Strategy.COHERENT, 1),
                 IntegrationSpec(Strategy.COHERENT, 5)]
        with pytest.raises(ValueError, match="one span"):
            run_span(_span_epochs(1), code1, plan_for(1), specs, 2.5)

    def test_insufficient_samples(self, code1):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(2), fast_params(cn0=None, duration=2e-3)))
        spec = IntegrationSpec(Strategy.COHERENT, total_ms=5)
        with pytest.raises(ValueError, match="needs"):
            run_span(epochs, code1, PLAN1, [spec], threshold=2.5)


class TestPfSweep:
    def test_all_correct_and_confident(self):
        results = [_result(ratio=10.0)] * 8
        labels = [EpochLabel(0.0, 0.0, 0.0, True)] * 8
        curve = pf_sweep(results, labels, [1.0, 5.0, 10.0, 10.5])
        assert np.array_equal(curve.pf, [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(curve.false_alarm_rate, [0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(curve.miss_rate, [0.0, 0.0, 0.0, 1.0])

    def test_all_wrong_and_confident(self):
        results = [_result(ratio=10.0)] * 8
        labels = [EpochLabel(0.0, 0.0, 0.0, False)] * 8
        curve = pf_sweep(results, labels, [1.0, 10.0, 10.5])
        assert np.array_equal(curve.pf, [1.0, 1.0, 0.0])

    def test_monotone_components(self):
        rng = np.random.default_rng(3)
        results = [_result(ratio=float(r)) for r in rng.uniform(1, 6, 50)]
        labels = [EpochLabel(0.0, 0.0, 0.0, bool(b))
                  for b in rng.random(50) < 0.6]
        curve = pf_sweep(results, labels, np.linspace(1.0, 6.0, 21))
        assert np.all(np.diff(curve.false_alarm_rate) <= 0)
        assert np.all(np.diff(curve.miss_rate) >= 0)
        assert curve.pf == pytest.approx(curve.miss_rate + curve.false_alarm_rate)

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            pf_sweep([_result()], [EpochLabel(0, 0, 0, True)], [2.0, 1.0])
        with pytest.raises(ValueError, match="empty"):
            pf_sweep([], [], [1.0])

    @pytest.mark.parametrize("labels", [1, 2, 4])
    def test_results_and_labels_must_pair(self, labels):
        with pytest.raises(ValueError, match="3 results vs"):
            pf_sweep([_result()] * 3, [EpochLabel(0, 0, 0, True)] * labels,
                     [1.0, 2.0])


class TestThresholdBounds:
    def test_constructed_dip(self):
        curve = PfCurve(thresholds=np.array([1.0, 2.0, 2.5, 3.0, 4.0]),
                        pf=np.array([0.5, 0.05, 0.02, 0.08, 0.4]),
                        miss_rate=np.zeros(5), false_alarm_rate=np.zeros(5))
        assert threshold_bounds(curve, 0.10) == (2.0, 3.0)

    def test_never_below_target(self):
        curve = PfCurve(thresholds=np.array([1.0, 2.0]),
                        pf=np.array([0.5, 0.6]),
                        miss_rate=np.zeros(2), false_alarm_rate=np.zeros(2))
        assert threshold_bounds(curve, 0.10) is None

    def test_interval_nesting(self):
        rng = np.random.default_rng(5)
        curve = PfCurve(thresholds=np.linspace(1, 6, 30),
                        pf=rng.random(30) * 0.4,
                        miss_rate=np.zeros(30), false_alarm_rate=np.zeros(30))
        inner = threshold_bounds(curve, 0.10)
        outer = threshold_bounds(curve, 0.30)
        if inner is not None:
            assert outer is not None
            assert outer[0] <= inner[0] and inner[1] <= outer[1]

    def test_target_validation(self):
        curve = PfCurve(np.array([1.0]), np.array([0.0]),
                        np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="target"):
            threshold_bounds(curve, 1.5)


def _flat_scenario(n, doppler=300.0, step=1.0):
    samples = [PassSample(t=k * step, range_m=1000e3, elevation_deg=45.0,
                          radial_velocity=0.0, doppler=doppler,
                          doppler_rate=0.0, path_loss_db=150.0)
               for k in range(n)]
    return PassScenario(samples=samples)


def _timeline(epochs, spec, plan=PLAN1, threshold=2.5):
    """run_span over the epochs, then acquisition_timeline on its results."""
    code = generate_code(epochs[0].truth.prn_id)
    results = [r for (r,) in run_span(epochs, code, plan, [spec], threshold)]
    return acquisition_timeline(epochs, spec, plan, threshold, results)


class TestTimeline:
    def test_strong_pass_fully_acquired(self, code1):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(5), fast_params(cn0=50.0, duration=5e-3, seed=2)))
        spec = IntegrationSpec(Strategy.NON_COHERENT, total_ms=5)
        results, labels, summary = _timeline(epochs, spec)
        assert len(results) == 5
        assert all(l.estimate_ok for l in labels)
        assert summary.success_s == 5.0
        assert summary.decided_s == 5.0

    def test_deterministic(self, code1):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(3), fast_params(cn0=43.0, duration=2e-3, seed=7)))
        spec = IntegrationSpec(Strategy.DIFFERENTIAL, total_ms=2)
        a = _timeline(epochs, spec)
        b = _timeline(epochs, spec)
        assert [r.mtsmr for r in a[0]] == [r.mtsmr for r in b[0]]
        assert a[2] == b[2]

    def test_cadence_scales_durations(self, code1):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(4, step=3.0), fast_params(cn0=None, duration=1e-3)))
        spec = IntegrationSpec(Strategy.COHERENT, total_ms=1)
        _, _, summary = _timeline(epochs, spec)
        assert summary.success_s == 12.0

    def test_given_results_are_labelled_not_recomputed(self, code1, monkeypatch):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(3), fast_params(cn0=50.0, duration=2e-3, seed=4)))
        spec = IntegrationSpec(Strategy.NON_COHERENT, total_ms=2)
        expected = _timeline(epochs, spec)
        for name in ("run_span", "process_units", "integrate", "acquire"):
            monkeypatch.setattr(eval_harness, name, None)
        assert acquisition_timeline(epochs, spec, PLAN1, 2.5,
                                    expected[0]) == expected
        assert acquisition_timeline(epochs, spec, PLAN1, 2.5, expected[0],
                                    code=code1) == expected

    def test_empty_stream(self):
        spec = IntegrationSpec(Strategy.COHERENT, total_ms=1)
        with pytest.raises(ValueError, match="empty"):
            acquisition_timeline([], spec, PLAN1, 2.5, [])
