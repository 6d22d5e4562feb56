"""Evaluation-harness tests: labeling, P_f sweeps, timelines."""

import concurrent.futures
import contextlib
import dataclasses
import functools
import math
import os
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, example, given, settings, strategies as st

from leoacq import acq_core, eval_harness
from leoacq.acq_core import code_spectrum, make_plan
from leoacq.detector import AcqResult, RowSearch, acquire, decide
from leoacq.eval_harness import (COLUMNS, EpochLabel, acquisition_timeline,
                                 cyclic_distance, durations, label_epochs,
                                 pf_sweep, run_epoch, run_span,
                                 threshold_bounds, truth_code_phase)
from leoacq.integrators import (IntegrationSpec, Strategy, integrate,
                                span_error)
from leoacq.prn_code import CHIP_RATE, generate_code, samples_per_code
from leoacq.signal_synth import SampledSignal, synthesize_pass_signal

from conftest import (FS_FAST, FIF_FAST, FS_FULL, FIF_FULL,
                      assert_acquires_as, block_rows, counted_pools,
                      fast_params, flat_scenario, full_params, plan_for,
                      reference_acquisitions, row_bands, synth_units)


def _result(doppler=0.0, code=0, ratio=5.0, decided=True):
    return AcqResult(doppler_hat=doppler, code_phase_hat=code, mtsmr=ratio,
                     mtmr=ratio * 2, decided=decided)


def _epoch(t=0.0, doppler=0.0, code_phase0=0.0, params=fast_params):
    """An epoch that carries only its truth: labelling reads no samples."""
    truth = params(doppler0=doppler, code_phase0=code_phase0)
    return SampledSignal(samples=np.zeros(0), sample_rate=truth.sample_rate,
                         t0=t, truth=truth)


PLAN1 = plan_for(1)  # 500 Hz bins around the fast-profile IF


class TestLabeling:
    def test_exact_estimate_ok(self, code1):
        labels = label_epochs([_result()], [_epoch()], PLAN1, code1)
        assert labels[0].estimate_ok

    def test_label_carries_the_epoch_truth(self, code1):
        [label] = label_epochs([_result()], [_epoch(t=7.0, doppler=120.0)],
                               PLAN1, code1)
        assert label == EpochLabel(t=7.0, truth_doppler=120.0,
                                   estimate_ok=True)

    @pytest.mark.parametrize("ratio", [math.nan, 0.0])
    def test_no_positive_peak_not_ok(self, code1, ratio):
        # a grid of zeros peaks at bin 0, sample 0 with a NaN MTSMR: on
        # that truth it is still no estimate
        labels = label_epochs([_result(ratio=ratio, decided=False)],
                              [_epoch()], PLAN1, code1)
        assert not labels[0].estimate_ok

    def test_one_bin_off_not_ok(self, code1):
        labels = label_epochs([_result(doppler=500.0)], [_epoch(doppler=0.0)],
                              PLAN1, code1)
        assert not labels[0].estimate_ok

    def test_half_bin_boundary_inclusive(self, code1):
        labels = label_epochs([_result(doppler=250.0)], [_epoch(doppler=0.0)],
                              PLAN1, code1)
        assert labels[0].estimate_ok

    def test_code_phase_cyclic_tolerance(self, code1):
        # 1 sample a chip: code_phase0 c chips correlates at -c samples
        ok = label_epochs([_result(code=0)], [_epoch(code_phase0=0.5)],
                          PLAN1, code1)[0].estimate_ok
        assert ok  # 0 vs 1022.5 is 0.5 samples away cyclically
        bad = label_epochs([_result(code=3)], [_epoch(code_phase0=1.0)],
                           PLAN1, code1)[0].estimate_ok
        assert not bad  # 3 vs 1022 is 4 samples away

    def test_each_epoch_labelled_at_its_own_if(self, code1):
        # the same estimate is on the truth for an epoch synthesized at the
        # plan's IF and a full bin off for one synthesized 500 Hz above it
        epochs = [_epoch(), _epoch(params=functools.partial(
            fast_params, intermediate_freq=FIF_FAST + 500.0))]
        labels = label_epochs([_result(), _result()], epochs, PLAN1, code1)
        assert [l.estimate_ok for l in labels] == [True, False]

    def test_cyclic_distance(self):
        assert cyclic_distance(0, 1022, 1023) == 1.0
        assert cyclic_distance(511, 512, 1023) == 1.0
        assert cyclic_distance(5.25, 5.25, 1023) == 0.0

    def test_truth_code_phase_mapping(self):
        params = fast_params(code_phase0=100.0)
        assert truth_code_phase(params, 1023) == 923.0
        params = fast_params(code_phase0=0.0)
        assert truth_code_phase(params, 1023) == 0.0

    @settings(max_examples=200)
    @given(params=st.sampled_from([fast_params, full_params]),
           code_phase0=st.floats(0.0, 1023.0, exclude_max=True),
           frac=st.floats(-1.0, 1.0), total_ms=st.integers(1, 40),
           sign=st.sampled_from([-1, 1]))
    # truth at 0 samples, and at 1022.7 whose nearest sample wraps to 0
    @example(params=fast_params, code_phase0=0.0, frac=0.0, total_ms=1, sign=1)
    @example(params=fast_params, code_phase0=0.3, frac=0.5, total_ms=20,
             sign=-1)
    # 250 Hz at 7 ms: half a bin from 214.29 and 285.71 Hz, ok at both
    @example(params=fast_params, code_phase0=0.0, frac=0.125, total_ms=7,
             sign=1)
    def test_only_the_true_cell_is_ok(self, code1, params, code_phase0, frac,
                                      total_ms, sign):
        # the truth Doppler anywhere within the plan's span; the estimate
        # at the bin and the sample nearest the truth is ok, and one a
        # full bin or two samples further, cyclically, is not
        plan = plan_for(total_ms, fif=params().intermediate_freq)
        epoch = _epoch(doppler=frac * 2e3, code_phase0=code_phase0,
                       params=params)
        n = samples_per_code(len(code1), epoch.sample_rate)
        truth = truth_code_phase(epoch.truth, n)
        cell = round(truth) % n
        bin_hat = min(plan.bins, key=lambda b: abs(b - frac * 2e3))
        results = [_result(doppler=bin_hat, code=cell),
                   _result(doppler=frac * 2e3 + sign * plan.bin_width,
                           code=cell),
                   _result(doppler=bin_hat, code=(cell + sign * 2) % n)]
        labels = label_epochs(results, [epoch] * 3, plan, code1)
        assert [l.estimate_ok for l in labels] == [True, False, False]

    def test_noiseless_sweep_labels_all_ok(self, code1):
        # fractional delays across the sweep all label ok (ties acquisition
        # accuracy to the 1-sample labeling tolerance)
        spec = IntegrationSpec(Strategy.COHERENT, total_ms=1)
        for frac in np.linspace(0.0, 0.9, 10):
            sig, params = synth_units(1, code1, d0=300.0,
                                      code_phase0=200.0 + frac)
            res = run_epoch(sig, code1, PLAN1, spec, threshold=2.5)
            label = label_epochs([res], [sig], PLAN1, code1)[0]
            assert label.estimate_ok


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
    def test_row_blocks_give_the_reference_results(
            self, code1, paper, total_ms, slab, cores, seed):
        fs, fif = (FS_FULL, FIF_FULL) if paper else (FS_FAST, FIF_FAST)
        n = samples_per_code(len(code1), fs)
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
            want = reference_acquisitions(epoch, code1, plan, specs, 2.5)
            for r, w in zip(row, want, strict=True):
                assert_acquires_as(r, w, threshold=2.5)

    # (doppler_hat, code_phase_hat, mtsmr, mtmr, decided) for each epoch of
    # test_pinned_results under every Strategy in enum order; the indicators
    # lie within 3e-7 of the complex128 reference's (reference_acquisitions)
    PINNED = [
        [(400.0, 2847, 4.886606732515521, 18.08389229422203, True),
         (400.0, 2847, 4.34358216324115, 6.374565201672938, True),
         (425.0, 2847, 5.154272468169673, 8.764460168100456, True),
         (400.0, 2847, 38.82010351549685, 133.84030187523203, True),
         (425.0, 2847, 5.21158851570191, 14.680564262078994, True)],
        [(-575.0, 647, 5.418885418414605, 19.51437243818314, True),
         (-600.0, 647, 4.380997797139517, 6.5854425745012195, True),
         (-625.0, 647, 5.421563872170249, 8.764001658208745, True),
         (-600.0, 647, 28.15191927664434, 140.32653802951097, True),
         (-625.0, 647, 5.354189719960957, 16.016963023215837, True)],
    ]

    @pytest.mark.parametrize("blocks", [
        lambda: row_bands(1, gate=1 << 62), lambda: block_rows(8, 4092)],
        ids=["one-block", "8-row-blocks"])
    def test_pinned_results(self, code1, blocks):
        # Two 20 ms paper-profile epochs at 45 dB-Hz with a bit transition
        # 7 ms in, over +/-1 kHz (81 bins): the engine acquires as pinned,
        # whether the plan is one block or 8-row blocks.
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
        for r, p in zip(sum(got, []), sum(self.PINNED, []), strict=True):
            assert_acquires_as(r, AcqResult(*p), threshold=2.5)

    @staticmethod
    def _record(monkeypatch):
        calls = []
        process_units = eval_harness.process_units

        def recorded(signal, spectrum, plan, count, out, table):
            calls.append((signal, plan, count, out, table, spectrum))
            return process_units(signal, spectrum, plan, count, out, table)

        monkeypatch.setattr(eval_harness, "process_units", recorded)
        return calls

    def test_one_buffer_per_span_and_table_per_block(self, code1,
                                                      monkeypatch):
        # 21 bins in blocks of 8 rows (8, 8 and a tail of 5) and 3 epochs
        # in chunks of 2: each block's rows are built once per chunk, and
        # every epoch of the chunk is correlated with them in turn
        calls = self._record(monkeypatch)
        code_ffts, tables = [], []
        fft = scipy.fft.fft
        mixing_table = eval_harness._mixing_table

        def counted(x, *args, **kwargs):
            if np.ndim(x) == 1:
                code_ffts.append(len(x))
            return fft(x, *args, **kwargs)

        def recorded_table(plan, n, fs):
            tables.append((plan, mixing_table(plan, n, fs)))
            return tables[-1][1]

        monkeypatch.setattr(scipy.fft, "fft", counted)
        monkeypatch.setattr(eval_harness, "_mixing_table", recorded_table)
        monkeypatch.setattr(eval_harness, "_EPOCH_CHUNK", 2)
        epochs = _span_epochs(3, cn0=45.0)
        plan = make_plan(FIF_FAST, 1e3, 5)
        with block_rows(8, 1023):
            run_span(epochs, code1, plan,
                     [IntegrationSpec(Strategy.COHERENT, 5)], threshold=2.5)
        assert code_ffts == [1023]  # the code spectrum, once per span
        blocks = [(0, 8), (8, 16), (16, 21)]
        # (chunk, epoch, block) of each process_units call
        walk = [(c, k, block) for c, chunk in enumerate(([0, 1], [2]))
                for block in range(3) for k in chunk]
        assert [(c[0], c[2]) for c in calls] == [(epochs[k], 5)
                                                 for _, k, _ in walk]
        buffer = calls[0][3].base
        spectrum = calls[0][5]
        assert buffer.shape == (5 * 8 * 1023,)
        assert spectrum.tobytes() == code_spectrum(code1, FS_FAST).tobytes()
        assert not spectrum.flags.writeable
        sub_plans = [calls[2 * j][1] for j in range(3)]
        whole = acq_core._mixing_table(plan, 1023, FS_FAST)
        assert len(tables) == 6  # one per (chunk, block)
        for k, (table_plan, table) in enumerate(tables):
            a, b = blocks[k % 3]
            assert table_plan is sub_plans[k % 3]
            assert table.shape == (b - a, 1023) and not table.flags.writeable
            assert table.tobytes() == whole[a:b].tobytes()
        for (c, _, block), call in zip(walk, calls, strict=True):
            signal, sub_plan, count, out, tab, spec = call
            a, b = blocks[block]
            assert spec is spectrum
            assert sub_plan is sub_plans[block]  # made once per span
            assert sub_plan.bins == plan.bins[a:b]
            assert (sub_plan.center, sub_plan.bin_width) == (
                plan.center, plan.bin_width)
            assert out.base is buffer and out.flags.c_contiguous
            assert out.shape == (5, b - a, 1023)
            assert out.ctypes.data == buffer.ctypes.data  # a prefix
            assert tab is tables[3 * c + block][1]

    def test_split_plan_acquires_row_searches(self, code1, monkeypatch):
        # 21 bins in blocks of 8 rows: each strategy's rows feed one search
        # per epoch in three blocks, block by block over the chunk's
        # epochs, and each epoch is acquired once its last block is fed;
        # no (bins, n) grid is integrated
        events = []
        real_acquire = eval_harness.acquire
        real_integrate = eval_harness.integrate

        def recorded_acquire(search, threshold):
            events.append(("acquire", search, search.rows))
            return real_acquire(search, threshold=threshold)

        def recorded_integrate(units, strategy):
            rows = real_integrate(units, strategy)
            events.append(("integrate", strategy, rows.shape))
            return rows

        monkeypatch.setattr(eval_harness, "acquire", recorded_acquire)
        monkeypatch.setattr(eval_harness, "integrate", recorded_integrate)
        plan = make_plan(FIF_FAST, 1e3, 5)
        specs = [IntegrationSpec(s, 5) for s in Strategy
                 if span_error(s, 5) is None]
        epochs = _span_epochs(3, cn0=45.0)
        with block_rows(8, 1023):
            got = run_span(epochs, code1, plan, specs, 2.5)
        acquired = [(search, rows) for kind, search, rows in events
                    if kind == "acquire"]
        assert len(acquired) == 3 * len(specs)
        assert len({id(search) for search, _ in acquired}) == len(acquired)
        for search, rows in acquired:
            assert isinstance(search, RowSearch)
            assert search.plan is plan and rows == 21
        want = []
        for h in (8, 8, 5):
            for _ in epochs:
                want += [("integrate", spec.strategy, (h, 1023))
                         for spec in specs]
                if h == 5:
                    want += [("acquire", 21)] * len(specs)
        assert [e if e[0] == "integrate" else (e[0], e[2])
                for e in events] == want
        # a split plan sums MTMR's total block by block
        for epoch, row in zip(epochs, got, strict=True):
            want = reference_acquisitions(epoch, code1, plan, specs, 2.5)
            for r, w in zip(row, want, strict=True):
                assert_acquires_as(r, w, threshold=2.5)

    @staticmethod
    def _epoch_major(epochs, code, plan, specs, threshold):
        """The reference for run_span's block-major walk: each epoch in
        turn through every row block, with the rows of the whole plan's
        mixing table, then acquired."""
        count = specs[0].total_ms
        fs = epochs[0].sample_rate
        n = samples_per_code(len(code), fs)
        spectrum = code_spectrum(code, fs)
        table = acq_core._mixing_table(plan, n, fs)
        l_spc = round(fs / CHIP_RATE)
        results = []
        for epoch in epochs:
            searches = [RowSearch(plan, l_spc) for _ in specs]
            for a, b in acq_core.row_blocks(len(plan.bins), count, n):
                sub_plan = acq_core.FrequencyPlan(plan.center, plan.bin_width,
                                                  plan.bins[a:b])
                out = np.empty((count, b - a, n), np.complex64)
                acq_core.process_units(epoch, spectrum, sub_plan, count, out,
                                       table[a:b])
                for search, spec in zip(searches, specs):
                    search.add(integrate(out, spec.strategy))
            results.append([acquire(search, threshold=threshold)
                            for search in searches])
        return results

    # Chunks of 1-3 epochs over spans of 1-7 epochs (a chunk boundary
    # anywhere, a short last chunk, one chunk), blocks of 1, 3 or 8 rows
    # over plans of 5 to 81 bins, and any set of strategies valid at the
    # span, in any order
    @settings(max_examples=30)
    @given(chunk=st.integers(1, 3), epochs=st.integers(1, 7),
           total_ms=st.sampled_from([1, 2, 5, 20]),
           height=st.sampled_from([1, 3, 8]),
           strategies=st.lists(st.sampled_from(Strategy), min_size=1,
                               unique=True),
           seed=st.integers(0, 2 ** 16))
    @example(chunk=3, epochs=7, total_ms=20, height=8,
             strategies=list(Strategy), seed=0)
    def test_equals_the_epoch_major_walk(self, code1, chunk, epochs,
                                         total_ms, height, strategies, seed):
        assume(all(span_error(s, total_ms) is None for s in strategies))
        signals = list(synthesize_pass_signal(
            _flat_scenario(epochs), fast_params(cn0=41.0, seed=seed,
                                                duration=total_ms * 1e-3)))
        plan = make_plan(FIF_FAST, 1e3, total_ms)
        specs = [IntegrationSpec(s, total_ms) for s in strategies]
        with block_rows(height, 1023), \
                mock.patch.object(eval_harness, "_EPOCH_CHUNK", chunk):
            got = run_span(signals, code1, plan, specs, 2.5)
            want = self._epoch_major(signals, code1, plan, specs, 2.5)
        assert ([[repr(dataclasses.astuple(r)) for r in row] for row in got]
                == [[repr(dataclasses.astuple(r)) for r in row]
                    for row in want])

    @pytest.mark.parametrize("chunk", [1, 8])
    def test_one_block_plan_acquires_each_epoch_as_it_is_correlated(
            self, code1, monkeypatch, chunk):
        # 21 bins in one block: the table is built once whatever the
        # chunk, and each epoch's searches are acquired right after its
        # process_units call and not held once acquired (the feeding
        # loop's name may keep the last until the next epoch is fed)
        events, acquired = [], []
        real_process_units = eval_harness.process_units
        real_acquire = eval_harness.acquire
        mixing_table = eval_harness._mixing_table

        def recorded_units(signal, *args):
            assert sum(ref() is not None for ref in acquired) <= 1
            events.append(("units", signal.t0))
            return real_process_units(signal, *args)

        def recorded_acquire(search, threshold):
            events.append(("acquire", search.rows))
            acquired.append(weakref.ref(search))
            return real_acquire(search, threshold=threshold)

        def recorded_table(plan, n, fs):
            events.append(("table", len(plan.bins)))
            return mixing_table(plan, n, fs)

        monkeypatch.setattr(eval_harness, "process_units", recorded_units)
        monkeypatch.setattr(eval_harness, "acquire", recorded_acquire)
        monkeypatch.setattr(eval_harness, "_mixing_table", recorded_table)
        monkeypatch.setattr(eval_harness, "_EPOCH_CHUNK", chunk)
        epochs = _span_epochs(3, cn0=45.0)
        specs = [IntegrationSpec(s, 5) for s in Strategy
                 if span_error(s, 5) is None]
        run_span(epochs, code1, make_plan(FIF_FAST, 1e3, 5), specs, 2.5)
        want = [("table", 21)]
        for epoch in epochs:
            want += [("units", epoch.t0)] + [("acquire", 21)] * len(specs)
        assert events == want

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

    # fast_sweep's spans over the default +/-10 kHz: 201 bins; a 5 ms
    # block (5 x 201 x 1023 cells) holds a band's worth, a 1 ms one not
    @pytest.mark.parametrize("total_ms", [1, 5])
    def test_fast_profile_spans_are_one_block_banded_at_5_ms(
            self, code1, monkeypatch, total_ms):
        calls = self._record(monkeypatch)
        plan = make_plan(FIF_FAST, 10e3, total_ms)
        specs = [IntegrationSpec(s, total_ms) for s in Strategy
                 if span_error(s, total_ms) is None]
        epochs = _span_epochs(2, cn0=45.0)
        with row_bands(1, gate=acq_core._BAND_CELLS):
            want = run_span(epochs, code1, plan, specs, 2.5)
        made = counted_pools(monkeypatch)
        with row_bands(2, gate=acq_core._BAND_CELLS):
            got = run_span(epochs, code1, plan, specs, 2.5)
        assert [c[1] for c in calls] == [plan] * 4  # one block each time
        assert calls[0][3].shape == (total_ms, len(plan.bins), 1023)
        # two bands on two cores: a one-worker pool
        assert made == ([(1,)] if total_ms == 5 else [])
        assert repr(got) == repr(want)  # bitwise the one-core results

    @staticmethod
    @functools.cache
    def _paper_span(cores, epochs=1, half_span=5e3):
        """`epochs` epochs of paper_block's shape (20 units of 401 x 4092,
        five strategies; fewer bins for a smaller half_span) through
        run_span, banded for `cores` cores (None: the host's own count),
        once per count: its tracemalloc peak, the worker pools it made, the
        threads that outlived it and the rows of each mixing table it
        built."""
        code1 = generate_code(1)
        signals = []
        for k in range(epochs):
            sig, _ = synth_units(20, code1, d0=min(1200.0, half_span / 2),
                                 cn0=45.0, fs=FS_FULL, fif=FIF_FULL, seed=k)
            sig.t0 = 40.0 + 20.0 * k
            signals.append(sig)
        plan = make_plan(FIF_FULL, half_span, 20)
        specs = [IntegrationSpec(s, 20) for s in Strategy]
        pools, table_rows = [], []
        pool = concurrent.futures.ThreadPoolExecutor
        mixing_table = eval_harness._mixing_table

        def counted_pool(*args, **kwargs):
            pools.append(args)
            return pool(*args, **kwargs)

        def counted_table(plan, n, fs):
            table_rows.append(len(plan.bins))
            return mixing_table(plan, n, fs)

        threads = set(threading.enumerate())
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with (contextlib.nullcontext() if cores is None
                  else row_bands(cores, gate=acq_core._BAND_CELLS)), \
                    mock.patch.object(concurrent.futures,
                                      "ThreadPoolExecutor", counted_pool), \
                    mock.patch.object(eval_harness, "_mixing_table",
                                      counted_table):
                rows = run_span(signals, code1, plan, specs, 2.5)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert len(rows) == epochs
        assert all(r.decided and r.code_phase_hat == 0
                   for row in rows for r in row)
        return peak, pools, set(threading.enumerate()) - threads, table_rows

    def test_paper_span_holds_under_half_the_unit_block(self):
        # A whole-span (units, bins, n) complex64 block alone is 262.5 MB.
        block_bytes = 20 * 401 * 4092 * 8
        assert self._paper_span(None)[0] < block_bytes / 2

    def test_paper_span_holds_no_detection_grid(self):
        # The unit-grid buffer, one block's mixing rows and a block's rows
        # in flight fit; five held (401, 4092) float64 detection grids
        # (62.6 MiB) would not.
        assert self._paper_span(None)[0] < 56 << 20

    @pytest.mark.parametrize("cores", [None, 2, 8, 64])
    def test_paper_span_holds_whole_slab_blocks(self, cores):
        # 16-row blocks (10 MiB of unit grids, two 8-row slabs), whatever
        # the core count; 51-row blocks (32 MiB) would not fit.
        assert self._paper_span(cores)[0] < 28 << 20

    def test_paper_span_holds_one_block_of_the_table(self):
        # paper_block's span, 3 epochs over 401 bins in blocks of 16 rows
        # and a 1-row tail, holds the 10 MiB unit buffer, one block's
        # 0.5 MiB of mixing rows, a row for each of the chunk's 15 searches
        # (0.5 MiB) and 4 MiB for the rest: a block table's complex128 build
        # temporaries and the rows in flight (2.3 MiB measured).  The whole
        # plan's 12.5 MiB table would not fit, and no table has more than
        # one block's rows.
        peak, _, _, table_rows = self._paper_span(None, epochs=3)
        row = 4092 * 8  # bytes of a complex64 or float64 row
        buffer, table, searches = 20 * 16 * row, 16 * row, 3 * 5 * row
        assert peak < buffer + table + searches + (4 << 20)
        assert table_rows == [16] * 25 + [1]

    def test_paper_chunk_holds_one_row_a_search(self):
        # one whole chunk, 8 epochs x 5 strategies, over +/-1 kHz (81 bins
        # in blocks of 16 rows and a 1-row tail) holds the 10 MiB unit
        # buffer, one block's 0.5 MiB of mixing rows, a row for each of the
        # chunk's 40 searches (1.25 MiB) and the same 4 MiB for the rest
        # (2.3 MiB measured).  40 searches of 4 rows (5 MiB) would not fit.
        peak, _, _, table_rows = self._paper_span(
            None, epochs=eval_harness._EPOCH_CHUNK, half_span=1e3)
        row = 4092 * 8  # bytes of a complex64 or float64 row
        buffer, table, searches = 20 * 16 * row, 16 * row, 8 * 5 * row
        assert peak < buffer + table + searches + (4 << 20)
        assert table_rows == [16] * 5 + [1]

    @pytest.mark.parametrize("cores", [None, 2, 8, 64])
    def test_paper_span_makes_one_pool(self, cores):
        # every banded pass of the span's 26 blocks runs on one pool, and
        # its workers are joined when the span ends
        _, pools, outlived, _ = self._paper_span(cores)
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
    # pf_sweep takes a table's mtsmr and ok columns
    def test_all_correct_and_confident(self):
        curve = pf_sweep([10.0] * 8, [1] * 8, [1.0, 5.0, 10.0, 10.5])
        assert np.array_equal(curve.pf, [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(curve.false_alarm_rate, [0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(curve.miss_rate, [0.0, 0.0, 0.0, 1.0])

    def test_all_wrong_and_confident(self):
        curve = pf_sweep([10.0] * 8, [0] * 8, [1.0, 10.0, 10.5])
        assert np.array_equal(curve.pf, [1.0, 1.0, 0.0])

    def test_monotone_components(self):
        rng = np.random.default_rng(3)
        mtsmr = rng.uniform(1, 6, 50)
        ok = (rng.random(50) < 0.6).astype(int)
        curve = pf_sweep(mtsmr, ok, np.linspace(1.0, 6.0, 21))
        assert np.all(np.diff(curve.false_alarm_rate) <= 0)
        assert np.all(np.diff(curve.miss_rate) >= 0)
        assert curve.pf == pytest.approx(curve.miss_rate + curve.false_alarm_rate)


def _curve(thresholds, pf):
    """A pf_sweep curve over thresholds, its pf column replaced by pf."""
    curve = pf_sweep([1.0], [1], thresholds)
    curve["pf"] = pf
    return curve


class TestThresholdBounds:
    def test_constructed_dip(self):
        curve = _curve([1.0, 2.0, 2.5, 3.0, 4.0], [0.5, 0.05, 0.02, 0.08, 0.4])
        assert threshold_bounds(curve, 0.10) == (2.0, 3.0)

    def test_never_below_target(self):
        curve = _curve([1.0, 2.0], [0.5, 0.6])
        assert threshold_bounds(curve, 0.10) is None

    def test_interval_nesting(self):
        rng = np.random.default_rng(5)
        curve = _curve(np.linspace(1, 6, 30), rng.random(30) * 0.4)
        inner = threshold_bounds(curve, 0.10)
        outer = threshold_bounds(curve, 0.30)
        if inner is not None:
            assert outer is not None
            assert outer[0] <= inner[0] and inner[1] <= outer[1]


# the passes of these tests: one range and a 300 Hz Doppler at every epoch
_flat_scenario = functools.partial(flat_scenario, doppler=300.0)


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
        results, labels, table = _timeline(epochs, spec)
        assert len(results) == len(table) == 5
        assert all(l.estimate_ok for l in labels)
        assert durations(table, 1.0) == (5.0, 5.0)

    def test_table_holds_each_epoch_by_name(self, code1):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(3), fast_params(cn0=43.0, duration=2e-3, seed=7)))
        spec = IntegrationSpec(Strategy.DIFFERENTIAL, total_ms=2)
        results, labels, table = _timeline(epochs, spec)
        assert table.dtype.names == COLUMNS
        assert table["t_s"].tolist() == [l.t for l in labels] == [
            e.t0 for e in epochs]
        assert set(table["strategy"].tolist()) == {"differential"}
        assert set(table["total_ms"].tolist()) == {2}
        for name, field in [("doppler_hz", "doppler_hat"),
                            ("code_phase_samples", "code_phase_hat"),
                            ("mtsmr", "mtsmr"), ("mtmr", "mtmr"),
                            ("decided", "decided")]:
            assert table[name].tolist() == [getattr(r, field)
                                            for r in results], name
        assert table["ok"].tolist() == [l.estimate_ok for l in labels]

    def test_deterministic(self, code1):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(3), fast_params(cn0=43.0, duration=2e-3, seed=7)))
        spec = IntegrationSpec(Strategy.DIFFERENTIAL, total_ms=2)
        a = _timeline(epochs, spec)
        b = _timeline(epochs, spec)
        assert [r.mtsmr for r in a[0]] == [r.mtsmr for r in b[0]]
        assert a[2].tolist() == b[2].tolist()

    def test_epoch_step_scales_durations(self, code1):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(4, step=3.0), fast_params(cn0=None, duration=1e-3)))
        spec = IntegrationSpec(Strategy.COHERENT, total_ms=1)
        _, _, table = _timeline(epochs, spec)
        for epoch_step in (3.0, 3):  # a JSON int step still gives floats
            success_s, decided_s = durations(table, epoch_step)
            assert repr(success_s) == repr(decided_s) == "12.0"

    def test_one_epoch_counts_one_epoch_step(self, code1):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(1), fast_params(cn0=None, duration=1e-3)))
        spec = IntegrationSpec(Strategy.COHERENT, total_ms=1)
        _, _, table = _timeline(epochs, spec)
        assert durations(table, 60.0) == (60.0, 60.0)

    def test_given_results_are_labelled_not_recomputed(self, code1, monkeypatch):
        epochs = list(synthesize_pass_signal(
            _flat_scenario(3), fast_params(cn0=50.0, duration=2e-3, seed=4)))
        spec = IntegrationSpec(Strategy.NON_COHERENT, total_ms=2)
        results, labels, table = _timeline(epochs, spec)
        for name in ("run_span", "process_units", "integrate", "acquire"):
            monkeypatch.setattr(eval_harness, name, None)
        for code in (None, code1):
            again = acquisition_timeline(epochs, spec, PLAN1, 2.5, results,
                                         code=code)
            assert again[:2] == (results, labels)
            assert again[2].tolist() == table.tolist()


# a table as acquisition_timeline makes it, from drawn columns
_tables = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.floats(0.0, 10.0), st.sampled_from(
        [math.inf, math.nan])), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n)))


class TestTableReductions:
    # pf_sweep and durations reduce a table's columns: each equals a
    # brute-force count of decide and ok over its rows.  The curve is a
    # table of the curve CSV's columns, and threshold_bounds on it equals a
    # brute-force search of the brute-force pf.
    @given(columns=_tables,
           thresholds=st.lists(st.floats(0.5, 10.5), min_size=1,
                               max_size=8).map(sorted),
           threshold=st.floats(0.5, 10.5),
           epoch_step=st.one_of(st.integers(1, 600), st.floats(0.5, 600.0)),
           target=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_reductions_equal_brute_force_counts(self, columns, thresholds,
                                                 threshold, epoch_step,
                                                 target):
        mtsmr, ok = columns
        rows = [(float(k), "coherent", 1, 0.0, 0, m, m, int(decide(m, threshold)),
                 int(o)) for k, (m, o) in enumerate(zip(mtsmr, ok))]
        table = np.rec.fromrecords(rows, names=COLUMNS)
        curve = pf_sweep(table["mtsmr"], table["ok"], thresholds)
        assert curve.dtype.names == ("threshold", "pf", "miss_rate",
                                     "false_alarm_rate")
        n = len(rows)
        below = []
        for k, thr in enumerate(thresholds):
            fa = sum(1 for m, o in zip(mtsmr, ok) if decide(m, thr) and not o)
            miss = sum(1 for m, o in zip(mtsmr, ok) if not decide(m, thr) and o)
            assert curve["threshold"][k] == thr
            assert curve["false_alarm_rate"][k] == fa / n
            assert curve["miss_rate"][k] == miss / n
            assert curve["pf"][k] == fa / n + miss / n
            if fa / n + miss / n <= target:
                below.append(thr)
        assert threshold_bounds(curve, target) == (
            (min(below), max(below)) if below else None)
        step = float(epoch_step)
        assert durations(table, epoch_step) == (
            sum(1 for o in ok if o) * step,
            sum(1 for m in mtsmr if decide(m, threshold)) * step)
        assert all(type(d) is float for d in durations(table, epoch_step))
