"""End-to-end streamed experiment runs: chunked campaigns, same science."""

from types import SimpleNamespace

import numpy as np
import pytest
import rawchunks

from repro.backends import fork_available
from repro.campaigns.accumulators import (
    CpaAccumulator,
    CpaBudgetSnapshots,
    OnlineCorrAccumulator,
    StatisticKindMismatch,
)
from repro.campaigns.checkpoint import CheckpointMismatch, CheckpointStore, Checkpointer
from repro.campaigns.engine import StreamingCampaign
from repro.campaigns.reduction import ColumnCorrFold, SboxCpaBudgetFold
from repro.crypto.aes_asm import LAYOUT, round1_only_program
from repro.experiments.ablations import ablate_operand_swap
from repro.experiments.figure3 import figure3_scope, run_figure3
from repro.experiments.table2 import run_table2
from repro.power.acquisition import random_inputs
from repro.power.profile import cortex_a7_profile
from repro.power.scope import ScopeConfig
from repro.sca.cpa import cpa_attack
from repro.sca.stats import pearson_corr
from repro.sca.models import hw_sbox_class_model, hw_sbox_matrix

#: Low-noise scope so reduced-trace streamed attacks stay decisive.
_FAST_SCOPE = ScopeConfig(noise_sigma=20.0, n_averages=16, quantize_bits=8)


class TestStreamedFigure3:
    @pytest.fixture(scope="class")
    def streamed(self):
        return run_figure3(n_traces=400, scope=_FAST_SCOPE, chunk_size=128)

    def test_recovers_key_from_chunked_campaign(self, streamed):
        assert streamed.cpa.rank_of(streamed.true_key_byte) == 0
        assert streamed.cpa.n_traces == 400

    def test_metadata_still_describes_the_figure(self, streamed):
        # The result's trace_set is the fold's zero-row metadata set:
        # same schedule, same sample axis, no trace bytes.
        assert streamed.timecourse.shape == (streamed.trace_set.n_samples,)
        assert streamed.trace_set.n_traces == 0
        assert set(streamed.segments) == {"ARK", "SB", "ShR", "MC"}

    def test_parallel_fanout_matches_serial(self, streamed):
        parallel = run_figure3(n_traces=400, scope=_FAST_SCOPE, chunk_size=128, jobs=3)
        assert parallel.cpa.best_guess == streamed.cpa.best_guess
        np.testing.assert_array_equal(
            parallel.cpa.correlations, streamed.cpa.correlations
        )


class TestStreamedTable2:
    def test_chunked_run_is_deterministic_across_jobs(self):
        serial = run_table2(n_traces=300, chunk_size=100)
        parallel = run_table2(n_traces=300, chunk_size=100, jobs=2)
        assert len(serial.benchmarks) == len(parallel.benchmarks) == 7
        for left, right in zip(serial.benchmarks, parallel.benchmarks):
            assert left.dual_measured == right.dual_measured
            for lo, ro in zip(left.outcomes, right.outcomes):
                assert lo.peak_corr == pytest.approx(ro.peak_corr, abs=1e-12)


class TestStreamedAblations:
    def test_operand_swap_demonstrated_chunked(self):
        result = ablate_operand_swap(n_traces=800, chunk_size=300)
        assert result.demonstrated


class _Killed(Exception):
    """Stands in for a kill landing right after a checkpoint commit."""


def _f32_figure3(**kwargs):
    return run_figure3(n_traces=240, chunk_size=60, precision="float32", **kwargs)


def _figure3_on_oracle(monkeypatch, **kwargs):
    """``run_figure3`` finished on the two-pass ``cpa_attack`` oracle.

    The engine's fold still runs (for the result's metadata), but the
    CPA handed to the figure's finish step is recomputed by
    :func:`cpa_attack` over the whole campaign acquired monolithically
    via :meth:`StreamingCampaign.acquire` — so rank and shape checks are
    judged by the same code on the oracle's correlations.
    """
    real_reduce = StreamingCampaign.reduce

    def oracle_reduce(self, inputs, fold, **reduce_kwargs):
        traces = self.acquire(inputs).traces
        reduced = real_reduce(self, inputs, fold, **reduce_kwargs)
        plaintexts = inputs.mem_bytes[LAYOUT.state]
        oracle = cpa_attack(traces, hw_sbox_matrix(plaintexts, fold.byte_index))
        reduced.value = SimpleNamespace(result=lambda: oracle)
        return reduced

    monkeypatch.setattr(StreamingCampaign, "reduce", oracle_reduce)
    try:
        return run_figure3(**kwargs)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("precision", ["float32", "float64-exact"])
class TestFigure3SingleChunkFold:
    """An unchunked figure3 is the single-chunk case of the one fold."""

    def test_default_equals_one_whole_chunk(self, precision):
        default = run_figure3(n_traces=400, precision=precision)
        whole = run_figure3(n_traces=400, precision=precision, chunk_size=400)
        assert default.cpa.correlations.tobytes() == whole.cpa.correlations.tobytes()
        assert default.to_json() == whole.to_json()

    def test_matches_the_two_pass_oracle(self, precision, monkeypatch):
        folded = run_figure3(n_traces=3000, precision=precision)
        oracle = _figure3_on_oracle(monkeypatch, n_traces=3000, precision=precision)
        np.testing.assert_allclose(
            folded.cpa.correlations, oracle.cpa.correlations, rtol=0, atol=1e-10
        )
        key_byte = folded.true_key_byte
        assert folded.cpa.rank_of(key_byte) == oracle.cpa.rank_of(key_byte) == 0
        assert folded.checks == oracle.checks
        assert folded.matches_paper and oracle.matches_paper


class TestFigure3FoldPaths:
    """The streamed figure3 folds — serial, in fork workers and through
    a checkpoint resume — all fold partition sums in chunk order, so
    their correlations are byte-equal; the two-pass CPA over the
    monolithic acquisition is the oracle they agree with."""

    @pytest.fixture(scope="class")
    def serial(self):
        return _f32_figure3()

    @pytest.mark.parametrize(
        "backend, jobs",
        [
            ("serial", 1),
            pytest.param(
                "fork",
                2,
                marks=pytest.mark.skipif(not fork_available(), reason="fork unavailable"),
            ),
        ],
    )
    def test_worker_reduction_is_byte_equal(self, serial, backend, jobs):
        reduced = _f32_figure3(backend=backend, jobs=jobs)
        assert reduced.cpa.correlations.tobytes() == serial.cpa.correlations.tobytes()

    def test_killed_then_resumed_checkpoint_is_byte_equal(self, serial, tmp_path, monkeypatch):
        commit = Checkpointer.chunk_done

        def commit_then_die(self, index):
            commit(self, index)
            if len(self.completed) == 2:
                raise _Killed

        monkeypatch.setattr(Checkpointer, "chunk_done", commit_then_die)
        with pytest.raises(_Killed):
            _f32_figure3(checkpoint=str(tmp_path))
        monkeypatch.undo()
        record = CheckpointStore(str(tmp_path)).load()
        assert record["completed"] == [0, 1] and not record["complete"]
        resumed = _f32_figure3(checkpoint=str(tmp_path), resume=True)
        assert resumed.cpa.correlations.tobytes() == serial.cpa.correlations.tobytes()

    def test_streamed_matches_the_monolithic_oracle(self, serial, monkeypatch):
        monolithic = _figure3_on_oracle(
            monkeypatch, n_traces=240, chunk_size=60, precision="float32"
        )
        np.testing.assert_allclose(
            serial.cpa.correlations, monolithic.cpa.correlations, rtol=0, atol=1e-10
        )
        key_byte = serial.true_key_byte
        assert serial.cpa.rank_of(key_byte) == monolithic.cpa.rank_of(key_byte)
        assert np.argmax(np.abs(serial.timecourse)) == np.argmax(
            np.abs(monolithic.timecourse)
        )

    @pytest.mark.parametrize("legacy", ["stream-record", "kindless-state"])
    def test_resuming_a_comoment_checkpoint_is_refused(self, tmp_path, legacy):
        _f32_figure3(checkpoint=str(tmp_path))
        store = CheckpointStore(str(tmp_path))
        record = store.load()
        rng = np.random.default_rng(0)
        corr = OnlineCorrAccumulator()
        corr.update(rng.normal(size=(4, 256)), rng.normal(size=(4, 3)))
        guesses = np.arange(256)
        if legacy == "stream-record":
            # What the retired parent-stream path wrote: its own stream
            # fingerprint over a pickled co-moment accumulator (bare
            # ``_corr``).  The fold path never resumes it.
            engine = StreamingCampaign(
                round1_only_program(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")),
                profile=cortex_a7_profile(),
                scope=figure3_scope("float32"),
                entry="aes_round1",
                seed=0xF16003 ^ 0x5A5A,
                chunk_size=60,
            )
            inputs = random_inputs(240, mem_blocks={LAYOUT.state: 16}, seed=0xF16003)
            record["fingerprint"] = engine._stream_fingerprint(
                inputs, engine.chunk_bounds(240)
            )
            legacy = CpaAccumulator.__new__(CpaAccumulator)
            legacy.__dict__.update(guesses=guesses, _corr=corr)
            record["state"] = legacy
        else:
            # A kind-less state dict: the fold's frozen state from before
            # the partition kind.
            record["state"] = {"guesses": guesses, "corr": corr.state()}
        store.save(record)
        with pytest.raises(CheckpointMismatch, match=str(tmp_path)):
            _f32_figure3(checkpoint=str(tmp_path), resume=True)


class TestBudgetFoldReduction:
    def test_worker_budget_snapshots_are_byte_equal_to_the_stream(self):
        key = bytes(range(16))
        inputs = random_inputs(240, mem_blocks={LAYOUT.state: 16}, seed=3)
        engine = StreamingCampaign(
            round1_only_program(key),
            scope=figure3_scope("float32"),
            entry="aes_round1",
            seed=5,
            chunk_size=70,
        )
        budgets = (50, 140, 240)
        serial = CpaBudgetSnapshots(budgets)
        for chunk in rawchunks.chunks(engine, inputs):
            lo, traces = chunk["lo"], chunk["traces"]
            plaintexts = inputs.mem_bytes[LAYOUT.state][lo : lo + traces.shape[0]]
            serial.update(traces, hw_sbox_class_model(plaintexts, 0))
        fold = SboxCpaBudgetFold(byte_index=0, budgets=budgets)
        reduced = engine.reduce(inputs, fold, backend="serial").value
        assert [r.n_traces for r in reduced.results] == list(budgets)
        for ours, theirs in zip(reduced.results, serial.results):
            assert ours.correlations.tobytes() == theirs.correlations.tobytes()
        # A co-moment (pre-partition) frozen state never thaws into it.
        comoment = CpaBudgetSnapshots(budgets)
        comoment.update(np.ones((3, 2)) + np.eye(3, 2), np.outer(np.arange(3.0), np.arange(256)))
        with pytest.raises(StatisticKindMismatch):
            fold.thaw(fold.freeze(comoment))


class TestColumnCorrFold:
    """table2's, the ablations' and the baselines' one correlation fold."""

    BUDGETS = (50, 140, 240)
    COLUMNS = ((3, 40, 41, 100), (7,), ())

    @pytest.fixture(scope="class")
    def campaign(self):
        inputs = random_inputs(240, mem_blocks={LAYOUT.state: 16}, seed=4)
        engine = StreamingCampaign(
            round1_only_program(bytes(range(16))),
            scope=figure3_scope("float32"),
            entry="aes_round1",
            seed=6,
            chunk_size=70,
        )
        plaintexts = inputs.mem_bytes[LAYOUT.state]
        values = np.bitwise_count(plaintexts[:, :3]).astype(np.float64)
        traces = engine.acquire(inputs).traces  # float32: chunking-invariant
        return engine, inputs, values, traces

    def fold(self, values):
        return ColumnCorrFold(columns=self.COLUMNS, values=values, budgets=self.BUDGETS)

    def test_budget_snapshots_match_two_pass_prefixes(self, campaign):
        engine, inputs, values, traces = campaign
        corrs = engine.reduce(inputs, self.fold(values), backend="serial").value
        assert sorted(corrs.snapshots) == list(self.BUDGETS)
        for budget, snapshot in corrs.snapshots.items():
            for m, columns in enumerate(self.COLUMNS):
                if not columns:
                    assert snapshot[m] is None
                    continue
                reference = pearson_corr(values[:budget, m], traces[:budget, list(columns)])
                np.testing.assert_allclose(snapshot[m], reference, rtol=0, atol=1e-10)
        assert corrs.peaks()[2] == 0.0
        assert corrs.curve()[240] == pytest.approx(abs(corrs.peaks()[0]), abs=0)

    @pytest.mark.skipif(not fork_available(), reason="needs the fork backend")
    def test_fork_fold_is_byte_equal_to_the_serial_fold(self, campaign):
        engine, inputs, values, _traces = campaign
        serial = engine.reduce(inputs, self.fold(values), backend="serial").value
        forked = engine.reduce(inputs, self.fold(values), backend="fork", jobs=2).value
        assert forked.peaks() == serial.peaks()
        for budget in self.BUDGETS:
            for ours, theirs in zip(forked.snapshots[budget], serial.snapshots[budget]):
                assert (ours is None and theirs is None) or ours.tobytes() == theirs.tobytes()
