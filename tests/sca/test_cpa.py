"""CPA engine against a synthetic single-point leak."""

import numpy as np
import pytest

from repro.crypto.sbox import SBOX
from repro.power.hamming import hamming_weight
from repro.campaigns.accumulators import CpaAccumulator
from repro.sca.cpa import cpa_attack, cpa_timecourse

SBOX_ARR = np.frombuffer(SBOX, dtype=np.uint8)


def hw_matrix(pts, guesses=range(256)):
    """The ``[n_traces, n_guesses]`` HW(SBOX[pt ^ g]) model matrix."""
    return np.stack(
        [hamming_weight(SBOX_ARR[pts ^ g]).astype(float) for g in guesses], axis=1
    )


def synthetic_campaign(n_traces=600, key_byte=0x3C, noise=1.0, n_samples=40, leak_at=17, seed=0):
    rng = np.random.default_rng(seed)
    plaintexts = rng.integers(0, 256, size=n_traces, dtype=np.uint8)
    leak = hamming_weight(SBOX_ARR[plaintexts ^ key_byte]).astype(np.float64)
    traces = rng.normal(0, noise, size=(n_traces, n_samples))
    traces[:, leak_at] += leak
    return plaintexts, traces


class TestCpaAttack:
    def test_recovers_key_byte(self):
        pts, traces = synthetic_campaign()
        result = cpa_attack(traces, hw_matrix(pts))
        assert result.best_guess == 0x3C
        assert result.rank_of(0x3C) == 0
        assert result.best_sample == 17

    def test_correlations_shape(self):
        pts, traces = synthetic_campaign(n_traces=100)
        result = cpa_attack(traces, hw_matrix(pts, range(16)), guesses=range(16))
        assert result.correlations.shape == (16, traces.shape[1])
        assert len(result.guesses) == 16

    def test_rank_degrades_with_noise(self):
        pts, traces = synthetic_campaign(n_traces=60, noise=30.0, seed=5)
        result = cpa_attack(traces, hw_matrix(pts))
        # With this little SNR the margin must be inconclusive.
        assert result.margin_confidence() < 0.999

    def test_margin_confident_with_clean_leak(self):
        pts, traces = synthetic_campaign(n_traces=2000, noise=0.5)
        result = cpa_attack(traces, hw_matrix(pts))
        assert result.margin_confidence() > 0.99

    def test_timecourse_selects_guess_row(self):
        pts, traces = synthetic_campaign()
        result = cpa_attack(traces, hw_matrix(pts))
        curve = result.timecourse(0x3C)
        assert curve.shape == (traces.shape[1],)
        assert np.argmax(np.abs(curve)) == 17

    def test_rank_of_unknown_guess(self):
        pts, traces = synthetic_campaign(n_traces=100)
        result = cpa_attack(traces, hw_matrix(pts, range(8)), guesses=range(8))
        assert result.rank_of(200) == 8  # not in the guess space


class TestStreamingEquivalence:
    """Acceptance: any chunking reproduces the monolithic CpaResult."""

    @staticmethod
    def stream(traces, models, size):
        accumulator = CpaAccumulator()
        for lo in range(0, traces.shape[0], size):
            accumulator.update(traces[lo : lo + size], models[lo : lo + size])
        return accumulator.result()

    @pytest.mark.parametrize("chunk_size", (1, 17, 100, 600, 10_000))
    def test_reproduces_monolithic_result(self, chunk_size):
        pts, traces = synthetic_campaign()
        models = hw_matrix(pts)
        monolithic = cpa_attack(traces, models)
        streamed = self.stream(traces, models, chunk_size)
        assert streamed.best_guess == monolithic.best_guess
        assert streamed.n_traces == monolithic.n_traces
        np.testing.assert_allclose(
            streamed.correlations, monolithic.correlations, atol=1e-10
        )
        # Derived statistics agree too.
        assert streamed.rank_of(0x3C) == monolithic.rank_of(0x3C) == 0
        assert streamed.best_sample == monolithic.best_sample

    def test_acquired_campaign_equivalence(self):
        """Same check over traces from a real (engine-acquired) campaign."""
        from repro.campaigns.engine import StreamingCampaign
        from repro.crypto.aes_asm import LAYOUT, round1_only_program
        from repro.power.acquisition import random_inputs
        from repro.sca.models import hw_sbox_matrix

        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        program = round1_only_program(key)
        inputs = random_inputs(200, mem_blocks={LAYOUT.state: 16}, seed=0xCAFE)
        engine = StreamingCampaign(program, entry="aes_round1", seed=0xCAFE)
        trace_set = engine.acquire(inputs)
        models = hw_sbox_matrix(inputs.mem_bytes[LAYOUT.state], 0)
        monolithic = cpa_attack(trace_set.traces, models)
        for size in (1, 64, 1_000):
            streamed = self.stream(trace_set.traces, models, size)
            assert streamed.best_guess == monolithic.best_guess
            np.testing.assert_allclose(
                streamed.correlations, monolithic.correlations, atol=1e-10
            )

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            CpaAccumulator().result()


class TestTimecourse:
    def test_single_model_curve(self):
        pts, traces = synthetic_campaign()
        model = hamming_weight(SBOX_ARR[pts ^ 0x3C]).astype(float)
        curve = cpa_timecourse(traces, model)
        assert curve.shape == (traces.shape[1],)
        assert np.argmax(np.abs(curve)) == 17
        assert abs(curve[17]) > 0.5


class TestCpaCurve:
    def test_matches_recompute_at_every_budget(self):
        from repro.sca.cpa import cpa_attack_curve

        pts, traces = synthetic_campaign(n_traces=500, noise=2.0)
        models = np.stack(
            [hamming_weight(SBOX_ARR[pts ^ g]).astype(float) for g in range(256)],
            axis=1,
        )
        budgets = [5, 40, 160, 500]
        curve = cpa_attack_curve(traces, models, budgets)
        for i, budget in enumerate(budgets):
            reference = cpa_attack(traces[:budget], models[:budget])
            np.testing.assert_allclose(
                curve.peak_per_guess[i], reference.peak_per_guess, atol=1e-10
            )
            assert curve.best_guesses[i] == reference.best_guess
            assert curve.ranks_of(0x3C)[i] == reference.rank_of(0x3C)
            assert curve.margin_confidences()[i] == pytest.approx(
                reference.margin_confidence(), abs=1e-12
            )

    def test_recovers_key_with_enough_traces(self):
        from repro.sca.cpa import cpa_attack_curve

        pts, traces = synthetic_campaign(n_traces=600)
        curve = cpa_attack_curve(traces, hw_matrix(pts), [10, 600])
        assert curve.best_guesses[-1] == 0x3C
        assert curve.peaks_of(0x3C)[-1] > 0.5

    def test_model_matrix_shape_validated(self):
        pts, traces = synthetic_campaign(n_traces=100)
        with pytest.raises(ValueError):
            cpa_attack(traces, np.zeros((50, 256)))


class TestCpaBudgetSnapshots:
    def test_misaligned_chunks_match_recompute(self):
        from repro.campaigns.accumulators import CpaBudgetSnapshots

        pts, traces = synthetic_campaign(n_traces=300, noise=2.0)
        budgets = [7, 64, 150, 300]
        snapshots = CpaBudgetSnapshots(budgets)
        models = hw_matrix(pts)
        for lo, hi in ((0, 13), (13, 80), (80, 200), (200, 300)):
            snapshots.update(traces[lo:hi], models[lo:hi])
        assert len(snapshots.results) == len(budgets)
        for budget, result in zip(budgets, snapshots.results):
            reference = cpa_attack(traces[:budget], models[:budget])
            assert result.n_traces == budget
            np.testing.assert_allclose(
                result.correlations, reference.correlations, atol=1e-10
            )

    def test_budget_validation(self):
        from repro.campaigns.accumulators import CpaBudgetSnapshots

        with pytest.raises(ValueError):
            CpaBudgetSnapshots([])
        with pytest.raises(ValueError):
            CpaBudgetSnapshots([10, 10])
        with pytest.raises(ValueError):
            CpaBudgetSnapshots([0, 10])
