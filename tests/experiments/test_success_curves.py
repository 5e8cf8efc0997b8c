"""Success-curve driver: snapshot path vs recompute reference."""

import numpy as np
import pytest

from repro.experiments.success_curves import run_success_curves

_FAST = dict(
    n_campaign=300,
    n_repeats=3,
    trace_counts=(40, 100, 220),
    noise_sigma=25.0,
)


class TestSnapshotEquivalence:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return run_success_curves(**_FAST)

    def test_snapshot_and_recompute_rates_are_identical(self, snapshot):
        recompute = run_success_curves(method="recompute", **_FAST)
        assert snapshot.hw_model == recompute.hw_model
        assert snapshot.hd_model == recompute.hd_model

    def test_budgets_cover_requested_counts(self, snapshot):
        assert sorted(snapshot.hw_model) == [40, 100, 220]
        assert sorted(snapshot.hd_model) == [40, 100, 220]

    def test_rates_are_probabilities(self, snapshot):
        for rates in (snapshot.hw_model, snapshot.hd_model):
            assert all(0.0 <= rate <= 1.0 for rate in rates.values())

    def test_matched_model_dominates_at_low_noise(self, snapshot):
        assert snapshot.crossover_holds()

    def test_render_mentions_every_budget(self, snapshot):
        rendered = snapshot.render()
        for budget in (40, 100, 220):
            assert str(budget) in rendered


class TestOptions:
    @pytest.mark.parametrize("method", ("incremental", "legacy"))
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError):
            run_success_curves(method=method, **_FAST)

    def test_float32_precision_runs_and_ramps(self):
        curves = run_success_curves(precision="float32", **_FAST)
        rates = curves.hd_model
        budgets = sorted(rates)
        assert rates[budgets[-1]] >= rates[budgets[0]]

    def test_budgets_clipped_to_campaign(self):
        curves = run_success_curves(
            n_campaign=120,
            n_repeats=2,
            trace_counts=(60, 500),
            noise_sigma=25.0,
        )
        assert sorted(curves.hw_model) == [60, 120]


def test_scenario_runner_forwards_precision():
    from repro.api import Capability, RunRequest
    from repro.campaigns.registry import get

    scenario = get("success-curves")
    assert scenario.has(Capability.PRECISION)
    result = scenario.run(
        RunRequest(n_traces=200, precision="float32", seed=0x5CC5)
    )
    # 200-trace campaign: budgets above n_campaign collapse onto it.
    assert max(result.hw_model) == 200


def test_accumulator_snapshots_are_non_destructive():
    from repro.campaigns.accumulators import (
        CpaAccumulator,
        OnlineCorrAccumulator,
        OnlineSnrAccumulator,
        OnlineTTestAccumulator,
    )

    rng = np.random.default_rng(0)
    corr = OnlineCorrAccumulator()
    corr.update(rng.normal(size=(50, 3)), rng.normal(size=(50, 6)))
    first = corr.snapshot()
    corr.update(rng.normal(size=(50, 3)), rng.normal(size=(50, 6)))
    second = corr.snapshot()
    assert first.shape == second.shape and not np.array_equal(first, second)

    ttest = OnlineTTestAccumulator()
    ttest.update_a(rng.normal(size=(30, 4)))
    ttest.update_b(rng.normal(size=(30, 4)))
    assert ttest.snapshot().t_values.shape == (4,)

    snr = OnlineSnrAccumulator()
    snr.update(rng.normal(size=(60, 4)), rng.integers(0, 3, size=60))
    assert snr.snapshot().snr.shape == (4,)

    cpa = CpaAccumulator(guesses=range(4))
    cpa.update(rng.normal(size=(40, 5)), rng.normal(size=(40, 4)))
    assert cpa.snapshot().n_traces == 40
