"""Pearson correlation and Fisher-z inference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sca.stats import (
    correlation_significant,
    fisher_confidence,
    fisher_difference_confidence,
    pearson_corr,
    significance_threshold,
)


class TestPearson:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(0)
        model = rng.normal(size=100)
        traces = np.stack([model * 2 + 1, -model], axis=1)
        corr = pearson_corr(model, traces)
        assert corr[0] == pytest.approx(1.0)
        assert corr[1] == pytest.approx(-1.0)

    def test_independent_signals_near_zero(self):
        rng = np.random.default_rng(1)
        model = rng.normal(size=5000)
        traces = rng.normal(size=(5000, 3))
        corr = pearson_corr(model, traces)
        assert np.all(np.abs(corr) < 0.06)

    def test_multi_model_shape(self):
        rng = np.random.default_rng(2)
        models = rng.normal(size=(50, 4))
        traces = rng.normal(size=(50, 7))
        assert pearson_corr(models, traces).shape == (4, 7)

    def test_zero_variance_yields_zero(self):
        model = np.ones(10)
        traces = np.random.default_rng(3).normal(size=(10, 2))
        assert np.all(pearson_corr(model, traces) == 0)
        model = np.arange(10.0)
        traces = np.ones((10, 2))
        assert np.all(pearson_corr(model, traces) == 0)

    def test_trace_count_mismatch(self):
        with pytest.raises(ValueError):
            pearson_corr(np.zeros(5), np.zeros((6, 2)))

    @given(st.integers(min_value=10, max_value=200))
    @settings(max_examples=20)
    def test_bounded_in_unit_interval(self, n):
        rng = np.random.default_rng(n)
        corr = pearson_corr(rng.normal(size=n), rng.normal(size=(n, 3)))
        assert np.all(np.abs(corr) <= 1.0)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(9)
        model = rng.normal(size=64)
        trace = rng.normal(size=64)
        ours = pearson_corr(model, trace.reshape(-1, 1))[0]
        reference = np.corrcoef(model, trace)[0, 1]
        assert ours == pytest.approx(reference, abs=1e-12)


class TestSignificance:
    def test_threshold_shrinks_with_traces(self):
        assert significance_threshold(100) > significance_threshold(10_000)

    def test_papers_criterion_confidence(self):
        # ~100k traces: even tiny correlations become significant.
        assert significance_threshold(100_000, 0.995) < 0.01

    def test_degenerate_trace_counts(self):
        assert significance_threshold(3) == 1.0
        assert significance_threshold(2) == 1.0

    def test_correlation_significant_scalar(self):
        threshold = significance_threshold(1000)
        assert correlation_significant(threshold * 1.5, 1000)
        assert not correlation_significant(threshold * 0.5, 1000)

    def test_correlation_significant_array(self):
        result = correlation_significant(np.array([0.0, 0.5]), 1000)
        assert list(result) == [False, True]

    def test_fisher_confidence_monotone_in_r(self):
        assert fisher_confidence(0.3, 500) > fisher_confidence(0.1, 500)

    def test_fisher_confidence_monotone_in_n(self):
        assert fisher_confidence(0.1, 5000) > fisher_confidence(0.1, 50)

    def test_null_calibration(self):
        """Under H0 the 99.5% threshold rejects ~0.5% of the time."""
        rng = np.random.default_rng(42)
        n, reps = 400, 2000
        threshold = significance_threshold(n, 0.995)
        model = rng.normal(size=(reps, n))
        noise = rng.normal(size=(reps, n))
        r = np.array(
            [np.corrcoef(model[i], noise[i])[0, 1] for i in range(reps)]
        )
        false_positive_rate = np.mean(np.abs(r) > threshold)
        assert false_positive_rate < 0.02


class TestDifferenceConfidence:
    def test_clear_separation(self):
        assert fisher_difference_confidence(0.8, 0.1, 200) > 0.999

    def test_tie_is_coin_flip(self):
        assert fisher_difference_confidence(0.3, 0.3, 200) == pytest.approx(0.5)

    def test_reversed_order_below_half(self):
        assert fisher_difference_confidence(0.1, 0.5, 200) < 0.5

    def test_more_traces_sharper(self):
        low = fisher_difference_confidence(0.4, 0.3, 50)
        high = fisher_difference_confidence(0.4, 0.3, 5000)
        assert high > low


class TestNormalizeBudgets:
    def test_budget_validation(self):
        from repro.sca.stats import normalize_budgets

        with pytest.raises(ValueError):
            normalize_budgets([], 20)
        with pytest.raises(ValueError):
            normalize_budgets([5, 5], 20)
        with pytest.raises(ValueError):
            normalize_budgets([10, 30], 20)
        with pytest.raises(ValueError):
            normalize_budgets([0, 10], 20)
        assert normalize_budgets([5, 20], 20).tolist() == [5, 20]
