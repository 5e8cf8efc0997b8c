"""The in-place CPA finish is byte-identical to the allocating formula.

``_reference_*`` below are the finishes as they were written before the
shared helper: every quotient, ``nan_to_num`` and ``clip`` allocated a
fresh ``[n_guesses, n_samples]`` array.  The in-place finish must give
the same bytes on random folds and on every degenerate entry: a guess
whose model is constant (``m2_x == 0``), a constant sample column
(``m2_y == 0``) and classes that never occur.
"""

import numpy as np
import pytest

from repro.campaigns.accumulators import OnlineCorrAccumulator, PartitionSums
from repro.sca.models import ClassModel, hw_sbox_table


def _reference_partition(sums: PartitionSums, guesses: np.ndarray) -> np.ndarray:
    present = np.flatnonzero(sums.counts)
    n = sums.n
    counts = sums.counts[present].astype(np.float64)
    x = sums.table[np.ix_(guesses, present)].astype(np.float64)
    x -= (x @ counts / n)[:, None]
    mean_y = sums.sum_y / n
    y = sums.class_sums[present] - np.outer(counts, mean_y)
    comoment = x @ y
    m2_x = x**2 @ counts
    m2_y = sums.sum_y2 - sums.sum_y * mean_y
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = comoment / np.outer(np.sqrt(m2_x), np.sqrt(m2_y))
    corr = np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0)
    return np.clip(corr, -1.0, 1.0)


def _reference_comoment(acc: OnlineCorrAccumulator) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        denominator = np.outer(np.sqrt(acc._m2_x), np.sqrt(acc._m2_y))
        corr = acc._comoment / denominator
    corr = np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0)
    corr = np.clip(corr, -1.0, 1.0)
    return corr[0] if acc._single else corr


def _quantized_traces(rng, n, n_samples):
    return np.round(rng.normal(100.0, 12.0, size=(n, n_samples))).astype(np.float32)


def _partition_fold(rng, n, n_samples, chunks, labels=None):
    traces = _quantized_traces(rng, n, n_samples)
    if labels is None:
        labels = rng.integers(0, 256, size=n)
    model = ClassModel(labels, hw_sbox_table())
    bounds = np.linspace(0, n, chunks + 1).astype(int)
    sums = PartitionSums.of_chunk(model[bounds[0] : bounds[1]], traces[bounds[0] : bounds[1]])
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        sums.merge(PartitionSums.of_chunk(model[lo:hi], traces[lo:hi]))
    return sums, traces


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestPartitionFinish:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_folds(self, seed):
        rng = np.random.default_rng(seed)
        sums, _ = _partition_fold(rng, 300 + 97 * seed, 41, chunks=1 + seed)
        guesses = np.arange(256)
        _assert_same_bytes(sums.correlations(guesses), _reference_partition(sums, guesses))

    def test_guess_subset_and_order(self):
        sums, _ = _partition_fold(np.random.default_rng(7), 500, 19, chunks=3)
        guesses = np.array([200, 3, 77, 3])
        _assert_same_bytes(sums.correlations(guesses), _reference_partition(sums, guesses))

    def test_constant_guess_row(self):
        # Two classes that share a model value under guess 0 only: the
        # guess-0 model is constant over the observed traces.
        table = hw_sbox_table()
        pair = np.array([0, 1])
        while table[0, pair[1]] != table[0, pair[0]]:
            pair[1] += 1
        labels = np.random.default_rng(1).choice(pair, size=64)
        sums, _ = _partition_fold(np.random.default_rng(2), 64, 11, chunks=2, labels=labels)
        guesses = np.arange(256)
        expected = _reference_partition(sums, guesses)
        assert not expected[0].any()  # m2_x == 0 zeroes the row
        _assert_same_bytes(sums.correlations(guesses), expected)

    def test_constant_sample_column(self):
        rng = np.random.default_rng(3)
        sums, traces = _partition_fold(rng, 200, 9, chunks=1)
        traces[:, 4] = 17.0
        sums = PartitionSums.of_chunk(
            ClassModel(rng.integers(0, 256, size=200), hw_sbox_table()), traces
        )
        guesses = np.arange(256)
        expected = _reference_partition(sums, guesses)
        assert not expected[:, 4].any()  # m2_y == 0 zeroes the column
        _assert_same_bytes(sums.correlations(guesses), expected)

    def test_classes_that_never_occur(self):
        labels = np.random.default_rng(4).integers(10, 14, size=150)
        sums, _ = _partition_fold(np.random.default_rng(5), 150, 13, chunks=2, labels=labels)
        assert np.count_nonzero(sums.counts) == 4
        guesses = np.arange(256)
        _assert_same_bytes(sums.correlations(guesses), _reference_partition(sums, guesses))

    def test_finish_leaves_the_sums_untouched(self):
        sums, _ = _partition_fold(np.random.default_rng(6), 120, 7, chunks=2)
        before = sums.state()
        sums.correlations(np.arange(256))
        for key, value in sums.state().items():
            assert value.tobytes() == before[key].tobytes()


class TestComomentFinish:
    @staticmethod
    def _fold(models, traces, chunks):
        acc = OnlineCorrAccumulator()
        bounds = np.linspace(0, len(traces), chunks + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            acc.update(models[lo:hi], traces[lo:hi])
        return acc

    @pytest.mark.parametrize("chunks", [1, 2, 5])
    def test_random_folds(self, chunks):
        rng = np.random.default_rng(chunks)
        models = rng.integers(0, 9, size=(400, 256)).astype(np.float64)
        acc = self._fold(models, _quantized_traces(rng, 400, 33), chunks)
        _assert_same_bytes(acc.correlations(), _reference_comoment(acc))

    def test_single_model_column(self):
        rng = np.random.default_rng(8)
        acc = self._fold(rng.integers(0, 9, size=250).astype(np.float64),
                         _quantized_traces(rng, 250, 17), 3)
        corr = acc.correlations()
        assert corr.shape == (17,)
        _assert_same_bytes(corr, _reference_comoment(acc))

    def test_degenerate_rows_and_columns(self):
        rng = np.random.default_rng(9)
        models = rng.integers(0, 9, size=(180, 16)).astype(np.float64)
        models[:, 5] = 3.0  # m2_x == 0
        traces = _quantized_traces(rng, 180, 12)
        traces[:, 2] = -4.0  # m2_y == 0
        acc = self._fold(models, traces, 2)
        expected = _reference_comoment(acc)
        assert not expected[5].any() and not expected[:, 2].any()
        _assert_same_bytes(acc.correlations(), expected)

    def test_snapshot_does_not_consume_the_moments(self):
        rng = np.random.default_rng(10)
        models = rng.integers(0, 9, size=(90, 8)).astype(np.float64)
        acc = self._fold(models, _quantized_traces(rng, 90, 6), 3)
        before = acc.state()
        first = acc.snapshot()
        for key, value in acc.state().items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == before[key].tobytes()
        _assert_same_bytes(acc.snapshot(), first)
