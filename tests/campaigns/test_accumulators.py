"""Online accumulators: streamed statistics equal the monolithic ones."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.accumulators import (
    COMOMENT,
    PARTITION,
    CpaAccumulator,
    OnlineCorrAccumulator,
    OnlineMeanVar,
    OnlineSnrAccumulator,
    OnlineTTestAccumulator,
    StatisticKindMismatch,
)
from repro.sca.cpa import cpa_attack
from repro.sca.models import (
    ClassModel,
    hd_stores_matrix,
    hw_sbox_class_model,
    hw_sbox_matrix,
    hw_sbox_model,
    hw_sbox_table,
)
from repro.sca.snr import partition_snr
from repro.sca.stats import pearson_corr
from repro.sca.ttest import welch_ttest

#: chunk sizes covering the degenerate cases: one trace per chunk, a
#: size that does not divide n, and a chunk larger than the campaign
CHUNK_SIZES = (1, 7, 64, 10_000)


def _chunks(n, size):
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0xACC)
    n, n_models, n_samples = 523, 9, 41
    models = rng.normal(120.0, 5.0, size=(n, n_models))
    traces = rng.normal(-30.0, 11.0, size=(n, n_samples))
    return models, traces


class TestOnlineMeanVar:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_matches_numpy(self, data, chunk):
        _models, traces = data
        acc = OnlineMeanVar()
        for lo, hi in _chunks(traces.shape[0], chunk):
            acc.update(traces[lo:hi])
        assert acc.n == traces.shape[0]
        np.testing.assert_allclose(acc.mean, traces.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(acc.var(), traces.var(axis=0), atol=1e-10)
        np.testing.assert_allclose(acc.var(ddof=1), traces.var(axis=0, ddof=1), atol=1e-10)

    def test_merge_equals_sequential(self, data):
        _models, traces = data
        left, right = OnlineMeanVar(), OnlineMeanVar()
        left.update(traces[:200])
        right.update(traces[200:])
        left.merge(right)
        np.testing.assert_allclose(left.mean, traces.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(left.var(), traces.var(axis=0), atol=1e-10)

    def test_empty_chunk_is_a_noop(self, data):
        _models, traces = data
        acc = OnlineMeanVar()
        acc.update(traces)
        acc.update(traces[:0])
        assert acc.n == traces.shape[0]

    def test_not_enough_observations(self):
        acc = OnlineMeanVar()
        with pytest.raises(ValueError):
            acc.var()

    @given(seed=st.integers(0, 2**16), chunk=st.integers(1, 50))
    @settings(max_examples=25, deadline=None)
    def test_property_any_chunking(self, seed, chunk):
        rng = np.random.default_rng(seed)
        values = rng.normal(rng.uniform(-100, 100), rng.uniform(0.1, 20), size=(97, 3))
        acc = OnlineMeanVar()
        for lo, hi in _chunks(values.shape[0], chunk):
            acc.update(values[lo:hi])
        np.testing.assert_allclose(acc.mean, values.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(acc.var(), values.var(axis=0), atol=1e-10)


class TestOnlineCorr:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_matches_pearson_corr(self, data, chunk):
        models, traces = data
        reference = pearson_corr(models, traces)
        acc = OnlineCorrAccumulator()
        for lo, hi in _chunks(models.shape[0], chunk):
            acc.update(models[lo:hi], traces[lo:hi])
        np.testing.assert_allclose(acc.correlations(), reference, atol=1e-10)

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_single_model_shape(self, data, chunk):
        models, traces = data
        model = models[:, 0]
        reference = pearson_corr(model, traces)
        acc = OnlineCorrAccumulator()
        for lo, hi in _chunks(model.shape[0], chunk):
            acc.update(model[lo:hi], traces[lo:hi])
        streamed = acc.correlations()
        assert streamed.shape == reference.shape
        np.testing.assert_allclose(streamed, reference, atol=1e-10)

    def test_zero_variance_columns_yield_zero(self):
        traces = np.ones((50, 4))
        model = np.arange(50, dtype=np.float64)
        acc = OnlineCorrAccumulator()
        for lo, hi in _chunks(50, 16):
            acc.update(model[lo:hi], traces[lo:hi])
        np.testing.assert_array_equal(acc.correlations(), np.zeros(4))

    def test_merge_equals_sequential(self, data):
        models, traces = data
        reference = pearson_corr(models, traces)
        left, right = OnlineCorrAccumulator(), OnlineCorrAccumulator()
        left.update(models[:100], traces[:100])
        right.update(models[100:], traces[100:])
        left.merge(right)
        np.testing.assert_allclose(left.correlations(), reference, atol=1e-10)

    def test_model_memory_order_does_not_move_a_byte(self):
        # Figure 4's chained-HD model, once C-ordered and once as an
        # F-ordered copy (what a column gather such as
        # ``matrix[:, guesses]`` returns).
        rng = np.random.default_rng(4)
        plaintexts = rng.integers(0, 256, size=(100, 16), dtype=np.uint8)
        matrix = hd_stores_matrix(plaintexts, 0, 0x2B)
        fortran = np.asfortranarray(matrix)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        traces = np.round(rng.normal(0.0, 40.0, size=(100, 64)))
        results = []
        for model in (matrix, fortran):
            acc = OnlineCorrAccumulator()
            acc.update(model, traces)
            results.append(acc.correlations())
        assert results[0].tobytes() == results[1].tobytes()

    def test_mismatched_rows_rejected(self, data):
        models, traces = data
        acc = OnlineCorrAccumulator()
        with pytest.raises(ValueError):
            acc.update(models[:10], traces[:11])

    def test_no_chunks_rejected(self):
        with pytest.raises(ValueError):
            OnlineCorrAccumulator().correlations()


class TestOnlineSnr:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_matches_partition_snr(self, data, chunk):
        _models, traces = data
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 9, size=traces.shape[0])
        reference = partition_snr(traces, labels)
        acc = OnlineSnrAccumulator()
        for lo, hi in _chunks(traces.shape[0], chunk):
            acc.update(traces[lo:hi], labels[lo:hi])
        result = acc.result()
        assert result.n_classes == reference.n_classes
        np.testing.assert_allclose(result.snr, reference.snr, atol=1e-10)
        np.testing.assert_allclose(result.nicv, reference.nicv, atol=1e-10)

    def test_small_classes_excluded(self):
        traces = np.random.default_rng(4).normal(size=(40, 3))
        labels = np.array([0] * 20 + [1] * 19 + [2])  # class 2 has one member
        acc = OnlineSnrAccumulator()
        acc.update(traces, labels)
        assert acc.result().n_classes == 2

    def test_too_few_classes_rejected(self):
        acc = OnlineSnrAccumulator()
        acc.update(np.ones((10, 2)), np.zeros(10, dtype=int))
        with pytest.raises(ValueError):
            acc.result()


class TestOnlineTTest:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_matches_welch_ttest(self, chunk):
        rng = np.random.default_rng(5)
        group_a = rng.normal(0.0, 1.0, size=(311, 23))
        group_b = rng.normal(0.2, 1.1, size=(287, 23))
        reference = welch_ttest(group_a, group_b)
        acc = OnlineTTestAccumulator()
        for lo, hi in _chunks(group_a.shape[0], chunk):
            acc.update_a(group_a[lo:hi])
        for lo, hi in _chunks(group_b.shape[0], chunk):
            acc.update_b(group_b[lo:hi])
        result = acc.result()
        np.testing.assert_allclose(result.t_values, reference.t_values, atol=1e-10)
        assert np.array_equal(result.leaking_samples, reference.leaking_samples)

    def test_underpopulated_group_rejected(self):
        acc = OnlineTTestAccumulator()
        acc.update_a(np.ones((5, 2)))
        acc.update_b(np.ones((1, 2)))
        with pytest.raises(ValueError):
            acc.result()


class TestCpaAccumulator:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_matches_monolithic_cpa(self, chunk):
        rng = np.random.default_rng(6)
        n, n_samples = 400, 31
        plaintexts = rng.integers(0, 256, size=n)
        secret = 0x3C
        signal = np.bitwise_count((plaintexts ^ secret).astype(np.uint8))
        traces = rng.normal(size=(n, n_samples))
        traces[:, 11] += 0.8 * signal

        models = np.bitwise_count(
            (plaintexts[:, None] ^ np.arange(256)).astype(np.uint8)
        ).astype(np.float64)

        reference = cpa_attack(traces, models)
        acc = CpaAccumulator()
        for lo, hi in _chunks(n, chunk):
            acc.update(traces[lo:hi], models[lo:hi])
        streamed = acc.result()
        assert streamed.n_traces == reference.n_traces
        assert streamed.best_guess == reference.best_guess == secret
        np.testing.assert_allclose(
            streamed.correlations, reference.correlations, atol=1e-10
        )

    def test_merge_requires_same_guesses(self):
        with pytest.raises(ValueError):
            CpaAccumulator(range(4)).merge(CpaAccumulator(range(5)))


def _sbox_campaign(n, n_samples=23, offset=0.0, seed=0x5B0):
    """Plaintexts plus traces leaking HW(SBOX[pt0 ^ 0x3C]) at sample 9."""
    rng = np.random.default_rng(seed)
    plaintexts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    traces = rng.normal(offset, 1.0, size=(n, n_samples))
    traces[:, 9] += 0.5 * hw_sbox_model(plaintexts, 0, 0x3C)
    return plaintexts, traces


class TestPartitionCpa:
    """A ``ClassModel`` folds per-class sums; the result is the same CPA."""

    def test_class_model_equals_hw_sbox_model_for_every_guess(self):
        plaintexts, _ = _sbox_campaign(300)
        model = hw_sbox_class_model(plaintexts, 5)
        for guess in range(256):
            values = model.table[guess][model.labels].astype(np.float64)
            np.testing.assert_array_equal(values, hw_sbox_model(plaintexts, 5, guess))

    def test_matrix_gather_is_byte_identical_to_the_stack(self):
        plaintexts, _ = _sbox_campaign(300)
        for byte_index in (0, 7):
            stacked = np.stack(
                [hw_sbox_model(plaintexts, byte_index, g) for g in range(256)], axis=1
            )
            gathered = hw_sbox_matrix(plaintexts, byte_index)
            assert gathered.dtype == stacked.dtype and gathered.shape == stacked.shape
            assert gathered.flags.c_contiguous
            assert gathered.tobytes() == stacked.tobytes()

    def test_table_is_shared_and_read_only(self):
        assert hw_sbox_table() is hw_sbox_table()
        assert not hw_sbox_table().flags.writeable

    @pytest.mark.parametrize("offset", [0.0, 150.0])
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_matches_two_pass_cpa(self, chunk, offset):
        # offset 150 puts a DC level of 150 sigma under every sample.
        n = 600
        plaintexts, traces = _sbox_campaign(n, offset=offset)
        reference = cpa_attack(traces, hw_sbox_matrix(plaintexts, 0))
        acc = CpaAccumulator()
        for lo, hi in _chunks(n, chunk):
            acc.update(traces[lo:hi], hw_sbox_class_model(plaintexts[lo:hi], 0))
        streamed = acc.result()
        assert acc.kind == PARTITION
        assert streamed.n_traces == n
        assert streamed.best_guess == reference.best_guess == 0x3C
        np.testing.assert_allclose(
            streamed.correlations, reference.correlations, rtol=0, atol=1e-10
        )

    def test_guess_subset_reads_the_matching_table_rows(self):
        plaintexts, traces = _sbox_campaign(200)
        guesses = (0x3C, 7, 200)
        acc = CpaAccumulator(guesses)
        acc.update(traces, hw_sbox_class_model(plaintexts, 0))
        reference = cpa_attack(
            traces, hw_sbox_matrix(plaintexts, 0)[:, list(guesses)], guesses=guesses
        )
        np.testing.assert_allclose(
            acc.result().correlations, reference.correlations, rtol=0, atol=1e-10
        )

    def test_updating_across_kinds_raises(self):
        plaintexts, traces = _sbox_campaign(40)
        partition = CpaAccumulator()
        partition.update(traces, hw_sbox_class_model(plaintexts, 0))
        with pytest.raises(ValueError):
            partition.update(traces, hw_sbox_matrix(plaintexts, 0))
        comoment = CpaAccumulator()
        comoment.update(traces, hw_sbox_matrix(plaintexts, 0))
        with pytest.raises(ValueError):
            comoment.update(traces, hw_sbox_class_model(plaintexts, 0))

    def test_empty_accumulator_has_no_result(self):
        acc = CpaAccumulator()
        acc.update(np.empty((0, 4)), ClassModel(np.empty(0, dtype=np.uint8), hw_sbox_table()))
        with pytest.raises(ValueError):
            acc.result()

    def test_labels_outside_the_table_are_rejected(self):
        model = ClassModel(np.array([0, 3]), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            CpaAccumulator(range(2)).update(np.zeros((2, 4)), model)


#: A ``CpaAccumulator.state()`` as written before the partition kind
#: existed: co-moments under "corr", no "kind" key (two guesses, one
#: sample, three traces).
PRE_PARTITION_STATE = {
    "guesses": np.array([0, 1]),
    "corr": {
        "n": 3,
        "single": False,
        "mean_x": np.array([1.0, 2.0]),
        "mean_y": np.array([0.5]),
        "m2_x": np.array([2.0, 8.0]),
        "m2_y": np.array([1.5]),
        "comoment": np.array([[1.0], [-2.0]]),
    },
}


class TestStateKinds:
    def test_state_records_its_kind(self):
        plaintexts, traces = _sbox_campaign(40)
        partition = CpaAccumulator()
        partition.update(traces, hw_sbox_class_model(plaintexts, 0))
        comoment = CpaAccumulator()
        comoment.update(traces, hw_sbox_matrix(plaintexts, 0))
        assert CpaAccumulator().state()["kind"] is None
        assert partition.state()["kind"] == PARTITION
        assert comoment.state()["kind"] == COMOMENT
        for acc in (partition, comoment):
            thawed = CpaAccumulator.from_state(acc.state())
            assert thawed.kind == acc.kind
            np.testing.assert_array_equal(
                thawed.result().correlations, acc.result().correlations
            )

    def test_state_without_a_kind_thaws_as_comoment(self):
        acc = CpaAccumulator.from_state(PRE_PARTITION_STATE)
        assert acc.kind == COMOMENT and acc.n_traces == 3
        # 1 / sqrt(2 * 1.5) and -2 / sqrt(8 * 1.5)
        np.testing.assert_allclose(
            acc.result().correlations, [[1 / 3**0.5], [-1 / 3**0.5]], rtol=1e-15
        )
        with pytest.raises(StatisticKindMismatch):
            acc.require_kind(PARTITION)

    def test_pickle_without_a_kind_thaws_as_comoment(self):
        # The object layout checkpoints pickled before the partition kind.
        legacy = CpaAccumulator.__new__(CpaAccumulator)
        legacy.__dict__.update(
            guesses=PRE_PARTITION_STATE["guesses"],
            _corr=OnlineCorrAccumulator.from_state(PRE_PARTITION_STATE["corr"]),
        )
        restored = pickle.loads(pickle.dumps(legacy))
        assert restored.kind == COMOMENT and restored.n_traces == 3
        assert restored.state()["kind"] == COMOMENT
