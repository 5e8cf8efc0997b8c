"""Property tests: every online accumulator merges associatively.

Folding each chunk where it is acquired and merging the states in chunk
order (``docs/backends.md``, "Where a chunk folds") rests on three
algebraic facts, checked here with hypothesis over arbitrary data and
arbitrary re-partitionings:

* **merge == serial folding** — any split of a stream into contiguous
  chunks, each folded into its own fresh accumulator and merged in
  stream order, agrees with folding the whole stream into one
  accumulator.  For single-chunk-per-accumulator partitions this is
  *byte-identical* (merge replays the exact ``_combine`` calls the
  serial fold makes); pre-merged groupings re-associate the combine and
  agree within 1e-10.
* **associativity** — ``(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`` within 1e-10.
* **identity** — merging a fresh (empty) accumulator is a no-op.

The partition-sum CPA kind (a :class:`~repro.sca.models.ClassModel`
folded into per-class trace sums) adds one more: on data quantized to a
grid its class sums and counts are *exact*, hence bitwise equal under
any grouping and order of the traces.

``state()``/``from_state()`` round-trips are exercised on every merge
path (that is how worker states actually travel).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.accumulators import (
    COMOMENT,
    PARTITION,
    CpaAccumulator,
    CpaBudgetSnapshots,
    OnlineCorrAccumulator,
    OnlineMeanVar,
    OnlineSnrAccumulator,
    OnlineTTestAccumulator,
    StatisticKindMismatch,
)
from repro.sca.models import ClassModel, hw_sbox_class_model, hw_sbox_matrix, hw_sbox_table

TOL = 1e-10


def _data(n, n_samples=5, seed=0):
    rng = np.random.default_rng(seed)
    traces = rng.normal(size=(n, n_samples))
    models = rng.normal(size=(n, 3))
    labels = rng.integers(0, 4, size=n)
    return traces, models, labels


def _cuts_to_bounds(n, cuts):
    edges = sorted({0, n, *[c % (n + 1) for c in cuts]})
    return list(zip(edges, edges[1:]))


#: up to five random cut points -> an arbitrary contiguous partition
partitions = st.lists(st.integers(min_value=0, max_value=10**6), max_size=5)


def _fold_meanvar(traces, lo, hi):
    acc = OnlineMeanVar()
    acc.update(traces[lo:hi])
    return acc


def _fold_corr(data, lo, hi):
    traces, models, _ = data
    acc = OnlineCorrAccumulator()
    acc.update(models[lo:hi], traces[lo:hi])
    return acc


def _fold_snr(data, lo, hi):
    traces, _, labels = data
    acc = OnlineSnrAccumulator()
    acc.update(traces[lo:hi], labels[lo:hi])
    return acc


def _fold_ttest(data, lo, hi):
    traces, _, labels = data
    acc = OnlineTTestAccumulator()
    low = labels[lo:hi] <= 1
    high = labels[lo:hi] >= 2
    if np.any(low):
        acc.update_a(traces[lo:hi][low])
    if np.any(high):
        acc.update_b(traces[lo:hi][high])
    return acc


class TestRepartitioning:
    """Arbitrary contiguous partition, merged in order == one-shot fold."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=4, max_value=60), cuts=partitions, seed=st.integers(0, 99))
    def test_meanvar_any_partition_bitwise(self, n, cuts, seed):
        traces, _, _ = _data(n, seed=seed)
        serial = OnlineMeanVar()
        merged = OnlineMeanVar()
        for lo, hi in _cuts_to_bounds(n, cuts):
            serial.update(traces[lo:hi])
            part = OnlineMeanVar.from_state(_fold_meanvar(traces, lo, hi).state())
            merged.merge(part)
        # One chunk per accumulator replays the serial _combine calls
        # exactly: bitwise, not approximate.
        assert merged.n == serial.n
        np.testing.assert_array_equal(merged.mean, serial.mean)
        np.testing.assert_array_equal(merged.sum_sq_dev, serial.sum_sq_dev)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=4, max_value=60), cuts=partitions, seed=st.integers(0, 99))
    def test_corr_any_partition_bitwise(self, n, cuts, seed):
        data = _data(n, seed=seed)
        traces, models, _ = data
        serial = OnlineCorrAccumulator()
        merged = OnlineCorrAccumulator()
        for lo, hi in _cuts_to_bounds(n, cuts):
            serial.update(models[lo:hi], traces[lo:hi])
            merged.merge(OnlineCorrAccumulator.from_state(_fold_corr(data, lo, hi).state()))
        np.testing.assert_array_equal(merged.correlations(), serial.correlations())

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=8, max_value=60), cuts=partitions, seed=st.integers(0, 99))
    def test_snr_any_partition_bitwise(self, n, cuts, seed):
        data = _data(n, seed=seed)
        traces, _, labels = data
        serial = OnlineSnrAccumulator()
        merged = OnlineSnrAccumulator()
        for lo, hi in _cuts_to_bounds(n, cuts):
            serial.update(traces[lo:hi], labels[lo:hi])
            merged.merge(OnlineSnrAccumulator.from_state(_fold_snr(data, lo, hi).state()))
        assert merged._total.n == serial._total.n
        np.testing.assert_array_equal(merged._total.mean, serial._total.mean)
        for value, acc in serial._classes.items():
            np.testing.assert_array_equal(merged._classes[value].mean, acc.mean)
            np.testing.assert_array_equal(merged._classes[value].sum_sq_dev, acc.sum_sq_dev)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=10, max_value=60), cuts=partitions, seed=st.integers(0, 99))
    def test_ttest_any_partition_bitwise(self, n, cuts, seed):
        data = _data(n, seed=seed)
        traces, _, labels = data
        serial = OnlineTTestAccumulator()
        merged = OnlineTTestAccumulator()
        for lo, hi in _cuts_to_bounds(n, cuts):
            low = labels[lo:hi] <= 1
            high = labels[lo:hi] >= 2
            if np.any(low):
                serial.update_a(traces[lo:hi][low])
            if np.any(high):
                serial.update_b(traces[lo:hi][high])
            merged.merge(OnlineTTestAccumulator.from_state(_fold_ttest(data, lo, hi).state()))
        np.testing.assert_array_equal(merged.group_a.mean, serial.group_a.mean)
        np.testing.assert_array_equal(merged.group_a.sum_sq_dev, serial.group_a.sum_sq_dev)
        np.testing.assert_array_equal(merged.group_b.mean, serial.group_b.mean)
        np.testing.assert_array_equal(merged.group_b.sum_sq_dev, serial.group_b.sum_sq_dev)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=6, max_value=48), cuts=partitions, seed=st.integers(0, 99))
    def test_cpa_any_partition_bitwise(self, n, cuts, seed):
        rng = np.random.default_rng(seed)
        traces = rng.normal(size=(n, 4))
        model_rows = rng.normal(size=(n, 8))
        guesses = tuple(range(8))

        serial = CpaAccumulator(guesses)
        merged = CpaAccumulator(guesses)
        for lo, hi in _cuts_to_bounds(n, cuts):
            chunk_models = model_rows[lo:hi]
            serial.update(traces[lo:hi], chunk_models)
            part = CpaAccumulator(guesses)
            part.update(traces[lo:hi], chunk_models)
            merged.merge(CpaAccumulator.from_state(part.state()))
        np.testing.assert_array_equal(
            merged.result().correlations, serial.result().correlations
        )


class TestAssociativity:
    """(a ⊕ b) ⊕ c agrees with a ⊕ (b ⊕ c) within 1e-10."""

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(min_value=1, max_value=20)] * 3),
        seed=st.integers(0, 99),
    )
    def test_meanvar_associative(self, sizes, seed):
        n = sum(sizes)
        traces, _, _ = _data(n, seed=seed)
        bounds = []
        lo = 0
        for size in sizes:
            bounds.append((lo, lo + size))
            lo += size
        a, b, c = (_fold_meanvar(traces, lo, hi) for lo, hi in bounds)

        left = a.clone()
        ab = a.clone()
        ab.merge(b)
        left = ab
        left.merge(c)

        bc = b.clone()
        bc.merge(c)
        right = a.clone()
        right.merge(bc)

        assert left.n == right.n
        np.testing.assert_allclose(left.mean, right.mean, rtol=0, atol=TOL)
        np.testing.assert_allclose(left.sum_sq_dev, right.sum_sq_dev, rtol=0, atol=TOL)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(min_value=2, max_value=20)] * 3),
        seed=st.integers(0, 99),
    )
    def test_corr_associative(self, sizes, seed):
        n = sum(sizes)
        data = _data(n, seed=seed)
        bounds = []
        lo = 0
        for size in sizes:
            bounds.append((lo, lo + size))
            lo += size
        a, b, c = (_fold_corr(data, lo, hi) for lo, hi in bounds)

        left = a.clone()
        left.merge(b)
        left.merge(c)
        bc = b.clone()
        bc.merge(c)
        right = a.clone()
        right.merge(bc)
        np.testing.assert_allclose(
            left.correlations(), right.correlations(), rtol=0, atol=TOL
        )


class TestIdentity:
    """Merging a fresh accumulator changes nothing, bitwise."""

    def test_meanvar_identity(self):
        traces, _, _ = _data(20, seed=3)
        acc = OnlineMeanVar()
        acc.update(traces)
        before = acc.state()
        acc.merge(OnlineMeanVar())
        after = acc.state()
        assert before["n"] == after["n"]
        np.testing.assert_array_equal(before["mean"], after["mean"])
        np.testing.assert_array_equal(before["m2"], after["m2"])

    def test_corr_identity_both_sides(self):
        data = _data(20, seed=4)
        acc = _fold_corr(data, 0, 20)
        reference = acc.correlations()
        acc.merge(OnlineCorrAccumulator())
        np.testing.assert_array_equal(acc.correlations(), reference)
        empty = OnlineCorrAccumulator()
        empty.merge(_fold_corr(data, 0, 20))
        np.testing.assert_array_equal(empty.correlations(), reference)

    def test_ttest_identity(self):
        data = _data(20, seed=5)
        acc = _fold_ttest(data, 0, 20)
        reference = acc.result().max_abs_t
        acc.merge(OnlineTTestAccumulator())
        assert acc.result().max_abs_t == reference

    def test_snr_identity(self):
        data = _data(20, seed=6)
        acc = _fold_snr(data, 0, 20)
        reference = acc.result().snr.copy()
        acc.merge(OnlineSnrAccumulator())
        np.testing.assert_array_equal(acc.result().snr, reference)

    def test_cpa_identity(self):
        rng = np.random.default_rng(7)
        traces = rng.normal(size=(16, 4))
        models = rng.normal(size=(16, 8))
        acc = CpaAccumulator(tuple(range(8)))
        acc.update(traces, models)
        reference = acc.result().correlations.copy()
        acc.merge(CpaAccumulator(tuple(range(8))))
        np.testing.assert_array_equal(acc.result().correlations, reference)


class TestBudgetSnapshots:
    """Deferred budget folds replay the serial snapshot sequence exactly."""

    @settings(max_examples=20, deadline=None)
    @given(cuts=partitions, seed=st.integers(0, 99))
    def test_deferred_merge_matches_serial_snapshots(self, cuts, seed):
        n, budgets = 48, (16, 32, 48)
        rng = np.random.default_rng(seed)
        traces = rng.normal(size=(n, 4))
        models = rng.normal(size=(n, 8))
        guesses = tuple(range(8))

        serial = CpaBudgetSnapshots(budgets, guesses)
        merged = CpaBudgetSnapshots(budgets, guesses)
        for lo, hi in _cuts_to_bounds(n, cuts):
            chunk_models = models[lo:hi]
            serial.update(traces[lo:hi], chunk_models)
            part = CpaBudgetSnapshots(budgets, guesses, start=lo, defer=True)
            part.update(traces[lo:hi], chunk_models)
            merged.merge(CpaBudgetSnapshots.from_state(part.state()))

        assert len(serial.results) == len(merged.results) == len(budgets)
        for ours, theirs in zip(merged.results, serial.results):
            assert ours.n_traces == theirs.n_traces
            np.testing.assert_array_equal(ours.correlations, theirs.correlations)
        np.testing.assert_array_equal(
            merged.result().correlations, serial.result().correlations
        )

    def test_non_contiguous_merge_rejected(self):
        parent = CpaBudgetSnapshots((8,), tuple(range(4)))
        rng = np.random.default_rng(0)
        part = CpaBudgetSnapshots((8,), tuple(range(4)), start=5, defer=True)
        models = rng.normal(size=(3, 4))
        part.update(rng.normal(size=(3, 2)), models)
        try:
            parent.merge(part)
        except ValueError as error:
            assert "non-contiguous" in str(error)
        else:
            raise AssertionError("merging a gapped part must fail")


def _grid_campaign(n, n_samples=6, seed=0):
    """8-bit quantized float32 traces (one LSB grid) and their plaintexts,
    as every capture chain records them."""
    rng = np.random.default_rng(seed)
    plaintexts = rng.integers(0, 256, size=n, dtype=np.uint8)
    lsb = np.float32(0.731)
    traces = rng.integers(0, 256, size=(n, n_samples)).astype(np.float32) * lsb
    return plaintexts, traces


def _fold_partition(plaintexts, traces, rows):
    acc = CpaAccumulator()
    acc.update(traces[rows], hw_sbox_class_model(plaintexts[rows], None))
    return acc


def _assert_same_sums(left, right):
    a, b = left._stats, right._stats
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.class_sums, b.class_sums)
    np.testing.assert_array_equal(a.sum_y, b.sum_y)


class TestPartitionSums:
    """The partition-sum CPA kind obeys the same merge algebra."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=6, max_value=80), cuts=partitions, seed=st.integers(0, 99))
    def test_any_partition_merged_in_order_is_bitwise_serial(self, n, cuts, seed):
        rng = np.random.default_rng(seed)
        plaintexts = rng.integers(0, 256, size=n, dtype=np.uint8)
        traces = rng.normal(size=(n, 5))
        serial = CpaAccumulator()
        merged = CpaAccumulator()
        for lo, hi in _cuts_to_bounds(n, cuts):
            serial.update(traces[lo:hi], hw_sbox_class_model(plaintexts[lo:hi], None))
            part = _fold_partition(plaintexts, traces, slice(lo, hi))
            merged.merge(CpaAccumulator.from_state(part.state()))
        assert merged.kind == serial.kind == PARTITION
        for key, value in serial.state()["stats"].items():
            np.testing.assert_array_equal(merged.state()["stats"][key], value)
        np.testing.assert_array_equal(
            merged.result().correlations, serial.result().correlations
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=120),
        cuts=partitions,
        seed=st.integers(0, 99),
        reverse=st.booleans(),
    )
    def test_class_sums_are_order_free_on_grid_data(self, n, cuts, seed, reverse):
        plaintexts, traces = _grid_campaign(n, seed=seed)
        serial = _fold_partition(plaintexts, traces, slice(None))
        # A random permutation, cut into arbitrary groups, each group
        # pre-merged pairwise from single-trace parts, merged in any order.
        order = np.random.default_rng(seed + 1).permutation(n)
        groups = []
        for lo, hi in _cuts_to_bounds(n, cuts):
            group = CpaAccumulator()
            for row in order[lo:hi]:
                group.merge(_fold_partition(plaintexts, traces, [row]))
            groups.append(group)
        merged = CpaAccumulator()
        for group in reversed(groups) if reverse else groups:
            merged.merge(group)
        _assert_same_sums(merged, serial)
        np.testing.assert_allclose(
            merged.result().correlations, serial.result().correlations, rtol=0, atol=TOL
        )

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(min_value=2, max_value=30)] * 3),
        seed=st.integers(0, 99),
    )
    def test_associative(self, sizes, seed):
        n = sum(sizes)
        rng = np.random.default_rng(seed)
        plaintexts = rng.integers(0, 256, size=n, dtype=np.uint8)
        traces = rng.normal(size=(n, 5))
        edges = np.cumsum((0, *sizes))
        a, b, c = (
            _fold_partition(plaintexts, traces, slice(lo, hi))
            for lo, hi in zip(edges, edges[1:])
        )
        left = a.clone()
        left.merge(b)
        left.merge(c)
        bc = b.clone()
        bc.merge(c)
        right = a.clone()
        right.merge(bc)
        np.testing.assert_array_equal(left._stats.counts, right._stats.counts)
        np.testing.assert_allclose(
            left.result().correlations, right.result().correlations, rtol=0, atol=TOL
        )

    def test_identity_both_sides(self):
        plaintexts, traces = _grid_campaign(30, seed=8)
        acc = _fold_partition(plaintexts, traces, slice(None))
        reference = acc.state()
        acc.merge(CpaAccumulator())
        empty = CpaAccumulator()
        empty.merge(acc)
        for merged in (acc, empty):
            assert merged.kind == PARTITION
            for key, value in reference["stats"].items():
                np.testing.assert_array_equal(merged.state()["stats"][key], value)
        # Adopting a sibling's statistics copies them: no aliasing.
        empty.merge(acc)
        np.testing.assert_array_equal(acc._stats.counts, reference["stats"]["counts"])

    def test_merging_across_kinds_raises(self):
        plaintexts, traces = _grid_campaign(30, seed=9)
        partition = _fold_partition(plaintexts, traces, slice(None))
        comoment = CpaAccumulator()
        comoment.update(traces, hw_sbox_matrix(plaintexts, None))
        with pytest.raises(ValueError):
            partition.merge(comoment)
        with pytest.raises(ValueError):
            comoment.merge(partition)

    def test_merging_different_tables_raises(self):
        plaintexts, traces = _grid_campaign(30, seed=10)
        sbox = _fold_partition(plaintexts, traces, slice(None))
        other = CpaAccumulator()
        other.update(traces, ClassModel(plaintexts, hw_sbox_table()[::-1]))
        with pytest.raises(ValueError):
            sbox.merge(other)

    @settings(max_examples=10, deadline=None)
    @given(cuts=partitions, seed=st.integers(0, 99))
    def test_deferred_budget_parts_replay_serial_snapshots(self, cuts, seed):
        n, budgets = 60, (20, 45, 60)
        plaintexts, traces = _grid_campaign(n, seed=seed)
        serial = CpaBudgetSnapshots(budgets)
        merged = CpaBudgetSnapshots(budgets)
        for lo, hi in _cuts_to_bounds(n, cuts):
            model = hw_sbox_class_model(plaintexts[lo:hi], None)
            serial.update(traces[lo:hi], model)
            part = CpaBudgetSnapshots(budgets, start=lo, defer=True)
            part.update(traces[lo:hi], model)
            merged.merge(CpaBudgetSnapshots.from_state(part.state()))
        assert len(serial.results) == len(merged.results) == len(budgets)
        for ours, theirs in zip(merged.results, serial.results):
            assert ours.n_traces == theirs.n_traces
            np.testing.assert_array_equal(ours.correlations, theirs.correlations)
        with pytest.raises(StatisticKindMismatch):
            merged.require_kind(COMOMENT)
