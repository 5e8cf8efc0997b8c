"""Chaos matrix: backend x fault x retry policy must recover exact bytes.

Every injected fault here is *transient* (clears after a bounded number
of ledger-counted attempts), every chunk is a pure function of its trace
range, and the retry budget covers the fault — so the recovered campaign
must equal the clean serial one bit for bit, not approximately.
"""

import numpy as np
import pytest

from repro.backends import PoolBackend, fork_available
from repro.backends.faults import (
    CorruptingTransform,
    CrashingWorker,
    FlakyTransform,
    HangingTransform,
)
from repro.backends.resilience import (
    RetryPolicy,
    TransientChunkError,
    clear_quarantine,
    collecting_faults,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")

TRANSIENT_BACKENDS = [
    "serial",
    pytest.param("fork", marks=needs_fork),
    "pool",
]

#: Zero-backoff policy: chaos tests replay the schedule, not the sleeps.
FAST_RETRY = RetryPolicy.from_retries(2, backoff_base=0.0)


def _ledger(tmp_path):
    return str(tmp_path / "ledger")


@pytest.mark.parametrize("policy", TRANSIENT_BACKENDS)
class TestTransientFaults:
    def test_flaky_chunks_recover_exactly(self, policy, tmp_path, capture):
        clean = capture("serial", 12, n=48)
        with collecting_faults() as report:
            recovered = capture(
                policy,
                12,
                n=48,
                power_transform=FlakyTransform(_ledger(tmp_path), fail_times=2),
                retry=FAST_RETRY,
            )
        np.testing.assert_array_equal(recovered, clean)
        assert report.attempts >= 2
        assert len(report.retries) >= 1

    def test_corrupted_chunks_are_rejected_and_retried(self, policy, tmp_path, capture):
        clean = capture("serial", 12, n=48)
        with collecting_faults() as report:
            recovered = capture(
                policy,
                12,
                n=48,
                power_transform=CorruptingTransform(_ledger(tmp_path), corrupt_times=2),
                retry=FAST_RETRY,
            )
        np.testing.assert_array_equal(recovered, clean)
        assert report.corruptions >= 1

    def test_exhausted_budget_surfaces_the_original_error(
        self, policy, tmp_path, capture
    ):
        # Fault strikes more often than the budget covers: the campaign
        # must fail loudly with the transient error, not hang or mask it.
        with pytest.raises(TransientChunkError):
            capture(
                policy,
                12,
                n=48,
                power_transform=FlakyTransform(_ledger(tmp_path), fail_times=50),
                retry=RetryPolicy.from_retries(1, backoff_base=0.0),
            )


WATCHDOG_BACKENDS = [
    pytest.param("fork", marks=needs_fork),
    pytest.param("pool", marks=needs_fork),
]


def _watchdog_capture(capture, policy, **kwargs):
    """Run through a named policy or a live PoolBackend instance."""
    if policy == "pool":
        backend = PoolBackend(jobs=2)
        try:
            return capture(backend, 12, **kwargs)
        finally:
            backend.close()
    return capture(policy, 12, **kwargs)


@pytest.mark.parametrize("policy", WATCHDOG_BACKENDS)
class TestWatchdogFaults:
    @pytest.fixture(autouse=True)
    def _clean_quarantine(self):
        clear_quarantine()
        yield
        clear_quarantine()

    def test_hung_worker_is_detected_and_redispatched(
        self, policy, tmp_path, capture
    ):
        clean = capture("serial", 12, n=48)
        with collecting_faults() as report:
            # skip=1 exempts the parent-side calibration pass (which
            # applies chunk 0's transform serially, outside the watchdog)
            # so the hang lands in a worker.
            recovered = _watchdog_capture(
                capture,
                policy,
                n=48,
                power_transform=HangingTransform(
                    _ledger(tmp_path), hang_times=1, hang_seconds=30.0, skip=1
                ),
                retry=FAST_RETRY,
                chunk_timeout=2.0,
            )
        np.testing.assert_array_equal(recovered, clean)
        assert report.timeouts >= 1

    def test_sigkilled_worker_is_detected_and_redispatched(
        self, policy, tmp_path, capture
    ):
        clean = capture("serial", 12, n=48)
        with collecting_faults() as report:
            recovered = _watchdog_capture(
                capture,
                policy,
                n=48,
                power_transform=CrashingWorker(
                    _ledger(tmp_path), crash_times=1, skip=1
                ),
                retry=FAST_RETRY,
                chunk_timeout=2.0,
            )
        np.testing.assert_array_equal(recovered, clean)
        assert report.timeouts >= 1


def _reduce(make_engine, make_inputs, policy, **kwargs):
    """The whole campaign folded on ``policy``: merged mean/var."""
    from repro.campaigns.reduction import TraceMeanVarFold

    return make_engine().reduce(
        make_inputs(48),
        TraceMeanVarFold(),
        chunk_size=12,
        jobs=2,
        backend=policy,
        **kwargs,
    ).value


def _assert_same_fold(recovered, clean):
    # ``n`` is the sharpest double-merge detector: a chunk merged twice
    # inflates the count before it perturbs any moment.
    assert recovered.n == clean.n
    np.testing.assert_array_equal(recovered.mean, clean.mean)
    np.testing.assert_array_equal(recovered.sum_sq_dev, clean.sum_sq_dev)


@pytest.mark.parametrize("policy", TRANSIENT_BACKENDS)
class TestWorkerReductionFaults:
    """Worker-side folds under fault injection: merge each chunk once.

    A retried chunk recomputes its fold state from scratch and the
    dispatch layer yields it exactly once, so the recovered merged
    accumulator must equal the clean serial reduction bit for bit —
    any double merge shows up immediately in the count and moments.
    """

    def test_clean_reduction_matches_serial(
        self, policy, make_engine, make_inputs
    ):
        clean = _reduce(make_engine, make_inputs, "serial")
        assert clean.n == 48
        _assert_same_fold(_reduce(make_engine, make_inputs, policy), clean)

    def test_flaky_reduction_recovers_without_double_merge(
        self, policy, tmp_path, make_engine, make_inputs
    ):
        clean = _reduce(make_engine, make_inputs, "serial")
        with collecting_faults() as report:
            recovered = _reduce(
                make_engine,
                make_inputs,
                policy,
                power_transform=FlakyTransform(_ledger(tmp_path), fail_times=2),
                retry=FAST_RETRY,
            )
        _assert_same_fold(recovered, clean)
        assert report.attempts >= 2
        assert len(report.retries) >= 1

    def test_corrupted_state_is_rejected_and_recomputed(
        self, policy, tmp_path, make_engine, make_inputs
    ):
        # NaN power reaches the fold state, where the per-chunk state
        # validator (finiteness) rejects it as retryable corruption.
        clean = _reduce(make_engine, make_inputs, "serial")
        with collecting_faults() as report:
            recovered = _reduce(
                make_engine,
                make_inputs,
                policy,
                power_transform=CorruptingTransform(
                    _ledger(tmp_path), corrupt_times=2
                ),
                retry=FAST_RETRY,
            )
        _assert_same_fold(recovered, clean)
        assert report.corruptions >= 1


class TestPersistentPoolRecovery:
    @needs_fork
    def test_pool_rebuild_is_counted_and_pool_stays_usable(
        self, tmp_path, capture
    ):
        backend = PoolBackend(jobs=2)
        try:
            clean = capture("serial", 12, n=48)
            recovered = capture(
                backend,
                12,
                n=48,
                power_transform=HangingTransform(
                    _ledger(tmp_path), hang_times=1, hang_seconds=30.0, skip=1
                ),
                retry=FAST_RETRY,
                chunk_timeout=2.0,
            )
            np.testing.assert_array_equal(recovered, clean)
            assert backend.pools_rebuilt >= 1
            # The rebuilt pool keeps serving ordinary work.
            assert backend.map_items(len, ["ab", "c"]) == [2, 1]
        finally:
            backend.close()
