"""Watchdog escalation: BackendBroken, quarantine, and the auto ladder."""

import numpy as np
import pytest
import rawchunks

from repro.backends import BackendBroken, BackendDegradationWarning, fork_available
from repro.backends.faults import HangingTransform
from repro.backends.resilience import (
    RetryPolicy,
    clear_quarantine,
    collecting_faults,
    is_quarantined,
    quarantine_info,
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")

NO_RETRY = RetryPolicy.from_retries(0)


@pytest.fixture(autouse=True)
def _clean_quarantine():
    clear_quarantine()
    yield
    clear_quarantine()


def _always_hanging(tmp_path, **kwargs):
    # Far more hangs than any budget: the backend must be declared broken.
    return HangingTransform(
        str(tmp_path / "ledger"), hang_times=50, hang_seconds=30.0, skip=1, **kwargs
    )


class TestBackendBroken:
    @needs_fork
    def test_explicit_backend_surfaces_backend_broken(self, tmp_path, capture):
        with pytest.raises(BackendBroken, match="fork") as excinfo:
            capture(
                "fork",
                12,
                n=48,
                power_transform=_always_hanging(tmp_path),
                retry=NO_RETRY,
                chunk_timeout=1.0,
            )
        assert excinfo.value.backend == "fork"
        # An explicit policy never quarantines behind the caller's back.
        assert not is_quarantined("fork")

    @needs_fork
    def test_auto_quarantines_and_falls_down_the_ladder(
        self, tmp_path, make_engine, make_inputs
    ):
        engine = make_engine()
        inputs = make_inputs(48)
        clean = rawchunks.traces(engine, inputs, chunk_size=12, backend="serial")
        # hang_times=1: the first worker attempt hangs, the fallback
        # backend's re-dispatch is clean — the stream must still deliver
        # every byte.
        transform = HangingTransform(
            str(tmp_path / "ledger"), hang_times=1, hang_seconds=30.0, skip=1
        )
        with collecting_faults() as report:
            with pytest.warns(BackendDegradationWarning, match="quarantined"):
                recovered = rawchunks.traces(
                    engine,
                    inputs,
                    chunk_size=12,
                    jobs=2,
                    backend="auto",
                    power_transform=transform,
                    retry=NO_RETRY,
                    chunk_timeout=1.0,
                )
        np.testing.assert_array_equal(recovered, clean)
        assert is_quarantined("fork")
        assert "fork" in quarantine_info()["fork"]
        # fork is quarantined, and the ladder's next rung is the
        # serial floor, which finishes the stream.
        assert report.quarantined == ["fork"]
        assert len(report.degradations) == len(report.quarantined)
        assert all("degrading to" in d for d in report.degradations)

    @needs_fork
    def test_quarantine_outlives_the_stream(self, tmp_path, make_engine, make_inputs):
        engine = make_engine()
        inputs = make_inputs(24)
        transform = HangingTransform(
            str(tmp_path / "ledger"), hang_times=1, hang_seconds=30.0, skip=1
        )
        with pytest.warns(BackendDegradationWarning):
            rawchunks.chunks(
                engine,
                inputs,
                chunk_size=12,
                jobs=2,
                backend="auto",
                power_transform=transform,
                retry=NO_RETRY,
                chunk_timeout=1.0,
            )
        # The next auto resolution in this process must avoid fork.
        from repro.backends import resolve_backend

        with pytest.warns(BackendDegradationWarning, match="quarantined"):
            backend, owned = resolve_backend("auto", jobs=2, n_tasks=4)
        assert backend.name == "serial" and owned


class TestSerialHasNoWatchdog:
    def test_chunk_timeout_is_accepted_but_inert_serially(
        self, tmp_path, capture
    ):
        # The serial backend cannot preempt its own working thread; a
        # slow chunk completes rather than timing out (documented in
        # docs/resilience.md).  A *short* hang keeps the test fast while
        # still overshooting the deadline.
        clean = capture("serial", 12, n=48)
        slow = HangingTransform(
            str(tmp_path / "ledger"), hang_times=1, hang_seconds=0.5, skip=1
        )
        recovered = capture(
            "serial", 12, n=48, power_transform=slow, chunk_timeout=0.1
        )
        np.testing.assert_array_equal(recovered, clean)
