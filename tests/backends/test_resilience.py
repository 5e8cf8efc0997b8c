"""Resilience primitives: retry policy, fault reports, quarantine, attempts."""

import pytest

from repro.backends import BackendDegradationWarning
from repro.backends.faults import InjectedWorkerError
from repro.backends.resilience import (
    DEGRADATION_LADDER,
    ChunkCorruption,
    FaultReport,
    ResilienceContext,
    RetryPolicy,
    TransientChunkError,
    WatchdogTimeout,
    active_report,
    clear_quarantine,
    collecting_faults,
    is_quarantined,
    next_rung,
    quarantine_backend,
    quarantine_info,
    run_attempts,
)


@pytest.fixture(autouse=True)
def _clean_quarantine():
    clear_quarantine()
    yield
    clear_quarantine()


class TestRetryPolicy:
    def test_from_retries_counts_total_attempts(self):
        policy = RetryPolicy.from_retries(3)
        assert policy.max_attempts == 4
        assert policy.retries == 3
        assert RetryPolicy.from_retries(0).max_attempts == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_max=0.4)
        for index in range(3):
            for attempt in range(1, 5):
                d1 = policy.delay(index, attempt)
                d2 = policy.delay(index, attempt)
                assert d1 == d2  # pure function of (seed, index, attempt)
                base = min(0.4, 0.1 * 2.0 ** (attempt - 1))
                assert base <= d1 <= base * (1 + policy.jitter)

    def test_delay_grows_exponentially_then_caps(self):
        policy = RetryPolicy(max_attempts=10, backoff_base=0.1, jitter=0.0)
        assert policy.delay(0, 1) == pytest.approx(0.1)
        assert policy.delay(0, 2) == pytest.approx(0.2)
        assert policy.delay(0, 3) == pytest.approx(0.4)
        assert policy.delay(0, 7) == pytest.approx(2.0)  # backoff_max

    def test_jitter_varies_with_seed_chunk_and_attempt(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.5)
        assert policy.delay(0, 1) != policy.delay(1, 1)
        assert policy.delay(0, 1) != RetryPolicy(
            backoff_base=1.0, jitter=0.5, seed=99
        ).delay(0, 1)

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(WatchdogTimeout("late"))
        assert policy.retryable(ChunkCorruption("nan"))
        assert policy.retryable(TransientChunkError("flaky"))
        assert policy.retryable(ConnectionError("gone"))
        assert policy.retryable(OSError("pipe"))
        # Deterministic bugs fail fast.
        assert not policy.retryable(InjectedWorkerError("always"))
        assert not policy.retryable(ValueError("shape"))
        assert not policy.retryable(AssertionError())

    def test_retryable_attribute_escape_hatch(self):
        error = ValueError("custom transient")
        error.retryable = True
        assert RetryPolicy().retryable(error)


class TestFaultReport:
    def test_empty_report_has_no_events(self):
        report = FaultReport()
        assert not report.has_events()
        assert report.to_json() == {
            "attempts": 0,
            "retries": [],
            "timeouts": 0,
            "corruptions": 0,
        }

    def test_degradations_deduplicate_preserving_order(self):
        report = FaultReport()
        report.record_degradation("pool -> fork")
        report.record_degradation("fork -> serial")
        report.record_degradation("pool -> fork")  # duplicate
        assert report.degradations == ["pool -> fork", "fork -> serial"]
        assert report.has_events()

    def test_retry_records_are_structured(self):
        report = FaultReport()
        report.record_retry(
            chunk=2,
            attempt=1,
            error=TransientChunkError("flaky"),
            backend="fork",
            delay=0.0521,
        )
        [entry] = report.to_json()["retries"]
        assert entry["chunk"] == 2
        assert entry["backend"] == "fork"
        assert entry["error"].startswith("TransientChunkError")
        assert entry["delay_s"] == 0.0521

    def test_optional_sections_appear_only_when_populated(self):
        report = FaultReport()
        report.record_quarantine("fork")
        report.record_checkpoint("saved", chunks_done=3)
        record = report.to_json()
        assert record["quarantined"] == ["fork"]
        assert record["checkpoint"] == [{"event": "saved", "chunks_done": 3}]
        assert "degradations" not in record


class TestAmbientCollection:
    def test_collecting_faults_scopes_the_active_report(self):
        assert active_report() is None
        with collecting_faults() as report:
            assert active_report() is report
        assert active_report() is None


class TestRunAttempts:
    def _context(self, retries, **kwargs):
        return ResilienceContext(
            policy=RetryPolicy.from_retries(retries, backoff_base=0.0),
            sleep=lambda _s: None,
            **kwargs,
        )

    def test_recovers_after_transient_failures(self):
        resilience = self._context(retries=2)
        calls = []

        def attempt_fn(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise TransientChunkError(f"attempt {attempt}")
            return "payload"

        task = type("T", (), {"index": 4})()
        assert run_attempts(resilience, task, attempt_fn, "serial") == "payload"
        assert calls == [1, 2, 3]
        assert resilience.report.attempts == 3
        assert [r["chunk"] for r in resilience.report.retries] == [4, 4]

    def test_non_retryable_error_fails_fast(self):
        resilience = self._context(retries=5)

        def attempt_fn(_attempt):
            raise InjectedWorkerError("deterministic bug")

        with pytest.raises(InjectedWorkerError):
            run_attempts(resilience, object(), attempt_fn, "serial")
        assert resilience.report.attempts == 1
        assert resilience.report.retries == []

    def test_exhausted_budget_reraises_the_original_error(self):
        resilience = self._context(retries=1)
        with pytest.raises(TransientChunkError, match="always"):
            run_attempts(
                resilience,
                object(),
                lambda _a: (_ for _ in ()).throw(TransientChunkError("always")),
                "serial",
            )
        assert resilience.report.attempts == 2

    def test_validator_rejection_is_retried_and_counted(self):
        seen = []

        def validator(_task, payload):
            seen.append(payload)
            if len(seen) == 1:
                raise ChunkCorruption("poisoned")

        resilience = self._context(retries=1, validator=validator)
        result = run_attempts(resilience, object(), lambda a: f"p{a}", "serial")
        assert result == "p2"
        assert resilience.report.corruptions == 1

    def test_watchdog_timeouts_are_counted(self):
        resilience = self._context(retries=1)

        def attempt_fn(attempt):
            if attempt == 1:
                raise WatchdogTimeout("late")
            return "ok"

        assert run_attempts(resilience, object(), attempt_fn, "pool") == "ok"
        assert resilience.report.timeouts == 1


class TestQuarantine:
    def test_registry_roundtrip(self):
        assert not is_quarantined("fork")
        quarantine_backend("fork", "watchdog exhausted")
        assert is_quarantined("fork")
        assert quarantine_info() == {"fork": "watchdog exhausted"}
        clear_quarantine()
        assert not is_quarantined("fork")

    def test_next_rung_walks_the_ladder(self):
        from repro.backends import fork_available

        assert DEGRADATION_LADDER == ("pool", "fork", "serial")
        expected = "fork" if fork_available() else "serial"
        assert next_rung("pool") == expected
        assert next_rung("fork") == "serial"
        assert next_rung("serial") == "serial"  # the floor

    def test_next_rung_skips_quarantined_backends(self):
        quarantine_backend("fork", "down")
        assert next_rung("pool") == "serial"

    def test_pool_is_never_an_auto_rung(self):
        assert "pool" not in [next_rung(name) for name in DEGRADATION_LADDER]

    def test_auto_resolution_skips_quarantined_fork(self):
        from repro.backends import fork_available, resolve_backend

        if not fork_available():
            pytest.skip("fork unavailable")
        quarantine_backend("fork", "watchdog exhausted")
        # No rung is left between fork and the serial floor: degrade loudly.
        with pytest.warns(BackendDegradationWarning, match="quarantined"):
            backend, owned = resolve_backend("auto", jobs=2, n_tasks=4)
        assert backend.name == "serial" and owned
