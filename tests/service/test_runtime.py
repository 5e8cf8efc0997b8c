"""ServiceRuntime semantics, driven directly (no HTTP, no worker pool).

Workers are replaced by inline ``execute_job`` calls against a local
Session, so these tests pin admission, dedup, coalescing, quotas and
recovery without process management.
"""

import pytest

from repro.api import CapabilityError, RequestSchemaError, Session, validate_envelope
from repro.service.runtime import (
    Busy,
    ServicePolicy,
    ServiceRejection,
    ServiceRuntime,
    Tenant,
    parse_tenant_spec,
)
from repro.service.worker import execute_job

REQUEST = {"schema": "repro.request/1", "n_traces": 64, "seed": 5, "precision": "float32"}


@pytest.fixture
def runtime(tmp_path):
    return ServiceRuntime(str(tmp_path / "spool"), ServicePolicy(workers=0))


@pytest.fixture(scope="module")
def session():
    with Session() as session:
        yield session


def drain(runtime, session):
    """Run every queued job to completion, like a worker would."""
    while True:
        record = runtime.queue.claim()
        if record is None:
            return
        execute_job(session, runtime.queue, runtime.cache, record)


ANON = Tenant("anonymous", quota=16)


class TestAdmission:
    def test_unknown_scenario_is_a_404_rejection(self, runtime):
        with pytest.raises(ServiceRejection) as excinfo:
            runtime.submit(ANON, "nope", REQUEST)
        assert excinfo.value.status == 404
        assert "figure3" in str(excinfo.value)  # names the registry

    def test_schema_violations_reject_before_queueing(self, runtime):
        with pytest.raises(RequestSchemaError, match="bogus"):
            runtime.submit(ANON, "figure3", dict(REQUEST, bogus=1))
        assert runtime.queue.depth() == 0

    def test_capability_violations_reject_before_queueing(self, runtime):
        with pytest.raises(CapabilityError):
            runtime.submit(ANON, "figure2", REQUEST)  # reps-only scenario
        assert runtime.queue.depth() == 0

    def test_unknown_backend_policy_rejects_before_queueing(self, runtime):
        with pytest.raises(RequestSchemaError, match="backend"):
            runtime.submit(ANON, "figure3", dict(REQUEST, backend="numba"))
        assert runtime.queue.depth() == 0

    def test_retired_spawn_policy_rejects_before_queueing(self, runtime):
        with pytest.raises(RequestSchemaError, match="backend"):
            runtime.submit(ANON, "figure3", dict(REQUEST, backend="spawn"))
        assert runtime.queue.depth() == 0

    @pytest.mark.parametrize("knob", [{"checkpoint": "/srv/x"}, {"resume": True}])
    def test_server_filesystem_knobs_are_policy_rejections(self, runtime, knob):
        with pytest.raises(ServiceRejection, match="not accepted over the wire"):
            runtime.submit(ANON, "figure3", dict(REQUEST, **knob))

    def test_submission_queues_the_resolved_request(self, runtime):
        submission = runtime.submit(ANON, "figure3", REQUEST)
        assert submission.disposition == "miss"
        record = submission.record
        assert record["state"] == "queued"
        # the queued record carries the *resolved* request, so workers
        # and the dedup key agree on defaults
        assert record["request"]["n_traces"] == 64
        assert record["request"]["jobs"] == 1


class TestDedup:
    def test_completed_twin_is_a_cache_hit(self, runtime, session):
        first = runtime.submit(ANON, "figure3", REQUEST)
        drain(runtime, session)
        second = runtime.submit(ANON, "figure3", dict(REQUEST))
        assert second.disposition == "hit"
        assert second.record["cached"] is True
        assert second.record["state"] == "done"
        # both ids serve the identical envelope
        _, first_env = runtime.result(first.record["id"])
        _, second_env = runtime.result(second.record["id"])
        assert first_env == second_env
        validate_envelope(second_env)

    def test_performance_knobs_still_hit_the_cache(self, runtime, session):
        runtime.submit(ANON, "figure3", REQUEST)
        drain(runtime, session)
        twin = runtime.submit(ANON, "figure3", dict(REQUEST, jobs=2, chunk_size=32))
        assert twin.disposition == "hit"

    def test_in_flight_twin_coalesces_onto_the_primary(self, runtime):
        first = runtime.submit(ANON, "figure3", REQUEST)
        second = runtime.submit(ANON, "figure3", dict(REQUEST))
        assert second.disposition == "coalesced"
        assert second.record["id"] == first.record["id"]
        assert runtime.queue.depth() == 1  # never two copies queued

    def test_different_requests_do_not_coalesce(self, runtime):
        first = runtime.submit(ANON, "figure3", REQUEST)
        other = runtime.submit(ANON, "figure3", dict(REQUEST, seed=6))
        assert other.disposition == "miss"
        assert other.record["id"] != first.record["id"]

    def test_worker_side_cache_recheck_skips_execution(self, runtime, session):
        # Two distinct jobs with the same key can both reach the queue
        # when submitted through different runtimes; the worker's
        # post-claim cache check must serve the second from cache.
        first = runtime.submit(ANON, "figure3", REQUEST)
        twin = runtime.queue.build_job(
            scenario="figure3",
            tenant="anonymous",
            request_record=first.record["request"],
            key=first.record["key"],
        )
        runtime.queue.enqueue(twin)
        drain(runtime, session)
        record = runtime.queue.load_job(twin["id"])
        assert record["state"] == "done"
        assert record["cached"] is True


class TestBackpressure:
    def test_quota_exhaustion_is_busy(self, runtime):
        tight = Tenant("acme", quota=1)
        runtime.submit(tight, "figure3", REQUEST)
        with pytest.raises(Busy) as excinfo:
            runtime.submit(tight, "figure3", dict(REQUEST, seed=6))
        assert excinfo.value.status == 429
        assert excinfo.value.kind == "quota"
        assert excinfo.value.retry_after > 0

    def test_quotas_are_per_tenant(self, runtime):
        runtime.submit(Tenant("acme", quota=1), "figure3", REQUEST)
        other = runtime.submit(
            Tenant("zeta", quota=1), "figure3", dict(REQUEST, seed=6)
        )
        assert other.disposition == "miss"

    def test_queue_depth_bound_is_busy(self, tmp_path):
        runtime = ServiceRuntime(
            str(tmp_path / "spool"), ServicePolicy(workers=0, queue_depth=2)
        )
        wide = Tenant("anonymous", quota=100)
        runtime.submit(wide, "figure3", REQUEST)
        runtime.submit(wide, "figure3", dict(REQUEST, seed=6))
        with pytest.raises(Busy) as excinfo:
            runtime.submit(wide, "figure3", dict(REQUEST, seed=7))
        assert excinfo.value.kind == "backpressure"

    def test_cache_hits_bypass_quota(self, runtime, session):
        tight = Tenant("acme", quota=1)
        runtime.submit(tight, "figure3", REQUEST)
        drain(runtime, session)
        # quota would block a new job, but a hit queues nothing
        hit = runtime.submit(tight, "figure3", dict(REQUEST))
        assert hit.disposition == "hit"


class TestTenancy:
    def test_open_service_serves_the_anonymous_tenant(self, runtime):
        tenant = runtime.authenticate(None)
        assert tenant.name == "anonymous"

    def test_configured_tenants_require_a_known_token(self, tmp_path):
        runtime = ServiceRuntime(
            str(tmp_path / "spool"),
            ServicePolicy(workers=0, tenants=(Tenant("acme", token="s3cret"),)),
        )
        assert runtime.authenticate("s3cret").name == "acme"
        for bad in (None, "wrong"):
            with pytest.raises(ServiceRejection) as excinfo:
                runtime.authenticate(bad)
            assert excinfo.value.status == 401

    def test_parse_tenant_spec(self):
        tenant = parse_tenant_spec("acme=s3cret:4", default_quota=16)
        assert tenant == Tenant("acme", token="s3cret", quota=4)
        assert parse_tenant_spec("acme=s3cret", default_quota=16).quota == 16
        with pytest.raises(ValueError, match="NAME=TOKEN"):
            parse_tenant_spec("acme", default_quota=16)
        with pytest.raises(ValueError, match="positive"):
            parse_tenant_spec("acme=s3cret:0", default_quota=16)


class TestReadsAndFailures:
    def test_status_and_result_of_unknown_jobs_are_none(self, runtime):
        assert runtime.status("nope") is None
        assert runtime.result("nope") == (None, None)

    def test_result_is_pending_until_done(self, runtime, session):
        submission = runtime.submit(ANON, "figure3", REQUEST)
        record, envelope = runtime.result(submission.record["id"])
        assert record["state"] == "queued"
        assert envelope is None
        drain(runtime, session)
        record, envelope = runtime.result(submission.record["id"])
        assert record["state"] == "done"
        assert envelope["scenario"] == "figure3"
        validate_envelope(envelope)

    def test_crashing_jobs_fail_with_an_error_envelope(self, runtime, session, monkeypatch):
        submission = runtime.submit(ANON, "figure3", REQUEST)
        monkeypatch.setattr(
            Session, "run", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        drain(runtime, session)
        record, envelope = runtime.result(submission.record["id"])
        assert record["state"] == "failed"
        assert "boom" in record["error"]
        assert envelope["error"] == "RuntimeError: boom"
        validate_envelope(envelope)
        # a failed key is not cached: the next submission re-queues
        monkeypatch.undo()
        retry = runtime.submit(ANON, "figure3", dict(REQUEST))
        assert retry.disposition == "miss"

    def test_healthz_gauges(self, runtime):
        health = runtime.healthz()
        assert health["status"] == "ok"
        assert health["queued"] == 0
        runtime.submit(ANON, "figure3", REQUEST)
        assert runtime.healthz()["queued"] == 1
