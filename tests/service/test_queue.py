"""JobQueue: persistent records, atomic claims, crash recovery."""

import json
import os

import pytest

from repro.atomicfile import atomic_write
from repro.service.queue import (
    JOB_SCHEMA,
    JobError,
    JobQueue,
    new_job_id,
)


@pytest.fixture
def queue(tmp_path):
    return JobQueue(str(tmp_path / "spool"))


def make_job(queue, *, tenant="anonymous", key="k" * 64):
    return queue.build_job(
        scenario="figure3",
        tenant=tenant,
        request_record={"schema": "repro.request/1", "n_traces": 64},
        key=key,
    )


ENVELOPE = {
    "schema": "repro.envelope/1",
    "scenario": "figure3",
    "title": "t",
    "seconds": 0.1,
    "matches_paper": True,
    "output": "ok",
}


class TestSpoolLayout:
    def test_constructor_builds_every_state_directory(self, queue):
        for name in ("jobs", "queued", "running", "results", "cache", "keys"):
            assert os.path.isdir(os.path.join(queue.root, name))

    def test_job_ids_sort_in_creation_order(self):
        ids = [new_job_id() for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_atomic_write_leaves_no_tmp_on_failure(self, tmp_path):
        class Boom:
            def __str__(self):
                raise RuntimeError("unwritable")

        directory = str(tmp_path)
        with pytest.raises(TypeError):
            atomic_write(os.path.join(directory, "out"), Boom())
        assert os.listdir(directory) == []


class TestRecords:
    def test_save_and_load_round_trip(self, queue):
        record = make_job(queue)
        queue.save_job(record)
        assert queue.load_job(record["id"]) == record

    def test_load_missing_job_is_none(self, queue):
        assert queue.load_job("nope") is None

    def test_save_rejects_unversioned_records(self, queue):
        with pytest.raises(JobError, match="schema"):
            queue.save_job({"id": "x"})

    def test_load_rejects_foreign_schema_versions(self, queue):
        record = make_job(queue)
        record["schema"] = "repro.job/999"
        atomic_write(
            os.path.join(queue.root, "jobs", f"{record['id']}.json"), json.dumps(record)
        )
        with pytest.raises(JobError, match="repro.job/999"):
            queue.load_job(record["id"])

    def test_build_job_shape(self, queue):
        record = make_job(queue, tenant="acme")
        assert record["schema"] == JOB_SCHEMA
        assert record["state"] == "queued"
        assert record["tenant"] == "acme"
        assert record["attempts"] == 0
        assert record["error"] is None


class TestClaiming:
    def test_enqueue_then_claim_moves_the_marker(self, queue):
        record = queue.enqueue(make_job(queue))
        assert queue.depth() == 1
        claimed = queue.claim()
        assert claimed["id"] == record["id"]
        assert claimed["state"] == "running"
        assert claimed["attempts"] == 1
        assert claimed["started"] is not None
        assert queue.depth() == 0
        assert list(queue.markers("running")) == [record["id"]]

    def test_claim_order_is_fifo(self, queue):
        first = queue.enqueue(make_job(queue, key="a" * 64))
        second = queue.enqueue(make_job(queue, key="b" * 64))
        assert queue.claim()["id"] == first["id"]
        assert queue.claim()["id"] == second["id"]

    def test_empty_queue_claims_none(self, queue):
        assert queue.claim() is None

    def test_losing_the_rename_race_skips_to_the_next_job(self, queue, monkeypatch):
        first = queue.enqueue(make_job(queue, key="a" * 64))
        second = queue.enqueue(make_job(queue, key="b" * 64))
        real_rename = os.rename
        lost = []

        def racing_rename(src, dst):
            # A rival worker wins the first job's rename out from under us.
            if not lost and src.endswith(first["id"]):
                lost.append(src)
                real_rename(src, os.path.join(queue.root, "running", first["id"]))
                raise FileNotFoundError(src)
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", racing_rename)
        claimed = queue.claim()  # loser must move on, not double-claim
        assert claimed["id"] == second["id"]
        assert lost

    def test_marker_without_record_is_dropped(self, queue):
        atomic_write(os.path.join(queue.root, "queued", "ghost"), "anonymous")
        assert queue.claim() is None
        assert queue.markers("queued") == {}
        assert queue.markers("running") == {}

    def test_markers_carry_the_owning_tenant(self, queue):
        queue.enqueue(make_job(queue, tenant="acme", key="a" * 64))
        queue.enqueue(make_job(queue, tenant="zeta", key="b" * 64))
        assert sorted(queue.markers("queued").values()) == ["acme", "zeta"]
        assert queue.in_flight("acme") == 1
        assert queue.in_flight() == 2


class TestCompletion:
    def test_finish_commits_result_before_dropping_the_marker(self, queue):
        queue.enqueue(make_job(queue))
        record = queue.claim()
        finished = queue.finish(record, ENVELOPE)
        assert finished["state"] == "done"
        assert finished["finished"] is not None
        assert queue.load_result(record["id"]) == ENVELOPE
        assert queue.markers("running") == {}
        assert queue.load_job(record["id"])["state"] == "done"

    def test_fail_records_the_error_and_optional_envelope(self, queue):
        queue.enqueue(make_job(queue))
        record = queue.claim()
        failure = dict(ENVELOPE, output=None, error="RuntimeError: boom")
        failed = queue.fail(record, "RuntimeError: boom", failure)
        assert failed["state"] == "failed"
        assert failed["error"] == "RuntimeError: boom"
        assert queue.load_result(record["id"])["error"] == "RuntimeError: boom"
        assert queue.in_flight() == 0


class TestRecovery:
    def test_interrupted_running_jobs_requeue(self, queue):
        queue.enqueue(make_job(queue))
        record = queue.claim()  # worker dies here
        requeued = queue.recover()
        assert requeued == [record["id"]]
        reloaded = queue.load_job(record["id"])
        assert reloaded["state"] == "queued"
        assert reloaded["started"] is None
        assert reloaded["attempts"] == 1  # the lost attempt stays counted
        # and the job is claimable again
        assert queue.claim()["id"] == record["id"]

    def test_finished_job_with_stale_marker_is_not_rerun(self, queue):
        queue.enqueue(make_job(queue))
        record = queue.claim()
        # Crash between commit and marker cleanup: record says done,
        # result exists, marker still in running/.
        atomic_write(queue.result_path(record["id"]), json.dumps(ENVELOPE))
        record["state"] = "done"
        queue.save_job(record)
        assert queue.recover() == []
        assert queue.markers("running") == {}
        assert queue.load_job(record["id"])["state"] == "done"
        assert queue.load_result(record["id"]) == ENVELOPE

    def test_recover_with_clean_spool_is_a_no_op(self, queue):
        assert queue.recover() == []

    def test_queued_jobs_survive_recovery_untouched(self, queue):
        record = queue.enqueue(make_job(queue))
        assert queue.recover() == []
        assert queue.depth() == 1
        assert queue.load_job(record["id"])["state"] == "queued"
