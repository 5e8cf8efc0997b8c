"""The poll-free hand-off: wake-on-enqueue workers and long-poll results.

The worker half runs a real forked pool on a :class:`ServiceRuntime`;
its safety timeout is raised to 5 s, so a claim or a shutdown that
happens faster than that was woken by the channel, not by a re-scan.
The long-poll half runs :class:`ServiceServer` on an event loop in a
thread, with no workers: the tests finish jobs by hand through the
queue and report them on the done channel, as a worker would.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.service import server as server_module
from repro.service import worker
from repro.service.client import ServiceClient
from repro.service.runtime import ServicePolicy, ServiceRuntime, Tenant
from repro.service.server import ServiceServer

ANON = Tenant("anonymous", quota=16)


def request(seed: int, n_traces: int = 16) -> dict:
    return {"schema": "repro.request/1", "n_traces": n_traces, "seed": seed, "precision": "float32"}


def wait_until(predicate, timeout: float = 120.0, step: float = 0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(step)


def job_ended(runtime, job_id):
    return lambda: runtime.status(job_id)["state"] in ("done", "failed")


@pytest.fixture
def pool(tmp_path, monkeypatch):
    """Start a forked pool with a 5 s safety timeout; yields a factory."""
    monkeypatch.setattr(worker, "SAFETY_TIMEOUT", 5.0)
    runtimes = []

    def start(workers: int = 1, spool=None) -> ServiceRuntime:
        runtime = ServiceRuntime(str(spool or tmp_path / "spool"), ServicePolicy(workers=workers))
        runtime.start()
        runtimes.append(runtime)
        return runtime

    yield start
    for runtime in runtimes:
        runtime.stop()


class TestWakeOnEnqueue:
    def test_an_idle_worker_claims_a_fresh_job_at_once(self, pool):
        runtime = pool()
        warm = runtime.submit(ANON, "figure3", request(1)).record["id"]
        wait_until(job_ended(runtime, warm))
        time.sleep(0.3)  # the worker is parked on its wake channel now
        job_id = runtime.submit(ANON, "figure3", request(2)).record["id"]
        wait_until(job_ended(runtime, job_id))
        record = runtime.status(job_id)
        assert record["state"] == "done"
        assert record["started"] - record["created"] < 0.2

    def test_stop_returns_promptly(self, pool):
        runtime = pool()
        warm = runtime.submit(ANON, "figure3", request(1)).record["id"]
        wait_until(job_ended(runtime, warm))
        processes = list(runtime._workers)
        started = time.monotonic()
        runtime.stop()
        assert time.monotonic() - started < 1.0
        assert [process.exitcode for process in processes] == [0]

    def test_two_workers_never_double_claim(self, pool):
        runtime = pool(workers=2)
        ids = [runtime.submit(ANON, "figure3", request(seed)).record["id"] for seed in range(6)]
        for job_id in ids:
            wait_until(job_ended(runtime, job_id))
        for job_id in ids:
            record = runtime.status(job_id)
            assert record["state"] == "done"
            assert record["attempts"] == 1
            assert not record["cached"]
        assert runtime.queue.in_flight() == 0

    def test_a_worker_killed_mid_job_is_recovered(self, pool):
        runtime = pool()
        job_id = runtime.submit(ANON, "figure3", request(3, n_traces=6000)).record["id"]
        wait_until(lambda: runtime.status(job_id)["state"] == "running")
        (process,) = runtime._workers
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)
        assert not process.is_alive()
        runtime.stop()
        assert runtime.status(job_id)["state"] == "running"

        restarted = pool(spool=runtime.spool)
        wait_until(job_ended(restarted, job_id), timeout=240)
        record = restarted.status(job_id)
        assert record["state"] == "done"
        assert record["attempts"] == 2


@pytest.fixture
def edge(tmp_path):
    """A live HTTP edge over a worker-less runtime."""
    runtime = ServiceRuntime(str(tmp_path / "spool"), ServicePolicy(workers=0))
    runtime.start()
    loop = asyncio.new_event_loop()
    server = ServiceServer(runtime)
    port = loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", port, timeout=30)
    try:
        yield runtime, server, client
    finally:
        client.close()
        asyncio.run_coroutine_threadsafe(shutdown(server), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        runtime.stop()


async def shutdown(server):
    """Close the edge, then cancel its connection tasks (``asyncio.run``
    does the same when ``serve`` returns)."""
    await server.close()
    tasks = asyncio.all_tasks() - {asyncio.current_task()}
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


def finish_later(runtime, job_id: str, delay: float, failed: bool = False, report: bool = True):
    """Finish ``job_id`` from another thread after ``delay`` seconds."""

    def run():
        time.sleep(delay)
        record = runtime.queue.claim()
        assert record is not None and record["id"] == job_id
        if failed:
            runtime.queue.fail(record, "boom", {"scenario": "figure3", "error": "boom"})
        else:
            runtime.queue.finish(record, {"scenario": "figure3", "output": "ok"})
        if report:
            runtime.done.send(f"{job_id}\n".encode())

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def timed_get(client, path):
    started = time.monotonic()
    status, body, _headers = client.request("GET", path)
    return status, body, time.monotonic() - started


class TestLongPoll:
    def test_a_job_finishing_mid_wait_answers_200(self, edge, monkeypatch):
        # With a 5 s re-check only the done report can answer this fast.
        monkeypatch.setattr(server_module, "RECHECK_INTERVAL", 5.0)
        runtime, _server, client = edge
        job_id = client.submit("figure3", request(1))["id"]
        finisher = finish_later(runtime, job_id, 0.3)
        status, body, elapsed = timed_get(client, f"/v1/runs/{job_id}/result?wait=10")
        finisher.join()
        assert status == 200 and body["output"] == "ok"
        assert 0.25 < elapsed < 2.0

    def test_a_job_failing_mid_wait_answers_500(self, edge):
        runtime, _server, client = edge
        job_id = client.submit("figure3", request(1))["id"]
        finisher = finish_later(runtime, job_id, 0.2, failed=True)
        status, body, _elapsed = timed_get(client, f"/v1/runs/{job_id}/result?wait=10")
        finisher.join()
        assert status == 500 and body["error"] == "boom"

    def test_a_lost_report_costs_at_most_the_recheck(self, edge):
        runtime, _server, client = edge
        job_id = client.submit("figure3", request(1))["id"]
        finisher = finish_later(runtime, job_id, 0.1, report=False)
        status, _body, elapsed = timed_get(client, f"/v1/runs/{job_id}/result?wait=10")
        finisher.join()
        assert status == 200
        assert elapsed < 1.5

    def test_expiry_answers_202_with_the_job_record(self, edge):
        _runtime, _server, client = edge
        job_id = client.submit("figure3", request(1))["id"]
        status, body, elapsed = timed_get(client, f"/v1/runs/{job_id}/result?wait=0.3")
        assert status == 202 and body["state"] == "queued"
        assert 0.3 <= elapsed < 1.5

    def test_unknown_job_is_404_at_once(self, edge):
        _runtime, _server, client = edge
        status, body, elapsed = timed_get(client, "/v1/runs/nope/result?wait=10")
        assert status == 404 and body["error"]["type"] == "unknown-job"
        assert elapsed < 1.0

    def test_the_cap_bounds_the_wait(self, edge, monkeypatch):
        monkeypatch.setattr(server_module, "LONG_POLL_CAP", 0.3)
        _runtime, _server, client = edge
        job_id = client.submit("figure3", request(1))["id"]
        status, _body, elapsed = timed_get(client, f"/v1/runs/{job_id}/result?wait=20")
        assert status == 202
        assert 0.3 <= elapsed < 1.5

    @pytest.mark.parametrize("wait", ["-1", "soon", "nan", "inf"])
    def test_a_malformed_wait_is_400(self, edge, wait):
        _runtime, _server, client = edge
        job_id = client.submit("figure3", request(1))["id"]
        status, body, _elapsed = timed_get(client, f"/v1/runs/{job_id}/result?wait={wait}")
        assert status == 400 and body["error"]["type"] == "bad-request"

    def test_a_waiting_client_needs_at_most_two_gets(self, edge):
        runtime, _server, client = edge
        paths = []
        request_once = client.request

        def counting(method, path, payload=None):
            paths.append(path)
            return request_once(method, path, payload)

        client.request = counting
        job_id = client.submit("figure3", request(1))["id"]
        finisher = finish_later(runtime, job_id, 0.3)
        envelope = client.result(job_id, wait=True, timeout=20)
        finisher.join()
        assert envelope["output"] == "ok"
        gets = [path for path in paths if path.startswith(f"/v1/runs/{job_id}/result")]
        assert 1 <= len(gets) <= 2
        assert all("?wait=" in path for path in gets)
