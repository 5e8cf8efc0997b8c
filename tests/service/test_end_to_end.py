"""The service end to end: one `repro serve` process, real HTTP.

Pins the acceptance contract of the service layer:

* an envelope fetched via ``GET /v1/runs/{id}/result`` is JSON-identical
  to ``repro figure3 --format json`` run locally with the same
  seed/config (modulo the volatile ``seconds`` timing field, the same
  convention the CI byte-identity checks use);
* a duplicate submission is served from the dedup cache without
  re-execution (``X-Repro-Cache: hit``, job born ``done``);
* backpressure and auth surface as real HTTP status codes.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient, ServiceError

REQUEST = {"schema": "repro.request/1", "n_traces": 150, "seed": 5, "precision": "float32"}


def start_server(tmp_path, *extra_args):
    spool = str(tmp_path / "spool")
    try:
        # A restart into an existing spool must wait for the *new*
        # server's binding, not read the previous life's port file.
        os.unlink(os.path.join(spool, "port"))
    except FileNotFoundError:
        pass
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--spool", spool, "--workers", "1", *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    port_path = os.path.join(spool, "port")
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if os.path.exists(port_path) and process.poll() is None:
            with open(port_path) as handle:
                return process, spool, int(handle.read())
        if process.poll() is not None:
            raise AssertionError(f"server died at startup:\n{process.stdout.read()}")
        time.sleep(0.05)
    process.kill()
    raise AssertionError("server never wrote its port file")


def stop_server(process):
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=5)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    process, spool, port = start_server(tmp_path_factory.mktemp("service"))
    client = ServiceClient("127.0.0.1", port)
    try:
        yield client
    finally:
        stop_server(process)


def cli_envelope(*args):
    """One envelope from the local CLI, exactly as a user would run it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *args, "--format", "json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    (record,) = json.loads(completed.stdout)
    return record


class TestWireIdentity:
    def test_service_envelope_matches_the_local_cli(self, service):
        submission = service.submit("figure3", REQUEST)
        assert submission["cache"] == "miss"
        served = service.result(submission["id"], wait=True, timeout=240)

        local = cli_envelope(
            "figure3", "--traces", "150", "--seed", "5", "--precision", "float32"
        )
        # `seconds` is wall-clock timing, volatile by nature; everything
        # else must be byte-identical across transports.
        served.pop("seconds"), local.pop("seconds")
        assert json.dumps(served, sort_keys=True) == json.dumps(local, sort_keys=True)

    def test_a_record_carrying_the_retired_reduce_field_still_runs(self, service):
        # Older clients and queued records still send ``reduce``; it is
        # checked and dropped, so the run lands in the same cache slot.
        submission = service.submit("figure3", {**REQUEST, "seed": 6, "reduce": "worker"})
        served = service.result(submission["id"], wait=True, timeout=240)
        assert served["scenario"] == "figure3" and "error" not in served
        twin = service.submit("figure3", {**REQUEST, "seed": 6})
        assert twin["cache"] == "hit"

    def test_duplicate_is_served_from_cache_without_execution(self, service):
        first = service.submit("figure3", REQUEST)
        first_env = service.result(first["id"], wait=True, timeout=240)
        twin = service.submit("figure3", dict(REQUEST))
        assert twin["cache"] == "hit"
        assert twin["cached"] is True
        # born done: the result is available with no polling at all
        twin_env = service.result(twin["id"])
        assert twin_env == first_env

    def test_in_flight_duplicate_coalesces(self, service):
        request = dict(REQUEST, seed=77, n_traces=2000)
        first = service.submit("figure3", request)
        twin = service.submit("figure3", dict(request))
        assert twin["cache"] in ("coalesced", "hit")  # hit if first finished already
        if twin["cache"] == "coalesced":
            assert twin["id"] == first["id"]
        assert service.result(first["id"], wait=True, timeout=240)["scenario"] == "figure3"


class TestHttpContract:
    def test_healthz(self, service):
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 1

    def test_unknown_scenario_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit("nope", REQUEST)
        assert excinfo.value.status == 404

    def test_capability_violation_400_names_the_knobs(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit("figure2", REQUEST)  # reps-only scenario
        assert excinfo.value.status == 400
        body = excinfo.value.body["error"]
        assert body["type"] == "capability"
        assert "figure2" in body["message"]

    def test_schema_violation_400_lists_problems(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit("figure3", dict(REQUEST, bogus=1))
        assert excinfo.value.status == 400
        assert any("bogus" in p for p in excinfo.value.body["error"]["problems"])

    def test_checkpoint_knob_rejected_over_the_wire(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit("figure3", dict(REQUEST, checkpoint="/srv/x"))
        assert excinfo.value.status == 400

    def test_unknown_job_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.status("no-such-job")
        assert excinfo.value.status == 404

    def test_unknown_route_404_and_bad_method_405(self, service):
        status, _, _ = service.request("GET", "/v1/frobnicate")
        assert status == 404
        status, _, headers = service.request("DELETE", "/v1/runs")
        assert status == 405
        assert headers.get("allow") == "POST"


class TestQuotaOverHttp:
    def test_quota_1_gives_429_with_retry_after(self, tmp_path):
        process, _, port = start_server(tmp_path, "--quota", "1")
        client = ServiceClient("127.0.0.1", port)
        try:
            slow = {"schema": "repro.request/1", "n_traces": 4000, "seed": 1}
            first = client.submit("figure3", slow)
            with pytest.raises(ServiceError) as excinfo:
                client.submit("figure3", dict(slow, seed=2))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            # the admitted job still completes
            assert client.result(first["id"], wait=True, timeout=240)["scenario"] == "figure3"
        finally:
            stop_server(process)


class TestRestartSurvival:
    def test_kill_dash_nine_loses_no_jobs(self, tmp_path):
        process, spool, port = start_server(tmp_path)
        client = ServiceClient("127.0.0.1", port)
        request = {"schema": "repro.request/1", "n_traces": 6000, "seed": 3}
        submission = client.submit("figure3", request)
        # wait for a worker to claim it, then kill everything ungracefully
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(submission["id"])["state"] != "queued":
                break
            time.sleep(0.05)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)

        restarted, _, port = start_server(tmp_path)
        try:
            client = ServiceClient("127.0.0.1", port)
            served = client.result(submission["id"], wait=True, timeout=240)
            assert served["scenario"] == "figure3"
            record = client.status(submission["id"])
            assert record["state"] == "done"
        finally:
            stop_server(restarted)
