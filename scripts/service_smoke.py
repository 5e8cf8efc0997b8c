"""CI service smoke: the HTTP service end to end, against a real process.

Five stories, each against a live ``repro serve`` on an ephemeral port:

1. **wire identity** — a figure3 envelope fetched over HTTP must be
   JSON-identical to ``repro figure3 --format json`` run locally with
   the same knobs (modulo the volatile ``seconds`` field, the same
   convention the other byte-identity CI checks use);
2. **dedup** — resubmitting the identical request must be served from
   the cache (``X-Repro-Cache: hit``, job born ``done``) with the very
   same envelope, without re-execution;
3. **long-poll** — a fresh miss's envelope must arrive through one
   ``GET /v1/runs/{id}/result?wait=`` request, parked until the job
   ends;
4. **backpressure** — with ``--quota 1``, a second in-flight job must be
   refused with 429 + ``Retry-After`` while the first still completes;
5. **restart survival** — ``kill -9`` the whole service mid-job, restart
   on the same spool, and the job must still complete with zero loss.

Usage: PYTHONPATH=src python scripts/service_smoke.py [--out service_report.json]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.service.client import ServiceClient, ServiceError

REQUEST = {"schema": "repro.request/1", "n_traces": 150, "seed": 5, "precision": "float32"}


def start_server(spool: str, *extra_args: str) -> tuple[subprocess.Popen, int]:
    port_path = os.path.join(spool, "port")
    try:
        # A restart into an existing spool must wait for the *new*
        # server's binding, not read the previous life's port file.
        os.unlink(port_path)
    except FileNotFoundError:
        pass
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
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
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.path.exists(port_path) and process.poll() is None:
            with open(port_path) as handle:
                return process, int(handle.read())
        if process.poll() is not None:
            raise AssertionError(f"server died at startup:\n{process.stdout.read()}")
        time.sleep(0.05)
    process.kill()
    raise AssertionError("server never wrote its port file")


def stop_server(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=5)


def stable(record: dict) -> str:
    record = dict(record)
    record.pop("seconds", None)  # wall time is the one volatile field
    return json.dumps(record, sort_keys=True)


def local_cli_envelope() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "figure3",
            "--traces", "150", "--seed", "5", "--precision", "float32",
            "--format", "json",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    (record,) = json.loads(completed.stdout)
    return record


def smoke_wire_identity_and_dedup(report: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        process, port = start_server(os.path.join(tmp, "spool"))
        try:
            client = ServiceClient("127.0.0.1", port)
            first = client.submit("figure3", dict(REQUEST))
            assert first["cache"] == "miss", first
            served = client.result(first["id"], wait=True, timeout=600)
            local = local_cli_envelope()
            assert stable(served) == stable(local), "service envelope diverged from the local CLI"
            print("wire identity: service envelope byte-identical to the CLI")

            twin = client.submit("figure3", dict(REQUEST))
            assert twin["cache"] == "hit", twin
            assert twin["cached"] is True, twin
            twin_env = client.result(twin["id"])  # born done: no polling
            assert stable(twin_env) == stable(served), "cached envelope diverged"
            print("dedup: duplicate served from cache (X-Repro-Cache: hit)")
            report["wire_identity"] = {"matches_cli": True}
            report["dedup"] = {"disposition": twin["cache"], "identical": True}

            miss = client.submit("figure3", dict(REQUEST, seed=6))
            assert miss["cache"] == "miss", miss
            started = time.monotonic()
            status, envelope, _headers = client.request(
                "GET", f"/v1/runs/{miss['id']}/result?wait=30"
            )
            waited = time.monotonic() - started
            assert status == 200, f"long-poll answered {status}: {envelope}"
            assert envelope["scenario"] == "figure3" and not envelope.get("error"), envelope
            print(f"long-poll: a miss's envelope arrived through one request ({waited:.2f}s)")
            report["long_poll"] = {"requests": 1, "waited_s": round(waited, 3)}
        finally:
            stop_server(process)


def smoke_quota_backpressure(report: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        process, port = start_server(os.path.join(tmp, "spool"), "--quota", "1")
        try:
            client = ServiceClient("127.0.0.1", port)
            slow = {"schema": "repro.request/1", "n_traces": 4000, "seed": 1}
            first = client.submit("figure3", slow)
            try:
                client.submit("figure3", dict(slow, seed=2))
            except ServiceError as error:
                assert error.status == 429, error.status
                assert error.retry_after is not None, "429 without Retry-After"
            else:
                raise AssertionError("second in-flight job was not refused at quota 1")
            served = client.result(first["id"], wait=True, timeout=600)
            assert served["scenario"] == "figure3"
            print("backpressure: quota 1 refuses with 429 + Retry-After; first job completes")
            report["backpressure"] = {"status": 429, "first_job_completed": True}
        finally:
            stop_server(process)


def smoke_restart_survival(report: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        spool = os.path.join(tmp, "spool")
        process, port = start_server(spool)
        client = ServiceClient("127.0.0.1", port)
        request = {"schema": "repro.request/1", "n_traces": 6000, "seed": 3}
        submission = client.submit("figure3", request)
        # wait until a worker has claimed it, then kill ungracefully
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if client.status(submission["id"])["state"] != "queued":
                break
            time.sleep(0.05)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)

        started = time.monotonic()
        restarted, port = start_server(spool)
        try:
            client = ServiceClient("127.0.0.1", port)
            served = client.result(submission["id"], wait=True, timeout=600)
            assert served["scenario"] == "figure3"
            record = client.status(submission["id"])
            assert record["state"] == "done", record
            recovered_in = time.monotonic() - started
            print(f"restart: kill -9 mid-job, 0 lost, recovered in {recovered_in:.1f}s")
            report["restart"] = {"lost_jobs": 0, "recovered_in_s": round(recovered_in, 3)}
        finally:
            stop_server(restarted)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write a JSON report here")
    args = parser.parse_args(argv)

    report: dict = {"schema": "service_smoke/1"}
    smoke_wire_identity_and_dedup(report)
    smoke_quota_backpressure(report)
    smoke_restart_survival(report)

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.out}")
    print("service smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
