"""The HTTP/JSON edge of the leakage-evaluation service.

A hand-rolled HTTP/1.1 server on :mod:`asyncio` streams — stdlib only,
by constraint and by design (the request path is four small routes over
JSON bodies; a framework would be the heaviest dependency in the
repository).  Keep-alive is supported (``Content-Length``-framed
responses), pipelining is not.

Routes::

    GET  /v1/healthz            liveness + queue gauges
    POST /v1/runs               submit a repro.request/1 (+ scenario)
    GET  /v1/runs/{id}          the repro.job/1 record
    GET  /v1/runs/{id}/result   the repro.envelope/1 record
                                (``?wait=S``: long-poll up to S seconds)

Submission bodies look like::

    {"scenario": "figure3", "request": {"schema": "repro.request/1", ...}}

Status mapping (the runtime raises, the edge translates):

* schema violations / service-policy knobs → **400** with a structured
  ``{"error": {"type", "message", ...}}`` body;
* capability violations → **400** with the scenario's declared
  capability set and the same wording the CLI prints
  (``CapabilityError.cli_message()``);
* unknown scenario / unknown job → **404**;
* missing or unknown tenant token → **401**;
* per-tenant quota or queue-depth backpressure → **429** with a
  ``Retry-After`` header;
* a result fetched before the job finished → **202** with the job
  record (poll again).  With ``?wait=S`` the request is parked until
  the job is done or failed, or until ``min(S, LONG_POLL_CAP)``
  seconds pass; only then does it answer 202.  Workers report finished
  jobs on the runtime's done channel, which the event loop reads; a
  parked request also re-reads the job record every
  :data:`RECHECK_INTERVAL` seconds, so a lost report costs at most that;
* a failed job's result → **500** carrying the error envelope.

Every ``POST /v1/runs`` response carries ``X-Repro-Cache`` — ``miss``
(newly queued), ``hit`` (served from the dedup cache without
execution) or ``coalesced`` (attached to an identical in-flight job).
Tenants identify themselves with ``Authorization: Bearer <token>`` (or
``X-Repro-Token``); with no tenants configured the service is open.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any

from repro.atomicfile import atomic_write
from repro.service.channel import Channel
from repro.service.runtime import Busy, ServiceRejection, ServiceRuntime

#: Largest accepted request body; leakage requests are a few KiB.
MAX_BODY_BYTES = 1 << 20

#: Seconds an idle keep-alive connection may sit before we close it.
IDLE_TIMEOUT = 30.0

#: Longest park of a ``?wait=`` result request, in seconds.
LONG_POLL_CAP = 30.0

#: Seconds between a parked request's re-reads of its job record.
RECHECK_INTERVAL = 0.5

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message


def _encode_response(
    status: int, body: dict | list, extra_headers: dict[str, str] | None = None
) -> bytes:
    payload = json.dumps(body).encode()
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return "\r\n".join(headers).encode() + b"\r\n\r\n" + payload


class ServiceServer:
    """Bind, accept, route; all state lives in the runtime's spool."""

    def __init__(self, runtime: ServiceRuntime, host: str = "127.0.0.1", port: int = 0):
        self.runtime = runtime
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: job id -> futures of the requests parked on it
        self._parked: dict[str, set[asyncio.Future]] = {}
        self._done: Channel | None = None
        self._closing = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port.

        The bound port is also written to ``<spool>/port`` so tooling
        (the smoke harness, the load generator) can discover an
        ephemeral ``--port 0`` binding.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._done = self.runtime.done
        if self._done is not None:
            asyncio.get_running_loop().add_reader(self._done.read_fd, self._on_done)
        atomic_write(os.path.join(self.runtime.spool, "port"), str(self.port))
        return self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        # Parked long-polls answer 202 now instead of holding shutdown.
        self._closing = True
        self._release(list(self._parked))
        if self._done is not None:
            asyncio.get_running_loop().remove_reader(self._done.read_fd)
            self._done = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), timeout=IDLE_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    break
                except _BadRequest as error:
                    writer.write(
                        _encode_response(
                            error.status,
                            {"error": {"type": "bad-request", "message": error.message}},
                            {"Connection": "close"},
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, extra = await self._dispatch(method, path, headers, body)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                if not keep_alive:
                    extra = dict(extra or {}, Connection="close")
                writer.write(_encode_response(status, payload, extra))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection tasks; asyncio's
            # stream-protocol callback would log the cancellation as an
            # "Exception in callback" if it escaped, so absorb it here and
            # just close the socket.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        except asyncio.LimitOverrunError:
            raise _BadRequest(413, "header block too large") from None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _BadRequest(400, f"malformed request line {lines[0]!r}") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    # -- routing ---------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict | list, dict[str, str] | None]:
        path, _, query = target.partition("?")
        try:
            if path == "/v1/healthz":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return 200, self.runtime.healthz(), None
            if path == "/v1/runs":
                if method != "POST":
                    return self._method_not_allowed("POST")
                return self._submit(headers, body)
            if path.startswith("/v1/runs/"):
                if method != "GET":
                    return self._method_not_allowed("GET")
                tail = path[len("/v1/runs/") :]
                if tail.endswith("/result"):
                    job_id = tail[: -len("/result")].rstrip("/")
                    return await self._result(job_id, _wait_seconds(query))
                return self._status(tail)
            return 404, {"error": {"type": "unknown-route", "message": f"no route {path}"}}, None
        except _BadRequest as error:
            return error.status, {"error": {"type": "bad-request", "message": error.message}}, None
        except Exception as error:  # noqa: BLE001 - edge must answer, not die
            return (
                500,
                {"error": {"type": "internal", "message": f"{type(error).__name__}: {error}"}},
                None,
            )

    @staticmethod
    def _method_not_allowed(allowed: str) -> tuple[int, dict, dict[str, str]]:
        return (
            405,
            {"error": {"type": "method-not-allowed", "message": f"use {allowed}"}},
            {"Allow": allowed},
        )

    def _token(self, headers: dict[str, str]) -> str | None:
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return headers.get("x-repro-token")

    # -- handlers --------------------------------------------------------

    def _submit(
        self, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict, dict[str, str] | None]:
        from repro.api import CapabilityError, RequestSchemaError

        try:
            tenant = self.runtime.authenticate(self._token(headers))
        except ServiceRejection as error:
            return error.status, {"error": {"type": error.kind, "message": str(error)}}, None
        try:
            payload = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"error": {"type": "bad-json", "message": str(error)}}, None
        if not isinstance(payload, dict) or "scenario" not in payload:
            return (
                400,
                {
                    "error": {
                        "type": "bad-request",
                        "message": 'body must be {"scenario": ..., "request": {...}}',
                    }
                },
                None,
            )
        try:
            submission = self.runtime.submit(
                tenant, payload["scenario"], payload.get("request") or {"schema": "repro.request/1"}
            )
        except CapabilityError as error:
            return (
                400,
                {
                    "error": {
                        "type": "capability",
                        "message": error.cli_message(),
                        "scenario": error.scenario,
                        "knobs": list(error.knobs),
                        "supported": sorted(str(c) for c in error.supported),
                    }
                },
                None,
            )
        except RequestSchemaError as error:
            return (
                400,
                {
                    "error": {
                        "type": "request-schema",
                        "message": str(error),
                        "problems": list(error.problems),
                    }
                },
                None,
            )
        except Busy as error:
            return (
                429,
                {"error": {"type": error.kind, "message": str(error)}},
                {"Retry-After": f"{error.retry_after:g}"},
            )
        except ServiceRejection as error:
            return error.status, {"error": {"type": error.kind, "message": str(error)}}, None
        record = submission.record
        status = 201 if submission.disposition == "miss" else 200
        body_out = {
            "id": record["id"],
            "state": record["state"],
            "scenario": record["scenario"],
            "key": record["key"],
            "cached": submission.disposition == "hit",
            "coalesced": submission.disposition == "coalesced",
        }
        return status, body_out, {"X-Repro-Cache": submission.disposition}

    def _status(self, job_id: str) -> tuple[int, dict, None]:
        record = self.runtime.status(job_id)
        if record is None:
            return 404, {"error": {"type": "unknown-job", "message": f"no job {job_id!r}"}}, None
        return 200, record, None

    async def _result(self, job_id: str, wait: float) -> tuple[int, dict, None]:
        """The result now, or — with ``wait`` — once the job ends or
        ``min(wait, LONG_POLL_CAP)`` seconds pass."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + min(wait, LONG_POLL_CAP)
        while True:
            reply = self._result_now(job_id)
            remaining = deadline - loop.time()
            if reply[0] != 202 or remaining <= 0 or self._closing:
                return reply
            # No await between the read above and parking: a report
            # the done channel delivers from here on reaches this park.
            parked = loop.create_future()
            self._parked.setdefault(job_id, set()).add(parked)
            try:
                await asyncio.wait({parked}, timeout=min(remaining, RECHECK_INTERVAL))
            finally:
                waiting = self._parked.get(job_id, set())
                waiting.discard(parked)
                if not waiting:
                    self._parked.pop(job_id, None)

    def _on_done(self) -> None:
        """Event-loop reader of the done channel: release parked waits."""
        assert self._done is not None
        self._release(self._done.drain().decode().split())

    def _release(self, job_ids: list[str]) -> None:
        for job_id in job_ids:
            for parked in self._parked.get(job_id, ()):
                if not parked.done():
                    parked.set_result(None)

    def _result_now(self, job_id: str) -> tuple[int, dict, None]:
        record, envelope = self.runtime.result(job_id)
        if record is None:
            return 404, {"error": {"type": "unknown-job", "message": f"no job {job_id!r}"}}, None
        if envelope is None:
            return 202, record, None
        if record.get("state") == "failed":
            return 500, envelope, None
        return 200, envelope, None


def _wait_seconds(query: str) -> float:
    """The ``wait`` parameter of a result query, in seconds (0 if absent)."""
    from urllib.parse import parse_qs

    values = parse_qs(query).get("wait")
    if not values:
        return 0.0
    try:
        wait = float(values[-1])
    except ValueError:
        wait = -1.0
    if not 0.0 <= wait < float("inf"):
        raise _BadRequest(400, f"wait must be a finite number of seconds >= 0, got {values[-1]!r}")
    return wait


def serve(
    runtime: ServiceRuntime,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Any = None,
) -> None:
    """Blocking entry: recover, start workers, serve HTTP until SIGTERM.

    ``ready`` (optional callable) receives the bound port once the
    socket is listening — the CLI prints the listening line there.
    """
    import signal

    async def _main() -> None:
        server = ServiceServer(runtime, host, port)
        bound = await server.start()
        if ready is not None:
            ready(bound)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stopping.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stopping.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await server.close()

    runtime.start()
    try:
        asyncio.run(_main())
    finally:
        runtime.stop()
