"""A stdlib client for the leakage-evaluation service.

Wraps :mod:`http.client` with keep-alive connection reuse, bearer-token
auth and a wait-until-done helper that long-polls the result route.
The load generator, the smoke harness and the integration tests all
drive the service through this — it is also the reference for
third-party clients (four routes, JSON both ways; see
``docs/service.md``).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any


class ServiceError(RuntimeError):
    """A non-2xx service response."""

    def __init__(self, status: int, body: Any, headers: dict[str, str] | None = None):
        self.status = status
        self.body = body
        self.headers = dict(headers or {})
        message = body.get("error", {}).get("message") if isinstance(body, dict) else None
        super().__init__(f"HTTP {status}: {message or body}")

    @property
    def retry_after(self) -> float | None:
        value = self.headers.get("retry-after")
        return float(value) if value else None


class ServiceClient:
    """One keep-alive connection to a ``repro serve`` instance."""

    def __init__(self, host: str, port: int, token: str | None = None, timeout: float = 60.0):
        self.host = host
        self.port = int(port)
        self.token = token
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    # -- plumbing --------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, Any, dict[str, str]]:
        """One round trip; reconnects once on a dropped keep-alive."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        for attempt in (0, 1):
            connection = self._connect()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
        decoded = json.loads(raw.decode()) if raw else None
        return response.status, decoded, {k.lower(): v for k, v in response.getheaders()}

    def _checked(self, method: str, path: str, payload: Any = None, ok=(200, 201, 202)):
        status, decoded, headers = self.request(method, path, payload)
        if status not in ok:
            raise ServiceError(status, decoded, headers)
        return status, decoded, headers

    # -- the API ---------------------------------------------------------

    def healthz(self) -> dict:
        return self._checked("GET", "/v1/healthz")[1]

    def submit(self, scenario: str, request: Any = None) -> dict:
        """POST one run; returns the body plus ``"cache"`` disposition.

        ``request`` may be a :class:`~repro.api.request.RunRequest`, an
        already-encoded ``repro.request/1`` dict, or ``None`` (scenario
        defaults).
        """
        record = request.to_json() if hasattr(request, "to_json") else request
        payload = {"scenario": scenario, "request": record}
        _status, body, headers = self._checked("POST", "/v1/runs", payload)
        body["cache"] = headers.get("x-repro-cache", "miss")
        return body

    def status(self, job_id: str) -> dict:
        return self._checked("GET", f"/v1/runs/{job_id}")[1]

    def result(
        self, job_id: str, wait: bool = False, timeout: float = 300.0, poll: float = 0.05
    ) -> dict:
        """The job's envelope record; optionally wait until it exists.

        With ``wait`` every request long-polls (``?wait=``): the server
        answers as soon as the job ends, or with 202 once the wait —
        at most half the socket timeout — runs out, and the client asks
        again until ``timeout``.  Only a 202 that comes back sooner than
        ``poll`` seconds (a server that did not park the request) is
        followed by a ``poll``-second pause.

        A failed job's error envelope is returned (not raised): it is a
        schema-valid ``repro.envelope/1`` record with an ``error`` field,
        exactly what ``repro --format json`` prints for a crash.
        """
        deadline = time.monotonic() + timeout
        path = f"/v1/runs/{job_id}/result"
        while True:
            sent = time.monotonic()
            park = min(deadline - sent, self.timeout / 2)
            target = f"{path}?wait={park:.3f}" if wait and park > 0 else path
            status, body, headers = self.request("GET", target)
            if status in (200, 500):
                return body
            if status != 202:
                raise ServiceError(status, body, headers)
            if not wait or time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {body.get('state', 'pending')!r}"
                    if wait
                    else f"job {job_id} not finished (state {body.get('state')!r})"
                )
            if time.monotonic() - sent < poll:
                time.sleep(poll)

    def run(self, scenario: str, request: Any = None, timeout: float = 300.0) -> dict:
        """Submit and wait: the remote analogue of ``Session.run``."""
        submitted = self.submit(scenario, request)
        return self.result(submitted["id"], wait=True, timeout=timeout)
