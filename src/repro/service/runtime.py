"""The service runtime: submit/status/result semantics + worker pool.

This layer is transport-agnostic — the HTTP edge
(:mod:`repro.service.server`) translates its outcomes into status codes
and headers, and the tests drive it directly.  It owns:

* **admission** — scenario lookup, strict ``repro.request/1``
  deserialization with capability validation, service-side knob policy
  (tenants may not point ``checkpoint``/``resume`` at server paths; the
  service owns persistence), and resolution to the canonical request
  the job key digests;
* **dedup** — a completed key is served straight from the result cache
  (a ``hit``), an in-flight key coalesces onto the already-queued job
  (``coalesced``: the caller gets the primary job id and polls it; the
  queue never holds two copies of the same work);
* **backpressure** — per-tenant in-flight quotas and a global queue
  depth bound, both surfaced as :class:`Busy` with a retry hint;
* **the worker pool** — OS processes running
  :func:`repro.service.worker.run_worker`, restarted into a recovered
  queue on service start (``recover()`` re-queues claims a dead worker
  left behind, so a ``kill -9`` loses no jobs);
* **the hand-off channels** — a wake channel the runtime signals once
  per enqueued job (and once per worker on :meth:`ServiceRuntime.stop`)
  and a done channel the workers report finished job ids on (read by
  the HTTP edge's long-poll).  Both are
  :class:`~repro.service.channel.Channel` pipes created before the
  workers fork; they only shorten waits, the spool stays the truth.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Any

from repro.atomicfile import atomic_write
from repro.service.cache import ResultCache, job_key
from repro.service.channel import Channel
from repro.service.queue import JobQueue

#: Wire knobs the service refuses regardless of scenario capabilities:
#: they name server-side filesystem state a tenant has no business in.
SERVICE_REJECTED_KNOBS = ("checkpoint", "resume")


class ServiceRejection(ValueError):
    """An admission failure the edge maps to a structured 4xx body."""

    def __init__(self, kind: str, message: str, status: int = 400):
        self.kind = kind
        self.status = status
        super().__init__(message)


class UnknownScenario(ServiceRejection):
    def __init__(self, name: str, known: list[str]):
        super().__init__(
            "unknown-scenario",
            f"unknown scenario {name!r}; registered: {', '.join(known)}",
            status=404,
        )


class Busy(ServiceRejection):
    """Quota or queue-depth backpressure: retry later (429)."""

    def __init__(self, kind: str, message: str, retry_after: float):
        super().__init__(kind, message, status=429)
        self.retry_after = retry_after


@dataclass(frozen=True)
class Tenant:
    name: str
    token: str | None = None
    #: max queued+running jobs this tenant may hold at once
    quota: int = 16


@dataclass
class ServicePolicy:
    """Everything ``repro serve`` configures beyond host/port."""

    workers: int = 2
    queue_depth: int = 256
    default_quota: int = 16
    #: execution defaults handed to every worker Session (applied only
    #: where a scenario supports them)
    backend: str | None = None
    retries: int | None = None
    chunk_timeout: float | None = None
    tenants: tuple[Tenant, ...] = ()
    #: seconds clients are told to back off on 429
    retry_after: float = 1.0

    def session_defaults(self) -> dict:
        defaults = {
            "backend": self.backend,
            "retries": self.retries,
            "chunk_timeout": self.chunk_timeout,
        }
        return {k: v for k, v in defaults.items() if v is not None}


@dataclass
class Submission:
    """The outcome of one admitted request."""

    record: dict
    #: ``"miss"`` (newly queued), ``"hit"`` (served from the result
    #: cache) or ``"coalesced"`` (attached to an in-flight twin)
    disposition: str


class ServiceRuntime:
    """One spool directory + one worker pool + admission semantics."""

    def __init__(self, spool: str, policy: ServicePolicy | None = None):
        self.spool = str(spool)
        self.policy = policy or ServicePolicy()
        self.queue = JobQueue(self.spool)
        self.cache = ResultCache(os.path.join(self.spool, "cache"))
        self._tenants_by_token = {
            t.token: t for t in self.policy.tenants if t.token is not None
        }
        self._workers: list[multiprocessing.process.BaseProcess] = []
        #: the hand-off channels of a started fork pool (``None`` until
        #: :meth:`start`, and where workers cannot inherit pipes)
        self.wake: Channel | None = None
        self.done: Channel | None = None

    # -- tenancy ---------------------------------------------------------

    @property
    def requires_auth(self) -> bool:
        return bool(self._tenants_by_token)

    def authenticate(self, token: str | None) -> Tenant:
        """Resolve a bearer token to a tenant.

        With no tenants configured the service is open and every caller
        shares the anonymous tenant (still quota-bounded).  With
        tenants configured, a missing or unknown token is rejected.
        """
        if not self.requires_auth:
            return Tenant("anonymous", quota=self.policy.default_quota)
        tenant = self._tenants_by_token.get(token)
        if tenant is None:
            raise ServiceRejection(
                "unauthorized",
                "missing or unknown tenant token"
                if token is None
                else "unknown tenant token",
                status=401,
            )
        return tenant

    # -- worker pool -----------------------------------------------------

    def start(self) -> list[str]:
        """Recover the queue and launch the worker pool.

        Returns the job ids re-queued from a previous life (crash
        recovery); callers may log them.
        """
        self._clear_stop()
        requeued = self.queue.recover()
        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else "spawn")
        if fork:
            # Forked workers inherit the pipes; spawned ones fall back
            # to re-scanning the spool on their safety timeout.
            self.wake, self.done = Channel(), Channel()
        from repro.service.worker import run_worker

        for index in range(self.policy.workers):
            process = context.Process(
                target=run_worker,
                args=(self.spool, self.session_policy(), self.wake, self.done),
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            process.start()
            self._workers.append(process)
        return requeued

    def session_policy(self) -> dict:
        return self.policy.session_defaults()

    def stop(self, timeout: float = 5.0) -> None:
        """Flag workers down, join them, and terminate stragglers."""
        atomic_write(os.path.join(self.spool, "stop"), "stop")
        for _ in self._workers:
            self._wake()
        for process in self._workers:
            process.join(timeout=timeout)
        for process in self._workers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers = []
        for channel in (self.wake, self.done):
            if channel is not None:
                channel.close()
        self.wake = self.done = None

    def _wake(self) -> None:
        if self.wake is not None:
            self.wake.send()

    def _clear_stop(self) -> None:
        try:
            os.unlink(os.path.join(self.spool, "stop"))
        except FileNotFoundError:
            pass

    def workers_alive(self) -> int:
        return sum(1 for process in self._workers if process.is_alive())

    # -- admission -------------------------------------------------------

    def admit(self, scenario_name: str, request_record: Any) -> tuple[Any, Any, str]:
        """Validate + resolve one wire request; returns (scenario, resolved, key).

        Raises :class:`ServiceRejection` /
        :class:`~repro.api.wire.RequestSchemaError` /
        :class:`~repro.api.capabilities.CapabilityError` on refusal —
        the edge maps each to its status code.
        """
        from repro.api import RunRequest
        from repro.campaigns import registry

        try:
            scenario = registry.get(str(scenario_name))
        except KeyError:
            raise UnknownScenario(str(scenario_name), registry.names()) from None
        if isinstance(request_record, dict):
            offending = [
                knob for knob in SERVICE_REJECTED_KNOBS if request_record.get(knob)
            ]
            if offending:
                raise ServiceRejection(
                    "service-policy",
                    f"{', '.join(offending)}: not accepted over the wire "
                    "(the service owns job persistence and resume)",
                )
        request = RunRequest.from_json(request_record, scenario)
        resolved = request.resolve(scenario)
        return scenario, resolved, job_key(scenario, resolved)

    def submit(self, tenant: Tenant, scenario_name: str, request_record: Any) -> Submission:
        """Admit, dedup, quota-check and enqueue one request."""
        scenario, resolved, key = self.admit(scenario_name, request_record)
        wire_record = resolved.to_json()

        cached = self.cache.get(key)
        if cached is not None:
            record = self.queue.build_job(
                scenario=scenario.name,
                tenant=tenant.name,
                request_record=wire_record,
                key=key,
                state="done",
                cached=True,
            )
            self.queue.save_job(record)
            record = self.queue.finish(record, cached)
            return Submission(record, "hit")

        primary_id = self._key_owner(key)
        if primary_id is not None:
            primary = self.queue.load_job(primary_id)
            if primary is not None and primary.get("state") in ("queued", "running"):
                return Submission(primary, "coalesced")

        quota = tenant.quota
        in_flight = self.queue.in_flight(tenant.name)
        if in_flight >= quota:
            raise Busy(
                "quota",
                f"tenant {tenant.name!r} has {in_flight} jobs in flight "
                f"(quota {quota}); retry later",
                retry_after=self.policy.retry_after,
            )
        depth = self.queue.depth()
        if depth >= self.policy.queue_depth:
            raise Busy(
                "backpressure",
                f"queue depth {depth} at the configured bound "
                f"({self.policy.queue_depth}); retry later",
                retry_after=self.policy.retry_after,
            )

        record = self.queue.build_job(
            scenario=scenario.name,
            tenant=tenant.name,
            request_record=wire_record,
            key=key,
        )
        self.queue.enqueue(record)
        self._wake()
        self._claim_key(key, record["id"])
        return Submission(record, "miss")

    # -- the key → primary-job index ------------------------------------

    def _key_path(self, key: str) -> str:
        return os.path.join(self.spool, "keys", key)

    def _key_owner(self, key: str) -> str | None:
        try:
            with open(self._key_path(key)) as handle:
                return handle.read().strip() or None
        except FileNotFoundError:
            return None

    def _claim_key(self, key: str, job_id: str) -> None:
        atomic_write(self._key_path(key), job_id)

    # -- reads -----------------------------------------------------------

    def status(self, job_id: str) -> dict | None:
        return self.queue.load_job(job_id)

    def result(self, job_id: str) -> tuple[dict | None, dict | None]:
        """(job record, envelope record) — envelope ``None`` until done."""
        record = self.queue.load_job(job_id)
        if record is None:
            return None, None
        if record.get("state") not in ("done", "failed"):
            return record, None
        return record, self.queue.load_result(job_id)

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "queued": self.queue.depth(),
            "running": len(self.queue.markers("running")),
            "workers": self.workers_alive(),
            "queue_depth_bound": self.policy.queue_depth,
        }


def parse_tenant_spec(spec: str, default_quota: int) -> Tenant:
    """Parse one ``NAME=TOKEN[:QUOTA]`` CLI tenant declaration."""
    name, _, rest = spec.partition("=")
    if not name or not rest:
        raise ValueError(f"tenant spec must be NAME=TOKEN[:QUOTA], got {spec!r}")
    token, _, quota_text = rest.partition(":")
    quota = default_quota
    if quota_text:
        quota = int(quota_text)
        if quota < 1:
            raise ValueError(f"tenant quota must be positive, got {quota}")
    return Tenant(name=name, token=token, quota=quota)
