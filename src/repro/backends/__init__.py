"""Pluggable execution backends for campaigns and sweeps.

The streaming engine, the sweep engine, and the session facade all
execute fan-out work through an :class:`ExecutionBackend`.  Callers pick
one with a *policy* — a backend instance, or one of the names in
:data:`BACKEND_POLICIES`:

======== ==============================================================
policy   meaning
======== ==============================================================
auto     fork where available and not quarantined, else serial (with
         a :class:`BackendDegradationWarning`); serial when
         ``jobs <= 1``
serial   the in-process reference
fork     a fork pool per call (copy-on-write state sharing)
pool     a persistent worker pool, reused until ``close()``; also the
         parallel path where ``fork`` is unavailable
======== ==============================================================

Every backend is byte-identical to serial for float32 campaigns; see
``docs/backends.md`` for the determinism argument and a decision guide.

``auto`` also honors the process-wide quarantine registry
(:func:`quarantine_backend` / :func:`is_quarantined`): a backend the
resilience layer declared :class:`BackendBroken` is skipped by every
later resolution, and streams fall down the
``pool -> fork -> serial`` degradation ladder instead of
failing — loudly, via :class:`BackendDegradationWarning`.  See
``docs/resilience.md``.
"""

from __future__ import annotations

import warnings

from repro.backends import pools as _pools
from repro.backends.base import (
    BackendContext,
    BackendDegradationWarning,
    BackendUnavailable,
    CampaignSpec,
    ChunkResult,
    ChunkTask,
    ExecutionBackend,
    SerialBackend,
    run_chunk_task,
)
from repro.backends.pools import (
    ForkBackend,
    PoolBackend,
    cpu_count,
    fork_available,
)
from repro.backends.resilience import (
    DEGRADATION_LADDER,
    BackendBroken,
    ChunkCorruption,
    FaultReport,
    ResilienceContext,
    RetryPolicy,
    TransientChunkError,
    WatchdogTimeout,
    clear_quarantine,
    is_quarantined,
    quarantine_backend,
    quarantine_info,
)

#: every name ``resolve_backend`` accepts
BACKEND_POLICIES = ("auto", "serial", "fork", "pool")

#: the subset a CLI user can ask for (pool is an API-level knob: it
#: needs an owning scope)
CLI_BACKEND_CHOICES = ("auto", "serial", "fork")


def make_backend(policy: str, jobs: int = 1) -> ExecutionBackend:
    """Construct the named backend (no availability fallback)."""
    if policy == "serial":
        return SerialBackend()
    if policy == "fork":
        return ForkBackend(jobs)
    if policy == "pool":
        return PoolBackend(jobs)
    raise ValueError(f"unknown backend policy {policy!r}; expected one of {BACKEND_POLICIES}")


def resolve_backend(
    policy,
    jobs: int = 1,
    *,
    n_tasks: int | None = None,
) -> tuple[ExecutionBackend, bool]:
    """Resolve a policy to ``(backend, owned)``.

    ``owned`` tells the caller whether it created the backend (and must
    close it) or was handed a live instance to leave running.  Explicit
    names are strict — asking for ``fork`` on a platform without it
    raises :class:`BackendUnavailable` — while ``auto`` (or ``None``)
    degrades with a :class:`BackendDegradationWarning` when ``jobs > 1``
    cannot actually be honored, instead of silently running serial.
    """
    if isinstance(policy, ExecutionBackend):
        return policy, False
    if policy is None:
        policy = "auto"
    if not isinstance(policy, str):
        raise TypeError(
            f"backend policy must be a string or ExecutionBackend, got {type(policy).__name__}"
        )
    if policy != "auto":
        if policy not in BACKEND_POLICIES:
            raise ValueError(
                f"unknown backend policy {policy!r}; expected one of {BACKEND_POLICIES}"
            )
        backend = make_backend(policy, jobs)
        if isinstance(backend, ForkBackend):
            backend._check_available()
        # Nothing to fan out: spinning up a pool for one worker or one
        # chunk only adds fork/pickle overhead (fork at jobs=1 measured
        # around half the serial throughput), and serial is
        # byte-identical by contract.  Availability stays strict — the
        # checks above ran.
        if jobs <= 1 or (n_tasks is not None and n_tasks <= 1):
            return SerialBackend(), True
        return backend, True

    # auto: nothing to fan out -> serial, quietly.
    if jobs <= 1 or (n_tasks is not None and n_tasks <= 1):
        return SerialBackend(), True
    if _pools.fork_available() and not is_quarantined("fork"):
        return ForkBackend(jobs), True
    if is_quarantined("fork"):
        reason = f"the 'fork' backend is quarantined ({quarantine_info().get('fork')})"
    else:
        reason = "the 'fork' start method is unavailable on this platform"
    warnings.warn(
        f"jobs={jobs} requested but no parallel backend is usable ({reason}); "
        "running serial",
        BackendDegradationWarning,
        stacklevel=2,
    )
    return SerialBackend(), True


__all__ = [
    "BACKEND_POLICIES",
    "CLI_BACKEND_CHOICES",
    "DEGRADATION_LADDER",
    "BackendBroken",
    "BackendContext",
    "BackendDegradationWarning",
    "BackendUnavailable",
    "CampaignSpec",
    "ChunkCorruption",
    "ChunkResult",
    "ChunkTask",
    "ExecutionBackend",
    "FaultReport",
    "ForkBackend",
    "PoolBackend",
    "ResilienceContext",
    "RetryPolicy",
    "SerialBackend",
    "TransientChunkError",
    "WatchdogTimeout",
    "clear_quarantine",
    "cpu_count",
    "fork_available",
    "is_quarantined",
    "make_backend",
    "quarantine_backend",
    "quarantine_info",
    "resolve_backend",
    "run_chunk_task",
]
