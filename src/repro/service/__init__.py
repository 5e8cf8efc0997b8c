"""``repro.service`` — the networked leakage-evaluation service.

The batch-service layer over :mod:`repro.api`: wire-format
``repro.request/1`` submissions land on a persistent on-disk job queue
(``repro.job/1`` records, crash-safe), a pool of worker processes
executes them through long-lived :class:`~repro.api.session.Session`\\ s,
results are deduplicated through a content-addressed envelope cache,
and a stdlib asyncio HTTP edge (``repro serve``) fronts the whole thing
with per-tenant quotas and queue-depth backpressure.

Layering (each importable on its own):

* :mod:`repro.service.queue`   — spool directory, ``repro.job/1``, claims
* :mod:`repro.service.cache`   — :func:`job_key` + content-addressed results
* :mod:`repro.service.channel` — wake/done pipes between server and workers
* :mod:`repro.service.worker`  — the claim→execute→commit loop
* :mod:`repro.service.runtime` — admission, dedup, quotas, worker pool
* :mod:`repro.service.server`  — the HTTP/1.1 edge
* :mod:`repro.service.client`  — stdlib client (submit/status/result)

See ``docs/service.md`` for the HTTP API and deployment notes.
"""

from repro.service.cache import ResultCache, job_key
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JOB_SCHEMA, JOB_STATES, JobQueue
from repro.service.runtime import (
    Busy,
    ServicePolicy,
    ServiceRejection,
    ServiceRuntime,
    Tenant,
)
from repro.service.server import ServiceServer

__all__ = [
    "Busy",
    "JOB_SCHEMA",
    "JOB_STATES",
    "JobQueue",
    "ResultCache",
    "ServiceClient",
    "ServiceError",
    "ServicePolicy",
    "ServiceRejection",
    "ServiceRuntime",
    "ServiceServer",
    "Tenant",
    "job_key",
]
