"""The worker loop: claim → (cache-check) → execute → commit.

Each worker process holds one long-lived
:class:`~repro.api.session.Session` configured with the service's
execution policy (backend, retries, chunk timeout, reduction mode) and
drains the spool queue until the runtime's stop flag appears.  Every
envelope passes :func:`~repro.api.envelope.validate_envelope` before it
is committed, so the HTTP edge can serve result files without
re-validating.

An idle worker blocks on the runtime's wake channel (one token per
enqueued job, see :mod:`repro.service.channel`) rather than sleeping
between spool scans.  The wait ends after :data:`SAFETY_TIMEOUT` at the
latest, so jobs re-queued by recovery or enqueued by another process,
and the stop flag, are still seen.  After each job the worker reports
its id on the done channel, which wakes long-poll requests parked on
the HTTP edge.  The claim itself is unchanged: the spool's
claim-by-rename decides which worker runs a job.

A worker re-checks the result cache *after* claiming: a duplicate that
was enqueued before its twin finished is served from cache instead of
re-executed, which keeps the queue deduplicated even under races the
submit-side coalescing cannot see.
"""

from __future__ import annotations

import os
import time

#: Longest an idle worker waits for a wake token before it re-scans the
#: spool and re-reads the stop flag.
SAFETY_TIMEOUT = 1.0


def _stop_requested(spool: str) -> bool:
    return os.path.exists(os.path.join(spool, "stop"))


def run_worker(spool: str, policy: dict | None = None, wake=None, done=None) -> int:
    """Drain the queue at ``spool`` until stopped; returns jobs handled.

    ``policy`` carries session-level execution defaults
    (``backend``/``retries``/``chunk_timeout``); they apply
    only where a scenario supports them, exactly like any other session
    default.  ``wake`` and ``done`` are the runtime's
    :class:`~repro.service.channel.Channel`\\ s; a worker started
    without them (``python -m repro.service.worker``) re-scans the spool
    every :data:`SAFETY_TIMEOUT` seconds when idle.
    """
    # Heavy imports stay inside the worker entry so the server process
    # can spawn workers without paying for numpy itself.
    from repro.api import Session
    from repro.service.cache import ResultCache
    from repro.service.queue import JobQueue

    queue = JobQueue(spool)
    cache = ResultCache(os.path.join(spool, "cache"))
    policy = dict(policy or {})
    handled = 0
    with Session(**policy) as session:
        while not _stop_requested(spool):
            record = queue.claim()
            if record is None:
                if wake is None:
                    time.sleep(SAFETY_TIMEOUT)
                else:
                    wake.wait(SAFETY_TIMEOUT)
                continue
            handled += 1
            execute_job(session, queue, cache, record)
            if done is not None:
                done.send(f"{record['id']}\n".encode())
    return handled


def execute_job(session, queue, cache, record: dict) -> dict:
    """Run one claimed job record to completion (done or failed)."""
    from repro.api import Envelope, RunRequest, validate_envelope
    from repro.campaigns import registry

    cached = cache.get(record["key"])
    if cached is not None:
        record["cached"] = True
        return queue.finish(record, cached)
    started = time.perf_counter()
    try:
        scenario = registry.get(record["scenario"])
        request = RunRequest.from_json(record["request"], scenario)
        envelope_record = session.run(record["scenario"], request).to_json()
        validate_envelope(envelope_record)
    except Exception as error:  # noqa: BLE001 - jobs must not kill the worker
        message = f"{type(error).__name__}: {error}"
        failure = Envelope.failure(
            scenario=record["scenario"],
            title=record["scenario"],
            seconds=time.perf_counter() - started,
            error=message,
        ).to_json()
        return queue.fail(record, message, failure)
    cache.put(record["key"], envelope_record)
    return queue.finish(record, envelope_record)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.service.worker SPOOL [POLICY_JSON]``."""
    import json
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.service.worker SPOOL [POLICY_JSON]", file=sys.stderr)
        return 2
    policy = json.loads(args[1]) if len(args) > 1 else {}
    try:
        run_worker(args[0], policy)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
