"""The persistent on-disk job queue of the leakage-evaluation service.

One spool directory holds the whole service state, so a restart (or a
``kill -9``) recovers everything from disk:

* ``jobs/<id>.json`` — the versioned ``repro.job/1`` record of every
  job ever submitted, written atomically
  (:func:`repro.atomicfile.atomic_write`) so a kill mid-write never
  tears a record.
* ``queued/<id>`` / ``running/<id>`` — claim markers.  A marker file's
  *location* is the queue state; a worker claims a job by atomically
  renaming its marker from ``queued/`` to ``running/`` — exactly one
  claimer wins the rename, the loser sees ``FileNotFoundError`` and
  moves on.  Marker contents carry the owning tenant, so per-tenant
  in-flight counts scan only the (depth-bounded) marker directories,
  never the unbounded job history.
* ``results/<id>.json`` — the schema-valid result envelope of a
  finished job.
* ``cache/<key>.json`` / ``keys/<key>`` — the content-addressed result
  cache and the key→job index used for in-flight request coalescing
  (see :mod:`repro.service.cache`).

State machine: ``queued → running → done | failed``.  Completion
commits in result-then-marker order (result envelope and job record
first, marker removal last), so :meth:`recover` after a crash can
always tell a finished job with a stale marker from an interrupted one:
the former's record already says ``done`` and only the marker is
cleaned up; the latter is re-queued and re-executed (scenario runs are
pure functions of the resolved request, so a replay is byte-identical).
"""

from __future__ import annotations

import json
import os
import time

from repro.atomicfile import atomic_write

#: Bump on any incompatible job-record change; readers reject other
#: versions loudly instead of misreading them.
JOB_SCHEMA = "repro.job/1"

#: The job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

_MARKER_DIRS = ("queued", "running")
_DIRS = ("jobs", "queued", "running", "results", "cache", "keys")


class JobError(RuntimeError):
    """A job record could not be loaded, validated, or transitioned."""


def new_job_id() -> str:
    """A sortable, collision-proof job id (FIFO order by name)."""
    return f"{time.time_ns():020d}-{os.urandom(4).hex()}"


class JobQueue:
    """The spool directory: persistent jobs, claims, results, cache."""

    def __init__(self, root: str):
        self.root = str(root)
        for name in _DIRS:
            os.makedirs(os.path.join(self.root, name), exist_ok=True)

    # -- paths -----------------------------------------------------------

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.root, "jobs", f"{job_id}.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.root, "results", f"{job_id}.json")

    def _marker(self, state: str, job_id: str) -> str:
        return os.path.join(self.root, state, job_id)

    # -- records ---------------------------------------------------------

    def save_job(self, record: dict) -> None:
        if record.get("schema") != JOB_SCHEMA:
            raise JobError(f"job record must carry schema {JOB_SCHEMA!r}")
        atomic_write(self._job_path(record["id"]), json.dumps(record))

    def load_job(self, job_id: str) -> dict | None:
        try:
            with open(self._job_path(job_id)) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as error:
            raise JobError(f"job record {job_id} is unreadable: {error}") from error
        if record.get("schema") != JOB_SCHEMA:
            raise JobError(
                f"job record {job_id} has schema {record.get('schema')!r}; "
                f"this runtime reads {JOB_SCHEMA!r}"
            )
        return record

    # -- submission ------------------------------------------------------

    def build_job(
        self,
        *,
        scenario: str,
        tenant: str,
        request_record: dict,
        key: str,
        state: str = "queued",
        cached: bool = False,
    ) -> dict:
        return {
            "schema": JOB_SCHEMA,
            "id": new_job_id(),
            "scenario": scenario,
            "tenant": tenant,
            "request": request_record,
            "key": key,
            "state": state,
            "created": time.time(),
            "started": None,
            "finished": None,
            "attempts": 0,
            "cached": cached,
            "error": None,
        }

    def enqueue(self, record: dict) -> dict:
        """Persist ``record`` and make it claimable."""
        record["state"] = "queued"
        self.save_job(record)
        marker = self._marker("queued", record["id"])
        atomic_write(marker, record["tenant"])
        return record

    # -- claim / complete ------------------------------------------------

    def claim(self) -> dict | None:
        """Atomically claim the oldest queued job, or ``None``.

        The ``queued → running`` marker rename is the mutual exclusion:
        a concurrent claimer loses the rename with FileNotFoundError
        and tries the next marker.
        """
        try:
            pending = sorted(os.listdir(os.path.join(self.root, "queued")))
        except FileNotFoundError:
            return None
        for job_id in pending:
            if job_id.endswith(".tmp"):
                continue
            try:
                os.rename(self._marker("queued", job_id), self._marker("running", job_id))
            except FileNotFoundError:
                continue  # another worker won this one
            record = self.load_job(job_id)
            if record is None:
                # Marker without a record: a crash between marker and
                # record writes (enqueue writes record first, so this
                # is a foreign artifact); drop the marker.
                os.unlink(self._marker("running", job_id))
                continue
            record["state"] = "running"
            record["started"] = time.time()
            record["attempts"] = int(record.get("attempts", 0)) + 1
            self.save_job(record)
            return record
        return None

    def finish(self, record: dict, envelope_record: dict) -> dict:
        """Commit a completed job: result first, marker removal last."""
        atomic_write(self.result_path(record["id"]), json.dumps(envelope_record))
        record["state"] = "done"
        record["finished"] = time.time()
        self.save_job(record)
        self._drop_marker(record["id"])
        return record

    def fail(self, record: dict, error: str, envelope_record: dict | None = None) -> dict:
        if envelope_record is not None:
            atomic_write(self.result_path(record["id"]), json.dumps(envelope_record))
        record["state"] = "failed"
        record["finished"] = time.time()
        record["error"] = str(error)
        self.save_job(record)
        self._drop_marker(record["id"])
        return record

    def _drop_marker(self, job_id: str) -> None:
        for state in _MARKER_DIRS:
            try:
                os.unlink(self._marker(state, job_id))
            except FileNotFoundError:
                pass

    # -- results ---------------------------------------------------------

    def load_result(self, job_id: str) -> dict | None:
        try:
            with open(self.result_path(job_id)) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    # -- introspection ---------------------------------------------------

    def markers(self, state: str) -> dict[str, str]:
        """``{job_id: tenant}`` for one marker directory."""
        directory = os.path.join(self.root, state)
        out: dict[str, str] = {}
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return out
        for name in names:
            if name.endswith(".tmp"):
                continue
            try:
                with open(os.path.join(directory, name)) as handle:
                    out[name] = handle.read().strip()
            except OSError:
                continue  # claimed/completed mid-scan
        return out

    def depth(self) -> int:
        """Jobs waiting for a worker."""
        return len(self.markers("queued"))

    def in_flight(self, tenant: str | None = None) -> int:
        """Queued + running jobs, optionally for one tenant."""
        count = 0
        for state in _MARKER_DIRS:
            for owner in self.markers(state).values():
                if tenant is None or owner == tenant:
                    count += 1
        return count

    # -- crash recovery --------------------------------------------------

    def recover(self) -> list[str]:
        """Re-queue jobs a dead worker left claimed; returns their ids.

        A marker in ``running/`` whose record already says ``done`` or
        ``failed`` is a completion interrupted between commit and
        cleanup — only the stale marker is removed.  Everything else in
        ``running/`` was genuinely in flight when the process died and
        goes back to ``queued`` (determinism makes the re-run
        byte-identical).
        """
        requeued: list[str] = []
        for job_id, tenant in sorted(self.markers("running").items()):
            record = self.load_job(job_id)
            if record is None or record.get("state") in ("done", "failed"):
                self._drop_marker(job_id)
                continue
            try:
                os.rename(self._marker("running", job_id), self._marker("queued", job_id))
            except FileNotFoundError:
                continue
            record["state"] = "queued"
            record["started"] = None
            self.save_job(record)
            requeued.append(job_id)
        return requeued
