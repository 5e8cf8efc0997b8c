"""The persistent artifact store: ``repro.artifact/1`` records.

Completed corpus cells are written to disk as content-addressed
artifacts, keyed by the same deterministic ``repro.jobkey/2`` identity
the leakage-evaluation service uses (:mod:`repro.service.cache`), so a
re-run of an identical manifest is served entirely from the store and a
store directory can be shared with a service's result cache without key
collisions (the corpus shim "scenario" names are ``corpus/<workload>``,
a namespace no registered scenario occupies).

Only *successful* cells are stored — a failed cell must re-execute on
the next run, never replay its error from disk.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any

from repro.api.request import RunRequest
from repro.service.cache import ResultCache, job_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.corpus.workloads import Workload

#: Versioned artifact schema: bump to invalidate every stored cell.
ARTIFACT_SCHEMA = "repro.artifact/1"

#: Default store directory, relative to the working directory.
DEFAULT_STORE_DIR = ".repro-store"


class _KeyScenario:
    """A shim carrying exactly what :func:`job_key` reads of a scenario."""

    __slots__ = ("name", "title")

    def __init__(self, name: str, title: str):
        self.name = name
        self.title = title


def cell_key(
    workload: "Workload",
    config: Any,
    scope: Any,
    *,
    n_traces: int,
    seed: int,
    chunk_size: int | None = None,
    precision: str | None = None,
) -> str:
    """The content address of one corpus cell's metrics.

    ``config`` and ``scope`` are the *materialized* objects the cell
    executes with (grid overrides already applied), so two grid entries
    with different names but identical overrides share a key, exactly
    as they share results.  Performance knobs (jobs, backend,
    retries) are excluded by :func:`repro.service.cache.key_material`.
    """
    if precision is not None:
        scope = replace(scope, precision=precision)
    shim = _KeyScenario(name=f"corpus/{workload.name}", title=workload.title)
    resolved = RunRequest(
        n_traces=n_traces,
        seed=seed,
        chunk_size=chunk_size,
        config=config,
        scope=scope,
    )
    return job_key(shim, resolved)


class ArtifactStore(ResultCache):
    """A :class:`ResultCache` that only yields ``repro.artifact/1`` hits.

    Records with a different (or missing) schema — e.g. service result
    envelopes sharing the directory — read back as misses, so corpus
    and service records can coexist byte-for-byte safely.
    """

    def get(self, key: str) -> dict | None:
        record = super().get(key)
        if record is None or record.get("schema") != ARTIFACT_SCHEMA:
            return None
        return record

    def put_cell(
        self,
        key: str,
        *,
        manifest_name: str,
        cell: Any,
        workload: "Workload",
        n_traces: int,
        seed: int,
        metrics_record: dict,
        seconds: float,
    ) -> dict:
        """Persist one completed cell; returns the stored record."""
        record = {
            "schema": ARTIFACT_SCHEMA,
            "key": key,
            "manifest": manifest_name,
            "cell": {
                "name": cell.name,
                "workload": cell.workload,
                "config": cell.config.to_json(),
                "scope": cell.scope.to_json(),
                "n_traces": n_traces,
                "seed": seed,
            },
            "workload": {
                "title": workload.title,
                "true_key": workload.true_key,
                "rank_tolerance": workload.rank_tolerance,
            },
            "seconds": seconds,
            "metrics": metrics_record,
        }
        self.put(key, record)
        return record
