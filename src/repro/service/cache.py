"""Content-addressed result cache and the deterministic job key.

The service deduplicates work by content address: two requests that are
guaranteed to produce the same envelope share one :func:`job_key` and
therefore one execution.  The key digests, in canonical JSON:

* the *program*: the scenario's name and title (a registered scenario's
  program is a pure function of its declaration plus the config);
* the pipeline-config identity — the wire overrides of
  :meth:`PipelineConfig.identity`-relevant fields, display name
  excluded, so renamed variants share a key exactly as they share a
  compiled schedule;
* the scope identity (the acquisition chain's counterpart);
* the *result-affecting* resolved knobs: ``n_traces``, ``reps``,
  ``seed``, ``precision`` and ``grid``.

Performance-only knobs are deliberately excluded: ``jobs``, ``backend``,
``retries`` and ``chunk_timeout`` never change results (the backend
equivalence guarantee of docs/backends.md), and
``chunk_size`` is layout-invariant on the float32 chain whose noise is
counter-addressed by absolute trace position.  The float64-exact chain
draws noise serially per capture, so there chunking *does* change the
realization and ``chunk_size`` stays in the key.

Keys are pure functions of JSON scalars and :mod:`hashlib`, so they are
stable across process restarts and start methods (spawn vs fork) — the
property tests in ``tests/service/test_cache.py`` pin this.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from repro.atomicfile import atomic_write

#: Versioned key-material schema: bump to invalidate every cached entry.
KEY_SCHEMA = "repro.jobkey/2"

#: Resolved request knobs that can change the result envelope.
RESULT_KNOBS = ("n_traces", "reps", "seed", "precision", "grid")


def _effective_precision(scenario: Any, request: Any) -> str:
    if request.precision is not None:
        return request.precision
    scope = request.scope
    if scope is not None and getattr(scope, "precision", None) is not None:
        return scope.precision
    return "float64-exact"


def key_material(scenario: Any, resolved: Any) -> dict:
    """The canonical JSON the job key digests (resolved request only)."""
    from repro.api.wire import config_to_json, scope_to_json

    record = resolved.to_json()
    material: dict[str, Any] = {
        "schema": KEY_SCHEMA,
        "program": hashlib.sha256(
            f"{scenario.name}\x00{scenario.title}".encode()
        ).hexdigest(),
        "scenario": scenario.name,
        "config": config_to_json(resolved.config)["overrides"]
        if resolved.config is not None
        else None,
        "scope": scope_to_json(resolved.scope)["overrides"]
        if resolved.scope is not None
        else None,
    }
    for knob in RESULT_KNOBS:
        material[knob] = record.get(knob)
    if _effective_precision(scenario, resolved) != "float32":
        # Serial per-capture noise: the chunk layout is part of the
        # realization (float32's counter-based noise is layout-proof).
        material["chunk_size"] = record.get("chunk_size")
    return material


def job_key(scenario: Any, resolved: Any) -> str:
    """The content address of one resolved request's result."""
    canonical = json.dumps(
        key_material(scenario, resolved), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Envelope records addressed by :func:`job_key`, on disk."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> dict | None:
        try:
            with open(self._path(key)) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            return None  # torn by an interrupted legacy writer; treat as miss

    def put(self, key: str, envelope_record: dict) -> None:
        atomic_write(self._path(key), json.dumps(envelope_record))

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))
