"""Checkpoint/resume for streamed campaigns and sweeps.

A streamed campaign is a fold over ordered chunks, and (by the chunk
determinism contract) every chunk is a pure function of the campaign
recipe and its trace range.  Persisting *the accumulator state plus the
set of completed chunks* is therefore a complete checkpoint: a killed
run restarted from it re-acquires only the missing chunks and finishes
byte-identical to an uninterrupted run.

Two layers:

* :class:`CheckpointStore` — one versioned record in one directory,
  written atomically (:func:`repro.atomicfile.atomic_write`) so a kill
  mid-write leaves the previous checkpoint intact, never a torn one.
* :class:`Checkpointer` — the driver-facing protocol the engine calls:
  ``begin()`` loads-or-initializes (validating the campaign fingerprint
  so a checkpoint is never resumed against different work),
  ``chunk_done()`` commits a chunk *after* the driver folded it, and
  ``finalize()`` marks the run complete.  The driver supplies
  ``state_fn``/``restore_fn`` to serialize whatever it folds chunks
  into (the accumulators are plain picklable objects by design).

The commit point matters: the engine calls ``chunk_done(i)`` only once
the consumer has asked for chunk ``i+1`` — i.e. after the fold of chunk
``i`` completed — so ``state_fn()`` always observes a state consistent
with the completed set.  A kill between fold and commit merely re-runs
one chunk against the *pre-fold* state; determinism makes the repeat
fold identical.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Callable

from repro.atomicfile import atomic_write
from repro.backends.resilience import active_report
from repro.campaigns.accumulators import StatisticKindMismatch
# Re-exported: checkpoint fingerprints and the device memo share one digest.
from repro.power.acquisition import digest_inputs as digest_inputs

#: Bump on any incompatible record-shape change; loaders reject other
#: versions loudly instead of misreading them.
CHECKPOINT_SCHEMA = "repro.checkpoint/1"

CHECKPOINT_FILENAME = "checkpoint.pkl"


class CheckpointError(RuntimeError):
    """A checkpoint could not be loaded, validated, or applied."""


class CheckpointMismatch(CheckpointError):
    """The stored checkpoint belongs to a different campaign."""


def checkpoint_fingerprint(payload: Any) -> str:
    """A stable digest identifying the work a checkpoint belongs to."""
    return hashlib.sha256(pickle.dumps(payload)).hexdigest()


class CheckpointStore:
    """One atomic, versioned checkpoint record in a directory."""

    def __init__(self, directory: str):
        self.directory = str(directory)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_FILENAME)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> dict | None:
        """The stored record, or ``None`` when there is none."""
        if not self.exists():
            return None
        try:
            with open(self.path, "rb") as handle:
                record = pickle.load(handle)
        except Exception as error:
            raise CheckpointError(
                f"checkpoint at {self.path} is unreadable: {error}"
            ) from error
        schema = record.get("schema") if isinstance(record, dict) else None
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint at {self.path} has schema {schema!r}; "
                f"this runtime reads {CHECKPOINT_SCHEMA!r}"
            )
        return record

    def save(self, record: dict) -> None:
        """Atomic write-rename: a kill mid-save never tears the record."""
        os.makedirs(self.directory, exist_ok=True)
        atomic_write(self.path, pickle.dumps(record), prefix=CHECKPOINT_FILENAME)

    def clear(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


class Checkpointer:
    """The engine-facing checkpoint protocol for one run.

    ``interval`` controls persistence frequency: state is written every
    ``interval`` committed chunks (and always at ``finalize``).  With
    ``resume=False`` any stored record is discarded and the run starts
    fresh; with ``resume=True`` a stored record must fingerprint-match
    the campaign (else :class:`CheckpointMismatch`) and its state is
    handed to ``restore_fn`` before streaming resumes.
    """

    def __init__(
        self,
        store: CheckpointStore | str,
        *,
        state_fn: Callable[[], Any] | None = None,
        restore_fn: Callable[[Any], None] | None = None,
        interval: int = 1,
        resume: bool = False,
    ):
        self.store = store if isinstance(store, CheckpointStore) else CheckpointStore(store)
        self.state_fn = state_fn
        self.restore_fn = restore_fn
        self.interval = max(1, int(interval))
        self.resume = bool(resume)
        self.completed: set[int] = set()
        self.complete = False
        self.resumed_from = 0
        self._fingerprint: str | None = None
        self._n_chunks = 0
        self._uncommitted = 0

    def _record_event(self, event: str, **info: Any) -> None:
        report = active_report()
        if report is not None:
            report.record_checkpoint(event, **info)

    def begin(self, fingerprint: str, n_chunks: int) -> set[int]:
        """Load-or-initialize; returns the chunk indices already done."""
        self._fingerprint = fingerprint
        self._n_chunks = int(n_chunks)
        record = self.store.load() if self.resume else None
        if not self.resume:
            self.store.clear()
        if record is None:
            self.completed = set()
            self.complete = False
            self._record_event("started", chunks=self._n_chunks)
            return set()
        if record["fingerprint"] != fingerprint:
            raise CheckpointMismatch(
                f"checkpoint at {self.store.path} was written by a different "
                "campaign (fingerprint mismatch); refusing to resume — pass "
                "resume=False (or a fresh --checkpoint directory) to start over"
            )
        self.completed = set(record["completed"])
        self.complete = bool(record.get("complete", False))
        self.resumed_from = len(self.completed)
        if self.restore_fn is not None and record.get("state") is not None:
            try:
                self.restore_fn(record["state"])
            except StatisticKindMismatch as error:
                raise CheckpointMismatch(
                    f"checkpoint at {self.store.path} holds statistics this "
                    f"campaign cannot continue ({error}); pass resume=False (or "
                    "a fresh --checkpoint directory) to start over"
                ) from error
        self._record_event(
            "resumed", chunks_done=self.resumed_from, chunks=self._n_chunks
        )
        return set(self.completed)

    def _flush(self) -> None:
        self.store.save(
            {
                "schema": CHECKPOINT_SCHEMA,
                "fingerprint": self._fingerprint,
                "completed": sorted(self.completed),
                "complete": self.complete,
                "state": self.state_fn() if self.state_fn is not None else None,
            }
        )
        self._uncommitted = 0
        self._record_event("saved", chunks_done=len(self.completed))

    def chunk_done(self, index: int) -> None:
        """Commit chunk ``index`` (call only after its fold completed)."""
        if index in self.completed:
            return
        self.completed.add(index)
        self._uncommitted += 1
        if self._uncommitted >= self.interval:
            self._flush()

    def finalize(self) -> None:
        """Mark the run complete and persist the final state."""
        self.complete = True
        self._flush()
        self._record_event("completed", chunks_done=len(self.completed))
