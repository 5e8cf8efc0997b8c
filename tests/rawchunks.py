"""A chunk fold that keeps each raw chunk, for tests that read traces.

Scenario statistics never need the trace matrix, but exactness tests
compare trace bytes across backends and chunk layouts.
:class:`TraceFold` makes a chunk's traces (and, with ``table=True``, its
value table) the chunk's state, and its merge appends the states in
chunk order.  :class:`PidFold` records where each chunk folded.  Both
are defined at module level so that process backends can pickle them
by name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.campaigns.reduction import ChunkFold


@dataclass(frozen=True)
class TraceFold(ChunkFold):
    """Keeps each chunk's traces, and its value table if ``table``."""

    table: bool = False

    def create(self) -> list:
        return []

    def fold_chunk(self, task, trace_set) -> dict:
        return {
            "index": task.index,
            "lo": task.lo,
            "traces": trace_set.traces,
            "table": trace_set.table if self.table else None,
        }

    def merge_state(self, accumulator, task, state):
        accumulator.append(state)
        return accumulator


def chunks(engine, inputs, table: bool = False, **kwargs) -> list[dict]:
    """Each chunk's ``{"index", "lo", "traces", "table"}`` state, in order.

    ``kwargs`` are :meth:`~repro.campaigns.engine.StreamingCampaign.reduce`'s.
    """
    return engine.reduce(inputs, TraceFold(table=table), **kwargs).value


def traces(engine, inputs, **kwargs) -> np.ndarray:
    """The campaign's whole trace matrix, concatenated in chunk order."""
    return np.concatenate([chunk["traces"] for chunk in chunks(engine, inputs, **kwargs)])


@dataclass(frozen=True)
class PidFold(ChunkFold):
    """Records the pid of the process each chunk folded in."""

    def create(self) -> list:
        return []

    def fold_chunk(self, task, trace_set) -> int:
        return os.getpid()

    def merge_state(self, accumulator, task, state):
        accumulator.append(state)
        return accumulator
