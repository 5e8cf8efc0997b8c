"""Chunk folds: how a campaign's statistics fold, chunk by chunk.

A :class:`ChunkFold` is what a driver hands
:meth:`~repro.campaigns.engine.StreamingCampaign.reduce`: every chunk
folds into a fresh accumulator whose compact ``state()`` dict the
engine merges into the running one **in chunk order**.  Where the
per-chunk fold runs is the ``reduce`` knob — in the parent on the raw
chunk (``"parent"``, the default), or in the worker (``"worker"``), so
that only the state crosses the process boundary instead of the
O(traces) trace block.  The fold, and therefore every output byte, is
the same either way.

Why chunk order matters: merging a single-chunk accumulator replays
exactly the combine step ``update`` would have run on that chunk (the
state carries precisely the chunk moments ``update`` computes), so a
merge chain over per-chunk states is *bit-identical* to the serial
fold — but only for the serial association ``((c0 + c1) + c2) + c3``.
Workers therefore never pre-merge neighbouring chunks; they return one
state per chunk and the parent owns the fold order.

:class:`FoldCodec` is the worker-side transport half: a picklable
object installed on the :class:`~repro.backends.base.BackendContext`
that backends call to encode a chunk's
:class:`~repro.power.acquisition.TraceSet` into its fold state before it
crosses the process boundary.  See ``docs/backends.md`` ("Reduction
modes") for the full contract.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.request import REDUCE_MODES
from repro.backends.base import ChunkTask
from repro.campaigns.accumulators import (
    PARTITION,
    CpaAccumulator,
    CpaBudgetSnapshots,
    OnlineMeanVar,
)
from repro.power.acquisition import TraceSet


def check_reduce_mode(reduce: str | None) -> str:
    """The ``reduce`` knob normalized (``None`` is ``"parent"``).

    The mode picks where
    :meth:`~repro.campaigns.engine.StreamingCampaign.reduce` runs
    ``fold_chunk``: in the parent on raw chunks, or in the worker.
    """
    if reduce is None:
        return "parent"
    if reduce not in REDUCE_MODES:
        raise ValueError(f"reduce must be one of {REDUCE_MODES}, got {reduce!r}")
    return reduce


class ChunkFold(abc.ABC):
    """How one campaign's statistics fold, split across processes.

    A fold must be **picklable** (it ships to workers) and **pure**: the
    state returned for a chunk may depend only on the chunk's traces and
    inputs, never on fold-local mutation — a retried chunk recomputes
    its state from scratch and must reproduce it exactly.
    """

    @abc.abstractmethod
    def create(self) -> Any:
        """A fresh parent-side accumulator to merge chunk states into."""

    @abc.abstractmethod
    def fold_chunk(self, task: ChunkTask, trace_set: TraceSet) -> Any:
        """Worker-side: fold one chunk into a compact, picklable state."""

    @abc.abstractmethod
    def merge_state(self, accumulator: Any, task: ChunkTask, state: Any) -> Any:
        """Parent-side: merge one chunk's state, in chunk order."""

    def freeze(self, accumulator: Any) -> Any:
        """The accumulator as a checkpointable state (default: itself)."""
        return accumulator

    def thaw(self, frozen: Any) -> Any:
        """Rebuild an accumulator from :meth:`freeze` output."""
        return frozen


@dataclass(frozen=True)
class FoldCodec:
    """Worker-side chunk codec: trace sets out, fold states back."""

    fold: ChunkFold

    def encode(self, task: ChunkTask, trace_set: TraceSet, parent_path):
        return self.fold.fold_chunk(task, trace_set)


def _chunk_plaintexts(trace_set: TraceSet, block: int | None) -> np.ndarray:
    """The chunk's per-trace AES state bytes (the CPA plaintexts)."""
    if block is None:
        from repro.crypto.aes_asm import LAYOUT

        block = LAYOUT.state
    return trace_set.inputs.mem_bytes[block]


@dataclass(frozen=True)
class TraceMeanVarFold(ChunkFold):
    """Per-sample mean/variance of the trace matrix — model-free.

    The minimal statistics-only fold: a chunk's sufficient statistics
    are a count plus two ``n_samples`` float64 vectors, whatever the
    chunk size.  Works on any campaign (no crypto model involved),
    which makes it the fold of choice for generic exactness and chaos
    tests and for quick power-level sanity checks.
    """

    def create(self) -> OnlineMeanVar:
        return OnlineMeanVar()

    def fold_chunk(self, task: ChunkTask, trace_set: TraceSet) -> dict:
        part = OnlineMeanVar()
        part.update(trace_set.traces)
        return part.state()

    def merge_state(self, accumulator, task, state):
        accumulator.merge(OnlineMeanVar.from_state(state))
        return accumulator

    def freeze(self, accumulator):
        return accumulator.state()

    def thaw(self, frozen):
        return OnlineMeanVar.from_state(frozen)


@dataclass(frozen=True)
class SboxCpaFold(ChunkFold):
    """Figure 3's 256-guess HW(SubBytes out) CPA, as a chunk fold.

    Each chunk's class model is built from the chunk's own plaintext
    slice (``trace_set.inputs`` holds exactly that slice), so the
    per-chunk partition sums equal what a serial ``update`` over the
    whole campaign would have combined.
    """

    byte_index: int
    guesses: tuple = tuple(range(256))
    #: memory block holding the AES state (default: the ASM layout's)
    state_block: int | None = None

    def create(self) -> CpaAccumulator:
        return CpaAccumulator(self.guesses)

    def fold_chunk(self, task: ChunkTask, trace_set: TraceSet) -> dict:
        from repro.sca.models import hw_sbox_class_model

        plaintexts = _chunk_plaintexts(trace_set, self.state_block)
        part = CpaAccumulator(self.guesses)
        part.update(trace_set.traces, hw_sbox_class_model(plaintexts, self.byte_index))
        return part.state()

    def merge_state(self, accumulator, task, state):
        accumulator.merge(CpaAccumulator.from_state(state))
        return accumulator

    def freeze(self, accumulator):
        return accumulator.state()

    def thaw(self, frozen):
        return CpaAccumulator.from_state(frozen).require_kind(PARTITION)


@dataclass(frozen=True)
class SboxCpaBudgetFold(ChunkFold):
    """Budgeted CPA snapshots (success curves), folded worker-side.

    Workers fold in *deferred* mode — one fresh accumulator per
    budget-split sub-range, never pre-merged — so the parent's in-order
    merge replays the serial combine sequence exactly and every budget
    snapshot stays chunk-aligned and byte-identical.
    """

    byte_index: int
    budgets: tuple
    guesses: tuple = tuple(range(256))
    state_block: int | None = None

    def create(self) -> CpaBudgetSnapshots:
        return CpaBudgetSnapshots(self.budgets, self.guesses)

    def fold_chunk(self, task: ChunkTask, trace_set: TraceSet) -> dict:
        from repro.sca.models import hw_sbox_class_model

        plaintexts = _chunk_plaintexts(trace_set, self.state_block)
        part = CpaBudgetSnapshots(
            self.budgets, self.guesses, start=task.lo, defer=True
        )
        part.update(trace_set.traces, hw_sbox_class_model(plaintexts, self.byte_index))
        return part.state()

    def merge_state(self, accumulator, task, state):
        accumulator.merge(CpaBudgetSnapshots.from_state(state))
        return accumulator

    def freeze(self, accumulator):
        return accumulator.state()

    def thaw(self, frozen):
        return CpaBudgetSnapshots.from_state(frozen).require_kind(PARTITION)


@dataclass
class ReducedCampaign:
    """What :meth:`StreamingCampaign.reduce` returns.

    ``value`` is the fold's merged accumulator (e.g. a
    :class:`~repro.campaigns.accumulators.CpaAccumulator`);
    ``trace_set`` is a zero-row *metadata* trace set over the campaign's
    compiled schedule, so drivers that need provenance (sample rate,
    issue cycles, the executed path) keep working without holding any
    trace bytes.
    """

    value: Any
    trace_set: TraceSet
    n_traces: int
    n_chunks: int
    backend: dict = field(default_factory=dict)
