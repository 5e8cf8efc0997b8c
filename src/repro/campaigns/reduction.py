"""Chunk folds: how a campaign's statistics fold, chunk by chunk.

A :class:`ChunkFold` is what a driver hands
:meth:`~repro.campaigns.engine.StreamingCampaign.reduce`: every chunk
folds into a fresh accumulator whose compact ``state()`` dict the
engine merges into the running one **in chunk order**.  The per-chunk
fold runs where the chunk was acquired — in the worker on a process
backend — so only the state crosses the process boundary, never the
O(traces) trace block.

Why chunk order matters: merging a single-chunk accumulator replays
exactly the combine step ``update`` would have run on that chunk (the
state carries precisely the chunk moments ``update`` computes), so a
merge chain over per-chunk states is *bit-identical* to the serial
fold — but only for the serial association ``((c0 + c1) + c2) + c3``.
Workers therefore never pre-merge neighbouring chunks; they return one
state per chunk and the parent owns the fold order.  See
``docs/backends.md`` ("Where a chunk folds") for the full contract.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backends.base import ChunkTask
from repro.campaigns.accumulators import (
    COMOMENT,
    PARTITION,
    BudgetSplitter,
    CpaAccumulator,
    CpaBudgetSnapshots,
    OnlineCorrAccumulator,
    OnlineMeanVar,
)
from repro.power.acquisition import TraceSet


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
        """Fold one chunk into a compact, picklable state, where it was
        acquired (in the worker on a process backend)."""

    @abc.abstractmethod
    def merge_state(self, accumulator: Any, task: ChunkTask, state: Any) -> Any:
        """Parent-side: merge one chunk's state, in chunk order.

        The engine drops ``state`` after the merge (it is fresh from
        :meth:`fold_chunk` or unpickled from a worker), so the
        accumulator may take its arrays over instead of copying them.
        """

    def freeze(self, accumulator: Any) -> Any:
        """The accumulator as a checkpointable state (default: itself)."""
        return accumulator

    def thaw(self, frozen: Any) -> Any:
        """Rebuild an accumulator from :meth:`freeze` output."""
        return frozen


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
        return part.state(copy=False)

    def merge_state(self, accumulator, task, state):
        accumulator.merge(OnlineMeanVar.from_state(state, copy=False), copy=False)
        return accumulator

    def freeze(self, accumulator):
        return accumulator.state()

    def thaw(self, frozen):
        return OnlineMeanVar.from_state(frozen)


@dataclass(frozen=True)
class SboxCpaFold(ChunkFold):
    """A 256-guess CPA on round-1 SubBytes outputs, as a chunk fold.

    The model is built per chunk from the chunk's own plaintext slice
    (``trace_set.inputs`` holds exactly that slice), so the per-chunk
    statistics equal what a serial ``update`` over the whole campaign
    would have combined.  ``known_key_byte`` picks the model:

    * ``None`` — Figure 3's HW(SBOX[pt ^ k]) as a
      :class:`~repro.sca.models.ClassModel`, folded as partition sums;
    * a byte ``k0`` — Figure 4's chained HD(SBOX[pt_i ^ k0],
      SBOX[pt_i+1 ^ k]) as a :func:`~repro.sca.models.hd_stores_matrix`
      over all 256 guesses, folded as per-guess co-moments.

    ``columns`` restricts the CPA to those trace samples (Figure 4's
    store-path points of interest); ``None`` reads every sample.
    """

    byte_index: int
    guesses: tuple = tuple(range(256))
    #: memory block holding the AES state (default: the ASM layout's)
    state_block: int | None = None
    known_key_byte: int | None = None
    columns: tuple[int, ...] | None = None

    def _chunk(self, trace_set: TraceSet):
        """One chunk's ``(traces, model)``."""
        from repro.sca.models import hd_stores_matrix, hw_sbox_class_model

        plaintexts = _chunk_plaintexts(trace_set, self.state_block)
        traces = trace_set.traces
        if self.columns is not None:
            traces = traces[:, list(self.columns)]
        if self.known_key_byte is None:
            return traces, hw_sbox_class_model(plaintexts, self.byte_index)
        return traces, hd_stores_matrix(plaintexts, self.byte_index, self.known_key_byte)

    @property
    def _kind(self) -> str:
        return PARTITION if self.known_key_byte is None else COMOMENT

    def create(self) -> CpaAccumulator:
        return CpaAccumulator(self.guesses)

    def fold_chunk(self, task: ChunkTask, trace_set: TraceSet) -> dict:
        part = CpaAccumulator(self.guesses)
        part.update(*self._chunk(trace_set))
        return part.state(copy=False)

    def merge_state(self, accumulator, task, state):
        accumulator.merge(CpaAccumulator.from_state(state, copy=False), copy=False)
        return accumulator

    def freeze(self, accumulator):
        return accumulator.state()

    def thaw(self, frozen):
        return CpaAccumulator.from_state(frozen).require_kind(self._kind)


@dataclass(frozen=True)
class SboxCpaBudgetFold(SboxCpaFold):
    """:class:`SboxCpaFold` with a full CPA snapshot at each trace budget.

    Workers fold in *deferred* mode — one fresh accumulator per
    budget-split sub-range, never pre-merged — so the parent's in-order
    merge replays the serial combine sequence exactly and every budget
    snapshot stays chunk-aligned and byte-identical.
    """

    budgets: tuple = ()

    def create(self) -> CpaBudgetSnapshots:
        return CpaBudgetSnapshots(self.budgets, self.guesses)

    def fold_chunk(self, task: ChunkTask, trace_set: TraceSet) -> dict:
        part = CpaBudgetSnapshots(
            self.budgets, self.guesses, start=task.lo, defer=True
        )
        part.update(*self._chunk(trace_set))
        return part.state(copy=False)

    def merge_state(self, accumulator, task, state):
        accumulator.merge(CpaBudgetSnapshots.from_state(state, copy=False), copy=False)
        return accumulator

    def thaw(self, frozen):
        return CpaBudgetSnapshots.from_state(frozen).require_kind(self._kind)


class ColumnCorrs:
    """:class:`ColumnCorrFold`'s merged state: one
    :class:`~repro.campaigns.accumulators.OnlineCorrAccumulator` per
    model, plus every model's correlations at each budget crossed."""

    def __init__(self, n_models: int):
        self.accumulators = [OnlineCorrAccumulator() for _ in range(n_models)]
        #: budget -> per-model correlations (``None`` for a model
        #: without sample columns)
        self.snapshots: dict[int, list[np.ndarray | None]] = {}

    def _correlations(self) -> list[np.ndarray | None]:
        return [acc.snapshot() if acc.n else None for acc in self.accumulators]

    @staticmethod
    def _peak(corr: np.ndarray | None) -> float:
        return 0.0 if corr is None else float(corr[np.argmax(np.abs(corr))])

    def peaks(self) -> list[float]:
        """Each model's signed correlation of largest magnitude (0.0 for
        a model without sample columns)."""
        return [self._peak(corr) for corr in self._correlations()]

    def curve(self) -> dict[int, float]:
        """The first model's peak ``|r|`` at each budget crossed."""
        return {
            budget: abs(self._peak(corrs[0])) for budget, corrs in self.snapshots.items()
        }


@dataclass(frozen=True, eq=False)
class ColumnCorrFold(ChunkFold):
    """Pearson correlation of per-trace models at fixed sample columns.

    The fold behind table2, the ablations and the baselines: model ``m``
    is correlated against trace samples ``columns[m]`` (an empty tuple
    skips it).  Its per-trace values come from one of two sources:

    * ``values`` — a campaign-wide ``[n_traces, n_models]`` matrix,
      sliced to each chunk's trace range (a model of the inputs);
    * ``refs`` — per model, one ``(dyn_index, ValueKind)`` reference
      (the Hamming weight of that value) or two (their Hamming
      distance), read from each chunk's value table; an absent value
      reads as zero.

    ``budgets`` additionally snapshots every model's correlations when
    the stream crosses each trace budget.  Workers return one state per
    budget-split sub-range (never pre-merged), so the parent's in-order
    merge replays the serial fold and every snapshot is byte-identical.
    """

    columns: tuple[tuple[int, ...], ...]
    values: np.ndarray | None = None
    refs: tuple = ()
    budgets: tuple[int, ...] = ()

    def create(self) -> ColumnCorrs:
        return ColumnCorrs(len(self.columns))

    def _models(self, task: ChunkTask, trace_set: TraceSet) -> list[np.ndarray]:
        if self.values is not None:
            rows = np.asarray(self.values, dtype=np.float64)[task.lo : task.hi]
            return [rows[:, m] for m in range(len(self.columns))]
        models = []
        for refs in self.refs:
            words = []
            for dyn, kind in refs:
                values = trace_set.table.values(dyn, kind)
                if values is None:
                    values = np.zeros(trace_set.n_traces, dtype=np.uint32)
                words.append(values.astype(np.uint32))
            combined = words[0] if len(words) == 1 else words[0] ^ words[1]
            models.append(np.bitwise_count(combined).astype(np.float64))
        return models

    def fold_chunk(self, task: ChunkTask, trace_set: TraceSet) -> list:
        models = self._models(task, trace_set)
        rows = [
            trace_set.traces[:, list(columns)] if columns else None
            for columns in self.columns
        ]
        ranges = (
            BudgetSplitter(self.budgets, start=task.lo).split(trace_set.n_traces)
            if self.budgets
            else [(0, trace_set.n_traces, None)]
        )
        parts = []
        for low, high, budget in ranges:
            states = []
            for model, traces in zip(models, rows):
                if traces is None:
                    states.append(None)
                    continue
                part = OnlineCorrAccumulator()
                part.update(model[low:high], traces[low:high])
                states.append(part.state())
            parts.append((budget, states))
        return parts

    def merge_state(self, accumulator: ColumnCorrs, task, state):
        for budget, states in state:
            for acc, part in zip(accumulator.accumulators, states):
                if part is not None:
                    acc.merge(OnlineCorrAccumulator.from_state(part))
            if budget is not None:
                accumulator.snapshots[budget] = accumulator._correlations()
        return accumulator


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
