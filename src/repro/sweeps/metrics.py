"""Per-point leakage metrics, folded once per sweep point.

Every sweep point is scored by three standard side-channel leakage
metrics, each evaluated at one or more *trace budgets* from a single
pass over the point's campaign (the PR-3 snapshot accumulators — no
recompute per budget):

* **CPA key margin** — the best-vs-second distinguishing confidence of
  a full 256-guess CPA (plus the true key's rank and its peak |r|);
* **max Welch-t** — the largest |t| of a low-vs-high Hamming-weight
  partition of the traces (a model-light TVLA-style detector);
* **partition SNR** — Mangard's SNR over the Hamming-weight classes of
  the attacked intermediate.

The fold consumes ``(traces, models, labels)`` chunks — one call per
chunk, a single call for an unchunked campaign — and the
:class:`~repro.campaigns.accumulators.BudgetSplitter` slices the stream
at budget boundaries, so every chunking reproduces the two-pass
references (``cpa_attack``/``welch_ttest``/``partition_snr`` on each
prefix) within ~1e-12.  :class:`SweepMetricsFold` is its
:class:`~repro.campaigns.reduction.ChunkFold`, the form sweep points and
corpus cells hand to :meth:`~repro.campaigns.engine.StreamingCampaign.reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.campaigns.accumulators import (
    BudgetSplitter,
    OnlineCorrAccumulator,
    OnlineSnrAccumulator,
    OnlineTTestAccumulator,
)
from repro.campaigns.reduction import ChunkFold
from repro.power.acquisition import BatchInputs
from repro.sca.cpa import CpaResult

#: Hamming-weight split of the Welch detector: class A is HW <= 3,
#: class B is HW >= 5 (the balanced tails of the binomial(8, 1/2)
#: weight distribution; HW == 4 traces belong to neither group).
T_SPLIT = (3, 5)


@dataclass(frozen=True)
class BudgetMetrics:
    """The leakage scores of one point at one trace budget."""

    budget: int
    cpa_rank: int
    cpa_margin: float
    peak_corr: float
    max_t: float
    peak_snr: float

    def to_json(self) -> dict:
        return {
            "budget": self.budget,
            "cpa_rank": self.cpa_rank,
            "cpa_margin": self.cpa_margin,
            "peak_corr": self.peak_corr,
            "max_t": self.max_t,
            "peak_snr": self.peak_snr,
        }


@dataclass(frozen=True)
class PointMetrics:
    """One point's scores at every requested budget."""

    budgets: tuple[int, ...]
    per_budget: tuple[BudgetMetrics, ...]
    n_samples: int
    true_key: int

    @property
    def final(self) -> BudgetMetrics:
        return self.per_budget[-1]

    def at(self, budget: int) -> BudgetMetrics:
        for entry in self.per_budget:
            if entry.budget == budget:
                return entry
        raise KeyError(f"no snapshot at budget {budget}")

    def to_json(self) -> dict:
        return {
            "budgets": list(self.budgets),
            "n_samples": self.n_samples,
            "per_budget": [entry.to_json() for entry in self.per_budget],
        }


class LeakageMetricsFold:
    """Streams a campaign into :class:`PointMetrics` at every budget.

    ``update`` takes one chunk of traces, the chunk's ``[k, n_guesses]``
    CPA model matrix and its ``[k]`` integer partition labels.  All
    three accumulators fold the same budget-aligned sub-ranges, so one
    pass yields every budget's snapshot.

    In *deferred* mode (``defer=True``, with ``start`` at the chunk's
    absolute trace offset) nothing is snapshotted: each budget-split
    sub-range folds into its own fresh accumulator triple, and the
    ordered parts ship to the parent as a compact :meth:`state` dict.
    The parent's :meth:`merge` replays them in stream order, which
    reproduces the serial fold's combine sequence — and therefore its
    snapshots — exactly (see ``docs/backends.md``, "Where a chunk folds").
    """

    def __init__(
        self,
        budgets,
        true_key: int,
        guesses=tuple(range(256)),
        t_split: tuple[int, int] = T_SPLIT,
        *,
        start: int = 0,
        defer: bool = False,
    ):
        self._splitter = BudgetSplitter(budgets, start=start)
        self.budgets = tuple(int(b) for b in self._splitter.budgets)
        self.true_key = int(true_key)
        self.guesses = np.asarray(list(guesses))
        self.t_low, self.t_high = t_split
        self.start = int(start)
        self._defer = bool(defer)
        self._corr = OnlineCorrAccumulator()
        self._ttest = OnlineTTestAccumulator()
        self._snr = OnlineSnrAccumulator()
        #: deferred mode: ordered ``(budget|None, corr, ttest, snr)`` parts
        self._parts: list[tuple] = []
        self._snapshots: list[BudgetMetrics] = []
        self._n_samples = 0

    @property
    def end(self) -> int:
        """One past the last stream position folded (``start`` + length)."""
        return self._splitter._base

    def update(self, traces: np.ndarray, models: np.ndarray, labels: np.ndarray) -> None:
        traces = np.asarray(traces)
        models = np.asarray(models, dtype=np.float64)
        labels = np.asarray(labels)
        if models.shape != (traces.shape[0], self.guesses.size):
            raise ValueError(
                f"model matrix has shape {models.shape}, expected "
                f"({traces.shape[0]}, {self.guesses.size})"
            )
        if labels.shape != (traces.shape[0],):
            raise ValueError("labels must have one entry per trace")
        self._n_samples = traces.shape[1]
        for low, high, budget in self._splitter.split(traces.shape[0]):
            rows = traces[low:high]
            sub_labels = labels[low:high]
            if self._defer:
                corr = OnlineCorrAccumulator()
                ttest = OnlineTTestAccumulator()
                snr = OnlineSnrAccumulator()
            else:
                corr, ttest, snr = self._corr, self._ttest, self._snr
            corr.update(models[low:high], rows)
            mask_low = sub_labels <= self.t_low
            mask_high = sub_labels >= self.t_high
            if np.any(mask_low):
                ttest.update_a(rows[mask_low])
            if np.any(mask_high):
                ttest.update_b(rows[mask_high])
            snr.update(rows, sub_labels)
            if self._defer:
                self._parts.append((budget, corr, ttest, snr))
            elif budget is not None:
                self._snapshots.append(self._snapshot(budget))

    def merge(self, other: "LeakageMetricsFold") -> None:
        """Fold a *deferred* sibling in, in stream order."""
        if not other._defer:
            raise ValueError("can only merge deferred (worker-side) metric parts")
        if self.budgets != other.budgets or self.true_key != other.true_key:
            raise ValueError("cannot merge folds over different budgets or keys")
        if other.start != self.end:
            raise ValueError(
                f"non-contiguous merge: have traces up to {self.end}, "
                f"parts start at {other.start}"
            )
        self._n_samples = other._n_samples or self._n_samples
        if self._defer:
            self._parts.extend(other._parts)
        else:
            for budget, corr, ttest, snr in other._parts:
                self._corr.merge(corr)
                self._ttest.merge(ttest)
                self._snr.merge(snr)
                if budget is not None:
                    self._snapshots.append(self._snapshot(budget))
        self._splitter._base = other._splitter._base
        self._splitter._reached = other._splitter._reached

    def state(self) -> dict:
        """The deferred parts as a compact, picklable dict."""
        if not self._defer:
            raise ValueError("only deferred folds serialize; merge into one instead")
        return {
            "budgets": self.budgets,
            "true_key": self.true_key,
            "guesses": self.guesses.copy(),
            "t_split": (self.t_low, self.t_high),
            "start": self.start,
            "end": self.end,
            "n_samples": self._n_samples,
            "parts": [
                (budget, corr.state(), ttest.state(), snr.state())
                for budget, corr, ttest, snr in self._parts
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "LeakageMetricsFold":
        fold = cls(
            state["budgets"],
            state["true_key"],
            state["guesses"],
            tuple(state["t_split"]),
            start=int(state["start"]),
            defer=True,
        )
        fold._splitter._base = int(state["end"])
        fold._splitter._reached = int(
            np.searchsorted(fold._splitter.budgets, fold._splitter._base, side="right")
        )
        fold._n_samples = int(state["n_samples"])
        fold._parts = [
            (
                None if budget is None else int(budget),
                OnlineCorrAccumulator.from_state(corr),
                OnlineTTestAccumulator.from_state(ttest),
                OnlineSnrAccumulator.from_state(snr),
            )
            for budget, corr, ttest, snr in state["parts"]
        ]
        return fold

    def _snapshot(self, budget: int) -> BudgetMetrics:
        correlations = np.atleast_2d(self._corr.snapshot())
        cpa = CpaResult(
            correlations=correlations, guesses=self.guesses, n_traces=self._corr.n
        )
        try:
            max_t = self._ttest.snapshot().max_abs_t
        except ValueError:
            # A tiny budget can leave a Welch group under two traces.
            max_t = float("nan")
        try:
            peak_snr = self._snr.snapshot().peak_snr
        except ValueError:
            peak_snr = float("nan")
        return BudgetMetrics(
            budget=int(budget),
            cpa_rank=cpa.rank_of(self.true_key),
            cpa_margin=float(cpa.margin_confidence()),
            peak_corr=float(np.max(np.abs(cpa.timecourse(self.true_key)))),
            max_t=float(max_t),
            peak_snr=float(peak_snr),
        )

    def result(self) -> PointMetrics:
        if not self._snapshots:
            raise ValueError("no budget was reached; fold more traces")
        return PointMetrics(
            budgets=self.budgets[: len(self._snapshots)],
            per_budget=tuple(self._snapshots),
            n_samples=self._n_samples,
            true_key=self.true_key,
        )


@dataclass(frozen=True)
class SweepMetricsFold(ChunkFold):
    """:class:`LeakageMetricsFold` as a chunk fold (sweep points, corpus cells).

    Each chunk's model matrix is evaluated against the chunk's own input
    slice (value-identical to slicing the full batch) and folded in
    deferred mode at the chunk's absolute offset; the in-order merge
    reproduces the serial :class:`LeakageMetricsFold` stream — budget
    snapshots included — bit for bit.  Guess *values* need not be byte
    values (PRESENT attacks nibbles), so the partition labels are the
    model column at ``true_key_column``, the true key's position in
    ``guesses``.
    """

    #: ``(inputs, lo, hi) -> float64[hi-lo, n_guesses]`` CPA model matrix
    model_matrix: Callable[[BatchInputs, int, int], np.ndarray]
    true_key: int
    true_key_column: int
    budgets: tuple
    guesses: tuple = tuple(range(256))
    t_split: tuple = T_SPLIT

    def create(self) -> LeakageMetricsFold:
        return LeakageMetricsFold(
            self.budgets, self.true_key, guesses=self.guesses, t_split=self.t_split
        )

    def fold_chunk(self, task, trace_set) -> dict:
        models = self.model_matrix(trace_set.inputs, 0, trace_set.traces.shape[0])
        labels = models[:, self.true_key_column].astype(np.int64)
        part = LeakageMetricsFold(
            self.budgets,
            self.true_key,
            guesses=self.guesses,
            t_split=self.t_split,
            start=task.lo,
            defer=True,
        )
        part.update(trace_set.traces, models, labels)
        return part.state()

    def merge_state(self, accumulator, task, state):
        accumulator.merge(LeakageMetricsFold.from_state(state))
        return accumulator
