"""Per-cell results and the comparative, leakiest-first corpus report.

:class:`CorpusResult` implements the scenario-result protocol
(:class:`repro.api.envelope.ResultEnvelope`), so a corpus run wraps in
the standard envelope like every other scenario.  ``matches_paper`` is
``None``: the corpus ranks *workloads against each other*, it makes no
claim against a published figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.corpus.manifest import CorpusCell
from repro.experiments.reporting import render_table
from repro.sweeps.metrics import BudgetMetrics, PointMetrics


def metrics_from_json(record: dict, true_key: int) -> PointMetrics:
    """Rebuild a :class:`PointMetrics` from its ``to_json`` record."""
    per_budget = tuple(
        BudgetMetrics(**entry) for entry in record["per_budget"]
    )
    return PointMetrics(
        budgets=tuple(record["budgets"]),
        per_budget=per_budget,
        n_samples=record["n_samples"],
        true_key=true_key,
    )


@dataclass(frozen=True)
class CellResult:
    """The outcome of one corpus cell: metrics, or an isolated error."""

    cell: CorpusCell
    metrics: PointMetrics | None
    seconds: float
    #: served from the artifact store instead of executed
    cached: bool = False
    #: the cell's ``repro.jobkey/2`` content address (None on failure)
    key: str | None = None
    error: str | None = None
    n_traces: int | None = None
    #: the workload's declared rank slack (0 = exact recovery expected)
    rank_tolerance: int = 0

    @classmethod
    def failure(cls, cell: CorpusCell, seconds: float, error: str) -> "CellResult":
        return cls(cell=cell, metrics=None, seconds=seconds, error=error)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def recovered(self) -> bool | None:
        """Key recovered within the workload's tolerance (None if N/A)."""
        if self.metrics is None:
            return None
        return self.metrics.final.cpa_rank <= self.rank_tolerance

    def to_json(self) -> dict:
        record: dict[str, Any] = {
            "cell": self.cell.name,
            "index": self.cell.index,
            "workload": self.cell.workload,
            "config": self.cell.config.name,
            "scope": self.cell.scope.name,
            "seconds": round(self.seconds, 3),
        }
        if not self.ok:
            record["error"] = self.error
            return record
        record.update(
            {
                "key": self.key,
                "cached": self.cached,
                "n_traces": self.n_traces,
                "recovered": self.recovered,
                "metrics": self.metrics.to_json(),
            }
        )
        return record


def _sort_score(result: CellResult) -> tuple:
    """Leakiest first: max |t|, then peak SNR; NaN sinks to the bottom."""
    final = result.metrics.final
    max_t = final.max_t if math.isfinite(final.max_t) else float("-inf")
    peak_snr = final.peak_snr if math.isfinite(final.peak_snr) else float("-inf")
    return (-max_t, -peak_snr, result.cell.name)


@dataclass(frozen=True)
class CorpusResult:
    """One manifest run: every cell's outcome plus the store's ledger."""

    manifest_name: str
    cells: tuple[CellResult, ...]
    store_dir: str | None
    seconds: float
    seed: int
    #: cell indices served by a checkpoint resume (not re-executed)
    resumed: tuple[int, ...] = field(default_factory=tuple)

    @property
    def matches_paper(self) -> None:
        return None

    @property
    def ok_cells(self) -> tuple[CellResult, ...]:
        return tuple(result for result in self.cells if result.ok)

    @property
    def failed(self) -> int:
        return sum(1 for result in self.cells if not result.ok)

    @property
    def store_hits(self) -> int:
        return sum(1 for result in self.ok_cells if result.cached)

    @property
    def store_misses(self) -> int:
        return sum(1 for result in self.ok_cells if not result.cached)

    def ranked(self) -> tuple[CellResult, ...]:
        """Successful cells, leakiest first."""
        return tuple(sorted(self.ok_cells, key=_sort_score))

    def render(self) -> str:
        rows = []
        for position, result in enumerate(self.ranked(), start=1):
            final = result.metrics.final
            recovered = result.recovered
            rank = str(final.cpa_rank)
            if recovered is not None and not recovered:
                rank += "!"
            rows.append(
                [
                    str(position),
                    result.cell.name,
                    str(result.n_traces),
                    rank,
                    f"{final.cpa_margin:+.3f}",
                    f"{final.peak_corr:.3f}",
                    f"{final.max_t:.1f}",
                    f"{final.peak_snr:.3f}",
                    "store" if result.cached else "run",
                ]
            )
        lines = [
            render_table(
                ["#", "cell", "traces", "rank", "margin", "peak|r|", "max|t|", "SNR", "src"],
                rows,
                title=f"Corpus '{self.manifest_name}': leakiest first",
            )
        ]
        for result in self.cells:
            if not result.ok:
                lines.append(f"FAILED {result.cell.name}: {result.error}")
        summary = (
            f"{len(self.cells)} cells: {len(self.ok_cells)} ok "
            f"({self.store_hits} from store), {self.failed} failed"
        )
        if self.resumed:
            summary += f", {len(self.resumed)} resumed"
        if self.store_dir:
            summary += f"; store: {self.store_dir}"
        lines.append(summary)
        return "\n".join(lines)

    def artifacts(self) -> dict:
        """``max_t``/``peak_snr``/``cpa_margin`` vectors in ranked order."""
        ranked = self.ranked()
        if not ranked:
            return {}
        finals = [result.metrics.final for result in ranked]
        return {
            "max_t": np.array([final.max_t for final in finals]),
            "peak_snr": np.array([final.peak_snr for final in finals]),
            "cpa_margin": np.array([final.cpa_margin for final in finals]),
        }

    def to_json(self) -> dict:
        record: dict[str, Any] = {
            "manifest": self.manifest_name,
            "seed": self.seed,
            "seconds": round(self.seconds, 3),
            "cells": [result.to_json() for result in self.cells],
            "ranking": [result.cell.name for result in self.ranked()],
            "errors": {
                result.cell.name: result.error
                for result in self.cells
                if not result.ok
            },
        }
        if self.resumed:
            record["resumed"] = list(self.resumed)
        if self.store_dir is not None:
            record["store"] = {
                "directory": self.store_dir,
                "hits": self.store_hits,
                "misses": self.store_misses,
            }
        return record
