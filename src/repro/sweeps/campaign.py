"""The sweep engine: every spec point through one streaming campaign.

:class:`SweepCampaign` expands a :class:`~repro.sweeps.spec.SweepSpec`
into points and runs each through the existing
:class:`~repro.campaigns.engine.StreamingCampaign` — one shared
``Program`` and one shared input batch, so the process-wide
compiled-schedule cache deduplicates compilation across every point
whose structural config (``PipelineConfig.identity()``) matches: a grid
that also sweeps acquisition knobs (``scope.noise_sigma``) or renamed
variants compiles each distinct pipeline exactly once.  Points sharing a
schedule also share one device stage (tape replay and leakage
evaluation) through the call's device memo
(:func:`repro.power.acquisition.device_memo`), so a scope-only grid
replays the device once.

Each point is scored by one :class:`~repro.sweeps.metrics.SweepMetricsFold`
handed to :meth:`~repro.campaigns.engine.StreamingCampaign.reduce` (CPA
key margin, max Welch-t, partition SNR at every requested trace budget,
one pass).  Every point uses the *same* campaign seed, so all
points measure paired noise realizations and their metric differences
isolate the configuration change.

``jobs > 1`` fans *points* out through an execution backend
(:mod:`repro.backends`; each worker runs its points' campaigns
single-process); point results are independent of the worker layout, so
any ``jobs`` value — and any backend, including a persistent
:class:`~repro.backends.PoolBackend` kept warm across sweeps —
reproduces the serial metrics bit for bit.  Workloads are built from
module-level callables, so every payload the persistent pool ships is
picklable by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.backends import ExecutionBackend, resolve_backend
from repro.campaigns.engine import StreamingCampaign
from repro.crypto.aes_asm import LAYOUT, round1_only_program
from repro.experiments.reporting import render_table
from repro.power.acquisition import BatchInputs, random_inputs
from repro.power.profile import LeakageProfile, cortex_a7_profile
from repro.power.scope import ScopeConfig
from repro.sca.models import hw_sbox_matrix
from repro.sweeps.metrics import PointMetrics, SweepMetricsFold
from repro.sweeps.spec import SweepPoint, SweepSpec

#: The AES-128 key every sweep workload attacks (the FIPS-197 vector,
#: the same key figure3/figure4 use).
DEFAULT_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

#: Default acquisition chain of a sweep: the figure-3 setup with a
#: lower noise floor so reduced-budget grid points stay decisive.
DEFAULT_SWEEP_SCOPE = ScopeConfig(noise_sigma=20.0, n_averages=16, quantize_bits=8)


@dataclass(frozen=True)
class SweepWorkload:
    """The program + inputs + attack every sweep point is scored on."""

    name: str
    build_program: Callable[[], object]
    build_inputs: Callable[[int, int], BatchInputs]
    #: ``(inputs, lo, hi) -> float64[hi-lo, 256]`` CPA model matrix
    model_matrix: Callable[[BatchInputs, int, int], np.ndarray]
    #: the key byte value the CPA should recover (rank-0 target)
    true_key: int
    entry: str | None = None


def _aes_build_inputs(n_traces: int, seed: int, input_seed: int) -> BatchInputs:
    return random_inputs(
        n_traces, mem_blocks={LAYOUT.state: 16}, seed=seed ^ input_seed
    )


def _aes_model_matrix(
    inputs: BatchInputs, lo: int, hi: int, byte_index: int
) -> np.ndarray:
    plaintexts = inputs.mem_bytes[LAYOUT.state][lo:hi]
    return hw_sbox_matrix(plaintexts, byte_index)


def aes_round1_workload(
    key: bytes = DEFAULT_KEY, byte_index: int = 0, input_seed: int = 0x5EED
) -> SweepWorkload:
    """Round-1 AES with the HW(SubBytes out) model (the figure-3 attack).

    The partition labels of the Welch/SNR detectors are the true-key
    model column (the Hamming weight of the attacked S-box output), so
    all three metrics score the same intermediate.  Built from
    module-level callables (via :func:`functools.partial`), the workload
    is picklable — a requirement of the persistent pool backend.
    """
    return SweepWorkload(
        name=f"aes-round1/hw-sbox[{byte_index}]",
        build_program=partial(round1_only_program, key),
        build_inputs=partial(_aes_build_inputs, input_seed=input_seed),
        model_matrix=partial(_aes_model_matrix, byte_index=byte_index),
        true_key=key[byte_index],
        entry="aes_round1",
    )


@dataclass(frozen=True)
class SweepPointResult:
    """One evaluated variant: the point, its scores, its provenance."""

    point: SweepPoint
    metrics: PointMetrics
    seconds: float
    is_baseline: bool = False

    @property
    def name(self) -> str:
        return self.point.name

    def to_json(self) -> dict:
        return {
            "point": self.point.name,
            "config": self.point.config.name,
            "scope_overrides": {
                key: value for key, value in self.point.scope_overrides
            },
            "is_baseline": self.is_baseline,
            "seconds": round(self.seconds, 3),
            "metrics": self.metrics.to_json(),
        }


@dataclass
class SweepResult:
    """A completed sweep: per-point scores plus the comparative report."""

    spec: SweepSpec
    workload: str
    n_traces: int
    budgets: tuple[int, ...]
    points: list[SweepPointResult]
    #: (distinct compiled schedules, points) — how much the schedule
    #: cache deduplicates across the grid
    compile_stats: tuple[int, int]
    seconds: float
    seed: int

    @property
    def matches_paper(self) -> None:
        """Sweeps explore beyond the paper; there is no paper shape to check."""
        return None

    @property
    def baseline(self) -> SweepPointResult | None:
        for result in self.points:
            if result.is_baseline:
                return result
        return None

    def point(self, name: str) -> SweepPointResult:
        for result in self.points:
            if result.name == name:
                return result
        raise KeyError(f"no sweep point named {name!r}")

    def ranked(self, budget: int | None = None) -> list[SweepPointResult]:
        """Points ordered leakiest-first by max Welch-t at ``budget``.

        The model-free Welch detector is the ranking statistic (ties
        broken by peak SNR, then by name for determinism); the CPA
        margin column contextualizes it per point.
        """

        def sort_key(result: SweepPointResult):
            entry = (
                result.metrics.final
                if budget is None
                else result.metrics.at(budget)
            )
            max_t = entry.max_t if np.isfinite(entry.max_t) else -np.inf
            snr = entry.peak_snr if np.isfinite(entry.peak_snr) else -np.inf
            return (-max_t, -snr, result.name)

        return sorted(self.points, key=sort_key)

    # -- reporting ------------------------------------------------------

    def render(self) -> str:
        baseline = self.baseline
        base_entry = baseline.metrics.final if baseline is not None else None
        header = [
            "#",
            "point",
            "rank",
            "margin",
            "peak|r|",
            "max|t|",
            "peak SNR",
        ]
        if base_entry is not None:
            header.append("t vs base")
        rows = []
        for position, result in enumerate(self.ranked(), start=1):
            entry = result.metrics.final
            row = [
                str(position),
                result.name + (" *" if result.is_baseline else ""),
                str(entry.cpa_rank),
                f"{entry.cpa_margin:.4f}",
                f"{entry.peak_corr:.3f}",
                f"{entry.max_t:.1f}",
                f"{entry.peak_snr:.4f}",
            ]
            if base_entry is not None:
                row.append(f"{entry.max_t - base_entry.max_t:+.1f}")
            rows.append(row)
        compiled, n_points = self.compile_stats
        parts = [
            render_table(
                header,
                rows,
                title=(
                    f"Design-space sweep '{self.spec.name}' on {self.workload}: "
                    f"{n_points} points, {self.n_traces} traces each "
                    f"(budget {self.budgets[-1]}), leakiest first"
                    + (" (* = baseline)" if base_entry is not None else "")
                ),
            )
        ]
        if len(self.budgets) > 1:
            curve_rows = []
            for result in self.ranked():
                for entry in result.metrics.per_budget:
                    curve_rows.append(
                        [
                            result.name,
                            str(entry.budget),
                            str(entry.cpa_rank),
                            f"{entry.cpa_margin:.4f}",
                            f"{entry.max_t:.1f}",
                            f"{entry.peak_snr:.4f}",
                        ]
                    )
            parts.append(
                render_table(
                    ["point", "traces", "rank", "margin", "max|t|", "peak SNR"],
                    curve_rows,
                    title="\nmetric snapshots per trace budget (one pass per point)",
                )
            )
        parts.append(
            f"\ncompiled schedules: {compiled} for {n_points} points "
            f"(cache deduplicated {n_points - compiled}); "
            f"wall time {self.seconds:.1f}s, seed {self.seed:#x}"
        )
        return "\n".join(parts)

    def artifacts(self) -> dict:
        ranked = self.ranked()
        return {
            "final_max_t": np.array([r.metrics.final.max_t for r in ranked]),
            "final_cpa_margin": np.array([r.metrics.final.cpa_margin for r in ranked]),
            "final_peak_snr": np.array([r.metrics.final.peak_snr for r in ranked]),
        }

    def to_json(self) -> dict:
        return {
            "sweep": self.spec.name,
            "workload": self.workload,
            "n_traces": self.n_traces,
            "budgets": list(self.budgets),
            "seed": self.seed,
            "seconds": round(self.seconds, 3),
            "compiled_schedules": self.compile_stats[0],
            "n_points": self.compile_stats[1],
            "baseline": self.baseline.name if self.baseline else None,
            "ranking": [result.name for result in self.ranked()],
            "points": [result.to_json() for result in self.points],
        }


class SweepCampaign:
    """Runs every point of a spec and assembles the comparative result."""

    def __init__(
        self,
        spec: SweepSpec,
        n_traces: int = 600,
        budgets=None,
        workload: SweepWorkload | None = None,
        base_scope: ScopeConfig | None = None,
        profile: LeakageProfile | None = None,
        chunk_size: int | None = None,
        jobs: int = 1,
        seed: int = 0x5EEB,
        precision: str | None = None,
        backend: str | ExecutionBackend | None = None,
        retries: int | None = None,
        chunk_timeout: float | None = None,
    ):
        self.spec = spec
        self.n_traces = int(n_traces)
        raw_budgets = tuple(budgets) if budgets else (self.n_traces,)
        self.budgets = tuple(
            sorted({min(int(b), self.n_traces) for b in raw_budgets})
        )
        self.workload = workload if workload is not None else aes_round1_workload()
        scope = base_scope if base_scope is not None else DEFAULT_SWEEP_SCOPE
        if precision is not None:
            from dataclasses import replace

            scope = replace(scope, precision=precision)
        self.base_scope = scope
        self.profile = profile if profile is not None else cortex_a7_profile()
        self.chunk_size = chunk_size
        self.jobs = max(1, jobs)
        self.seed = int(seed)
        #: backend policy for the point fan-out ("auto"/"serial"/... or
        #: a live :class:`~repro.backends.ExecutionBackend` to reuse)
        self.backend = backend
        #: per-chunk retry budget inside each point's campaign (see
        #: :mod:`repro.backends.resilience`)
        self.retries = retries
        #: soft per-chunk watchdog deadline inside each point's campaign
        self.chunk_timeout = chunk_timeout

    def __getstate__(self):
        # Point payloads carry the campaign into pool workers; a live
        # backend instance (its pool handle) must not ride along, and a
        # worker's points never nest further fan-out anyway.
        state = self.__dict__.copy()
        if isinstance(state.get("backend"), ExecutionBackend):
            state["backend"] = "serial"
        return state

    # -- per-point evaluation -------------------------------------------

    def _run_point(
        self, point: SweepPoint, program, inputs: BatchInputs
    ) -> SweepPointResult:
        start = time.perf_counter()
        engine = StreamingCampaign(
            program,
            config=point.config,
            profile=self.profile,
            scope=point.resolve_scope(self.base_scope),
            entry=self.workload.entry,
            seed=self.seed,
            chunk_size=self.chunk_size,
        )
        reduced = engine.reduce(
            inputs,
            SweepMetricsFold(
                model_matrix=self.workload.model_matrix,
                true_key=self.workload.true_key,
                true_key_column=self.workload.true_key,
                budgets=self.budgets,
            ),
            retry=self.retries,
            chunk_timeout=self.chunk_timeout,
        )
        return SweepPointResult(
            point=point,
            metrics=reduced.value.result(),
            seconds=time.perf_counter() - start,
            is_baseline=self._is_baseline(point),
        )

    def _is_baseline(self, point: SweepPoint) -> bool:
        return (
            point.config.identity() == self.spec.base.identity()
            and not point.scope_overrides
        )

    # -- the sweep ------------------------------------------------------

    def run(self, checkpoint=None, resume: bool = False) -> SweepResult:
        """Evaluate every point; optionally checkpoint at point level.

        ``checkpoint`` (a directory path or a prebuilt
        :class:`~repro.campaigns.checkpoint.Checkpointer`) persists each
        finished :class:`SweepPointResult` — including its original
        ``seconds`` — after every dispatched batch, so a killed sweep
        restarted with ``resume=True`` re-runs only the missing points
        and reproduces the uninterrupted ranking bit for bit (points
        share one campaign seed, so completion order is irrelevant).
        """
        start = time.perf_counter()
        points = self.spec.expand()
        program = self.workload.build_program()
        inputs = self.workload.build_inputs(self.n_traces, self.seed)
        done_results: dict[int, SweepPointResult] = {}
        checkpointer = self._checkpointer(checkpoint, resume, done_results)
        done: set[int] = set()
        if checkpointer is not None:
            done = checkpointer.begin(
                self._sweep_fingerprint(points), n_chunks=len(points)
            )
        pending = [i for i in range(len(points)) if i not in done]
        resolved, owned = resolve_backend(
            self.backend, jobs=self.jobs, n_tasks=max(1, len(pending))
        )
        try:
            resolved.start()
            if checkpointer is None:
                outputs = resolved.map_items(
                    _run_point_task,
                    [(self, program, inputs, points[i]) for i in pending],
                )
                done_results.update(zip(pending, outputs))
            else:
                # Dispatch in jobs-sized batches and commit after each,
                # so a kill loses at most one batch of point work.
                batch_size = max(1, self.jobs)
                for lo in range(0, len(pending), batch_size):
                    batch = pending[lo : lo + batch_size]
                    outputs = resolved.map_items(
                        _run_point_task,
                        [(self, program, inputs, points[i]) for i in batch],
                    )
                    for index, result in zip(batch, outputs):
                        done_results[index] = result
                        checkpointer.chunk_done(index)
        finally:
            if owned:
                resolved.close()
        if checkpointer is not None:
            checkpointer.finalize()
        results = [done_results[i] for i in range(len(points))]
        # The distinct schedules the grid needs — unique (config
        # identity, scope sample rate) pairs, the distinction the
        # engine's cache key draws — not the compiles this process ran,
        # so the envelope is the same warm or cold, serial or pooled.
        compiled = len(
            {(point.config.identity(), self._scope_identity(point)) for point in points}
        )
        return SweepResult(
            spec=self.spec,
            workload=self.workload.name,
            n_traces=self.n_traces,
            budgets=self.budgets,
            points=results,
            compile_stats=(compiled, len(points)),
            seconds=time.perf_counter() - start,
            seed=self.seed,
        )

    def _scope_identity(self, point: SweepPoint) -> int:
        return point.resolve_scope(self.base_scope).samples_per_cycle

    # -- checkpointing ---------------------------------------------------

    def _checkpointer(self, checkpoint, resume: bool, done_results: dict):
        """Bind a checkpointer to the sweep's results dict, or ``None``."""
        if checkpoint is None:
            return None
        from repro.campaigns.checkpoint import Checkpointer

        checkpointer = (
            checkpoint
            if isinstance(checkpoint, Checkpointer)
            else Checkpointer(checkpoint, resume=resume)
        )
        checkpointer.state_fn = lambda: dict(done_results)
        checkpointer.restore_fn = lambda saved: done_results.update(saved)
        return checkpointer

    def _sweep_fingerprint(self, points) -> str:
        """Digest of the work a sweep checkpoint belongs to.

        Covers everything that changes point results: the expanded grid
        (names, config identities, scope overrides), the workload, trace
        and budget counts, the seed, chunking and the acquisition chain
        (``base_scope`` includes precision).  Deliberately excludes the
        execution layout (jobs/backend) — results are independent of it.
        """
        from repro.campaigns.checkpoint import checkpoint_fingerprint

        return checkpoint_fingerprint(
            (
                "repro.sweep/1",
                self.spec.name,
                tuple(
                    (point.name, point.config.identity(), tuple(point.scope_overrides))
                    for point in points
                ),
                self.workload.name,
                self.n_traces,
                self.budgets,
                self.seed,
                self.chunk_size,
                self.base_scope,
            )
        )


def _run_point_task(payload) -> SweepPointResult:
    """Module-level point runner, so pooled payloads pickle cleanly."""
    campaign, program, inputs, point = payload
    return campaign._run_point(point, program, inputs)
