"""The manifest batch executor: isolated cells, store-served re-runs.

:class:`CorpusCampaign` expands a manifest into cells and runs them
*serially* (cells are the isolation boundary; ``jobs`` parallelizes the
chunk fan-out *inside* each cell), with four guarantees:

* **Per-cell isolation** — an unknown workload name, a poisoned config
  or scope override, or any execution error fails that cell alone; the
  rest of the batch completes and the error lands in the report.
* **Capability negotiation** — a cell requesting an engine knob its
  workload does not declare (e.g. chunking on a workload that cannot
  stream) fails at negotiation time with a
  message naming the knob, before any trace is acquired.
* **Store-served re-runs** — completed cells persist to the
  content-addressed :class:`~repro.corpus.store.ArtifactStore`; an
  identical cell is served from disk (``force=False``) instead of
  re-executing.  Errors are never stored.
* **Checkpoint/resume** — with a ``checkpoint`` directory, finished
  cells commit as campaign chunks (the PR-style
  :class:`~repro.campaigns.checkpoint.Checkpointer` contract), so a
  killed batch restarted with ``resume=True`` re-runs only missing
  cells.  The fingerprint covers everything result-affecting and
  excludes the execution layout (jobs/backend).

Every cell shares one campaign seed, so cross-workload metric
differences isolate the workload/config change, exactly as sweep points
measure paired noise realizations.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.api.capabilities import Capability
from repro.backends import ExecutionBackend, resolve_backend
from repro.corpus.manifest import CorpusCell, Manifest
from repro.corpus.report import CellResult, CorpusResult, metrics_from_json
from repro.corpus.store import DEFAULT_STORE_DIR, ArtifactStore, cell_key
from repro.corpus.workloads import Workload, workload as get_workload
from repro.power.scope import ScopeConfig
from repro.sweeps.metrics import SweepMetricsFold
from repro.uarch.config import PipelineConfig

#: Default acquisition chain of a corpus cell (the sweep engine's
#: low-noise-floor chain, so modest budgets stay decisive).
DEFAULT_CORPUS_SCOPE = ScopeConfig(noise_sigma=20.0, n_averages=16, quantize_bits=8)

#: Engine knob -> the capability a workload must declare for it.
_KNOB_CAPABILITIES = {
    "chunk_size": Capability.CHUNKING,
    "jobs": Capability.JOBS,
    "backend": Capability.BACKEND,
    "precision": Capability.PRECISION,
    "retries": Capability.RESILIENCE,
    "chunk_timeout": Capability.RESILIENCE,
}


class WorkloadCapabilityError(ValueError):
    """A cell requested an engine knob its workload does not support."""

    def __init__(self, workload_name: str, knobs: tuple[str, ...]):
        self.workload = workload_name
        self.knobs = tuple(knobs)
        needed = ", ".join(
            f"{knob} (needs {_KNOB_CAPABILITIES[knob].value})" for knob in self.knobs
        )
        super().__init__(f"workload {workload_name!r} does not support: {needed}")


class CorpusCampaign:
    """Runs a manifest's cells and assembles the comparative result."""

    def __init__(
        self,
        manifest: Manifest,
        *,
        store: str | ArtifactStore | None = DEFAULT_STORE_DIR,
        force: bool = False,
        n_traces: int | None = None,
        seed: int | None = None,
        chunk_size: int | None = None,
        jobs: int = 1,
        backend: str | ExecutionBackend | None = None,
        precision: str | None = None,
        retries: int | None = None,
        chunk_timeout: float | None = None,
    ):
        self.manifest = manifest
        if isinstance(store, ArtifactStore):
            self.store: ArtifactStore | None = store
        elif store is not None:
            self.store = ArtifactStore(str(store))
        else:
            self.store = None
        self.force = bool(force)
        #: global trace override; ``None`` defers to each cell's budget
        self.n_traces = n_traces
        self.seed = int(seed) if seed is not None else int(manifest.seed)
        self.chunk_size = chunk_size
        self.jobs = max(1, jobs)
        self.backend = backend
        self.precision = precision
        self.retries = retries
        self.chunk_timeout = chunk_timeout

    # -- per-cell negotiation -------------------------------------------

    def _requested_knobs(self) -> tuple[str, ...]:
        requested = []
        if self.chunk_size is not None:
            requested.append("chunk_size")
        if self.jobs > 1:
            requested.append("jobs")
        if self.backend is not None:
            requested.append("backend")
        if self.precision is not None:
            requested.append("precision")
        if self.retries is not None:
            requested.append("retries")
        if self.chunk_timeout is not None:
            requested.append("chunk_timeout")
        return tuple(requested)

    def _negotiate(self, workload: Workload) -> None:
        unsupported = tuple(
            knob
            for knob in self._requested_knobs()
            if _KNOB_CAPABILITIES[knob] not in workload.capabilities
        )
        if unsupported:
            raise WorkloadCapabilityError(workload.name, unsupported)

    # -- per-cell execution ---------------------------------------------

    def _materialize(
        self, cell: CorpusCell
    ) -> tuple[PipelineConfig, ScopeConfig]:
        config = PipelineConfig().with_overrides(**dict(cell.config.overrides))
        scope = replace(DEFAULT_CORPUS_SCOPE, **dict(cell.scope.overrides))
        if self.precision is not None:
            scope = replace(scope, precision=self.precision)
        return config, scope

    def _cell_traces(self, cell: CorpusCell, workload: Workload) -> int:
        if self.n_traces is not None:
            return int(self.n_traces)
        if cell.budget is not None:
            return int(cell.budget)
        return int(workload.default_traces)

    def _run_cell(self, cell: CorpusCell, backend: ExecutionBackend | None) -> CellResult:
        from repro.campaigns.engine import StreamingCampaign

        start = time.perf_counter()
        workload = get_workload(cell.workload)
        self._negotiate(workload)
        config, scope = self._materialize(cell)
        n_traces = self._cell_traces(cell, workload)
        key = cell_key(
            workload,
            config,
            scope,
            n_traces=n_traces,
            seed=self.seed,
            chunk_size=self.chunk_size,
        )
        if self.store is not None and not self.force:
            record = self.store.get(key)
            if record is not None:
                return CellResult(
                    cell=cell,
                    metrics=metrics_from_json(
                        record["metrics"], workload.true_key
                    ),
                    seconds=time.perf_counter() - start,
                    cached=True,
                    key=key,
                    n_traces=record["cell"]["n_traces"],
                    rank_tolerance=workload.rank_tolerance,
                )
        program = workload.build_program()
        inputs = workload.build_inputs(n_traces, self.seed)
        engine = StreamingCampaign(
            program,
            config=config,
            scope=scope,
            entry=workload.entry,
            seed=self.seed,
            chunk_size=self.chunk_size,
            jobs=self.jobs,
            backend=backend if backend is not None else self.backend,
        )
        reduced = engine.reduce(
            inputs,
            SweepMetricsFold(
                model_matrix=workload.model_matrix,
                true_key=workload.true_key,
                true_key_column=workload.true_key_column,
                budgets=(n_traces,),
                guesses=workload.guesses,
                t_split=workload.t_split,
            ),
            retry=self.retries,
            chunk_timeout=self.chunk_timeout,
        )
        metrics = reduced.value.result()
        seconds = time.perf_counter() - start
        if self.store is not None:
            self.store.put_cell(
                key,
                manifest_name=self.manifest.name,
                cell=cell,
                workload=workload,
                n_traces=n_traces,
                seed=self.seed,
                metrics_record=metrics.to_json(),
                seconds=seconds,
            )
        return CellResult(
            cell=cell,
            metrics=metrics,
            seconds=seconds,
            cached=False,
            key=key,
            n_traces=n_traces,
            rank_tolerance=workload.rank_tolerance,
        )

    # -- the batch ------------------------------------------------------

    def run(self, checkpoint=None, resume: bool = False) -> CorpusResult:
        """Run every cell; optionally checkpoint at cell granularity."""
        start = time.perf_counter()
        cells = self.manifest.expand()
        done_results: dict[int, CellResult] = {}
        checkpointer = self._checkpointer(checkpoint, resume, done_results)
        done: set[int] = set()
        if checkpointer is not None:
            done = checkpointer.begin(
                self._fingerprint(cells), n_chunks=len(cells)
            )
        pending = [index for index in range(len(cells)) if index not in done]
        backend: ExecutionBackend | None = None
        owned = False
        if self.jobs > 1 or isinstance(self.backend, ExecutionBackend):
            # One pool for the whole batch: cells run serially, the
            # backend fans out chunks *within* each cell.
            backend, owned = resolve_backend(self.backend, jobs=self.jobs)
            backend.start()
        try:
            for index in pending:
                cell = cells[index]
                cell_start = time.perf_counter()
                try:
                    result = self._run_cell(cell, backend)
                except Exception as error:  # noqa: BLE001 - the isolation boundary
                    result = CellResult.failure(
                        cell,
                        time.perf_counter() - cell_start,
                        f"{type(error).__name__}: {error}",
                    )
                done_results[index] = result
                if checkpointer is not None:
                    checkpointer.chunk_done(index)
        finally:
            if owned and backend is not None:
                backend.close()
        if checkpointer is not None:
            checkpointer.finalize()
        return CorpusResult(
            manifest_name=self.manifest.name,
            cells=tuple(done_results[index] for index in range(len(cells))),
            store_dir=self.store.directory if self.store is not None else None,
            seconds=time.perf_counter() - start,
            seed=self.seed,
            resumed=tuple(sorted(done)),
        )

    # -- checkpointing ---------------------------------------------------

    def _checkpointer(self, checkpoint, resume: bool, done_results: dict):
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

    def _fingerprint(self, cells: list[CorpusCell]) -> str:
        """Digest of the work a corpus checkpoint belongs to.

        Covers everything result-affecting — the expanded cell grid,
        the global trace/seed/chunking/precision overrides — and
        excludes the execution layout (jobs, backend, retries):
        results are independent of it by the backend equivalence
        contract, so a resume may change it freely.
        """
        from repro.campaigns.checkpoint import checkpoint_fingerprint

        return checkpoint_fingerprint(
            (
                "repro.corpus/1",
                self.manifest.name,
                tuple(cell.identity() for cell in cells),
                self.n_traces,
                self.seed,
                self.chunk_size,
                self.precision,
            )
        )
