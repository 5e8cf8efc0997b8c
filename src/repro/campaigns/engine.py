"""The streaming campaign engine: chunked, cached, optionally parallel.

:class:`StreamingCampaign` is the one acquisition path every experiment
driver runs through.  It compiles a program's pipeline/leakage schedule
once (consulting a process-wide cache shared across campaigns on
programs of the same content), then acquires traces in fixed-size
chunks: each chunk is a full
:class:`~repro.power.acquisition.TraceSet` over a slice of the
inputs, replayed by the compiled trace tape (:mod:`repro.isa.vtrace`),
evaluated against the leakage schedule and captured by the oscilloscope
chain with a chunk-indexed noise seed (float64-exact) or counter range
(float32).  :meth:`StreamingCampaign.reduce` folds those chunks into a
statistic through a :class:`~repro.campaigns.reduction.ChunkFold` — the
one path drivers compute statistics through, checkpoints included; a
chunk folds where it was acquired, and only its fold state leaves the
backend.

Properties the rest of the stack builds on:

* **constant memory** — the trace matrix, the tape's page buffers and
  the value table all scale with the chunk, never with the campaign,
  so campaign size is unbounded;
* **reproducibility** — chunk ``i`` uses
  ``derive_seed(campaign_seed, i)``, so a campaign is a pure function of
  ``(seed, chunk_size)`` regardless of worker count or acquisition
  history; chunk 0 of a single-chunk stream is byte-identical to the
  historical monolithic acquisition;
* **parallelism** — chunks are independent *declarative tasks*
  (:class:`~repro.backends.base.ChunkTask`: chunk bounds, a counter
  range via ``trace_offset``, the chunk's scope seed) dispatched through
  a pluggable :class:`~repro.backends.ExecutionBackend`, which folds
  each chunk where it acquired it; fold states stream back in chunk
  order, and every backend is byte-identical to the serial reference
  for float32 campaigns (see ``docs/backends.md``).
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
import warnings
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.backends import (
    BackendBroken,
    BackendContext,
    BackendDegradationWarning,
    ChunkCorruption,
    ChunkTask,
    ExecutionBackend,
    ResilienceContext,
    RetryPolicy,
    make_backend,
    quarantine_backend,
    resolve_backend,
)
from repro.backends.resilience import active_report, next_rung
from repro.campaigns.checkpoint import Checkpointer, checkpoint_fingerprint
from repro.isa.program import Program
from repro.power.acquisition import (
    BatchInputs,
    CompiledAcquisition,
    TraceCampaign,
    TraceSet,
    derive_seed,
    digest_inputs,
)
from repro.power.profile import LeakageProfile
from repro.power.scope import Oscilloscope, ScopeConfig
from repro.uarch.config import PipelineConfig

#: Process-wide compiled-schedule cache, least recently used first.  It
#: is keyed on what the compile reads (see
#: :meth:`StreamingCampaign._cache_key`): the program's content, not the
#: object, because sources that differ only in comments assemble to
#: equal programs and a program evicted from the assembler's memo comes
#: back as a new object — so campaigns on one program compile once.
#: Entries hold their program, so the fixed bound is what caps the
#: memory they keep.
#: A compiled entry reuses scratch buffers across runs (the tape's page
#: pool, packed-plan buffers), so campaigns run in parallel through
#: processes, never through threads of one process.
_SCHEDULE_CACHE: OrderedDict[tuple, CompiledAcquisition] = OrderedDict()
_SCHEDULE_CACHE_SIZE = 16
#: compilations :meth:`StreamingCampaign.compiled` ran in this process
#: (cache misses plus uncacheable programs)
_schedule_compiles = 0


def _fold_digest(fold) -> str:
    """A stable digest of a fold's recipe, for checkpoint fingerprints."""
    return hashlib.sha256(pickle.dumps(fold)).hexdigest()


def schedule_cache_info() -> tuple[int, int]:
    """(programs cached, total compiled schedules) — for tests/benchmarks."""
    programs = {key[0] for key in _SCHEDULE_CACHE}
    return len(programs), len(_SCHEDULE_CACHE)


def schedule_compiles() -> int:
    """Schedule compilations run in this process so far (never reset)."""
    return _schedule_compiles


def clear_schedule_cache() -> None:
    _SCHEDULE_CACHE.clear()


# Free the cached compiles before interpreter teardown: module cleanup
# takes about twice as long over the same objects, and every short-lived
# process (a CLI run, a cold start) pays it on exit.
atexit.register(clear_schedule_cache)


class StreamingCampaign:
    """Chunked acquisition harness for one program on one pipeline.

    A drop-in superset of :class:`~repro.power.acquisition.TraceCampaign`:
    :meth:`acquire` materializes a whole campaign exactly as the
    monolithic path does, :meth:`reduce` folds it chunk by chunk into a
    statistic in bounded memory, optionally fanning chunks out over
    worker processes.
    """

    def __init__(
        self,
        program: Program,
        config: PipelineConfig | None = None,
        profile: LeakageProfile | None = None,
        scope: ScopeConfig | None = None,
        entry: str | None = None,
        window_cycles: tuple[int, int] | None = None,
        seed: int = 0xC0FFEE,
        keep_power: bool = False,
        chunk_size: int | None = None,
        jobs: int = 1,
        backend: str | ExecutionBackend | None = None,
    ):
        self.program = program
        self.seed = seed
        self.chunk_size = chunk_size
        self.jobs = max(1, jobs)
        #: backend policy ("auto"/"serial"/"fork"/"pool" or a live
        #: :class:`ExecutionBackend`); ``None`` means "auto"
        self.backend = backend
        self._campaign = TraceCampaign(
            program,
            config=config,
            profile=profile,
            scope=scope,
            entry=entry,
            window_cycles=window_cycles,
            seed=seed,
            keep_power=keep_power,
        )

    # -- compiled-schedule cache ---------------------------------------

    @property
    def config(self) -> PipelineConfig:
        return self._campaign.config

    @property
    def scope_config(self) -> ScopeConfig:
        return self._campaign.scope_config

    def _cache_key(self, inputs: BatchInputs) -> tuple:
        campaign = self._campaign
        # config.identity() excludes the display name, so renamed
        # variants (sweep points, with_overrides copies) — and configs
        # differing only in scope knobs the compilation never sees —
        # share one compiled schedule.
        return (
            self.program.content_key(),
            campaign.config.identity(),
            campaign.scope_config.samples_per_cycle,
            campaign.entry,
            campaign.window_cycles,
            inputs.signature(),
        )

    def compiled(self, inputs: BatchInputs) -> CompiledAcquisition:
        """The compiled acquisition (path, schedules, tape), compiled at most once.

        Consults the process-wide cache keyed by (program content,
        config, scope sample rate, entry, window, input shape) so
        distinct campaigns over the same workload — separately assembled
        programs included — share one compilation.
        """
        global _schedule_compiles
        if not self._campaign.program.schedule_input_independent:
            # Conditionally-executed non-branch instructions make the
            # schedule depend on input values, not just shape: compile
            # against exactly this batch and skip the shared cache.
            _schedule_compiles += 1
            return self._campaign.compile_with(inputs)
        key = self._cache_key(inputs)
        compiled = _SCHEDULE_CACHE.get(key)
        if compiled is None:
            _schedule_compiles += 1
            compiled = self._campaign.compile_with(inputs)
            _SCHEDULE_CACHE[key] = compiled
            if len(_SCHEDULE_CACHE) > _SCHEDULE_CACHE_SIZE:
                _SCHEDULE_CACHE.popitem(last=False)
        else:
            _SCHEDULE_CACHE.move_to_end(key)
            # Seed the inner campaign's own cache so acquire() skips the
            # reference-executor pass entirely.
            self._campaign.adopt(compiled, inputs)
        return compiled

    # -- acquisition ----------------------------------------------------

    def acquire(
        self,
        inputs: BatchInputs,
        power_transform: Callable[[np.ndarray], np.ndarray] | None = None,
        scope_seed: int | None = None,
    ) -> TraceSet:
        """One-shot (monolithic) acquisition, schedule cache included."""
        self.compiled(inputs)
        return self._campaign.acquire(
            inputs, power_transform=power_transform, scope_seed=scope_seed
        )

    def chunk_bounds(self, n_traces: int, chunk_size: int | None = None) -> list[tuple[int, int]]:
        """The ``[start, stop)`` trace ranges a stream will cover."""
        size = chunk_size if chunk_size is not None else self.chunk_size
        if size is None or size >= n_traces:
            return [(0, n_traces)]
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        return [(lo, min(lo + size, n_traces)) for lo in range(0, n_traces, size)]

    def reduce(
        self,
        inputs: BatchInputs,
        fold,
        chunk_size: int | None = None,
        jobs: int | None = None,
        power_transform: Callable[[np.ndarray], np.ndarray] | None = None,
        power_transform_factory: Callable[[int], Callable[[np.ndarray], np.ndarray]]
        | None = None,
        backend: str | ExecutionBackend | None = None,
        retry: RetryPolicy | int | None = None,
        chunk_timeout: float | None = None,
        checkpoint: Checkpointer | None = None,
    ):
        """Fold the campaign's chunks into one accumulator, in chunk order.

        ``fold`` is a :class:`~repro.campaigns.reduction.ChunkFold`.
        Every chunk folds into a fresh per-chunk state (``fold_chunk``)
        where it was acquired — in this process on the serial backend,
        in the worker on a process backend — so raw traces never cross
        a process boundary.  The states are merged **in chunk order**
        (``merge_state``), which keeps the result byte-identical to the
        serial fold whatever the chunking layout of the work.  A
        campaign without ``chunk_size`` is the single-chunk case.

        ``power_transform`` applies one callable to every chunk's power
        matrix; ``power_transform_factory`` instead receives the chunk
        index and returns that chunk's transform — the hook that lets
        seeded environment models decorrelate their noise per chunk
        (:meth:`repro.os_sim.environment.Environment.reseeded`).

        ``backend`` picks where chunk tasks execute (a policy name or a
        live :class:`~repro.backends.ExecutionBackend`); the default
        ``"auto"`` parallelizes when ``jobs > 1``, degrading with a
        :class:`~repro.backends.BackendDegradationWarning` — never
        silently — when no parallel backend is usable.

        The resilience knobs (see ``docs/resilience.md``) are off by
        default, in which case the historical dispatch paths run
        untouched:

        * ``retry`` — a retry count or a full
          :class:`~repro.backends.RetryPolicy`; each chunk task runs
          under it inside the backend, and a retried chunk recomputes
          its state from scratch, so a recovered campaign merges each
          chunk exactly once.
        * ``chunk_timeout`` — a soft per-chunk deadline (seconds) on
          pool backends: a hung or killed worker surfaces as a
          :class:`~repro.backends.WatchdogTimeout`, the pool is rebuilt
          and the chunk re-dispatched.  A backend that exhausts its
          budget on timeouts is quarantined; under ``auto`` the run
          then falls down the ``pool -> fork -> serial``
          degradation ladder instead of failing.
        * ``checkpoint`` — the *merged* accumulator state persists after
          every merged chunk (the checkpoint's ``state_fn``/``restore_fn``
          default to the fold's ``freeze``/``thaw``); a resumed run
          re-acquires only missing chunks and merges them onto the
          restored state, and a fully complete one dispatches nothing.

        Any of them also validates every chunk state (finiteness);
        a rejected state raises :class:`~repro.backends.ChunkCorruption`
        and counts as a retryable failure.

        Returns a :class:`~repro.campaigns.reduction.ReducedCampaign`
        whose ``value`` is the merged accumulator and whose
        ``trace_set`` is a zero-row metadata trace set over the
        compiled schedule.
        """
        from repro.campaigns.reduction import ReducedCampaign

        bounds, jobs, compiled, tasks, context = self._prepare(
            inputs,
            fold,
            chunk_size,
            jobs,
            power_transform,
            power_transform_factory,
            retry,
            chunk_timeout,
            checkpoint,
        )
        holder = {"acc": fold.create()}
        run_tasks = tasks
        if checkpoint is not None:
            if checkpoint.state_fn is None:
                checkpoint.state_fn = lambda: fold.freeze(holder["acc"])
            if checkpoint.restore_fn is None:
                checkpoint.restore_fn = lambda frozen: holder.__setitem__(
                    "acc", fold.thaw(frozen)
                )
            fingerprint = checkpoint_fingerprint(
                (
                    "repro.reduce/1",
                    self._stream_fingerprint(inputs, bounds),
                    _fold_digest(fold),
                )
            )
            completed = checkpoint.begin(fingerprint, n_chunks=len(tasks))
            run_tasks = [task for task in tasks if task.index not in completed]
        by_index = {task.index: task for task in tasks}
        policy = backend if backend is not None else self.backend
        for index, state in self._dispatch(
            context, run_tasks, policy=policy, jobs=jobs, checkpoint=checkpoint
        ):
            holder["acc"] = fold.merge_state(holder["acc"], by_index[index], state)
        meta = TraceSet(
            traces=np.empty((0, compiled.leakage.n_samples), dtype=np.float32),
            inputs=inputs,
            schedule=compiled.schedule,
            leakage=compiled.leakage,
            table=None,
            path=compiled.path,
            power=None,
        )
        return ReducedCampaign(
            value=holder["acc"],
            trace_set=meta,
            n_traces=inputs.n_traces,
            n_chunks=len(tasks),
            backend={"policy": getattr(policy, "name", policy) or "auto", "jobs": jobs},
        )

    def _prepare(
        self,
        inputs: BatchInputs,
        fold,
        chunk_size: int | None,
        jobs: int | None,
        power_transform,
        power_transform_factory,
        retry,
        chunk_timeout,
        checkpoint: Checkpointer | None,
    ):
        """The :meth:`reduce` prelude: compile, calibrate, build tasks."""
        if power_transform is not None and power_transform_factory is not None:
            raise ValueError("pass power_transform or power_transform_factory, not both")
        inputs.validate()
        bounds = self.chunk_bounds(inputs.n_traces, chunk_size)
        jobs = self.jobs if jobs is None else max(1, jobs)
        # Compile, tape included, before any fork so workers inherit
        # both, and resolve the campaign's quantizer full-scale so every
        # chunk — in every worker — shares one LSB.  Calibration sees
        # chunk 0's power transform (factories must be pure functions of
        # the chunk index — parallel backends may evaluate factory(0)
        # twice).
        compiled = self.compiled(inputs)
        compiled.tape  # noqa: B018 - built on first access
        transform0 = (
            power_transform_factory(0)
            if power_transform_factory is not None
            else power_transform
        )
        resilience = self._resilience_context(retry, chunk_timeout, checkpoint)
        # Calibration applies chunk 0's transform in the parent, so a
        # transient fault can strike here too; give it the same retry
        # budget the chunks get (index -1 in the fault report).
        self._retrying(
            resilience,
            lambda: self._calibrate_full_scale(inputs, bounds, transform0),
            "calibrate",
        )
        float32 = self._campaign.precision == "float32"
        tasks = [
            ChunkTask(
                index=index,
                lo=lo,
                hi=hi,
                scope_seed=self._chunk_scope_seed(index),
                trace_offset=lo if float32 else 0,
            )
            for index, (lo, hi) in enumerate(bounds)
        ]
        context = BackendContext(
            campaign=self._campaign,
            inputs=inputs,
            fold=fold,
            power_transform=power_transform,
            power_transform_factory=power_transform_factory,
            transform0=transform0,
            resilience=resilience,
        )
        return bounds, jobs, compiled, tasks, context

    def _dispatch(
        self,
        context: BackendContext,
        run_tasks: list[ChunkTask],
        *,
        policy,
        jobs: int,
        checkpoint: Checkpointer | None = None,
    ):
        """Resolve the backend and stream ``(index, state)`` results.

        Commit semantics: a chunk counts as delivered (and its
        checkpoint record is written) only once the consumer resumes
        this generator, i.e. after :meth:`reduce` merged its state.
        Under an ``auto`` policy a :class:`BackendBroken` backend is
        quarantined and the undelivered chunks re-dispatched down the
        degradation ladder.
        """
        resilience = context.resilience
        ladder_eligible = policy is None or policy == "auto"
        resolved, owned = resolve_backend(policy, jobs=jobs, n_tasks=len(run_tasks))
        try:
            resolved.start()
            pending = list(run_tasks)
            delivered: set[int] = set()
            while pending:
                try:
                    for index, state in resolved.map_chunks(context, pending):
                        yield index, state
                        delivered.add(index)
                        if checkpoint is not None:
                            checkpoint.chunk_done(index)
                    pending = []
                except BackendBroken as error:
                    # The backend exhausted its watchdog retries.  Under
                    # an explicit policy that is the caller's problem;
                    # under auto, quarantine it and fall down the ladder
                    # (loudly), re-dispatching the undelivered chunks.
                    if not ladder_eligible:
                        raise
                    rung = next_rung(error.backend)
                    quarantine_backend(error.backend, str(error))
                    message = (
                        f"backend '{error.backend}' quarantined after repeated "
                        f"failures ({error}); degrading to '{rung}'"
                    )
                    warnings.warn(message, BackendDegradationWarning, stacklevel=2)
                    if resilience is not None:
                        resilience.report.record_quarantine(error.backend)
                        resilience.report.record_degradation(message)
                    if owned:
                        resolved.close()
                    resolved = make_backend(rung, jobs)
                    owned = True
                    resolved.start()
                    pending = [task for task in run_tasks if task.index not in delivered]
            if checkpoint is not None:
                checkpoint.finalize()
        finally:
            if owned:
                resolved.close()

    def _resilience_context(
        self,
        retry: RetryPolicy | int | None,
        chunk_timeout: float | None,
        checkpoint: Checkpointer | None,
    ) -> ResilienceContext | None:
        """Build the stream's resilience state, or ``None`` when off.

        Any resilience knob also arms per-chunk fold-state validation;
        the ambient fault report
        (a :class:`~repro.api.session.Session` collecting faults) is
        reused so events reach the result envelope.
        """
        if retry is None and chunk_timeout is None and checkpoint is None:
            return None
        if retry is None:
            policy = RetryPolicy()
        elif isinstance(retry, RetryPolicy):
            policy = retry
        else:
            policy = RetryPolicy.from_retries(int(retry))
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(f"chunk timeout must be positive, got {chunk_timeout}")
        context = ResilienceContext(
            policy=policy,
            chunk_timeout=chunk_timeout,
            validator=self._state_validator(),
        )
        ambient = active_report()
        if ambient is not None:
            context.report = ambient
        return context

    @staticmethod
    def _retrying(resilience: ResilienceContext | None, fn: Callable[[], None], label: str):
        """Run a parent-side step under the stream's retry policy."""
        if resilience is None:
            return fn()
        attempt = 1
        while True:
            try:
                return fn()
            except Exception as error:
                resilience.record_failure(error)
                if (
                    attempt >= resilience.policy.max_attempts
                    or not resilience.policy.retryable(error)
                ):
                    raise
                resilience.backoff(
                    task_index=-1, attempt=attempt, error=error, backend=label
                )
                attempt += 1

    @staticmethod
    def _state_validator() -> Callable:
        """Reject corrupted fold states before they reach the merge.

        Fold states are nested dicts/lists of numpy arrays and scalars;
        a corrupted chunk (non-finite traces, a poisoned transform)
        surfaces as non-finite moments.  Violations raise
        :class:`~repro.backends.ChunkCorruption` (retryable).
        """

        def check(value) -> None:
            if isinstance(value, dict):
                for sub in value.values():
                    check(sub)
            elif isinstance(value, (list, tuple)):
                for sub in value:
                    check(sub)
            elif isinstance(value, np.ndarray):
                if value.dtype.kind == "f" and not np.isfinite(value).all():
                    raise ValueError("non-finite array in fold state")
            elif isinstance(value, float) and not np.isfinite(value):
                raise ValueError("non-finite scalar in fold state")

        def validate(task: ChunkTask, payload) -> None:
            try:
                check(payload)
            except ValueError as error:
                raise ChunkCorruption(f"chunk {task.index}: {error}") from None

        return validate

    def _stream_fingerprint(self, inputs: BatchInputs, bounds: list[tuple[int, int]]) -> str:
        """What a checkpoint must match to be resumable against this stream.

        Covers the full campaign recipe *and* the chunking (the bounds
        decide trace ranges) *and* the input content — anything that
        changes the bytes a resumed run would produce.
        """
        campaign = self._campaign
        return checkpoint_fingerprint(
            (
                "repro.stream/1",
                campaign.config.identity(),
                campaign.scope_config,
                campaign.entry,
                campaign.window_cycles,
                campaign.precision,
                campaign.keep_power,
                self.seed,
                tuple(bounds),
                inputs.signature(),
                digest_inputs(inputs),
            )
        )

    def _chunk_scope_seed(self, index: int) -> int:
        """The oscilloscope seed of chunk ``index``.

        float64-exact mode keeps the historical per-chunk derived
        streams (chunk 0 byte-identical to a monolithic run); float32
        mode shares one counter-based stream across all chunks — the
        chunk's ``trace_offset`` separates the draws, which is what
        makes a campaign's noise independent of its chunking.
        """
        if self._campaign.precision == "float32":
            return derive_seed(self.seed, 0)
        return derive_seed(self.seed, index)

    def _calibrate_full_scale(
        self,
        inputs: BatchInputs,
        bounds: list[tuple[int, int]],
        power_transform: Callable[[np.ndarray], np.ndarray] | None,
    ) -> None:
        """Pin the campaign's auto-ranged quantizer full-scale.

        With ``adc_range=None`` the historical chunked path quantized
        every chunk against its own observed spread, i.e. a different
        LSB per chunk.  Before streaming (and before any fork), this
        resolves one deterministic full-scale from the campaign's
        leading-trace power — the same rule a monolithic float32
        capture applies internally — and pins it on the inner campaign.

        Single-chunk streams are left alone: the lone capture
        self-calibrates from the same leading traces (float32), or keeps
        the per-capture auto-range that is part of the float64-exact
        bit-exact contract — either way a separate pass would only
        repeat work.
        """
        campaign = self._campaign
        config = campaign.scope_config
        if config.quantize_bits is None or config.adc_range is not None:
            return
        if campaign.pinned_full_scale is not None:
            return
        if len(bounds) <= 1:
            return
        k = min(config.calibration_traces, inputs.n_traces)
        # The device stage evaluates the prefix in the campaign's own
        # dtype, so the pinned value is bit-identical to what a
        # monolithic float32 capture would self-calibrate from.
        _result, _compiled, power = campaign.device_stage(
            inputs.slice(0, k), self.compiled(inputs), reused=True, memoize=False
        )
        if power_transform is not None:
            power = power_transform(power)
            if not np.isfinite(power).all():
                # A corrupted transform must not silently poison the
                # campaign-wide LSB; raise (retryable) instead.
                raise ChunkCorruption(
                    "calibration power contains non-finite values; refusing "
                    "to pin a corrupted quantizer full-scale"
                )
        scope = Oscilloscope(config, seed=self._chunk_scope_seed(0))
        campaign.pinned_full_scale = scope.calibrate_full_scale(power)

