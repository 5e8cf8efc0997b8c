"""The :class:`ExecutionBackend` protocol and its in-process reference.

A backend executes a campaign's *chunk tasks* — declarative descriptions
of one trace-range acquisition (chunk bounds, a counter range via
``trace_offset``, the chunk's scope seed), folds each chunk where it
acquired it and returns the fold states in task order.  The streaming
engine builds the task list and a :class:`BackendContext` (the live
campaign, the input batch, the fold, the power transforms), then
dispatches through whichever backend the caller's
policy resolves to; every backend is required to be byte-identical to
:class:`SerialBackend` for float32 campaigns, where the counter-based
scope noise makes any sharding of the trace axis a no-op by
construction.

Backends also expose a generic ordered :meth:`ExecutionBackend.map_items`
for coarser fan-out units (the sweep engine parallelizes whole grid
points through it).

Lifecycle: ``start()`` acquires worker resources (a no-op for the
per-call fork backend), ``close()`` releases them, and backends are
context managers.  ``describe()`` reports provenance metadata — backend
name, start method, worker count, host core count — so throughput
numbers stay interpretable across machines.
"""

from __future__ import annotations

import abc
import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.backends.resilience import ResilienceContext, run_attempts
from repro.power.acquisition import BatchInputs, TraceCampaign, TraceSet

if TYPE_CHECKING:  # reduction imports this module; avoid the cycle
    from repro.campaigns.reduction import ChunkFold


class BackendUnavailable(RuntimeError):
    """The requested backend cannot run in this environment."""


class BackendDegradationWarning(UserWarning):
    """A parallel run silently would have run serial; now it says so.

    Emitted (once per call site, via the default warnings filter) when
    ``jobs > 1`` was requested but no parallel backend is usable; the
    :class:`~repro.api.session.Session` additionally records the message
    in the result envelope's ``notes``.
    """


@dataclass(frozen=True)
class ChunkTask:
    """One declarative unit of acquisition work.

    Everything a worker needs that is *per-chunk* lives here; the
    campaign-wide state (program, configs, pinned full-scale) travels in
    the :class:`BackendContext` (live objects inherited by the fork
    backend, a pickle-safe :class:`CampaignSpec` for the persistent
    pool).
    ``trace_offset`` is the chunk's absolute counter range into the
    float32 chain's Philox noise tape — the field that makes any
    sharding byte-identical.
    """

    index: int
    lo: int
    hi: int
    scope_seed: int
    trace_offset: int


@dataclass(frozen=True)
class CampaignSpec:
    """A pickle-safe recipe that rebuilds a :class:`TraceCampaign`.

    The compiled schedule and the replay tape hold closures and cannot
    cross a pickle boundary, but everything they are compiled *from*
    can.  Persistent-pool workers rebuild the campaign from this spec and
    compile once per process (each worker keeps an identity-keyed cache,
    so the pool re-seeds it a single time per campaign shape).

    ``pinned_full_scale`` carries the parent's resolved ADC full-scale
    so every worker quantizes against the same LSB the serial path uses.
    """

    program: Any
    config: Any
    profile: Any
    scope: Any
    entry: str | None
    window_cycles: tuple[int, int] | None
    seed: int
    keep_power: bool
    pinned_full_scale: float | None

    @classmethod
    def from_campaign(cls, campaign: TraceCampaign) -> "CampaignSpec":
        return cls(
            program=campaign.program,
            config=campaign.config,
            profile=campaign.profile,
            scope=campaign.scope_config,
            entry=campaign.entry,
            window_cycles=campaign.window_cycles,
            seed=campaign.seed,
            keep_power=campaign.keep_power,
            pinned_full_scale=campaign.pinned_full_scale,
        )

    def build(self) -> TraceCampaign:
        campaign = TraceCampaign(
            self.program,
            config=self.config,
            profile=self.profile,
            scope=self.scope,
            entry=self.entry,
            window_cycles=self.window_cycles,
            seed=self.seed,
            keep_power=self.keep_power,
        )
        campaign.pinned_full_scale = self.pinned_full_scale
        return campaign

    def cache_key(self) -> str:
        """A digest identifying the campaign shape a worker may cache.

        Deliberately excludes ``pinned_full_scale`` and ``seed`` — both
        vary per campaign without invalidating the compiled schedule a
        cached worker campaign holds (acquire() re-checks the input
        signature and path itself).
        """
        payload = (
            self.program,
            self.config,
            self.profile,
            self.scope,
            self.entry,
            self.window_cycles,
            self.keep_power,
        )
        return hashlib.sha256(pickle.dumps(payload)).hexdigest()


@dataclass
class BackendContext:
    """Campaign-wide state one :meth:`map_chunks` call runs against."""

    campaign: TraceCampaign
    inputs: BatchInputs
    #: the :class:`~repro.campaigns.reduction.ChunkFold` every backend
    #: applies to a chunk where it acquired it, so only the fold state
    #: crosses a process boundary
    fold: "ChunkFold"
    power_transform: Callable[[np.ndarray], np.ndarray] | None = None
    power_transform_factory: Callable[[int], Callable] | None = None
    #: chunk 0's resolved transform, precomputed by the engine so the
    #: serial path evaluates ``factory(0)`` exactly once
    transform0: Callable[[np.ndarray], np.ndarray] | None = None
    #: retry/watchdog/validation state (None: historical dispatch paths)
    resilience: "ResilienceContext | None" = None
    _spec: CampaignSpec | None = field(default=None, repr=False)

    def transform_for(self, index: int):
        if index == 0:
            return self.transform0
        if self.power_transform_factory is not None:
            return self.power_transform_factory(index)
        return self.power_transform

    def spec(self) -> CampaignSpec:
        """The declarative (pickle-safe) form, built at most once."""
        if self._spec is None:
            self._spec = CampaignSpec.from_campaign(self.campaign)
        return self._spec

    def assert_picklable(self, backend_name: str) -> None:
        """The persistent pool needs the declarative context to pickle.

        The campaign constituents always do; the power transforms and
        the fold are the caller's objects and may be closures, so name
        the offender precisely when they do not.
        """
        for label, obj in (
            ("power_transform", self.power_transform),
            ("power_transform_factory", self.power_transform_factory),
            ("fold", self.fold),
        ):
            if obj is None:
                continue
            try:
                pickle.dumps(obj)
            except Exception as error:
                raise BackendUnavailable(
                    f"backend '{backend_name}' ships tasks by pickle, but "
                    f"{label} {obj!r} is not picklable ({error}); use a "
                    "module-level callable, the fork backend, or serial"
                ) from error


#: ``(index, state)``: a task's index and the fold state of its chunk.
ChunkResult = tuple[int, Any]


class ExecutionBackend(abc.ABC):
    """Where a campaign's chunk tasks (or any ordered fan-out) execute."""

    name: str = "?"
    start_method: str | None = None

    def start(self) -> "ExecutionBackend":
        """Acquire worker resources; idempotent.  Returns ``self``."""
        return self

    def close(self) -> None:
        """Release worker resources; idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def workers(self) -> int:
        return 1

    def describe(self) -> dict:
        """Provenance metadata for envelopes and benchmark records."""
        return {
            "backend": self.name,
            "start_method": self.start_method,
            "workers": self.workers,
            "persistent": False,
            "cpu_count": os.cpu_count(),
        }

    @abc.abstractmethod
    def map_chunks(
        self, context: BackendContext, tasks: Sequence[ChunkTask]
    ) -> Iterator[ChunkResult]:
        """Execute and fold every task, yielding ``(index, state)`` in task order."""

    def map_items(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Generic ordered fan-out (``[fn(item) for item in items]``)."""
        return [fn(item) for item in items]


def run_chunk_task(
    campaign: TraceCampaign,
    inputs: BatchInputs,
    task: ChunkTask,
    transform: Callable[[np.ndarray], np.ndarray] | None,
) -> TraceSet:
    """The one acquisition call every backend funnels a task through.

    Only a task covering the whole batch (a single-chunk stream) may
    share its device stage through the memo; a multi-chunk stream's
    chunks never repeat, and holding one past its fold costs a chunk.
    """
    return campaign.acquire(
        inputs.slice(task.lo, task.hi),
        power_transform=transform,
        scope_seed=task.scope_seed,
        trace_offset=task.trace_offset,
        memoize=task.lo == 0 and task.hi >= inputs.n_traces,
    )


class SerialBackend(ExecutionBackend):
    """The in-process reference implementation every backend must match.

    With a :class:`~repro.backends.resilience.ResilienceContext` on the
    context, each task runs under the retry policy (validation included).
    There is no watchdog serially — a soft deadline cannot preempt the
    thread doing the work — so ``chunk_timeout`` is a no-op here; hangs
    are a parallel-backend failure mode and recover there.
    """

    name = "serial"

    def map_chunks(
        self, context: BackendContext, tasks: Sequence[ChunkTask]
    ) -> Iterator[ChunkResult]:
        resilience = context.resilience

        def produce(task: ChunkTask):
            # The fold runs inside the attempt, so a retried chunk
            # refolds from scratch.
            trace_set = run_chunk_task(
                context.campaign, context.inputs, task, context.transform_for(task.index)
            )
            return context.fold.fold_chunk(task, trace_set)

        for task in tasks:
            # No local binds the state: the consumer's merge is its last use.
            if resilience is None:
                yield task.index, produce(task)
            else:
                yield task.index, run_attempts(
                    resilience, task, lambda attempt: produce(task), self.name
                )
