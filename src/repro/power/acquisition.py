"""Trace acquisition campaigns: program + random inputs -> trace matrix.

A :class:`TraceCampaign` runs the scalar reference executor once, on
the first trace of a batch, and compiles from it the pipeline schedule
(data-independent timing), the leakage schedule and a trace tape
(:mod:`repro.isa.vtrace`).  Each batch of random inputs then replays the
tape, evaluates the compiled leakage schedule, and applies the
oscilloscope model.  The result is a :class:`TraceSet`: the trace matrix
plus everything an attack or a characterization needs (inputs, the
schedule, the per-component sample map).

The tape pins every condition outcome of the compile-time run, so a
batch whose control flow differs from it raises instead of being
silently mis-scheduled: this enforces the data-independent-timing
assumption.

An acquisition runs in two stages.  The deterministic *device stage*
replays the tape and evaluates leakage into noise-free power; the seeded
*capture stage* applies the power transform and the oscilloscope.  Inside
a :func:`device_memo` context (every ``Session.run``/``Scenario.run``
opens one) the device stage's latest output is kept, so acquisitions
that differ only in transform, scope or seed -- Figure 4's three
campaigns, a sweep's scope-only points -- replay the device once.
"""

from __future__ import annotations

import functools
import hashlib
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.isa.executor import Executor
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.isa.values import ValueKind, ValueSource
from repro.isa.vtrace import TapeDivergence, TapeResult, TraceTape, compile_tape
from repro.power.profile import LeakageProfile, cortex_a7_profile
from repro.power.scope import Oscilloscope, ScopeConfig
from repro.power.synth import LeakageSchedule
from repro.uarch.config import PipelineConfig
from repro.uarch.pipeline import Pipeline, Schedule


@dataclass
class BatchInputs:
    """Per-trace input assignments applied before each execution."""

    n_traces: int
    #: address -> uint8[n_traces, length] written to memory
    mem_bytes: dict[int, np.ndarray] = field(default_factory=dict)
    #: register -> uint32[n_traces]
    regs: dict[Reg, np.ndarray] = field(default_factory=dict)

    def validate(self) -> None:
        for address, data in self.mem_bytes.items():
            if data.ndim != 2 or data.shape[0] != self.n_traces:
                raise ValueError(f"mem input at {address:#x} has shape {data.shape}")
            if data.dtype != np.uint8:
                # The compile pass writes the raw bytes of a row, the
                # tape one byte per column: only uint8 agrees on both.
                raise ValueError(
                    f"mem input at {address:#x} has dtype {data.dtype}; expected uint8"
                )
        for reg, values in self.regs.items():
            if values.shape != (self.n_traces,):
                raise ValueError(f"register input {reg} has shape {values.shape}")

    def row(self, index: int) -> tuple[dict[int, bytes], dict[Reg, int]]:
        """Scalar view of one trace's inputs (for the reference executor)."""
        mem = {addr: data[index].tobytes() for addr, data in self.mem_bytes.items()}
        regs = {reg: int(values[index]) for reg, values in self.regs.items()}
        return mem, regs

    def slice(self, start: int, stop: int) -> "BatchInputs":
        """The sub-batch covering traces ``[start, stop)`` (views, no copies)."""
        stop = min(stop, self.n_traces)
        if not 0 <= start < stop:
            raise ValueError(f"empty input slice [{start}, {stop})")
        return BatchInputs(
            n_traces=stop - start,
            mem_bytes={addr: data[start:stop] for addr, data in self.mem_bytes.items()},
            regs={reg: values[start:stop] for reg, values in self.regs.items()},
        )

    def signature(self) -> tuple:
        """Shape fingerprint: same-signature batches share one schedule."""
        return (
            tuple(sorted(reg.value if hasattr(reg, "value") else reg for reg in self.regs)),
            tuple(sorted((addr, data.shape[1]) for addr, data in self.mem_bytes.items())),
        )


@dataclass
class CompiledAcquisition:
    """Everything compiled once per (program, config, window, inputs shape).

    ``path`` is the dynamic path of the compile-time reference run,
    ``schedule``/``leakage`` its pipeline and leakage schedules, and
    ``tape`` the trace tape every batch replays.  The tape is built on
    first use, so a compile read only for its schedules (figure4's
    window prototype) never pays for one.
    """

    path: list[int]
    schedule: Schedule
    leakage: LeakageSchedule
    #: builds :attr:`tape`; dropped, with the records it holds, once called
    build_tape: Callable[[], TraceTape] | None = field(repr=False)
    _tape: TraceTape | None = field(default=None, init=False, repr=False)

    @property
    def tape(self) -> TraceTape:
        if self._tape is None:
            assert self.build_tape is not None
            self._tape, self.build_tape = self.build_tape(), None
        return self._tape


def digest_inputs(inputs: Any) -> str:
    """Content digest of a :class:`BatchInputs` batch.

    The shape signature is not enough -- a same-shaped but
    different-valued batch must never stand in for another (a resumed
    checkpoint, a memoized device stage) -- so the digest covers the
    actual register and memory values.
    """
    digest = hashlib.sha256()
    digest.update(str(inputs.n_traces).encode())
    for reg in sorted(inputs.regs, key=repr):
        digest.update(repr(reg).encode())
        digest.update(inputs.regs[reg].tobytes())
    for address in sorted(inputs.mem_bytes):
        digest.update(str(address).encode())
        digest.update(inputs.mem_bytes[address].tobytes())
    return digest.hexdigest()


class DeviceMemo:
    """The most recent device-stage output of one call, for reuse.

    An entry is keyed on the :class:`CompiledAcquisition` object it was
    replayed on (compared by identity) plus everything else the device
    stage reads: the inputs' content digest, the leakage profile's
    identity and the evaluate dtype.  Only one entry is kept: a call's
    acquisitions that share a device stage run back to back.  The memo belongs to the process that opened it; a forked
    worker inheriting it neither looks up nor stores.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._compiled: CompiledAcquisition | None = None
        self._key: tuple | None = None
        self._value: tuple | None = None
        #: device stages served from the memo / stored into it
        self.hits = 0
        self.stores = 0

    def __len__(self) -> int:
        return 0 if self._value is None else 1

    def get(self, compiled: CompiledAcquisition, key: tuple) -> tuple | None:
        if self._compiled is compiled and self._key == key:
            self.hits += 1
            return self._value
        return None

    def put(self, compiled: CompiledAcquisition, key: tuple, value: tuple) -> None:
        self._compiled, self._key, self._value = compiled, key, value
        self.stores += 1

    def clear(self) -> None:
        self._compiled = self._key = self._value = None


_DEVICE_MEMO: ContextVar[DeviceMemo | None] = ContextVar("repro_device_memo", default=None)


@contextmanager
def device_memo() -> Iterator[DeviceMemo]:
    """Share device stages across the acquisitions of the enclosed call.

    A nested entry reuses the enclosing memo; the outermost exit drops
    what the memo holds, so nothing outlives the call that opened it.
    """
    memo = _DEVICE_MEMO.get()
    if memo is not None:
        yield memo
        return
    memo = DeviceMemo()
    token = _DEVICE_MEMO.set(memo)
    try:
        yield memo
    finally:
        _DEVICE_MEMO.reset(token)
        memo.clear()


def active_device_memo() -> DeviceMemo | None:
    """The memo of an enclosing :func:`device_memo` in this process."""
    memo = _DEVICE_MEMO.get()
    if memo is None or memo.pid != os.getpid():
        return None
    return memo


def derive_seed(base: int, stream: int) -> int:
    """A decorrelated child seed for acquisition/chunk ``stream``.

    ``stream == 0`` returns ``base`` unchanged so the first acquisition
    (and the first chunk of a streamed campaign) reproduces the
    historical single-shot noise realization byte for byte.
    """
    if stream == 0:
        return int(base)
    return int(np.random.SeedSequence([int(base), int(stream)]).generate_state(1)[0])


@dataclass
class TraceSet:
    """An acquired campaign: traces plus its full provenance."""

    traces: np.ndarray  # float32 [n_traces, n_samples]
    inputs: BatchInputs
    schedule: Schedule
    leakage: LeakageSchedule
    table: ValueSource
    #: static instruction index of each dynamic instruction
    path: list[int] = field(default_factory=list)
    power: np.ndarray | None = None  # noise-free leakage, if kept

    @property
    def n_traces(self) -> int:
        return self.traces.shape[0]

    @property
    def n_samples(self) -> int:
        return self.traces.shape[1]


class TraceCampaign:
    """Reusable acquisition harness for one program on one pipeline."""

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
    ):
        self.program = program
        self.config = config if config is not None else PipelineConfig()
        self.profile = profile if profile is not None else cortex_a7_profile()
        self.scope_config = scope if scope is not None else ScopeConfig()
        self.entry = entry
        self.window_cycles = window_cycles
        self.seed = seed
        self.keep_power = keep_power
        self.pipeline = Pipeline(self.config)
        self._compiled: CompiledAcquisition | None = None
        self._compiled_key: tuple | None = None
        #: number of schedule compilations performed (regression-tested)
        self.compile_count = 0
        #: number of acquisitions performed (drives per-acquisition noise)
        self.acquire_count = 0
        #: campaign-pinned ADC full-scale: resolved once (first float32
        #: capture, or a streaming engine's calibration pass) so every
        #: chunk of a campaign quantizes against the same LSB
        self.pinned_full_scale: float | None = None

    @property
    def precision(self) -> str:
        """The acquisition chain's precision mode (from the scope config)."""
        return self.scope_config.precision

    # ------------------------------------------------------------------

    def _compile_key(self, inputs: BatchInputs) -> tuple:
        """What a compile depends on beyond the campaign's fixed program,
        config and scope: the input shape and the acquisition window."""
        return (inputs.signature(), self.window_cycles)

    def adopt(self, compiled: CompiledAcquisition, inputs: BatchInputs) -> None:
        """Make ``compiled`` what :meth:`acquire` reuses for batches like
        ``inputs`` (until the window or the input shape changes)."""
        self._compiled = compiled
        self._compiled_key = self._compile_key(inputs)

    def compile_with(self, inputs: BatchInputs) -> CompiledAcquisition:
        """Run the reference executor on trace 0 and compile the schedule.

        Also prepares the replayable op tape of the dynamic path, built
        on the first replay (:attr:`CompiledAcquisition.tape`).  A windowed campaign's tape retains every value in the dynamic
        range the leakage schedule references (window events plus each
        component's pre-window bus state); a windowless one retains
        everything.  The tape is partially evaluated against the batch's
        input signature, so it replays only what the inputs can change.
        """
        inputs.validate()
        self.compile_count += 1
        executor = Executor(self.program)
        state = executor.fresh_state()
        mem, regs = inputs.row(0)
        for reg, value in regs.items():
            state.regs[reg] = value & 0xFFFFFFFF
        for address, data in mem.items():
            state.memory.write_bytes(address, data)
        result = executor.run(state=state, entry=self.entry)
        schedule = self.pipeline.schedule(result.records)
        leakage = LeakageSchedule(
            schedule,
            self.pipeline.components,
            samples_per_cycle=self.scope_config.samples_per_cycle,
            window=self.window_cycles,
        )
        keep = None
        if self.window_cycles is not None:
            referenced = [
                dyn
                for compiled in leakage.compiled.values()
                for (dyn, _kind) in compiled.refs
                if dyn >= 0
            ]
            lo = min(referenced) if referenced else 0
            hi = max(referenced) + 1 if referenced else 0
            keep = {(dyn, kind) for dyn in range(lo, hi) for kind in ValueKind}
        compiled = CompiledAcquisition(
            path=result.path,
            schedule=schedule,
            leakage=leakage,
            build_tape=functools.partial(
                compile_tape, self.program, result.records, inputs.signature(), keep=keep
            ),
        )
        self.adopt(compiled, inputs)
        return compiled

    @staticmethod
    def _run_batch(inputs: BatchInputs, compiled: CompiledAcquisition) -> TapeResult:
        return compiled.tape.run(
            inputs.n_traces, regs=inputs.regs, mem_bytes=inputs.mem_bytes
        )

    def _run_checked(
        self, inputs: BatchInputs, compiled: CompiledAcquisition, reused: bool
    ) -> tuple[TapeResult, CompiledAcquisition]:
        """Replay the batch on the compiled tape.

        A cached tape compiled against a *different* batch may pin the
        wrong (but uniform) branch directions.  The replay raises
        :class:`TapeDivergence` for that, and a reused compile is then
        recompiled against the batch at hand and replayed once more; a
        fresh compile that diverges is real input-dependent control flow.
        """
        try:
            result = self._run_batch(inputs, compiled)
        except TapeDivergence:
            if not reused:
                raise
            compiled = self.compile_with(inputs)
            result = self._run_batch(inputs, compiled)
        return result, compiled

    def device_stage(
        self,
        inputs: BatchInputs,
        compiled: CompiledAcquisition,
        reused: bool,
        memoize: bool = True,
    ) -> tuple[TapeResult, CompiledAcquisition, np.ndarray]:
        """Replay the batch and evaluate its noise-free power.

        Returns ``(result, compiled, power)``.  This half of an
        acquisition is deterministic, so inside a :func:`device_memo` an
        output already checked for identical inputs on the identical
        compiled object is reused instead of replayed.  Schedules
        compiled per batch, recompiled (divergent) paths and
        ``memoize=False`` callers never touch the memo.  A stored
        ``power`` and value matrix are made read-only, so a consumer
        writing into them raises instead of corrupting a later
        acquisition.
        """
        dtype = np.float32 if self.precision == "float32" else np.float64
        shareable = memoize and self.program.schedule_input_independent
        memo = active_device_memo() if shareable else None
        if memo is not None:
            key = (digest_inputs(inputs), self.profile.identity(), dtype)
            stored = memo.get(compiled, key)
            if stored is not None:
                return stored
        result, checked = self._run_checked(inputs, compiled, reused)
        power = checked.leakage.evaluate(result.table, self.profile, dtype=dtype)
        if memo is not None and checked is compiled:
            power.flags.writeable = False
            result.table.matrix.flags.writeable = False
            memo.put(compiled, key, (result, checked, power))
        return result, checked, power

    def capture_stage(
        self,
        power: np.ndarray,
        extra_noise: np.ndarray | None = None,
        power_transform=None,
        scope_seed: int | None = None,
        trace_offset: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply the power transform and the oscilloscope chain.

        Returns ``(traces, power)`` with ``power`` as transformed.  Every
        call counts as one acquisition (``acquire_count``), so default
        scope seeds advance whether or not the device stage was shared.
        """
        if power_transform is not None:
            power = power_transform(power)
        if scope_seed is None:
            scope_seed = derive_seed(self.seed, self.acquire_count)
        self.acquire_count += 1
        scope = Oscilloscope(self.scope_config, seed=scope_seed)
        traces = scope.capture(
            power,
            extra_noise=extra_noise,
            trace_offset=trace_offset,
            full_scale=self.pinned_full_scale,
        )
        if self.precision == "float32" and self.pinned_full_scale is None:
            # Pin the resolved auto-range so every later acquisition
            # (and every chunk of a streamed run) shares one LSB.
            self.pinned_full_scale = scope.last_full_scale
        return traces, power

    def acquire(
        self,
        inputs: BatchInputs,
        extra_noise: np.ndarray | None = None,
        power_transform=None,
        scope_seed: int | None = None,
        trace_offset: int = 0,
        memoize: bool = True,
    ) -> TraceSet:
        """Acquire one campaign of traces for the given inputs.

        ``power_transform`` optionally rewrites the noise-free power
        matrix before the oscilloscope chain — the OS environment models
        of :mod:`repro.os_sim` plug in here (preemption scales the
        victim's signal, the background workload adds on top).

        ``scope_seed`` pins the oscilloscope noise stream (the streaming
        engine passes a per-chunk seed); by default each acquisition
        derives a fresh stream from the campaign seed, so two campaigns
        over the same inputs measure independent noise.  In float32
        mode the engine instead shares one counter-based stream across
        chunks and passes each chunk's ``trace_offset`` into it.

        ``memoize=False`` keeps the device stage out of the memo (the
        chunks of a multi-chunk stream: holding one past its fold would
        cost a chunk's worth of memory for no reuse).
        """
        inputs.validate()
        reused = (
            self._compiled is not None
            and self._compiled_key == self._compile_key(inputs)
            and self.program.schedule_input_independent
        )
        if reused:
            # Data-independent timing: the schedule depends only on the
            # program, the window and the input *shape*, so same-shape
            # batches reuse the compiled schedule.  Programs with
            # conditionally-executed non-branch instructions are excluded
            # (a batch could uniformly take the *other* outcome, which
            # the dynamic path does not show); a cached *branch* path
            # that no longer matches is caught by the replay and
            # recompiled against the batch at hand.
            assert self._compiled is not None
            compiled = self._compiled
        else:
            compiled = self.compile_with(inputs)

        result, compiled, power = self.device_stage(inputs, compiled, reused, memoize)
        traces, power = self.capture_stage(
            power,
            extra_noise=extra_noise,
            power_transform=power_transform,
            scope_seed=scope_seed,
            trace_offset=trace_offset,
        )
        return TraceSet(
            traces=traces,
            inputs=inputs,
            schedule=compiled.schedule,
            leakage=compiled.leakage,
            table=result.table,
            path=result.path,
            power=power if self.keep_power else None,
        )


def random_inputs(
    n_traces: int,
    reg_names: tuple[Reg, ...] = (),
    mem_blocks: dict[int, int] | None = None,
    seed: int = 0x5EED,
    word_aligned_regs: bool = False,
) -> BatchInputs:
    """Uniform random inputs: registers and/or memory byte blocks."""
    rng = np.random.default_rng(seed)
    regs = {}
    for reg in reg_names:
        values = rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
        if word_aligned_regs:
            values &= np.uint32(0xFFFFFFFC)
        regs[reg] = values
    mem = {}
    for address, length in (mem_blocks or {}).items():
        mem[address] = rng.integers(0, 256, size=(n_traces, length), dtype=np.uint16).astype(
            np.uint8
        )
    return BatchInputs(n_traces=n_traces, regs=regs, mem_bytes=mem)
