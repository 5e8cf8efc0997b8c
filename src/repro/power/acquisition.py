"""Trace acquisition campaigns: program + random inputs -> trace matrix.

A :class:`TraceCampaign` compiles a program's pipeline schedule once
(data-independent timing), then for each batch of random inputs runs the
vectorized executor, evaluates the compiled leakage schedule, and applies
the oscilloscope model.  The result is a :class:`TraceSet`: the trace
matrix plus everything an attack or a characterization needs (inputs,
the schedule, the per-component sample map).

The control-flow path of every batch execution is verified against the
compile-time path, enforcing the data-independent-timing assumption.

An acquisition runs in two stages.  The deterministic *device stage*
replays the tape and evaluates leakage into noise-free power; the seeded
*capture stage* applies the power transform and the oscilloscope.  Inside
a :func:`device_memo` context (every ``Session.run``/``Scenario.run``
opens one) the device stage's latest output is kept, so acquisitions
that differ only in transform, scope or seed -- Figure 4's three
campaigns, a sweep's scope-only points -- replay the device once.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.isa.executor import Executor
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.isa.semantics import ExecutionError
from repro.isa.values import ValueKind, ValueSource
from repro.isa.vexec import VectorExecutor
from repro.isa.vtrace import TapeDivergence, TraceTape, compile_tape
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

    Iterates/indexes like the historical ``(path, schedule, leakage)``
    triple so existing unpacking call sites keep working; ``tape`` is
    the trace-compiled hot path the batch executor replays.
    """

    path: list[int]
    schedule: Schedule
    leakage: LeakageSchedule
    tape: TraceTape | None = None

    def __iter__(self) -> Iterator:
        return iter((self.path, self.schedule, self.leakage))

    def __getitem__(self, index: int):
        return (self.path, self.schedule, self.leakage)[index]


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
    identity, the evaluate dtype and the replay path.  Only one entry is
    kept: a call's acquisitions that share a device stage run back to
    back.  The memo belongs to the process that opened it; a forked
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
        use_tape: bool = True,
    ):
        self.program = program
        self.config = config if config is not None else PipelineConfig()
        self.profile = profile if profile is not None else cortex_a7_profile()
        self.scope_config = scope if scope is not None else ScopeConfig()
        self.entry = entry
        self.window_cycles = window_cycles
        self.seed = seed
        self.keep_power = keep_power
        #: replay the compiled tape (fast path); ``False`` falls back to
        #: the instruction-dispatching vectorized executor (reference)
        self.use_tape = use_tape
        self.pipeline = Pipeline(self.config)
        self._compiled: CompiledAcquisition | None = None
        self._compiled_signature: tuple | None = None
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

    def _schedule_input_independent(self) -> bool:
        """Is the compiled schedule valid for any same-shape batch?

        Branch divergence is caught by the path check in ``acquire``,
        but a conditionally-executed *non-branch* instruction appears in
        the dynamic path either way, so its schedule may not be reused
        across batches whose condition outcome could differ.
        """
        from repro.isa.opcodes import Cond

        return all(
            instr.cond is Cond.AL or instr.is_branch
            for instr in self.program.instructions
        )

    def compile_with(self, inputs: BatchInputs) -> CompiledAcquisition:
        """Run the reference executor on trace 0 and compile the schedule.

        Also trace-compiles the dynamic path into a replayable op tape
        whose packed-value layout retains exactly the references the
        leakage schedule gathers (window events plus each component's
        pre-window bus state).
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
        tape = None
        if self.use_tape:
            # Windowed campaigns retain every value inside the dynamic
            # range the compiled leakage schedule references (the same
            # acquisition-window memory cap as the vectorized executor's
            # keep_range); windowless campaigns retain everything, so
            # the TraceSet table contract is identical on both paths.
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
                keep = {
                    (dyn, kind) for dyn in range(lo, hi) for kind in ValueKind
                }
            tape = compile_tape(self.program, result.records, keep=keep)
        self._compiled = CompiledAcquisition(
            path=result.path, schedule=schedule, leakage=leakage, tape=tape
        )
        self._compiled_signature = inputs.signature()
        return self._compiled

    def _run_batch(self, inputs: BatchInputs, compiled: CompiledAcquisition):
        """One batch execution: tape replay, or the vectorized executor.

        The tape is the fast path (no per-step decode, packed values);
        the vectorized executor remains as the dispatching reference
        (``use_tape=False``) and for campaigns without a compiled tape.
        """
        if self.use_tape and compiled.tape is not None:
            return compiled.tape.run(
                inputs.n_traces, regs=inputs.regs, mem_bytes=inputs.mem_bytes
            )
        keep_range: tuple[int, int] | None = None
        if self.window_cycles is not None:
            # Retain exactly the dynamic range the compiled leakage
            # schedule references (window events plus each component's
            # pre-window bus state).
            referenced = [
                dyn
                for c in compiled.leakage.compiled.values()
                for (dyn, _kind) in c.refs
                if dyn >= 0
            ]
            if referenced:
                keep_range = (min(referenced), max(referenced) + 1)
            else:
                keep_range = (0, 0)

        vexec = VectorExecutor(self.program, inputs.n_traces, keep_range=keep_range)
        vstate = vexec.fresh_state()
        assert vstate.memory is not None
        for reg, values in inputs.regs.items():
            vstate.write_reg(reg, values.astype(np.uint32))
        for address, data in inputs.mem_bytes.items():
            vstate.memory.load_per_trace(address, np.asarray(data, dtype=np.uint8))
        return vexec.run(state=vstate, entry=self.entry)

    def _run_checked(
        self, inputs: BatchInputs, compiled: CompiledAcquisition, reused: bool
    ) -> tuple[object, CompiledAcquisition]:
        """Run the batch, enforcing the compile-time path.

        A cached schedule compiled against a *different* batch may pin
        the wrong (but uniform) branch directions; both the tape
        (:class:`TapeDivergence`) and the vectorized executor (path
        mismatch) surface that, and both trigger one recompile against
        the batch at hand before declaring real divergence.
        """
        try:
            result = self._run_batch(inputs, compiled)
        except TapeDivergence:
            if not reused:
                raise
            compiled = self.compile_with(inputs)
            result = self._run_batch(inputs, compiled)
        if result.path != compiled.path:
            if reused:
                compiled = self.compile_with(inputs)
                result = self._run_batch(inputs, compiled)
            if result.path != compiled.path:
                raise ExecutionError(
                    "batch execution diverged from the compile-time path; "
                    "the program's control flow is input-dependent"
                )
        return result, compiled

    def device_stage(
        self,
        inputs: BatchInputs,
        compiled: CompiledAcquisition,
        reused: bool,
        memoize: bool = True,
    ) -> tuple[object, CompiledAcquisition, np.ndarray]:
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
        shareable = memoize and self._schedule_input_independent()
        memo = active_device_memo() if shareable else None
        if memo is not None:
            key = (digest_inputs(inputs), self.profile.identity(), dtype, self.use_tape)
            stored = memo.get(compiled, key)
            if stored is not None:
                return stored
        result, checked = self._run_checked(inputs, compiled, reused)
        power = checked.leakage.evaluate(result.table, self.profile, dtype=dtype)
        if memo is not None and checked is compiled:
            power.flags.writeable = False
            matrix = getattr(result.table, "matrix", None)
            if matrix is not None:
                matrix.flags.writeable = False
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
            and self._compiled_signature == inputs.signature()
            and self._schedule_input_independent()
        )
        if reused:
            # Data-independent timing: the schedule depends only on the
            # program and the input *shape*, so same-shape batches reuse
            # the compiled schedule.  Programs with conditionally-executed
            # non-branch instructions are excluded (a batch could
            # uniformly take the *other* outcome, invisible to the path
            # check); a cached *branch* path that no longer matches is
            # caught below and recompiled against the batch at hand.
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
