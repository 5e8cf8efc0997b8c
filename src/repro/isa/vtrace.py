"""The trace compiler: one dynamic path, replayed as a flat op tape.

Every acquisition program in this repo has input-independent control
flow, so the dynamic instruction stream of the reference execution is
the dynamic stream of *every* trace.  :func:`compile_tape` exploits
that: it walks the scalar executor's record list once and emits a
:class:`TraceTape` — a flat sequence of pre-compiled step closures with
every decode decision already taken (register indices resolved, shift
kinds and amounts baked in, condition outcomes pinned to the recorded
ones, memory accesses lowered to page-relative word gathers).

Replaying the tape does no per-step decoding, no ``instruction_at``
lookups and no per-step dict allocation: each retained intermediate
value is written straight into one packed ``uint32[n_slots + 1,
n_traces]`` matrix (:class:`PackedValues`), whose row assignment — the
*slot map* from ``(dyn_index, kind)`` — is fixed at compile time.  The
final all-zeros row backs both explicit zero-drive events and values an
instruction never produced.

Replay verifies the uniform-control-flow contract: conditions and
indirect-branch targets must be uniform across the batch, and must
match the *recorded* outcome.  A uniform batch that takes a different
(but still uniform) branch direction raises :class:`TapeDivergence`,
which the acquisition layer answers by recompiling against the batch at
hand and retrying.

The tape is the only batch executor.  The scalar
:class:`~repro.isa.executor.Executor` is its semantic reference: every
retained value is property-tested against per-trace scalar runs in
``tests/isa/test_vtrace.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.isa.opcodes import Cond, Opcode
from repro.isa.operands import AddrMode, Imm, RegShift, ShiftKind
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.isa.semantics import HALT_ADDRESS, ExecutionError, InstrRecord
from repro.isa.values import ValueKind, ValueSource

_U32 = np.uint32
_U64 = np.uint64
_WORD = np.uint64(0xFFFFFFFF)
_LE = bool(np.little_endian)
_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1


class TapeDivergence(ExecutionError):
    """A batch's (uniform) control flow differs from the compiled tape.

    Raised when a condition outcome or an indirect-branch target is
    uniform across the batch but disagrees with the recorded reference
    run — the tape is valid for a *different* batch, so the caller
    should recompile against this one.
    """


# ----------------------------------------------------------------------
# Packed value storage
# ----------------------------------------------------------------------


class PackedLayout:
    """The compile-time slot map: ``(dyn_index, kind) -> matrix row``.

    Kinds that are provably the same array in the reference semantics
    (a word load's RESULT and MEM_WORD, a store's OP2 and STORE_DATA,
    ...) alias one row.  Row ``n_slots`` is the shared all-zeros row.
    """

    __slots__ = ("slots", "n_slots", "n_dyn")

    def __init__(self, slots: dict[tuple[int, ValueKind], int], n_slots: int, n_dyn: int):
        self.slots = slots
        self.n_slots = n_slots
        self.n_dyn = n_dyn

    @property
    def zeros_row(self) -> int:
        return self.n_slots

    def row(self, dyn_index: int, kind: ValueKind | None) -> int:
        """Matrix row of a reference; the zeros row when absent."""
        if kind is None:
            return self.n_slots
        return self.slots.get((dyn_index, kind), self.n_slots)


class PackedValues(ValueSource):
    """Dense packed value matrix over one tape replay.

    ``matrix`` is ``uint32[n_slots + 1, n_traces]`` with the last row
    all zeros; ``values`` resolves through the layout's slot map.
    """

    def __init__(self, layout: PackedLayout, matrix: np.ndarray):
        self.layout = layout
        self.matrix = matrix
        self.n_dyn = layout.n_dyn
        self.n_traces = matrix.shape[1]

    def values(self, dyn_index: int, kind: ValueKind) -> np.ndarray | None:
        row = self.layout.slots.get((dyn_index, kind))
        if row is None:
            return None
        return self.matrix[row]


@dataclass
class TapeResult:
    """Outcome of a tape replay: packed values plus the (fixed) path."""

    table: PackedValues
    path: list[int]


# ----------------------------------------------------------------------
# Replay context
# ----------------------------------------------------------------------


def iter_page_chunks(address: int, length: int):
    """Split ``[address, address + length)`` into per-page spans.

    Yields ``(page_no, page_offset, data_offset, chunk_length)`` — the
    one place the paging geometry is encoded for bulk writes (per-trace
    inputs and the program's page images).
    """
    pos = 0
    while pos < length:
        page_no = (address + pos) >> _PAGE_BITS
        offset = (address + pos) & _PAGE_MASK
        chunk = min(_PAGE_SIZE - offset, length - pos)
        yield page_no, offset, pos, chunk
        pos += chunk


class _TapeMemory:
    """Copy-on-write paged memory for tape replay.

    Pages initialized by the program image stay *uniform*: one shared
    read-only ``uint8[4096]`` row serving every trace, so table lookups
    are cheap 1-D gathers and replay startup writes nothing at all.  A
    page is materialized to ``uint8[n_traces, 4096]`` only when some
    trace writes to it (per-trace inputs, the working state buffer).
    """

    __slots__ = ("n_traces", "_images", "_pages", "_pool", "rows")

    def __init__(
        self,
        n_traces: int,
        images: dict[int, tuple[np.ndarray, ...]],
        pool: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
    ):
        self.n_traces = n_traces
        #: page_no -> (u8, u16, u32) 1-D views of the shared image
        self._images = images
        #: page_no -> (u8, u16, u32) 2-D per-trace views
        self._pages: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: reusable materialization buffers (owned by the tape, reused
        #: across chunk replays to avoid fresh 12MB allocations)
        self._pool = pool if pool is not None else {}
        self.rows = np.arange(n_traces)

    _ZERO_IMAGE: tuple[np.ndarray, ...] | None = None

    @classmethod
    def _zero_image(cls) -> tuple[np.ndarray, ...]:
        if cls._ZERO_IMAGE is None:
            zeros = np.zeros(4096, dtype=np.uint8)
            cls._ZERO_IMAGE = (zeros, zeros.view(np.uint16), zeros.view(np.uint32))
        return cls._ZERO_IMAGE

    def read_views(self, page_no: int) -> tuple[bool, tuple[np.ndarray, ...]]:
        """(is_uniform, (u8, u16, u32)) views for reading a page."""
        views = self._pages.get(page_no)
        if views is not None:
            return False, views
        image = self._images.get(page_no)
        if image is None:
            image = self._zero_image()
            self._images[page_no] = image
        return True, image

    def write_views(self, page_no: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-trace (u8, u16, u32) views, materializing on first write."""
        views = self._pages.get(page_no)
        if views is None:
            image = self._images.get(page_no)
            pooled = self._pool.get(page_no)
            if pooled is not None and pooled[0].shape[0] == self.n_traces:
                views = pooled
                page = views[0]
                if image is None:
                    page.fill(0)
                else:
                    np.copyto(page, image[0])  # broadcast over traces
            else:
                if image is None:
                    page = np.zeros((self.n_traces, 4096), dtype=np.uint8)
                else:
                    page = np.tile(image[0], (self.n_traces, 1))
                views = (page, page.view(np.uint16), page.view(np.uint32))
                self._pool[page_no] = views
            self._pages[page_no] = views
        return views

    def load_per_trace(self, address: int, data: np.ndarray) -> None:
        """Write per-trace bytes (``uint8[n_traces, length]``) at ``address``."""
        for page_no, off, pos, chunk in iter_page_chunks(address, data.shape[1]):
            page = self.write_views(page_no)[0]
            page[:, off : off + chunk] = data[:, pos : pos + chunk]


def build_page_images(program: Program) -> dict[int, tuple[np.ndarray, ...]]:
    """Pre-compose the program's data blocks into shared page images."""
    raw: dict[int, np.ndarray] = {}
    for block in program.data_blocks:
        data = np.frombuffer(bytes(block.data), dtype=np.uint8)
        for page_no, off, pos, chunk in iter_page_chunks(block.address, len(data)):
            page = raw.get(page_no)
            if page is None:
                page = np.zeros(4096, dtype=np.uint8)
                raw[page_no] = page
            page[off : off + chunk] = data[pos : pos + chunk]
    return {
        no: (page, page.view(np.uint16), page.view(np.uint32)) for no, page in raw.items()
    }


class _Ctx:
    """Mutable per-replay state shared by the step closures."""

    __slots__ = ("n", "regs", "fn", "fz", "fc", "fv", "mem", "M", "rows")

    def __init__(self, n: int, mem: _TapeMemory, matrix: np.ndarray):
        self.n = n
        self.regs = [np.zeros(n, dtype=_U32) for _ in range(16)]
        self.fn = np.zeros(n, dtype=bool)
        self.fz = np.zeros(n, dtype=bool)
        self.fc = np.zeros(n, dtype=bool)
        self.fv = np.zeros(n, dtype=bool)
        self.mem = mem
        self.M = matrix
        self.rows = np.arange(n)


_COND_FUNCS: dict[Cond, Callable[[_Ctx], np.ndarray]] = {
    Cond.EQ: lambda c: c.fz,
    Cond.NE: lambda c: ~c.fz,
    Cond.CS: lambda c: c.fc,
    Cond.CC: lambda c: ~c.fc,
    Cond.MI: lambda c: c.fn,
    Cond.PL: lambda c: ~c.fn,
    Cond.VS: lambda c: c.fv,
    Cond.VC: lambda c: ~c.fv,
    Cond.HI: lambda c: c.fc & ~c.fz,
    Cond.LS: lambda c: ~c.fc | c.fz,
    Cond.GE: lambda c: c.fn == c.fv,
    Cond.LT: lambda c: c.fn != c.fv,
    Cond.GT: lambda c: ~c.fz & (c.fn == c.fv),
    Cond.LE: lambda c: c.fz | (c.fn != c.fv),
}


def _make_cond_check(cond: Cond, expected: bool) -> Callable[[_Ctx], None] | None:
    """A closure verifying the batch matches the recorded outcome."""
    if cond is Cond.AL:
        return None if expected else _never  # AL never records False
    if cond is Cond.NV:
        return None if not expected else _never
    predicate = _COND_FUNCS[cond]

    def check(ctx: _Ctx) -> None:
        outcome = predicate(ctx)
        first = bool(outcome[0])
        if not np.all(outcome == first):
            raise ExecutionError(
                f"divergent condition {cond} across traces (control flow not uniform)"
            )
        if first != expected:
            raise TapeDivergence(
                f"condition {cond} resolved {first}, tape recorded {expected}"
            )

    return check


def _never(ctx: _Ctx) -> None:  # pragma: no cover - defensive
    raise AssertionError("unreachable condition outcome")


# ----------------------------------------------------------------------
# Shift compilation (immediate amounts resolved at compile time)
# ----------------------------------------------------------------------


def vector_barrel_shift(
    values: np.ndarray, kind: ShiftKind, amount: int, carry_in: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Barrel shifter over a batch, for a run-time amount; mirrors scalar.

    Register-specified shifts resolve their (uniform) amount only at
    replay time, so they cannot use a compiled :func:`_compile_shift_imm`.
    """
    values = values.astype(_U32)
    if kind is ShiftKind.RRX:
        carry_out = (values & _U32(1)).astype(bool)
        result = (values >> _U32(1)) | (carry_in.astype(_U32) << _U32(31))
        return result, carry_out
    if amount == 0:
        return values, carry_in
    if kind is ShiftKind.LSL:
        if amount > 32:
            return np.zeros_like(values), np.zeros_like(carry_in)
        if amount == 32:
            return np.zeros_like(values), (values & _U32(1)).astype(bool)
        carry = ((values >> _U32(32 - amount)) & _U32(1)).astype(bool)
        return values << _U32(amount), carry
    if kind is ShiftKind.LSR:
        if amount > 32:
            return np.zeros_like(values), np.zeros_like(carry_in)
        if amount == 32:
            return np.zeros_like(values), (values >> _U32(31)).astype(bool)
        carry = ((values >> _U32(amount - 1)) & _U32(1)).astype(bool)
        return values >> _U32(amount), carry
    if kind is ShiftKind.ASR:
        amt = min(amount, 32)
        signed = values.view(np.int32)
        if amt == 32:
            result = (signed >> np.int32(31)).view(_U32)
            return result, (values >> _U32(31)).astype(bool)
        carry = ((values >> _U32(amt - 1)) & _U32(1)).astype(bool)
        return (signed >> np.int32(amt)).view(_U32), carry
    if kind is ShiftKind.ROR:
        amt = amount % 32
        if amt == 0:
            return values, (values >> _U32(31)).astype(bool)
        result = (values >> _U32(amt)) | (values << _U32(32 - amt))
        return result, (result >> _U32(31)).astype(bool)
    raise AssertionError(f"unhandled shift kind {kind}")


def _compile_shift_imm(
    kind: ShiftKind, amount: int
) -> Callable[[np.ndarray, _Ctx], tuple[np.ndarray, np.ndarray | None]]:
    """Returns ``fn(values, ctx) -> (shifted, carry_out)``.

    ``carry_out`` is ``None`` when the shift leaves carry untouched
    (amount 0 for non-RRX kinds), mirroring the scalar semantics.
    """
    if kind is ShiftKind.RRX:
        def rrx(v: np.ndarray, ctx: _Ctx):
            carry_out = (v & _U32(1)).astype(bool)
            return (v >> _U32(1)) | (ctx.fc.astype(_U32) << _U32(31)), carry_out

        return rrx
    if amount == 0:
        return lambda v, ctx: (v, None)
    if kind is ShiftKind.LSL:
        if amount > 32:
            return lambda v, ctx: (np.zeros_like(v), np.zeros(v.shape, dtype=bool))
        if amount == 32:
            return lambda v, ctx: (np.zeros_like(v), (v & _U32(1)).astype(bool))
        amt = _U32(amount)
        carry_bit = _U32(32 - amount)
        return lambda v, ctx: (v << amt, ((v >> carry_bit) & _U32(1)).astype(bool))
    if kind is ShiftKind.LSR:
        if amount > 32:
            return lambda v, ctx: (np.zeros_like(v), np.zeros(v.shape, dtype=bool))
        if amount == 32:
            return lambda v, ctx: (np.zeros_like(v), (v >> _U32(31)).astype(bool))
        amt = _U32(amount)
        carry_bit = _U32(amount - 1)
        return lambda v, ctx: (v >> amt, ((v >> carry_bit) & _U32(1)).astype(bool))
    if kind is ShiftKind.ASR:
        amt = min(amount, 32)
        if amt == 32:
            def asr32(v: np.ndarray, ctx: _Ctx):
                result = (v.view(np.int32) >> np.int32(31)).view(_U32)
                return result, (v >> _U32(31)).astype(bool)

            return asr32
        samt = np.int32(amt)
        carry_bit = _U32(amt - 1)

        def asr(v: np.ndarray, ctx: _Ctx):
            return (v.view(np.int32) >> samt).view(_U32), (
                (v >> carry_bit) & _U32(1)
            ).astype(bool)

        return asr
    if kind is ShiftKind.ROR:
        amt = amount % 32
        if amt == 0:
            return lambda v, ctx: (v, (v >> _U32(31)).astype(bool))
        right = _U32(amt)
        left = _U32(32 - amt)

        def ror(v: np.ndarray, ctx: _Ctx):
            result = (v >> right) | (v << left)
            return result, (result >> _U32(31)).astype(bool)

        return ror
    raise AssertionError(f"unhandled shift kind {kind}")


# ----------------------------------------------------------------------
# Layout construction
# ----------------------------------------------------------------------

#: kinds whose value arrays are identical to another kind's for a given
#: instruction shape, keyed by (alias kind -> canonical kind) factories.


def _produced_kinds(record: InstrRecord) -> list[tuple[ValueKind, ValueKind]]:
    """(kind, canonical kind) pairs one dynamic instruction produces.

    The canonical kind names the array actually computed; aliases share
    its packed row (the two kinds carry the same value in the scalar
    reference semantics).  A kind not listed here is all-zeros in the
    scalar executor's records.
    """
    instr = record.instr
    produced: list[tuple[ValueKind, ValueKind]] = []
    if instr.is_nop:
        return produced
    if instr.is_branch:
        if instr.opcode is Opcode.BX:
            produced.append((ValueKind.OP1, ValueKind.OP1))
        return produced
    if instr.is_memory:
        produced.append((ValueKind.BASE, ValueKind.BASE))
        produced.append((ValueKind.OFFSET, ValueKind.OFFSET))
        if instr.mem is not None and instr.mem.mode is AddrMode.POST_INDEX:
            produced.append((ValueKind.ADDR, ValueKind.BASE))
        else:
            produced.append((ValueKind.ADDR, ValueKind.ADDR))
        if instr.is_store:
            produced.append((ValueKind.STORE_DATA, ValueKind.STORE_DATA))
            produced.append((ValueKind.OP2, ValueKind.STORE_DATA))
        if record.executed:
            width = instr.access_width
            if instr.is_load:
                if width == 4:
                    produced.append((ValueKind.MEM_WORD, ValueKind.MEM_WORD))
                    produced.append((ValueKind.RESULT, ValueKind.MEM_WORD))
                else:
                    produced.append((ValueKind.MEM_WORD, ValueKind.MEM_WORD))
                    produced.append((ValueKind.SUB_WORD, ValueKind.SUB_WORD))
                    produced.append((ValueKind.RESULT, ValueKind.SUB_WORD))
            else:
                if width == 4:
                    produced.append((ValueKind.MEM_WORD, ValueKind.STORE_DATA))
                else:
                    produced.append((ValueKind.MEM_WORD, ValueKind.MEM_WORD))
                    produced.append((ValueKind.SUB_WORD, ValueKind.SUB_WORD))
        return produced
    if instr.is_multiply:
        produced.append((ValueKind.OP1, ValueKind.OP1))
        produced.append((ValueKind.OP2, ValueKind.OP2))
        if record.executed:
            if instr.opcode is Opcode.MLA:
                produced.append((ValueKind.OP3, ValueKind.OP3))
            produced.append((ValueKind.RESULT, ValueKind.RESULT))
        return produced
    # Data processing.
    op = instr.opcode
    if op is Opcode.MOVW:
        produced.append((ValueKind.OP2, ValueKind.OP2))
        if record.executed:
            produced.append((ValueKind.RESULT, ValueKind.RESULT))
        return produced
    if op is Opcode.MOVT:
        produced.append((ValueKind.OP1, ValueKind.OP1))
        produced.append((ValueKind.OP2, ValueKind.OP2))
        if record.executed:
            produced.append((ValueKind.RESULT, ValueKind.RESULT))
        return produced
    if instr.rn is not None:
        produced.append((ValueKind.OP1, ValueKind.OP1))
    shifted = False
    if isinstance(instr.op2, Imm):
        produced.append((ValueKind.OP2, ValueKind.OP2))
    elif isinstance(instr.op2, RegShift):
        produced.append((ValueKind.OP2, ValueKind.OP2))
        if instr.op2.shift_by_register:
            produced.append((ValueKind.OP3, ValueKind.OP3))
        shifted = instr.op2.is_shifted
    if record.executed:
        if shifted:
            produced.append((ValueKind.SHIFTED, ValueKind.SHIFTED))
            if op is Opcode.MOV:
                produced.append((ValueKind.RESULT, ValueKind.SHIFTED))
            else:
                produced.append((ValueKind.RESULT, ValueKind.RESULT))
        elif op is Opcode.MOV:
            produced.append((ValueKind.RESULT, ValueKind.OP2))
        else:
            produced.append((ValueKind.RESULT, ValueKind.RESULT))
    return produced


def build_layout(
    records: list[InstrRecord],
    keep: Iterable[tuple[int, ValueKind]] | None = None,
) -> PackedLayout:
    """Assign packed rows to every retained ``(dyn_index, kind)``.

    ``keep`` bounds retention to the references a leakage schedule
    actually gathers (plus aliases); ``None`` retains everything the
    reference executors would record.
    """
    keep_set = None if keep is None else set(keep)
    slots: dict[tuple[int, ValueKind], int] = {}
    n_rows = 0
    for dyn, record in enumerate(records):
        canonical_rows: dict[ValueKind, int] = {}
        pairs = _produced_kinds(record)
        if keep_set is not None:
            wanted = {k for k, _c in pairs if (dyn, k) in keep_set}
            if not wanted:
                continue
            # A kept alias drags in its canonical kind (same array).
            pairs = [(k, c) for k, c in pairs if k in wanted]
        for kind, canonical in pairs:
            row = canonical_rows.get(canonical)
            if row is None:
                row = n_rows
                n_rows += 1
                canonical_rows[canonical] = row
            slots[(dyn, kind)] = row
            slots.setdefault((dyn, canonical), row)
    return PackedLayout(slots=slots, n_slots=n_rows, n_dyn=len(records))


# ----------------------------------------------------------------------
# The tape
# ----------------------------------------------------------------------


class TraceTape:
    """A compiled dynamic path: replay with :meth:`run`.

    Built once per (program, schedule window, input shape) by
    :func:`compile_tape`; replayed once per batch/chunk.
    """

    def __init__(
        self,
        program: Program,
        path: list[int],
        layout: PackedLayout,
        ops: list[Callable[[_Ctx], None]],
        const_rows: list[tuple[int, int]],
        page_images: dict[int, tuple[np.ndarray, ...]],
    ):
        self.program = program
        self.path = path
        self.layout = layout
        self._ops = ops
        self._const_rows = const_rows
        self._page_images = page_images
        self._page_pool: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def n_dyn(self) -> int:
        return self.layout.n_dyn

    @property
    def n_ops(self) -> int:
        return len(self._ops)

    def run(
        self,
        n_traces: int,
        regs: dict[Reg, np.ndarray] | None = None,
        mem_bytes: dict[int, np.ndarray] | None = None,
    ) -> TapeResult:
        """Replay the tape for a batch of input assignments."""
        matrix = np.zeros((self.layout.n_slots + 1, n_traces), dtype=_U32)
        memory = _TapeMemory(n_traces, self._page_images, self._page_pool)
        ctx = _Ctx(n_traces, memory, matrix)
        ctx.regs[Reg.R14] = np.full(n_traces, HALT_ADDRESS, dtype=_U32)
        if regs:
            for reg, values in regs.items():
                ctx.regs[int(reg)] = np.asarray(values, dtype=_U32)
        if mem_bytes:
            for address, data in mem_bytes.items():
                memory.load_per_trace(address, np.asarray(data, dtype=np.uint8))
        for row, value in self._const_rows:
            matrix[row] = value
        for op in self._ops:
            op(ctx)
        return TapeResult(table=PackedValues(self.layout, matrix), path=self.path)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def compile_tape(
    program: Program,
    records: list[InstrRecord],
    keep: Iterable[tuple[int, ValueKind]] | None = None,
) -> TraceTape:
    """Compile a reference execution into a replayable :class:`TraceTape`."""
    layout = build_layout(records, keep)
    compiler = _TapeCompiler(program, layout)
    for dyn, record in enumerate(records):
        compiler.add(dyn, record)
    path = [record.instr.index for record in records]
    return TraceTape(
        program=program,
        path=path,
        layout=layout,
        ops=compiler.ops,
        const_rows=compiler.const_rows,
        page_images=build_page_images(program),
    )


class _TapeCompiler:
    """Lowers one dynamic record at a time into a step closure."""

    def __init__(self, program: Program, layout: PackedLayout):
        self.program = program
        self.layout = layout
        self.ops: list[Callable[[_Ctx], None]] = []
        self.const_rows: list[tuple[int, int]] = []

    # -- helpers -------------------------------------------------------

    def _slot(self, dyn: int, kind: ValueKind) -> int:
        """Row to write for (dyn, kind), or -1 when not retained."""
        row = self.layout.slots.get((dyn, kind))
        return -1 if row is None else row

    def _const_slot(self, dyn: int, kind: ValueKind, value: int) -> None:
        row = self._slot(dyn, kind)
        if row >= 0:
            self.const_rows.append((row, value & 0xFFFFFFFF))

    @staticmethod
    def _read(ctx: _Ctx, index: int, pc_value: int) -> np.ndarray:
        if index == 15:
            return np.full(ctx.n, pc_value, dtype=_U32)
        return ctx.regs[index]

    # -- dispatch ------------------------------------------------------

    def add(self, dyn: int, record: InstrRecord) -> None:
        instr = record.instr
        if instr.is_nop:
            return
        if instr.is_branch:
            self._add_branch(dyn, record)
        elif instr.is_memory:
            self._add_memory(dyn, record)
        elif instr.is_multiply:
            self._add_multiply(dyn, record)
        else:
            self._add_dp(dyn, record)

    # -- branches ------------------------------------------------------

    def _add_branch(self, dyn: int, record: InstrRecord) -> None:
        instr = record.instr
        passed = record.executed
        check = _make_cond_check(instr.cond, passed)
        if instr.opcode is Opcode.BX:
            assert instr.rm is not None
            rm = int(instr.rm)
            pc_value = (instr.address + 8) & 0xFFFFFFFF
            s_op1 = self._slot(dyn, ValueKind.OP1)
            expected_target = record.next_pc if passed else None
            read = self._read

            def bx(ctx: _Ctx) -> None:
                target = read(ctx, rm, pc_value)
                if s_op1 >= 0:
                    ctx.M[s_op1] = target
                if check is not None:
                    check(ctx)
                if expected_target is not None:
                    first = int(target[0])
                    if not np.all(target == target[0]):
                        raise ExecutionError("divergent bx target across traces")
                    if (first & ~1) & 0xFFFFFFFF != expected_target:
                        raise TapeDivergence(
                            f"bx resolved {(first & ~1):#x}, tape recorded "
                            f"{expected_target:#x}"
                        )

            self.ops.append(bx)
            return
        writes_lr = instr.opcode is Opcode.BL and passed
        if check is None and not writes_lr:
            return  # unconditional direct branch: the path is the tape
        lr_value = (instr.address + 4) & 0xFFFFFFFF

        def branch(ctx: _Ctx) -> None:
            if check is not None:
                check(ctx)
            if writes_lr:
                ctx.regs[14] = np.full(ctx.n, lr_value, dtype=_U32)

        self.ops.append(branch)

    # -- multiply ------------------------------------------------------

    def _add_multiply(self, dyn: int, record: InstrRecord) -> None:
        instr = record.instr
        assert instr.rm is not None and instr.rs is not None
        passed = record.executed
        check = _make_cond_check(instr.cond, passed)
        pc_value = (instr.address + 8) & 0xFFFFFFFF
        rm, rs = int(instr.rm), int(instr.rs)
        racc = int(instr.rn) if (instr.opcode is Opcode.MLA and instr.rn is not None) else -1
        rd = int(instr.rd) if instr.rd is not None else -1
        set_flags = instr.set_flags
        s_op1 = self._slot(dyn, ValueKind.OP1)
        s_op2 = self._slot(dyn, ValueKind.OP2)
        s_op3 = self._slot(dyn, ValueKind.OP3)
        s_res = self._slot(dyn, ValueKind.RESULT)
        read = self._read

        def multiply(ctx: _Ctx) -> None:
            op1 = read(ctx, rm, pc_value)
            op2 = read(ctx, rs, pc_value)
            M = ctx.M
            if s_op1 >= 0:
                M[s_op1] = op1
            if s_op2 >= 0:
                M[s_op2] = op2
            if check is not None:
                check(ctx)
            if not passed:
                return
            result = op1 * op2  # uint32 wraps mod 2^32, like the reference
            if racc >= 0:
                acc = read(ctx, racc, pc_value)
                if s_op3 >= 0:
                    M[s_op3] = acc
                result = result + acc
            if s_res >= 0:
                M[s_res] = result
            if rd >= 0:
                ctx.regs[rd] = result
            if set_flags:
                ctx.fn = (result >> _U32(31)).astype(bool)
                ctx.fz = result == 0

        self.ops.append(multiply)

    # -- memory --------------------------------------------------------

    def _add_memory(self, dyn: int, record: InstrRecord) -> None:
        instr = record.instr
        assert instr.mem is not None
        mem_ref = instr.mem
        passed = record.executed
        check = _make_cond_check(instr.cond, passed)
        pc_value = (instr.address + 8) & 0xFFFFFFFF
        base_reg = int(mem_ref.base)
        offset_reg = int(mem_ref.offset) if mem_ref.offset_is_reg else -1
        offset_imm = _U32(int(mem_ref.offset) & 0xFFFFFFFF) if offset_reg < 0 else _U32(0)
        post_index = mem_ref.mode is AddrMode.POST_INDEX
        writeback = mem_ref.mode is not AddrMode.OFFSET
        width = instr.access_width
        is_load = instr.is_load
        rd = int(instr.rd) if instr.rd is not None else -1
        s_base = self._slot(dyn, ValueKind.BASE)
        s_off = self._slot(dyn, ValueKind.OFFSET)
        s_addr = self._slot(dyn, ValueKind.ADDR)
        s_data = self._slot(dyn, ValueKind.STORE_DATA)
        s_word = self._slot(dyn, ValueKind.MEM_WORD)
        s_sub = self._slot(dyn, ValueKind.SUB_WORD)
        s_res = self._slot(dyn, ValueKind.RESULT)
        if offset_reg < 0:
            self._const_slot(dyn, ValueKind.OFFSET, int(mem_ref.offset) & 0xFFFFFFFF)
            s_off = -1  # pre-filled constant row
        read = self._read
        align_mask = _U32(width - 1)
        instr_text = str(instr)

        def memory(ctx: _Ctx) -> None:
            M = ctx.M
            base = read(ctx, base_reg, pc_value)
            if s_base >= 0:
                M[s_base] = base
            if offset_reg >= 0:
                offset = read(ctx, offset_reg, pc_value)
                if s_off >= 0:
                    M[s_off] = offset
            else:
                offset = offset_imm
            addr = base if post_index else base + offset
            if s_addr >= 0:
                M[s_addr] = addr
            if is_load:
                data = None
            else:
                data = read(ctx, rd, pc_value)
                if s_data >= 0:
                    M[s_data] = data
            if check is not None:
                check(ctx)
            if not passed:
                return
            if width > 1 and np.any(addr & align_mask):
                raise ExecutionError(f"unaligned {width}-byte access in {instr_text}")
            value = _access(ctx, addr, data, width, is_load, M, s_word, s_sub, instr_text)
            if is_load:
                if s_res >= 0:
                    M[s_res] = value
                if rd >= 0:
                    ctx.regs[rd] = value
            if writeback:
                ctx.regs[base_reg] = base + offset

        self.ops.append(memory)

    # -- data processing -----------------------------------------------

    def _add_dp(self, dyn: int, record: InstrRecord) -> None:
        instr = record.instr
        op = instr.opcode
        passed = record.executed
        check = _make_cond_check(instr.cond, passed)
        pc_value = (instr.address + 8) & 0xFFFFFFFF
        rd = int(instr.rd) if instr.rd is not None else -1
        set_flags = instr.set_flags
        is_compare = instr.is_compare
        s_res = self._slot(dyn, ValueKind.RESULT)
        read = self._read

        # Wide moves first: immediate-only, no shifter involvement.
        if op is Opcode.MOVW:
            assert isinstance(instr.op2, Imm)
            imm = instr.op2.unsigned
            self._const_slot(dyn, ValueKind.OP2, imm)
            result_value = imm & 0xFFFF
            if passed:
                self._const_slot(dyn, ValueKind.RESULT, result_value)

            def movw(ctx: _Ctx) -> None:
                if check is not None:
                    check(ctx)
                if not passed:
                    return
                result = np.full(ctx.n, result_value, dtype=_U32)
                if rd >= 0:
                    ctx.regs[rd] = result
                if set_flags:
                    ctx.fn = (result >> _U32(31)).astype(bool)
                    ctx.fz = result == 0

            self.ops.append(movw)
            return
        if op is Opcode.MOVT:
            assert isinstance(instr.op2, Imm) and rd >= 0
            imm = instr.op2.unsigned
            self._const_slot(dyn, ValueKind.OP2, imm)
            s_op1 = self._slot(dyn, ValueKind.OP1)
            high = _U32((imm & 0xFFFF) << 16)

            def movt(ctx: _Ctx) -> None:
                old = read(ctx, rd, pc_value)
                if s_op1 >= 0:
                    ctx.M[s_op1] = old
                if check is not None:
                    check(ctx)
                if not passed:
                    return
                result = high | (old & _U32(0xFFFF))
                if s_res >= 0:
                    ctx.M[s_res] = result
                ctx.regs[rd] = result
                if set_flags:
                    ctx.fn = (result >> _U32(31)).astype(bool)
                    ctx.fz = result == 0

            self.ops.append(movt)
            return

        # Operand plan.
        rn = int(instr.rn) if instr.rn is not None else -1
        s_op1 = self._slot(dyn, ValueKind.OP1)
        s_op2 = self._slot(dyn, ValueKind.OP2)
        s_op3 = self._slot(dyn, ValueKind.OP3)
        s_shift = self._slot(dyn, ValueKind.SHIFTED)

        imm_op2: np.uint32 | None = None
        op2_reg = -1
        shift_fn = None
        shift_kind = None
        shift_amount_reg = -1
        if isinstance(instr.op2, Imm):
            imm_op2 = _U32(instr.op2.unsigned)
            self._const_slot(dyn, ValueKind.OP2, instr.op2.unsigned)
            s_op2 = -1
        elif isinstance(instr.op2, RegShift):
            op2_reg = int(instr.op2.reg)
            if instr.op2.is_shifted:
                shift_kind = instr.op2.kind
                if instr.op2.shift_by_register:
                    shift_amount_reg = int(instr.op2.amount)  # type: ignore[arg-type]
                else:
                    shift_fn = _compile_shift_imm(
                        shift_kind, int(instr.op2.amount or 0)  # type: ignore[arg-type]
                    )

        # ALU plan: logical ops take (a, b, shifter_carry); arithmetic
        # ops are encoded as a + b' (+ carry term) like the reference.
        logical = op in (
            Opcode.MOV,
            Opcode.MVN,
            Opcode.AND,
            Opcode.TST,
            Opcode.EOR,
            Opcode.TEQ,
            Opcode.ORR,
            Opcode.BIC,
        )
        if not logical and op not in (
            Opcode.ADD,
            Opcode.CMN,
            Opcode.ADC,
            Opcode.SUB,
            Opcode.CMP,
            Opcode.SBC,
            Opcode.RSB,
        ):
            raise ExecutionError(f"unhandled data-processing opcode {op}")

        def dp(ctx: _Ctx) -> None:
            M = ctx.M
            if rn >= 0:
                a = read(ctx, rn, pc_value)
                if s_op1 >= 0:
                    M[s_op1] = a
            else:
                a = None
            if op2_reg >= 0:
                raw = read(ctx, op2_reg, pc_value)
                if s_op2 >= 0:
                    M[s_op2] = raw
            else:
                raw = imm_op2
            if check is not None:
                check(ctx)
            shifter_carry = None
            b = raw
            if shift_kind is not None and passed:
                if shift_fn is not None:
                    b, shifter_carry = shift_fn(raw, ctx)
                else:
                    amounts = read(ctx, shift_amount_reg, pc_value) & _U32(0xFF)
                    amount = int(amounts[0])
                    if not np.all(amounts == amount):
                        raise ExecutionError("divergent register shift amounts")
                    if s_op3 >= 0:
                        M[s_op3] = amounts
                    b, carry_arr = vector_barrel_shift(raw, shift_kind, amount, ctx.fc)
                    shifter_carry = carry_arr
                if s_shift >= 0:
                    M[s_shift] = b
            elif shift_kind is not None and shift_amount_reg >= 0:
                # Squashed register-shift: the amount register is still
                # read (recorded as OP3), the shifter is never reached.
                amounts = read(ctx, shift_amount_reg, pc_value) & _U32(0xFF)
                if not np.all(amounts == amounts[0]):
                    raise ExecutionError("divergent register shift amounts")
                if s_op3 >= 0:
                    M[s_op3] = amounts
            if not passed:
                return
            if logical:
                if op is Opcode.MOV:
                    result = b
                elif op is Opcode.MVN:
                    result = ~b
                elif op in (Opcode.AND, Opcode.TST):
                    result = a & b
                elif op in (Opcode.EOR, Opcode.TEQ):
                    result = a ^ b
                elif op is Opcode.ORR:
                    result = a | b
                else:  # BIC
                    result = a & ~b
                if not isinstance(result, np.ndarray):  # mov/mvn of a bare immediate
                    result = np.full(ctx.n, result, dtype=_U32)
                if s_res >= 0:
                    M[s_res] = result
                if not is_compare and rd >= 0:
                    ctx.regs[rd] = result
                if set_flags:
                    ctx.fn = (result >> _U32(31)).astype(bool)
                    ctx.fz = result == 0
                    if shifter_carry is not None:
                        ctx.fc = shifter_carry
                return
            # Arithmetic: every arith opcode has rn, so ``a`` is an array.
            if set_flags:
                # Mirror the reference a + b' + carry uint64 formulas so
                # the C/V flags are bit-identical.
                if op in (Opcode.ADD, Opcode.CMN):
                    bv, cin = b, _U64(0)
                elif op is Opcode.ADC:
                    bv, cin = b, ctx.fc.astype(_U64)
                elif op in (Opcode.SUB, Opcode.CMP):
                    bv, cin = ~b, _U64(1)
                elif op is Opcode.SBC:
                    bv, cin = ~b, ctx.fc.astype(_U64)
                else:  # RSB: operands swap
                    a, bv, cin = _as_array(b, ctx), ~a, _U64(1)
                a64 = a.astype(_U64)
                b64 = _as_array(bv, ctx).astype(_U64)
                total = a64 + b64 + cin
                result = (total & _WORD).astype(_U32)
                if s_res >= 0:
                    M[s_res] = result
                if not is_compare and rd >= 0:
                    ctx.regs[rd] = result
                ctx.fn = (result >> _U32(31)).astype(bool)
                ctx.fz = result == 0
                ctx.fc = total > _WORD
                sign_a = ((a64 & _WORD) >> _U64(31)).astype(bool)
                sign_b = ((b64 & _WORD) >> _U64(31)).astype(bool)
                sign_r = (result >> _U32(31)).astype(bool)
                ctx.fv = (sign_a == sign_b) & (sign_a != sign_r)
                return
            # Flag-free arithmetic wraps naturally in uint32.
            if op in (Opcode.ADD, Opcode.CMN):
                result = a + b
            elif op is Opcode.ADC:
                result = a + b + ctx.fc.astype(_U32)
            elif op in (Opcode.SUB, Opcode.CMP):
                result = a - b
            elif op is Opcode.SBC:
                result = a - b - _U32(1) + ctx.fc.astype(_U32)
            else:  # RSB
                result = b - a
            if not isinstance(result, np.ndarray):
                result = np.full(ctx.n, result, dtype=_U32)
            if s_res >= 0:
                M[s_res] = result
            if not is_compare and rd >= 0:
                ctx.regs[rd] = result

        self.ops.append(dp)


def _as_array(v, ctx: _Ctx) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v
    return np.full(ctx.n, v, dtype=_U32)


# -- memory access lowered to page-relative gathers ---------------------


def _access(
    ctx: _Ctx,
    addr: np.ndarray,
    data: np.ndarray | None,
    width: int,
    is_load: bool,
    M: np.ndarray,
    s_word: int,
    s_sub: int,
    instr_text: str,
) -> np.ndarray | None:
    """One load/store over the batch; returns the loaded value."""
    pages = addr >> _U32(12)
    first = int(pages[0])
    if not np.all(pages == first):
        raise ExecutionError("vectorized access straddles pages across traces")
    offs = addr & _U32(0xFFF)
    if is_load:
        uniform, (u8, u16, u32) = ctx.mem.read_views(first)
        if not _LE:  # pragma: no cover - big-endian fallback
            word = _word_gather_be(ctx, uniform, u8, offs)
        elif uniform:
            word = u32[offs >> _U32(2)]
        else:
            word = u32[ctx.rows, offs >> _U32(2)]
        if width == 4:
            if s_word >= 0:
                M[s_word] = word
            return word
        if width == 2:
            value = (word >> ((offs & _U32(2)) << _U32(3))) & _U32(0xFFFF)
        else:
            value = (word >> ((offs & _U32(3)) << _U32(3))) & _U32(0xFF)
        if s_word >= 0:
            M[s_word] = word
        if s_sub >= 0:
            M[s_sub] = value
        return value
    assert data is not None
    u8, u16, u32 = ctx.mem.write_views(first)
    rows = ctx.rows
    if not _LE:  # pragma: no cover - big-endian fallback
        return _store_be(ctx, u8, offs, data, width, M, s_word, s_sub)
    if width == 4:
        u32[rows, offs >> _U32(2)] = data
        if s_word >= 0:
            M[s_word] = data
        return None
    if width == 2:
        u16[rows, offs >> _U32(1)] = data.astype(np.uint16)
        sub = data & _U32(0xFFFF)
    else:
        u8[rows, offs] = data.astype(np.uint8)
        sub = data & _U32(0xFF)
    word = u32[rows, offs >> _U32(2)]
    if s_word >= 0:
        M[s_word] = word
    if s_sub >= 0:
        M[s_sub] = sub
    return None


def _word_gather_be(
    ctx: _Ctx, uniform: bool, u8: np.ndarray, offs: np.ndarray
) -> np.ndarray:  # pragma: no cover - exercised on BE hosts only
    """Little-endian word gather from byte lanes (host-order agnostic)."""
    word_off = offs & ~_U32(3)
    word = np.zeros(ctx.n, dtype=_U32)
    for i in range(4):
        lane = u8[word_off + _U32(i)] if uniform else u8[ctx.rows, word_off + _U32(i)]
        word |= lane.astype(_U32) << _U32(8 * i)
    return word


def _store_be(
    ctx: _Ctx,
    u8: np.ndarray,
    offs: np.ndarray,
    data: np.ndarray,
    width: int,
    M: np.ndarray,
    s_word: int,
    s_sub: int,
) -> None:  # pragma: no cover - exercised on BE hosts only
    rows = ctx.rows
    for i in range(width):
        u8[rows, offs + _U32(i)] = ((data >> _U32(8 * i)) & _U32(0xFF)).astype(np.uint8)
    if width == 4:
        if s_word >= 0:
            M[s_word] = data
        return None
    word = _word_gather_be(ctx, False, u8, offs)
    if s_word >= 0:
        M[s_word] = word
    if s_sub >= 0:
        M[s_sub] = data & _U32((1 << (8 * width)) - 1)
    return None
