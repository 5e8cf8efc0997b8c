"""The trace compiler: one dynamic path, partially evaluated into an op tape.

Every acquisition program in this repo has input-independent control
flow, so the dynamic instruction stream of the reference execution is
the dynamic stream of *every* trace.  :func:`compile_tape` exploits
that: it walks the scalar executor's record list once and emits a
:class:`TraceTape` -- a flat sequence of pre-compiled step closures with
every decode decision already taken (register indices resolved, shift
kinds and amounts baked in, memory accesses lowered to page-relative
gathers).

**Partial evaluation.**  A tape is compiled for one input *signature*
(:meth:`~repro.power.acquisition.BatchInputs.signature`): the registers
and ``(address, length)`` memory blocks a batch assigns per trace.
Everything else a run starts from -- the program image, zeroed
registers, ``lr = HALT_ADDRESS``, clear flags -- is the same for every
batch; :meth:`TraceTape.run` rejects a batch that varies anything else.
A forward pass over the records tracks which registers, flags
and memory bytes the inputs can reach (*taint*):

* an instruction none of whose operands is tainted computes the same
  values for every batch, so it emits no closure: its retained values
  become constant rows holding the reference record's values, and later
  instructions read its register writes as compile-time scalars;
* a tainted value carries a bound ``lo <= v <= hi`` (no wrap-around)
  plus a count of low bits known to be zero: ``ldrb`` yields 0..255,
  ``and #imm`` at most ``imm``, ``eor``/``orr``/``add``/``lsl`` combine
  bounds.  A table lookup ``ldrb rX, [table, byte]`` thus has a proven
  address range;
* a store to a tainted address taints every byte of its proven range,
  or all of memory when no range is proven (the page an unbounded
  address lands on may differ from batch to batch).

**Which checks stay at run time.**  Replay verifies the
uniform-control-flow contract, but only where an input can move the
outcome: a condition whose flags are tainted, a ``bx`` to a tainted
target and a register shift by a tainted amount keep their uniformity
check and raise :class:`TapeDivergence` when a uniform batch resolves
differently from the recorded run (the acquisition layer then
recompiles against that batch).  A tainted address keeps its page check
unless the bound proves one page, and its alignment check unless the
known-zero low bits prove it.  Every other check is dropped, and that is
sound: the reference run passed it, its inputs are the same for every
batch, so no batch can fail it.

**Dead ops.**  A backward liveness pass then keeps an op only if it
writes a retained value that varies, keeps a runtime check, or feeds
(through a register, a flag or a memory byte) an op that does.  A
windowed tape -- one leakage window out of a full AES run -- drops every
op past the last retained value, which the checks no longer pin.

Replaying the tape does no per-step decoding and no per-step dict
allocation: each retained value is written straight into one packed
``uint32[n_slots + 1, n_traces]`` matrix (:class:`PackedValues`), whose
row assignment -- the *slot map* from ``(dyn_index, kind)`` -- is fixed
at compile time.  The final all-zeros row backs both explicit zero-drive
events and values an instruction never produced.

The tape is the only batch executor.  The scalar
:class:`~repro.isa.executor.Executor` is its semantic reference: every
retained value is property-tested against per-trace scalar runs, and the
folded tape against a compile whose signature marks every register and
page as varying, in ``tests/isa/test_vtrace.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.isa.opcodes import Cond, Opcode
from repro.isa.operands import AddrMode, Imm, RegShift, ShiftKind
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.isa.semantics import (
    HALT_ADDRESS,
    ExecutionError,
    InstrRecord,
    arith,
    barrel_shift,
)
from repro.isa.values import ValueKind, ValueSource

_U32 = np.uint32
_U64 = np.uint64
_WORD = np.uint64(0xFFFFFFFF)
_MASK = 0xFFFFFFFF
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

    __slots__ = ("slots", "n_slots", "n_dyn", "by_dyn")

    def __init__(
        self,
        slots: dict[tuple[int, ValueKind], int],
        n_slots: int,
        n_dyn: int,
        by_dyn: dict[int, list[tuple[ValueKind, int]]],
    ):
        self.slots = slots
        self.n_slots = n_slots
        self.n_dyn = n_dyn
        #: dyn -> (canonical kind, row) of each retained value
        self.by_dyn = by_dyn

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
    """Mutable per-replay state shared by the step closures.

    Only input-dependent registers and flags are ever read from here;
    the rest are compile-time constants baked into the closures.
    """

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


#: liveness locations: registers are 0..15, the NZCV flags follow
_N, _Z, _C, _V = 16, 17, 18, 19

#: condition -> (predicate over (n, z, c, v), the flags it reads)
_CONDS: dict[Cond, tuple[Callable, tuple[int, ...]]] = {
    Cond.EQ: (lambda n, z, c, v: z, (_Z,)),
    Cond.NE: (lambda n, z, c, v: ~z, (_Z,)),
    Cond.CS: (lambda n, z, c, v: c, (_C,)),
    Cond.CC: (lambda n, z, c, v: ~c, (_C,)),
    Cond.MI: (lambda n, z, c, v: n, (_N,)),
    Cond.PL: (lambda n, z, c, v: ~n, (_N,)),
    Cond.VS: (lambda n, z, c, v: v, (_V,)),
    Cond.VC: (lambda n, z, c, v: ~v, (_V,)),
    Cond.HI: (lambda n, z, c, v: c & ~z, (_C, _Z)),
    Cond.LS: (lambda n, z, c, v: ~c | z, (_C, _Z)),
    Cond.GE: (lambda n, z, c, v: n == v, (_N, _V)),
    Cond.LT: (lambda n, z, c, v: n != v, (_N, _V)),
    Cond.GT: (lambda n, z, c, v: ~z & (n == v), (_Z, _N, _V)),
    Cond.LE: (lambda n, z, c, v: z | (n != v), (_Z, _N, _V)),
}


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
) -> Callable[[np.ndarray, object], tuple[np.ndarray, np.ndarray | None]]:
    """Returns ``fn(values, carry_in) -> (shifted, carry_out)``.

    ``carry_out`` is ``None`` when the shift leaves carry untouched
    (amount 0 for non-RRX kinds), mirroring the scalar semantics; only
    RRX reads ``carry_in``.
    """
    if kind is ShiftKind.RRX:
        def rrx(v: np.ndarray, carry_in):
            carry_out = (v & _U32(1)).astype(bool)
            return (v >> _U32(1)) | (carry_in.astype(_U32) << _U32(31)), carry_out

        return rrx
    if amount == 0:
        return lambda v, c: (v, None)
    if kind is ShiftKind.LSL:
        if amount > 32:
            return lambda v, c: (np.zeros_like(v), np.zeros(v.shape, dtype=bool))
        if amount == 32:
            return lambda v, c: (np.zeros_like(v), (v & _U32(1)).astype(bool))
        amt = _U32(amount)
        carry_bit = _U32(32 - amount)
        return lambda v, c: (v << amt, ((v >> carry_bit) & _U32(1)).astype(bool))
    if kind is ShiftKind.LSR:
        if amount > 32:
            return lambda v, c: (np.zeros_like(v), np.zeros(v.shape, dtype=bool))
        if amount == 32:
            return lambda v, c: (np.zeros_like(v), (v >> _U32(31)).astype(bool))
        amt = _U32(amount)
        carry_bit = _U32(amount - 1)
        return lambda v, c: (v >> amt, ((v >> carry_bit) & _U32(1)).astype(bool))
    if kind is ShiftKind.ASR:
        amt = min(amount, 32)
        if amt == 32:
            def asr32(v: np.ndarray, carry_in):
                result = (v.view(np.int32) >> np.int32(31)).view(_U32)
                return result, (v >> _U32(31)).astype(bool)

            return asr32
        samt = np.int32(amt)
        carry_bit = _U32(amt - 1)

        def asr(v: np.ndarray, carry_in):
            return (v.view(np.int32) >> samt).view(_U32), (
                (v >> carry_bit) & _U32(1)
            ).astype(bool)

        return asr
    if kind is ShiftKind.ROR:
        amt = amount % 32
        if amt == 0:
            return lambda v, c: (v, (v >> _U32(31)).astype(bool))
        right = _U32(amt)
        left = _U32(32 - amt)

        def ror(v: np.ndarray, carry_in):
            result = (v >> right) | (v << left)
            return result, (result >> _U32(31)).astype(bool)

        return ror
    raise AssertionError(f"unhandled shift kind {kind}")


# ----------------------------------------------------------------------
# Layout construction
# ----------------------------------------------------------------------


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
    by_dyn: dict[int, list[tuple[ValueKind, int]]] = {}
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
        if canonical_rows:
            by_dyn[dyn] = list(canonical_rows.items())
    return PackedLayout(slots=slots, n_slots=n_rows, n_dyn=len(records), by_dyn=by_dyn)


# ----------------------------------------------------------------------
# The tape
# ----------------------------------------------------------------------


class TraceTape:
    """A compiled dynamic path: replay with :meth:`run`.

    Built once per (program, schedule window, input signature) by
    :func:`compile_tape`; replayed once per batch/chunk.  ``checks``
    counts the runtime checks the tape kept, by kind (``condition``,
    ``target``, ``shift``, ``page``, ``align``).
    """

    def __init__(
        self,
        program: Program,
        path: list[int],
        layout: PackedLayout,
        ops: list[Callable[[_Ctx], None]],
        const_rows: dict[int, int],
        page_images: dict[int, tuple[np.ndarray, ...]],
        signature: tuple,
        checks: dict[str, int],
    ):
        self.program = program
        self.path = path
        self.layout = layout
        self.checks = checks
        self._ops = ops
        self._const_index = np.fromiter(const_rows, dtype=np.intp, count=len(const_rows))
        self._const_values = np.fromiter(
            const_rows.values(), dtype=_U32, count=len(const_rows)
        )[:, None]
        self._page_images = page_images
        self._page_pool: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._regs = frozenset(signature[0])
        self._blocks = signature[1]

    @property
    def n_dyn(self) -> int:
        return self.layout.n_dyn

    @property
    def n_ops(self) -> int:
        return len(self._ops)

    def _check_signature(
        self, regs: dict[Reg, np.ndarray], mem_bytes: dict[int, np.ndarray]
    ) -> None:
        """A batch may only vary what the tape was compiled to vary:
        anything else the tape has folded to the reference's constants."""
        extra = sorted(int(reg) for reg in regs if int(reg) not in self._regs)
        if extra:
            raise ValueError(
                f"registers {extra} vary in the batch but not in the tape's "
                f"signature {sorted(self._regs)}"
            )
        for address, data in mem_bytes.items():
            length = np.shape(data)[1]
            if not any(
                lo <= address and address + length <= lo + size for lo, size in self._blocks
            ):
                raise ValueError(
                    f"memory block {address:#x}+{length} lies outside the tape's "
                    f"signature blocks {[(hex(a), n) for a, n in self._blocks]}"
                )

    def run(
        self,
        n_traces: int,
        regs: dict[Reg, np.ndarray] | None = None,
        mem_bytes: dict[int, np.ndarray] | None = None,
    ) -> TapeResult:
        """Replay the tape for a batch of input assignments.

        Raises ``ValueError`` for a batch that assigns a register or a
        memory block outside the signature the tape was compiled for.
        """
        regs = regs or {}
        mem_bytes = mem_bytes or {}
        self._check_signature(regs, mem_bytes)
        matrix = np.zeros((self.layout.n_slots + 1, n_traces), dtype=_U32)
        memory = _TapeMemory(n_traces, self._page_images, self._page_pool)
        ctx = _Ctx(n_traces, memory, matrix)
        ctx.regs[Reg.R14] = np.full(n_traces, HALT_ADDRESS, dtype=_U32)
        for reg, values in regs.items():
            ctx.regs[int(reg)] = np.asarray(values, dtype=_U32)
        for address, data in mem_bytes.items():
            memory.load_per_trace(address, np.asarray(data, dtype=np.uint8))
        matrix[self._const_index] = self._const_values
        for op in self._ops:
            op(ctx)
        return TapeResult(table=PackedValues(self.layout, matrix), path=self.path)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def compile_tape(
    program: Program,
    records: list[InstrRecord],
    signature: tuple,
    keep: Iterable[tuple[int, ValueKind]] | None = None,
) -> TraceTape:
    """Compile a reference execution into a replayable :class:`TraceTape`.

    ``signature`` is the :meth:`BatchInputs.signature` of the batches the
    tape will replay: ``(registers, ((address, length), ...))``.  What it
    does not name is folded to the reference run's values.
    """
    regs = tuple(sorted(int(reg) for reg in signature[0]))
    blocks = tuple(sorted((int(address), int(length)) for address, length in signature[1]))
    layout = build_layout(records, keep)
    evaluator = _PartialEvaluator(layout, regs, blocks)
    for dyn, record in enumerate(records):
        evaluator.add(dyn, record)
    ops, checks = _live_ops(evaluator.steps)
    return TraceTape(
        program=program,
        path=[record.instr.index for record in records],
        layout=layout,
        ops=ops,
        const_rows=evaluator.const_rows,
        page_images=build_page_images(program),
        signature=(regs, blocks),
        checks=checks,
    )


# -- bounds on input-dependent values ------------------------------------
#
# A bound ``(lo, hi, tz)`` says ``lo <= v <= hi`` (as unsigned, without
# wrap-around) and that the low ``tz`` bits of ``v`` are zero.  Known
# zero low bits survive wrap-around, so they stay valid when the
# interval has to widen to the full word.

_FULL = (0, _MASK, 0)
#: byte spans wider than this are tracked as "anywhere"
_MAX_SPAN = 1 << 16
_EVERYWHERE = (0, 1 << 33)


def _ctz(value: int) -> int:
    value &= _MASK
    return 32 if value == 0 else (value & -value).bit_length() - 1


def _exact(value: int) -> tuple[int, int, int]:
    value &= _MASK
    return (value, value, _ctz(value))


def _b_add(x, y, carry: int = 0):
    tz = min(x[2], y[2]) if not carry else 0
    hi = x[1] + y[1] + carry
    if hi > _MASK:
        return (0, _MASK, tz)
    return (x[0] + y[0], hi, tz)


def _b_offset(x, offset: int):
    """``x`` plus a signed immediate."""
    tz = min(x[2], _ctz(offset))
    lo, hi = x[0] + offset, x[1] + offset
    if lo < 0 or hi > _MASK:
        return (0, _MASK, tz)
    return (lo, hi, tz)


def _b_sub(x, y):
    tz = min(x[2], y[2])
    lo = x[0] - y[1]
    if lo < 0:
        return (0, _MASK, tz)
    return (lo, x[1] - y[0], tz)


def _b_and(x, y):
    return (0, min(x[1], y[1]), max(x[2], y[2]))


def _b_or(x, y):
    """``eor``/``orr``: no bit above both operands' highest."""
    return (0, (1 << max(x[1], y[1]).bit_length()) - 1, min(x[2], y[2]))


def _b_shift(x, kind: ShiftKind | None, amount: int):
    if kind is None or (amount == 0 and kind is not ShiftKind.RRX):
        return x
    if kind is ShiftKind.LSL or kind is ShiftKind.LSR:
        if amount >= 32:
            return (0, 0, 32)
        if kind is ShiftKind.LSR:
            return (x[0] >> amount, x[1] >> amount, max(x[2] - amount, 0))
        tz = min(x[2] + amount, 32)
        hi = x[1] << amount
        return (x[0] << amount, hi, tz) if hi <= _MASK else (0, _MASK, tz)
    return _FULL


def _b_dp(op: Opcode, a, b):
    if op is Opcode.MOV:
        return b
    if op in (Opcode.AND, Opcode.TST):
        return _b_and(a, b)
    if op in (Opcode.EOR, Opcode.TEQ, Opcode.ORR):
        return _b_or(a, b)
    if op is Opcode.BIC:
        return (0, a[1], a[2])
    if op in (Opcode.ADD, Opcode.CMN):
        return _b_add(a, b)
    if op is Opcode.ADC:
        return _b_add(a, b, carry=1)
    if op in (Opcode.SUB, Opcode.CMP):
        return _b_sub(a, b)
    if op is Opcode.RSB:
        return _b_sub(b, a)
    return _FULL  # MVN, SBC


_LOGICAL = frozenset(
    (Opcode.MOV, Opcode.MVN, Opcode.AND, Opcode.TST, Opcode.EOR, Opcode.TEQ, Opcode.ORR, Opcode.BIC)
)
_ARITH = frozenset(
    (Opcode.ADD, Opcode.CMN, Opcode.ADC, Opcode.SUB, Opcode.CMP, Opcode.SBC, Opcode.RSB)
)


# -- the forward pass ------------------------------------------------------


class _Step:
    """One input-dependent op, not yet lowered to a closure.

    ``lower(**params)`` builds the closure; the backward pass calls it
    only for the steps it keeps, so the ops past a leakage window cost
    no closure at all.  ``reads``/``writes`` are the input-dependent
    registers and flags the closure reads from / writes to the replay
    context; ``mem_read`` and ``mem_write`` are the byte spans
    ``[lo, hi)`` it reads from / writes to replay memory.  A *root*
    writes a varying retained value or keeps a runtime check.
    """

    __slots__ = ("lower", "params", "root", "reads", "writes", "mem_read", "mem_write", "checks")

    def __init__(self, lower, params, root, reads, writes, mem_read, mem_write, checks):
        self.lower = lower
        self.params = params
        self.root = root
        self.reads = reads
        self.writes = writes
        self.mem_read = mem_read
        self.mem_write = mem_write
        self.checks = checks


class _PartialEvaluator:
    """Taint-tracks the records and records the input-dependent steps.

    ``regs[i]`` is the bound of register ``i`` when it depends on the
    inputs and ``None`` when it is the same in every batch; ``flags``
    holds the constant ``np.bool_`` of each of N, Z, C, V, or ``None``.
    ``mem``/``mem_all`` are the input-dependent memory bytes.

    An operand reaches a step as a *source spec*: the ``int`` index of a
    varying register, or the reference run's value as a ``np.uint32``
    (see :func:`_reg_of`).
    """

    def __init__(self, layout: PackedLayout, regs: tuple[int, ...], blocks: tuple):
        self.by_dyn = layout.by_dyn
        self.regs: list[tuple[int, int, int] | None] = [None] * 16
        for reg in regs:
            if reg != 15:  # the pc reads as a constant
                self.regs[reg] = _FULL
        self.flags: list[np.bool_ | None] = [np.False_] * 4
        self.mem: set[int] = set()
        self.mem_all = False
        for address, length in blocks:
            self._taint_mem(address, address + length)
        self.steps: list[_Step] = []
        #: matrix row -> value, for retained values no input can move
        self.const_rows: dict[int, int] = {}

    # -- state helpers -------------------------------------------------

    def _taint_mem(self, lo: int, hi: int) -> None:
        if hi - lo > _MAX_SPAN:
            self.mem_all = True
        else:
            self.mem.update(range(lo, hi))

    def _mem_tainted(self, lo: int, hi: int) -> bool:
        if self.mem_all:
            return True
        mem = self.mem
        return any(byte in mem for byte in range(lo, hi))

    def _operand(self, reg: int, value: int):
        """``(bound, source spec)`` of a register read: the bound is
        ``None`` for an input-independent read, whose spec is then the
        reference value."""
        bound = None if reg == 15 else self.regs[reg]
        if bound is None:
            return None, _U32(value & _MASK)
        return bound, reg

    def _retain(self, dyn: int, record: InstrRecord, varying) -> dict[ValueKind, int]:
        """Rows the closure writes, by canonical kind; constant rows for the rest."""
        runtime: dict[ValueKind, int] = {}
        for canonical, row in self.by_dyn.get(dyn, ()):
            if canonical in varying:
                runtime[canonical] = row
            else:
                self.const_rows[row] = getattr(record, canonical.value) & _MASK
        return runtime

    def _const_nz(self, result: int) -> None:
        self.flags[0] = np.bool_(result >> 31)
        self.flags[1] = np.bool_(result == 0)

    def _cond_check(self, cond: Cond, expected: bool):
        """``(check spec, flags read)``: a runtime check only when an
        input can move the condition; otherwise its outcome is a
        compile-time fact, proven by the reference run."""
        entry = _CONDS.get(cond)  # AL/NV: fixed outcome
        if entry is None:
            return None, ()
        varying = tuple(f for f in entry[1] if self.flags[f - _N] is None)
        if not varying:
            return None, ()
        return (cond, expected, tuple(self.flags)), varying

    def _emit(
        self,
        lower,
        params: dict,
        root: bool,
        reads=(),
        writes=(),
        mem_read=None,
        mem_write=None,
        checks=(),
    ) -> None:
        self.steps.append(_Step(lower, params, root, reads, writes, mem_read, mem_write, checks))

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
        check, check_reads = self._cond_check(instr.cond, passed)
        checks = ("condition",) if check is not None else ()
        if instr.opcode is not Opcode.BX:
            if instr.opcode is Opcode.BL and passed:
                self.regs[14] = None  # lr = return address, a constant
            if check is not None:
                self._emit(_lower_check, {"spec": check}, True, check_reads, checks=checks)
            return
        assert instr.rm is not None
        rm = int(instr.rm)
        target_b, target = self._operand(rm, record.op1)
        varying = (ValueKind.OP1,) if target_b is not None else ()
        s_op1 = self._retain(dyn, record, varying).get(ValueKind.OP1, -1)
        expected_target = record.next_pc if (passed and target_b is not None) else None
        if expected_target is not None:
            checks += ("target",)
        if not checks and s_op1 < 0:
            return
        reads = check_reads + ((rm,) if target_b is not None else ())
        params = {
            "check": check,
            "target": target,
            "s_op1": s_op1,
            "expected_target": expected_target,
        }
        self._emit(_lower_bx, params, True, reads, checks=checks)

    # -- multiply ------------------------------------------------------

    def _add_multiply(self, dyn: int, record: InstrRecord) -> None:
        instr = record.instr
        assert instr.rm is not None and instr.rs is not None
        passed = record.executed
        check, check_reads = self._cond_check(instr.cond, passed)
        rd = int(instr.rd) if instr.rd is not None else -1
        set_flags = instr.set_flags
        rm, rs = int(instr.rm), int(instr.rs)
        op1_b, op1 = self._operand(rm, record.op1)
        op2_b, op2 = self._operand(rs, record.op2)
        acc_b, acc, racc = None, None, -1
        if instr.opcode is Opcode.MLA and instr.rn is not None:
            racc = int(instr.rn)
            acc_b, acc = self._operand(racc, record.op3)
        product_varies = op1_b is not None or op2_b is not None
        compute = passed and (product_varies or acc_b is not None)
        varying = [
            kind
            for kind, bound in (
                (ValueKind.OP1, op1_b),
                (ValueKind.OP2, op2_b),
                (ValueKind.OP3, acc_b),
            )
            if bound is not None
        ]
        if compute:
            varying.append(ValueKind.RESULT)
        runtime = self._retain(dyn, record, varying)
        reads = check_reads + tuple(
            reg for reg, bound in ((rm, op1_b), (rs, op2_b), (racc, acc_b)) if bound is not None
        )
        writes: tuple[int, ...] = ()
        if passed:
            if rd >= 0:
                self.regs[rd] = _FULL if compute else None
            if set_flags:
                if compute:
                    self.flags[0] = self.flags[1] = None
                else:
                    self._const_nz(record.result)
            if compute:
                writes = ((rd,) if rd >= 0 else ()) + ((_N, _Z) if set_flags else ())
        checks = ("condition",) if check is not None else ()
        if not (runtime or checks or writes):
            return
        params = {
            "check": check,
            "op1": op1,
            "op2": op2,
            "acc": acc,
            "s_op1": runtime.get(ValueKind.OP1, -1),
            "s_op2": runtime.get(ValueKind.OP2, -1),
            "s_op3": runtime.get(ValueKind.OP3, -1),
            "s_res": runtime.get(ValueKind.RESULT, -1),
            "compute": compute,
            "product_varies": product_varies,
            "product": _U32((record.op1 * record.op2) & _MASK),
            "rd": rd,
            "set_flags": set_flags,
        }
        self._emit(_lower_multiply, params, bool(runtime or checks), reads, writes, checks=checks)

    # -- memory --------------------------------------------------------

    def _add_memory(self, dyn: int, record: InstrRecord) -> None:
        instr = record.instr
        assert instr.mem is not None
        mem_ref = instr.mem
        passed = record.executed
        check, check_reads = self._cond_check(instr.cond, passed)
        checks = ("condition",) if check is not None else ()
        base_reg = int(mem_ref.base)
        post_index = mem_ref.mode is AddrMode.POST_INDEX
        writeback = mem_ref.mode is not AddrMode.OFFSET
        width = instr.access_width
        is_load = instr.is_load
        rd = int(instr.rd) if instr.rd is not None else -1
        base_b, base = self._operand(base_reg, record.base)
        offset_reg = -1
        if mem_ref.offset_is_reg:
            offset_reg = int(mem_ref.offset)
            off_b, offset = self._operand(offset_reg, record.offset)
        else:
            off_b, offset = None, _U32(int(mem_ref.offset) & _MASK)
        reads = check_reads + tuple(
            reg for reg, bound in ((base_reg, base_b), (offset_reg, off_b)) if bound is not None
        )
        data_b, data = (None, None) if is_load else self._operand(rd, record.store_data)
        if data_b is not None:
            reads += (rd,)

        # The address: a constant, or a bound proving its page/alignment.
        addr_varies = base_b is not None or (not post_index and off_b is not None)
        step_varies = base_b is not None or off_b is not None  # writeback value
        base_bound = base_b if base_b is not None else _exact(record.base)
        if off_b is not None:
            updated = _b_add(base_bound, off_b)
        elif offset_reg >= 0:
            updated = _b_add(base_bound, _exact(record.offset))
        else:
            updated = _b_offset(base_bound, int(mem_ref.offset))
        addr = record.addr
        span = (addr, addr + width)
        page = addr >> _PAGE_BITS
        page_proven = align_proven = True
        if addr_varies:
            bound = base_bound if post_index else updated
            page_proven = bound[0] >> _PAGE_BITS == bound[1] >> _PAGE_BITS
            align_proven = width == 1 or bound[2] >= width.bit_length() - 1
            page = bound[0] >> _PAGE_BITS if page_proven else None
            span = (bound[0], bound[1] + width)
            if span[1] - span[0] > _MAX_SPAN:
                span = _EVERYWHERE
        if passed:
            if not align_proven:
                checks += ("align",)
            if not page_proven:
                checks += ("page",)

        varying = []
        if base_b is not None:
            varying.append(ValueKind.BASE)
        if off_b is not None:
            varying.append(ValueKind.OFFSET)
        if addr_varies:
            varying.append(ValueKind.ADDR)
        if data_b is not None:
            varying.append(ValueKind.STORE_DATA)
        word_span = (span[0] & ~3, ((span[1] - 1) | 3) + 1) if span is not _EVERYWHERE else span
        access = False  # does the memory access itself run at replay?
        writes: tuple[int, ...] = ()
        mem_write = None
        if passed and is_load:
            word_varies = addr_varies or self._mem_tainted(*word_span)
            value_varies = addr_varies or self._mem_tainted(*span)
            if word_varies:
                varying.append(ValueKind.MEM_WORD)
            if value_varies:
                varying.append(ValueKind.SUB_WORD)
            access = word_varies or value_varies
            if rd >= 0:
                if value_varies:
                    self.regs[rd] = {1: (0, 0xFF, 0), 2: (0, 0xFFFF, 0)}.get(width, _FULL)
                    writes += (rd,)
                else:
                    self.regs[rd] = None
        elif passed:
            if span is _EVERYWHERE:
                self.mem_all = True
            elif addr_varies or data_b is not None:
                self._taint_mem(*span)
            elif not self.mem_all:
                self.mem.difference_update(range(*span))
            if width < 4 and (addr_varies or self._mem_tainted(*word_span)):
                varying.append(ValueKind.MEM_WORD)
            if data_b is not None:
                varying.append(ValueKind.SUB_WORD)
            access = True
            mem_write = span
        if passed and writeback:
            if step_varies:
                self.regs[base_reg] = updated
                writes += (base_reg,)
            else:
                self.regs[base_reg] = None

        runtime = self._retain(dyn, record, varying)
        s_word = runtime.get(ValueKind.MEM_WORD, -1)
        mem_read = None
        if access and (is_load or s_word >= 0):
            mem_read = word_span  # a load, or a sub-word store's word read-back
        if not (runtime or checks or writes or mem_write):
            return
        params = {
            "check": check,
            "base": base,
            "offset": offset,
            "data": data,
            "s_base": runtime.get(ValueKind.BASE, -1),
            "s_off": runtime.get(ValueKind.OFFSET, -1),
            "s_addr": runtime.get(ValueKind.ADDR, -1),
            "s_data": runtime.get(ValueKind.STORE_DATA, -1),
            "s_word": s_word,
            "s_sub": runtime.get(ValueKind.SUB_WORD, -1),
            "address": None if addr_varies else addr,
            "post_index": post_index,
            "passed": passed,
            "access": access,
            "align_text": None if align_proven else str(instr),
            "page": page,
            "width": width,
            "is_load": is_load,
            "rd": rd if (is_load and rd in writes) else -1,
            "base_reg": base_reg if (passed and writeback and step_varies) else -1,
        }
        self._emit(
            _lower_memory,
            params,
            bool(runtime or checks),
            reads,
            writes,
            mem_read=mem_read,
            mem_write=mem_write,
            checks=checks,
        )

    # -- data processing -----------------------------------------------

    def _add_dp(self, dyn: int, record: InstrRecord) -> None:
        instr = record.instr
        op = instr.opcode
        passed = record.executed
        check, check_reads = self._cond_check(instr.cond, passed)
        checks = ("condition",) if check is not None else ()
        rd = int(instr.rd) if instr.rd is not None else -1
        set_flags = instr.set_flags
        writes_rd = passed and rd >= 0 and not instr.is_compare

        if op is Opcode.MOVW:
            # No register operand: result and flags are compile-time facts.
            self._retain(dyn, record, ())
            if writes_rd:
                self.regs[rd] = None
            if passed and set_flags:
                self._const_nz(record.result)
            if check is not None:
                self._emit(_lower_check, {"spec": check}, True, check_reads, checks=checks)
            return
        if op is Opcode.MOVT:
            self._add_movt(dyn, record, check, check_reads)
            return
        if op not in _LOGICAL and op not in _ARITH:
            raise ExecutionError(f"unhandled data-processing opcode {op}")

        # Operand plan.
        rn = int(instr.rn) if instr.rn is not None else -1
        a_b, a = self._operand(rn, record.op1) if rn >= 0 else (None, None)
        op2 = instr.op2
        raw_b, raw_reg = None, -1
        amt_b, amount, amt_reg = None, None, -1
        shift_kind: ShiftKind | None = None
        shift_amount = 0
        if isinstance(op2, Imm):
            raw_value = op2.unsigned
            raw = _U32(raw_value)
        else:
            assert isinstance(op2, RegShift)
            raw_value = record.op2
            raw_reg = int(op2.reg)
            raw_b, raw = self._operand(raw_reg, raw_value)
            shift_kind = op2.kind
            if op2.shift_by_register:
                amt_reg = int(op2.amount)  # type: ignore[arg-type]
                amt_b, amount = self._operand(amt_reg, record.op3)
                # An input-independent amount is the reference's: from
                # here on it is an immediate shift.
                shift_amount = record.op3
            else:
                shift_amount = int(op2.amount or 0)
        carry = self.flags[2]
        carry_varies = carry is None
        a_varies, raw_varies, amt_varies = a_b is not None, raw_b is not None, amt_b is not None
        b_varies = raw_varies or amt_varies or (shift_kind is ShiftKind.RRX and carry_varies)
        result_varies = a_varies or b_varies or (op in (Opcode.ADC, Opcode.SBC) and carry_varies)
        compute = passed and result_varies

        varying = []
        if a_varies:
            varying.append(ValueKind.OP1)
        if raw_varies:
            varying.append(ValueKind.OP2)
        if amt_varies:
            varying.append(ValueKind.OP3)
            checks += ("shift",)
        if compute:
            varying.append(ValueKind.RESULT)
            if b_varies:
                varying.append(ValueKind.SHIFTED)
        runtime = self._retain(dyn, record, varying)

        reads = check_reads + tuple(
            reg
            for reg, bound in ((rn, a_b), (raw_reg, raw_b), (amt_reg, amt_b))
            if bound is not None
        )
        reads_carry = op in (Opcode.ADC, Opcode.SBC) or shift_kind is ShiftKind.RRX or amt_varies
        if compute and reads_carry and carry_varies:
            reads += (_C,)

        # Register and flag outputs.
        writes: tuple[int, ...] = ()
        write_nz = write_c = False
        if passed:
            if writes_rd:
                if compute:
                    a_bound = a_b if a_b is not None else _exact(record.op1)
                    b_bound = raw_b if raw_b is not None else _exact(raw_value)
                    b_bound = _FULL if amt_varies else _b_shift(b_bound, shift_kind, shift_amount)
                    self.regs[rd] = _b_dp(op, a_bound, b_bound)
                    writes += (rd,)
                else:
                    self.regs[rd] = None
            if set_flags:
                write_nz, write_c, write_v = self._dp_flags(
                    record, op, compute, shift_kind, shift_amount, raw_varies, amt_varies
                )
                flag_writes = ((_N, write_nz), (_Z, write_nz), (_C, write_c), (_V, write_v))
                writes += tuple(loc for loc, written in flag_writes if written)
        if not (runtime or checks or writes):
            return
        params = {
            "check": check,
            "op": op,
            "a": a,
            "raw": raw,
            # Only the carry or the shift amount varies: run the shifter
            # and ALU on a full array, never on two numpy scalars.
            "spread_raw": compute and not (a_varies or raw_varies),
            "amount": amount if amt_varies else None,
            "shift_kind": shift_kind,
            "shift_amount": shift_amount,
            "carry": carry if reads_carry else False,
            "s_op1": runtime.get(ValueKind.OP1, -1),
            "s_op2": runtime.get(ValueKind.OP2, -1),
            "s_op3": runtime.get(ValueKind.OP3, -1),
            "s_shift": runtime.get(ValueKind.SHIFTED, -1),
            "s_res": runtime.get(ValueKind.RESULT, -1),
            "compute": compute,
            "rd": rd if (compute and writes_rd) else -1,
            "set_flags": set_flags,
            "write_nz": write_nz,
            "write_c": write_c,
        }
        self._emit(_lower_dp, params, bool(runtime or checks), reads, writes, checks=checks)

    def _dp_flags(
        self,
        record: InstrRecord,
        op: Opcode,
        compute: bool,
        shift_kind: ShiftKind | None,
        shift_amount: int,
        raw_varies: bool,
        amt_varies: bool,
    ) -> tuple[bool, bool, bool]:
        """Update the flag state of a flag-setting data-processing op.

        Returns which of N/Z, C and V the replay must write (the varying
        ones); the others become the reference run's constants.
        """
        if op in _ARITH:
            if compute:
                self.flags[:] = [None] * 4
                return True, True, True
            b = record.shifted if shift_kind is not None else record.op2
            carry = bool(self.flags[2]) if self.flags[2] is not None else False
            self.flags[:] = [np.bool_(f) for f in arith(op, record.op1, b, carry)[1]]
            return False, False, False
        if compute:
            self.flags[0] = self.flags[1] = None
        else:
            self._const_nz(record.result)
        # The shifter's carry out: untouched without a shift (or by 0).
        if shift_kind is None:
            return compute, False, False
        if amt_varies:
            self.flags[2] = None
            return compute, compute, False
        if shift_amount == 0 and shift_kind is not ShiftKind.RRX:
            return compute, False, False
        if raw_varies:
            self.flags[2] = None
            return compute, True, False
        self.flags[2] = np.bool_(barrel_shift(record.op2, shift_kind, shift_amount, False)[1])
        return compute, False, False

    def _add_movt(self, dyn: int, record: InstrRecord, check, check_reads) -> None:
        instr = record.instr
        assert isinstance(instr.op2, Imm) and instr.rd is not None
        passed = record.executed
        rd = int(instr.rd)
        set_flags = instr.set_flags
        imm = instr.op2.unsigned
        old_b, old = self._operand(rd, record.op1)
        compute = passed and old_b is not None
        varying = (ValueKind.OP1, ValueKind.RESULT) if old_b is not None else ()
        runtime = self._retain(dyn, record, varying)
        writes: tuple[int, ...] = ()
        if passed:
            if compute:
                high_bound = _exact((imm & 0xFFFF) << 16)
                self.regs[rd] = _b_add(_b_and(old_b, _exact(0xFFFF)), high_bound)
                writes = (rd,)
                if set_flags:
                    self.flags[0] = self.flags[1] = None
                    writes += (_N, _Z)
            else:
                self.regs[rd] = None
                if set_flags:
                    self._const_nz(record.result)
        checks = ("condition",) if check is not None else ()
        if not (runtime or checks or writes):
            return
        params = {
            "check": check,
            "old": old,
            "s_op1": runtime.get(ValueKind.OP1, -1),
            "s_res": runtime.get(ValueKind.RESULT, -1),
            "compute": compute,
            "high": _U32((imm & 0xFFFF) << 16),
            "rd": rd,
            "set_flags": set_flags,
        }
        reads = check_reads + ((rd,) if old_b is not None else ())
        self._emit(_lower_movt, params, bool(runtime or checks), reads, writes, checks=checks)


def _as_array(v, ctx: _Ctx) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v
    return np.full(ctx.n, v, dtype=_U32)


# -- the backward pass -----------------------------------------------------


def _live_ops(steps: list[_Step]) -> tuple[list[Callable[[_Ctx], None]], dict[str, int]]:
    """Lower the steps a root needs; returns ``(ops, runtime check counts)``.

    Walks backwards with the set of registers/flags and memory bytes a
    kept step will read: a step is kept when it is a root or writes one
    of them.  Memory writes are never treated as killing earlier ones
    (spans may overlap partially), which only keeps more.
    """
    live: set[int] = set()
    needed_bytes: set[int] = set()
    needed_all = False
    kept: list[_Step] = []
    checks: dict[str, int] = {}
    for step in reversed(steps):
        if not step.root and not live.intersection(step.writes):
            span = step.mem_write
            if span is None:
                continue
            if not needed_all:
                if span is _EVERYWHERE:
                    if not needed_bytes:
                        continue
                elif not any(byte in needed_bytes for byte in range(*span)):
                    continue
        kept.append(step)
        for kind in step.checks:
            checks[kind] = checks.get(kind, 0) + 1
        live.difference_update(step.writes)
        live.update(step.reads)
        span = step.mem_read
        if span is not None and not needed_all:
            if span is _EVERYWHERE:
                needed_all = True
            else:
                needed_bytes.update(range(*span))
    return [step.lower(**step.params) for step in reversed(kept)], checks


# -- lowering: one closure per kept step ------------------------------------


def _reg_of(spec) -> int:
    """The register a varying operand spec reads; -1 for a constant."""
    return spec if type(spec) is int else -1


def _lower_check(spec) -> Callable[[_Ctx], None] | None:
    """The uniform-condition check; ``None`` for a compile-time outcome."""
    if spec is None:
        return None
    cond, expected, (n, z, c, v) = spec
    predicate = _CONDS[cond][0]

    def check(ctx: _Ctx) -> None:
        outcome = predicate(
            ctx.fn if n is None else n,
            ctx.fz if z is None else z,
            ctx.fc if c is None else c,
            ctx.fv if v is None else v,
        )
        first = bool(outcome[0])
        if not np.all(outcome == first):
            raise ExecutionError(
                f"divergent condition {cond} across traces (control flow not uniform)"
            )
        if first != expected:
            raise TapeDivergence(f"condition {cond} resolved {first}, tape recorded {expected}")

    return check


# Each closure reads an operand as ``ctx.regs[r] if r >= 0 else const``:
# a varying register's array, or the reference value as a scalar.


def _lower_bx(check, target, s_op1: int, expected_target: int | None):
    check = _lower_check(check)
    reg = _reg_of(target)

    def bx(ctx: _Ctx) -> None:
        value = ctx.regs[reg] if reg >= 0 else target
        if s_op1 >= 0:
            ctx.M[s_op1] = value
        if check is not None:
            check(ctx)
        if expected_target is not None:
            first = int(value[0])
            if not np.all(value == value[0]):
                raise ExecutionError("divergent bx target across traces")
            if (first & ~1) & 0xFFFFFFFF != expected_target:
                raise TapeDivergence(
                    f"bx resolved {(first & ~1):#x}, tape recorded {expected_target:#x}"
                )

    return bx


def _lower_multiply(
    check, op1, op2, acc, s_op1, s_op2, s_op3, s_res, compute, product_varies, product, rd,
    set_flags,
):
    check = _lower_check(check)
    r1, r2, racc = _reg_of(op1), _reg_of(op2), _reg_of(acc)

    def multiply(ctx: _Ctx) -> None:
        M = ctx.M
        regs = ctx.regs
        x = regs[r1] if r1 >= 0 else op1
        y = regs[r2] if r2 >= 0 else op2
        if s_op1 >= 0:
            M[s_op1] = x
        if s_op2 >= 0:
            M[s_op2] = y
        if check is not None:
            check(ctx)
        if not compute:
            return
        result = x * y if product_varies else product  # wraps mod 2^32
        if acc is not None:
            z = regs[racc] if racc >= 0 else acc
            if s_op3 >= 0:
                M[s_op3] = z
            result = result + z
        if s_res >= 0:
            M[s_res] = result
        if rd >= 0:
            regs[rd] = result
        if set_flags:
            ctx.fn = (result >> _U32(31)).astype(bool)
            ctx.fz = result == 0

    return multiply


def _lower_memory(
    check, base, offset, data, s_base, s_off, s_addr, s_data, s_word, s_sub, address,
    post_index, passed, access, align_text, page, width, is_load, rd, base_reg,
):
    check = _lower_check(check)
    rbase, roff, rdata = _reg_of(base), _reg_of(offset), _reg_of(data)
    addr_varies = address is None
    const_addr = None if addr_varies else _U32(address)
    align_mask = _U32(width - 1)

    def memory(ctx: _Ctx) -> None:
        M = ctx.M
        regs = ctx.regs
        b = regs[rbase] if rbase >= 0 else base
        if s_base >= 0:
            M[s_base] = b
        o = regs[roff] if roff >= 0 else offset
        if s_off >= 0:
            M[s_off] = o
        if addr_varies:
            addr = b if post_index else b + o
            if s_addr >= 0:
                M[s_addr] = addr
        else:
            addr = const_addr
        value = regs[rdata] if rdata >= 0 else data
        if s_data >= 0:
            M[s_data] = value
        if check is not None:
            check(ctx)
        if not passed:
            return
        if access:
            if align_text is not None and np.any(addr & align_mask):
                raise ExecutionError(f"unaligned {width}-byte access in {align_text}")
            # RESULT aliases the MEM_WORD/SUB_WORD row the gather fills.
            loaded = _access(ctx, addr, value, width, is_load, M, s_word, s_sub, page)
            if rd >= 0:
                regs[rd] = loaded
        if base_reg >= 0:
            regs[base_reg] = b + o

    return memory


def _lower_dp(
    check, op, a, raw, spread_raw, amount, shift_kind, shift_amount, carry, s_op1, s_op2,
    s_op3, s_shift, s_res, compute, rd, set_flags, write_nz, write_c,
):
    check = _lower_check(check)
    ra, rraw, ramt = _reg_of(a), _reg_of(raw), _reg_of(amount)
    shift_fn = None
    if shift_kind is not None and amount is None:
        shift_fn = _compile_shift_imm(shift_kind, shift_amount)
    logical = op in _LOGICAL

    def dp(ctx: _Ctx) -> None:
        M = ctx.M
        regs = ctx.regs
        x = None
        if a is not None:
            x = regs[ra] if ra >= 0 else a
            if s_op1 >= 0:
                M[s_op1] = x
        if rraw >= 0:
            b = regs[rraw]
            if s_op2 >= 0:
                M[s_op2] = b
        elif spread_raw:
            b = np.full(ctx.n, raw, dtype=_U32)
        else:
            b = raw
        if check is not None:
            check(ctx)
        if ramt >= 0:
            amounts = regs[ramt] & _U32(0xFF)
            uniform = int(amounts[0])
            if not np.all(amounts == uniform):
                raise ExecutionError("divergent register shift amounts")
            if s_op3 >= 0:
                M[s_op3] = amounts
        if not compute:
            return
        carry_in = ctx.fc if carry is None else carry
        shifter_carry = None
        if shift_fn is not None:
            b, shifter_carry = shift_fn(b, carry_in)
        elif ramt >= 0:
            b, shifter_carry = vector_barrel_shift(b, shift_kind, uniform, carry_in)
        if s_shift >= 0:
            M[s_shift] = b
        if logical:
            if op is Opcode.MOV:
                result = b
            elif op is Opcode.MVN:
                result = ~b
            elif op in (Opcode.AND, Opcode.TST):
                result = x & b
            elif op in (Opcode.EOR, Opcode.TEQ):
                result = x ^ b
            elif op is Opcode.ORR:
                result = x | b
            else:  # BIC
                result = x & ~b
            if s_res >= 0:
                M[s_res] = result
            if rd >= 0:
                regs[rd] = result
            if write_nz:
                ctx.fn = (result >> _U32(31)).astype(bool)
                ctx.fz = result == 0
            if write_c:
                ctx.fc = _bool_array(shifter_carry, ctx.n)
            return
        # Arithmetic: every arith opcode has rn, so ``x`` is set.
        if set_flags:
            # Mirror the reference a + b' + carry uint64 formulas so
            # the C/V flags are bit-identical.
            if op in (Opcode.ADD, Opcode.CMN):
                bv, cin = b, _U64(0)
            elif op is Opcode.ADC:
                bv, cin = b, carry_in.astype(_U64)
            elif op in (Opcode.SUB, Opcode.CMP):
                bv, cin = ~b, _U64(1)
            elif op is Opcode.SBC:
                bv, cin = ~b, carry_in.astype(_U64)
            else:  # RSB: operands swap
                x, bv, cin = _as_array(b, ctx), ~x, _U64(1)
            a64 = _as_array(x, ctx).astype(_U64)
            b64 = _as_array(bv, ctx).astype(_U64)
            total = a64 + b64 + cin
            result = (total & _WORD).astype(_U32)
            if s_res >= 0:
                M[s_res] = result
            if rd >= 0:
                regs[rd] = result
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
            result = x + b
        elif op is Opcode.ADC:
            result = x + b + carry_in.astype(_U32)
        elif op in (Opcode.SUB, Opcode.CMP):
            result = x - b
        elif op is Opcode.SBC:
            result = x - b - _U32(1) + carry_in.astype(_U32)
        else:  # RSB
            result = b - x
        if s_res >= 0:
            M[s_res] = result
        if rd >= 0:
            regs[rd] = result

    return dp


def _lower_movt(check, old, s_op1, s_res, compute, high, rd, set_flags):
    check = _lower_check(check)
    reg = _reg_of(old)

    def movt(ctx: _Ctx) -> None:
        value = ctx.regs[reg] if reg >= 0 else old
        if s_op1 >= 0:
            ctx.M[s_op1] = value
        if check is not None:
            check(ctx)
        if not compute:
            return
        result = high | (value & _U32(0xFFFF))
        if s_res >= 0:
            ctx.M[s_res] = result
        ctx.regs[rd] = result
        if set_flags:
            ctx.fn = (result >> _U32(31)).astype(bool)
            ctx.fz = result == 0

    return movt


def _bool_array(flag, n: int) -> np.ndarray:
    return flag if isinstance(flag, np.ndarray) else np.full(n, bool(flag))


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
    page: int | None = None,
) -> np.ndarray | None:
    """One load/store over the batch; returns the loaded value.

    ``page`` is the page every trace's address is proven to fall on;
    ``None`` checks at run time that the batch agrees on one.
    """
    addr = _as_array(addr, ctx)
    if page is None:
        pages = addr >> _U32(12)
        page = int(pages[0])
        if not np.all(pages == page):
            raise ExecutionError("vectorized access straddles pages across traces")
    offs = addr & _U32(0xFFF)
    if is_load:
        uniform, (u8, u16, u32) = ctx.mem.read_views(page)
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
    data = _as_array(data, ctx)
    u8, u16, u32 = ctx.mem.write_views(page)
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
    if s_word >= 0:
        M[s_word] = u32[rows, offs >> _U32(2)]
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
