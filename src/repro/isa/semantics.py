"""Functional semantics of the ARM subset: one instruction at a time.

``execute_instruction`` advances an :class:`ArchState` and returns an
:class:`InstrRecord` carrying every intermediate value the power model
cares about: the operand values read from the register file, the barrel
shifter output, the result, the full 32-bit word moved through the Memory
Data Register, and the sub-word value extracted in the LSU's align buffer
(Section 4.1 of the paper).

Conditional instructions whose condition fails still *read* their operands
(they are issued and squashed late), which is exactly the behaviour the
paper infers for the Cortex-A7 ``nop``: a conditional never-execute
instruction with zero-valued operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Cond, Opcode
from repro.isa.operands import AddrMode, Imm, RegShift, ShiftKind
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.mem.memory import Memory

WORD_MASK = 0xFFFFFFFF

#: Sentinel link-register value: ``bx lr`` with this value halts execution.
HALT_ADDRESS = 0xFFFFFFFC


class ExecutionError(RuntimeError):
    """Raised for semantic errors (unaligned access, bad branch, ...)."""


@dataclass
class Flags:
    """The NZCV condition flags."""

    n: bool = False
    z: bool = False
    c: bool = False
    v: bool = False

    def copy(self) -> "Flags":
        return Flags(self.n, self.z, self.c, self.v)


@dataclass
class ArchState:
    """Architectural state: 16 registers, flags, memory and the pc."""

    memory: Memory = field(default_factory=Memory)
    regs: list[int] = field(default_factory=lambda: [0] * 16)
    flags: Flags = field(default_factory=Flags)
    pc: int = 0

    def read_reg(self, reg: Reg, instr_address: int) -> int:
        if reg is Reg.R15:
            return (instr_address + 8) & WORD_MASK  # ARM pc reads as instr+8
        return self.regs[reg]

    def write_reg(self, reg: Reg, value: int) -> None:
        self.regs[reg] = value & WORD_MASK


@dataclass
class InstrRecord:
    """All data-flow values produced by one dynamic instruction instance.

    ``op1``/``op2`` are the values asserted on the issue-stage operand
    buses (first/second source operand position); ``shifted`` is the
    barrel shifter output when the shifter is used; ``mem_word`` is the
    aligned 32-bit word moved between data cache and MDR; ``sub_word`` is
    the byte/halfword value passing through the LSU align buffer.
    """

    instr: Instruction
    dyn_index: int = -1
    executed: bool = True
    taken: bool = False
    op1: int = 0
    op2: int = 0
    op3: int = 0
    shifted: int = 0
    result: int = 0
    writes_result: bool = False
    store_data: int = 0
    addr: int = 0
    base: int = 0
    offset: int = 0
    mem_word: int = 0
    sub_word: int = 0
    next_pc: int = 0


# ----------------------------------------------------------------------
# Barrel shifter
# ----------------------------------------------------------------------


def barrel_shift(value: int, kind: ShiftKind, amount: int, carry_in: bool) -> tuple[int, bool]:
    """ARM barrel shifter: returns (result, carry_out).

    Semantics follow the ARM ARM for register-controlled amounts (0 leaves
    the value and carry untouched; amounts >= 32 saturate per shift kind).
    """
    value &= WORD_MASK
    if kind is ShiftKind.RRX:
        carry_out = bool(value & 1)
        return ((value >> 1) | (int(carry_in) << 31)) & WORD_MASK, carry_out
    if amount == 0:
        return value, carry_in
    if kind is ShiftKind.LSL:
        if amount > 32:
            return 0, False
        if amount == 32:
            return 0, bool(value & 1)
        return (value << amount) & WORD_MASK, bool((value >> (32 - amount)) & 1)
    if kind is ShiftKind.LSR:
        if amount > 32:
            return 0, False
        if amount == 32:
            return 0, bool(value >> 31)
        return value >> amount, bool((value >> (amount - 1)) & 1)
    if kind is ShiftKind.ASR:
        if amount >= 32:
            amount = 32
        sign = value >> 31
        if amount == 32:
            return (WORD_MASK if sign else 0), bool(sign)
        shifted = (value >> amount) | ((WORD_MASK << (32 - amount)) & WORD_MASK if sign else 0)
        return shifted & WORD_MASK, bool((value >> (amount - 1)) & 1)
    if kind is ShiftKind.ROR:
        amount %= 32
        if amount == 0:
            return value, bool(value >> 31)
        result = ((value >> amount) | (value << (32 - amount))) & WORD_MASK
        return result, bool(result >> 31)
    raise AssertionError(f"unhandled shift kind {kind}")


# ----------------------------------------------------------------------
# Condition evaluation
# ----------------------------------------------------------------------


def condition_passed(cond: Cond, flags: Flags) -> bool:
    n, z, c, v = flags.n, flags.z, flags.c, flags.v
    table = {
        Cond.EQ: z,
        Cond.NE: not z,
        Cond.CS: c,
        Cond.CC: not c,
        Cond.MI: n,
        Cond.PL: not n,
        Cond.VS: v,
        Cond.VC: not v,
        Cond.HI: c and not z,
        Cond.LS: not c or z,
        Cond.GE: n == v,
        Cond.LT: n != v,
        Cond.GT: not z and n == v,
        Cond.LE: z or n != v,
        Cond.AL: True,
        Cond.NV: False,
    }
    return table[cond]


# ----------------------------------------------------------------------
# Main dispatcher
# ----------------------------------------------------------------------

_LOGICAL = {Opcode.AND, Opcode.ORR, Opcode.EOR, Opcode.BIC, Opcode.MOV, Opcode.MVN,
            Opcode.TST, Opcode.TEQ}
_ARITH_ADD = {Opcode.ADD, Opcode.ADC, Opcode.CMN}
_ARITH_SUB = {Opcode.SUB, Opcode.SBC, Opcode.CMP, Opcode.RSB}


def execute_instruction(
    instr: Instruction, state: ArchState, program: Program | None = None
) -> InstrRecord:
    """Execute one instruction, mutating ``state``; returns the record."""
    record = InstrRecord(instr)
    record.next_pc = instr.address + 4
    passed = condition_passed(instr.cond, state.flags)
    record.executed = passed and not instr.is_nop

    if instr.is_nop:
        # The A7 nop asserts zero-valued operands and never executes.
        record.op1 = record.op2 = 0
    elif instr.is_branch:
        _execute_branch(instr, state, record, passed, program)
    elif instr.is_memory:
        _read_memory_operands(instr, state, record)
        if record.executed:
            _execute_memory(instr, state, record)
    elif instr.is_multiply:
        _read_multiply_operands(instr, state, record)
        if record.executed:
            _execute_multiply(instr, state, record)
    else:
        _read_dp_operands(instr, state, record)
        if record.executed:
            _execute_dp(instr, state, record)

    if record.executed and record.writes_result and instr.rd is not None:
        state.write_reg(instr.rd, record.result)
    state.pc = record.next_pc
    return record


def _read_dp_operands(instr: Instruction, state: ArchState, record: InstrRecord) -> None:
    if instr.rn is not None:
        record.op1 = state.read_reg(instr.rn, instr.address)
    if isinstance(instr.op2, RegShift):
        record.op2 = state.read_reg(instr.op2.reg, instr.address)
        if instr.op2.shift_by_register:
            # The amount register is an operand read like the others:
            # a squashed instruction still drives it (see Pipeline's
            # register-file reads), it just never reaches the shifter.
            record.op3 = state.read_reg(instr.op2.amount, instr.address) & 0xFF  # type: ignore[arg-type]
    elif isinstance(instr.op2, Imm):
        record.op2 = instr.op2.unsigned
    if instr.opcode is Opcode.MOVT and instr.rd is not None:
        record.op1 = state.read_reg(instr.rd, instr.address)


def _operand2_value(instr: Instruction, state: ArchState, record: InstrRecord) -> tuple[int, bool]:
    """Resolve <Operand2> through the barrel shifter; returns (value, carry)."""
    carry = state.flags.c
    if isinstance(instr.op2, Imm):
        return instr.op2.unsigned, carry
    assert isinstance(instr.op2, RegShift)
    op2 = instr.op2
    value = record.op2
    if not op2.is_shifted:
        return value, carry
    if op2.shift_by_register:
        amount = record.op3
    else:
        amount = op2.amount if op2.amount is not None else 0  # type: ignore[assignment]
    shifted, carry_out = barrel_shift(value, op2.kind, amount, carry)  # type: ignore[arg-type]
    record.shifted = shifted
    return shifted, carry_out


def _execute_dp(instr: Instruction, state: ArchState, record: InstrRecord) -> None:
    op = instr.opcode
    if op is Opcode.MOVW:
        assert isinstance(instr.op2, Imm)
        result = instr.op2.unsigned & 0xFFFF
        _finish_dp(instr, state, record, result, state.flags.c)
        return
    if op is Opcode.MOVT:
        assert isinstance(instr.op2, Imm)
        low = record.op1 & 0xFFFF
        result = ((instr.op2.unsigned & 0xFFFF) << 16) | low
        _finish_dp(instr, state, record, result, state.flags.c)
        return

    op2_value, shifter_carry = _operand2_value(instr, state, record)
    op1_value = record.op1
    carry_in = state.flags.c

    if op is Opcode.MOV:
        _finish_dp(instr, state, record, op2_value, shifter_carry)
    elif op is Opcode.MVN:
        _finish_dp(instr, state, record, ~op2_value & WORD_MASK, shifter_carry)
    elif op in (Opcode.AND, Opcode.TST):
        _finish_dp(instr, state, record, op1_value & op2_value, shifter_carry)
    elif op in (Opcode.EOR, Opcode.TEQ):
        _finish_dp(instr, state, record, op1_value ^ op2_value, shifter_carry)
    elif op is Opcode.ORR:
        _finish_dp(instr, state, record, op1_value | op2_value, shifter_carry)
    elif op is Opcode.BIC:
        _finish_dp(instr, state, record, op1_value & ~op2_value & WORD_MASK, shifter_carry)
    elif op in _ARITH_ADD or op in _ARITH_SUB:
        result, nzcv = arith(op, op1_value, op2_value, carry_in)
        record.result = result
        record.writes_result = not instr.is_compare
        if instr.set_flags:
            flags = state.flags
            flags.n, flags.z, flags.c, flags.v = nzcv
    else:
        raise ExecutionError(f"unhandled data-processing opcode {op}")


def _finish_dp(
    instr: Instruction,
    state: ArchState,
    record: InstrRecord,
    result: int,
    shifter_carry: bool,
) -> None:
    result &= WORD_MASK
    record.result = result
    record.writes_result = not instr.is_compare
    if instr.set_flags:
        state.flags.n = bool(result >> 31)
        state.flags.z = result == 0
        state.flags.c = shifter_carry
        # V unaffected by logical operations.


def arith(
    op: Opcode, a: int, b: int, carry_in: bool
) -> tuple[int, tuple[bool, bool, bool, bool]]:
    """Result and NZCV flags of an arithmetic opcode, ``a = rn``, ``b = <Operand2>``.

    Every opcode is one 33-bit sum ``x + y + cin`` (a subtraction adds
    the complement, ``rsb`` swaps its operands); C is the sum's carry
    out and V the signed overflow of ``x + y``.
    """
    if op in (Opcode.ADD, Opcode.CMN):
        x, y, cin = a, b, 0
    elif op is Opcode.ADC:
        x, y, cin = a, b, int(carry_in)
    elif op in (Opcode.SUB, Opcode.CMP):
        x, y, cin = a, ~b & WORD_MASK, 1
    elif op is Opcode.SBC:
        x, y, cin = a, ~b & WORD_MASK, int(carry_in)
    elif op is Opcode.RSB:
        x, y, cin = b, ~a & WORD_MASK, 1
    else:
        raise ExecutionError(f"{op} is not an arithmetic opcode")
    total = x + y + cin
    result = total & WORD_MASK
    sign_x, sign_y, sign_r = x >> 31, y >> 31, result >> 31
    return result, (
        bool(sign_r),
        result == 0,
        total > WORD_MASK,
        sign_x == sign_y and sign_x != sign_r,
    )


def _read_multiply_operands(instr: Instruction, state: ArchState, record: InstrRecord) -> None:
    assert instr.rm is not None and instr.rs is not None
    record.op1 = state.read_reg(instr.rm, instr.address)
    record.op2 = state.read_reg(instr.rs, instr.address)
    if instr.opcode is Opcode.MLA and instr.rn is not None:
        record.op3 = state.read_reg(instr.rn, instr.address)


def _execute_multiply(instr: Instruction, state: ArchState, record: InstrRecord) -> None:
    product = (record.op1 * record.op2) & WORD_MASK
    if instr.opcode is Opcode.MLA:
        product = (product + record.op3) & WORD_MASK
    record.result = product
    record.writes_result = True
    if instr.set_flags:
        state.flags.n = bool(product >> 31)
        state.flags.z = product == 0


def _read_memory_operands(instr: Instruction, state: ArchState, record: InstrRecord) -> None:
    assert instr.mem is not None
    mem = instr.mem
    record.base = state.read_reg(mem.base, instr.address)
    offset = (
        state.read_reg(mem.offset, instr.address)  # type: ignore[arg-type]
        if mem.offset_is_reg
        else int(mem.offset)
    )
    record.offset = offset & WORD_MASK
    if mem.mode is AddrMode.POST_INDEX:
        record.addr = record.base & WORD_MASK
    else:
        record.addr = (record.base + offset) & WORD_MASK
    if instr.is_store and instr.rd is not None:
        record.store_data = state.read_reg(instr.rd, instr.address)
        record.op2 = record.store_data  # store data rides the op2 issue bus


def _execute_memory(instr: Instruction, state: ArchState, record: InstrRecord) -> None:
    assert instr.mem is not None
    mem_if = state.memory
    width = instr.access_width
    addr = record.addr
    if addr % width:
        raise ExecutionError(f"unaligned {width}-byte access at {addr:#x} ({instr})")
    word_addr = addr & ~3

    if instr.is_load:
        if width == 4:
            value = mem_if.read_word(addr)
            record.mem_word = value
        elif width == 2:
            value = mem_if.read_half(addr)
            record.mem_word = mem_if.read_word(word_addr)
            record.sub_word = value
        else:
            value = mem_if.read_byte(addr)
            record.mem_word = mem_if.read_word(word_addr)
            record.sub_word = value
        record.result = value
        record.writes_result = True
    else:
        data = record.store_data
        if width == 4:
            mem_if.write_word(addr, data)
            record.mem_word = data & WORD_MASK
        elif width == 2:
            mem_if.write_half(addr, data)
            record.mem_word = mem_if.read_word(word_addr)
            record.sub_word = data & 0xFFFF
        else:
            mem_if.write_byte(addr, data)
            record.mem_word = mem_if.read_word(word_addr)
            record.sub_word = data & 0xFF

    if instr.mem.mode is not AddrMode.OFFSET:
        offset = (
            state.read_reg(instr.mem.offset, instr.address)  # type: ignore[arg-type]
            if instr.mem.offset_is_reg
            else int(instr.mem.offset)
        )
        state.write_reg(instr.mem.base, record.base + offset)


def _execute_branch(
    instr: Instruction,
    state: ArchState,
    record: InstrRecord,
    passed: bool,
    program: Program | None,
) -> None:
    record.executed = passed
    record.taken = False
    if instr.opcode is Opcode.BX:
        assert instr.rm is not None
        record.op1 = state.read_reg(instr.rm, instr.address)
        if passed:
            record.taken = True
            record.next_pc = record.op1 & ~1 & WORD_MASK
        return
    if not passed:
        return
    record.taken = True
    if instr.opcode is Opcode.BL:
        state.write_reg(Reg.R14, instr.address + 4)
    assert instr.target is not None
    if program is None:
        raise ExecutionError(f"cannot resolve branch target {instr.target} without a program")
    record.next_pc = program.label_address(instr.target.name)
