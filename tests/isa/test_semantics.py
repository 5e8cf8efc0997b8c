"""Functional semantics: barrel shifter, flags, arithmetic, memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.operands import ShiftKind
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.isa.semantics import barrel_shift, condition_passed, Flags
from repro.isa.executor import run_program
from repro.isa.opcodes import Cond

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def run_regs(src: str, **regs):
    """Assemble, run with initial registers, return final state."""
    initial = {Reg.parse(name): value for name, value in regs.items()}
    return run_program(assemble(src + "\n    bx lr"), regs=initial)


class TestBarrelShifter:
    @given(U32, st.integers(min_value=1, max_value=31))
    def test_lsl_matches_python(self, value, amount):
        result, _ = barrel_shift(value, ShiftKind.LSL, amount, False)
        assert result == (value << amount) & 0xFFFFFFFF

    @given(U32, st.integers(min_value=1, max_value=31))
    def test_lsr_matches_python(self, value, amount):
        result, _ = barrel_shift(value, ShiftKind.LSR, amount, False)
        assert result == value >> amount

    @given(U32, st.integers(min_value=1, max_value=31))
    def test_asr_matches_python(self, value, amount):
        result, _ = barrel_shift(value, ShiftKind.ASR, amount, False)
        signed = value - (1 << 32) if value >> 31 else value
        assert result == (signed >> amount) & 0xFFFFFFFF

    @given(U32, st.integers(min_value=1, max_value=31))
    def test_ror_rotates(self, value, amount):
        result, _ = barrel_shift(value, ShiftKind.ROR, amount, False)
        expected = ((value >> amount) | (value << (32 - amount))) & 0xFFFFFFFF
        assert result == expected

    def test_amount_zero_preserves_carry(self):
        result, carry = barrel_shift(0x1234, ShiftKind.LSL, 0, True)
        assert result == 0x1234 and carry is True

    def test_lsl_32_carry_is_bit0(self):
        assert barrel_shift(1, ShiftKind.LSL, 32, False) == (0, True)
        assert barrel_shift(2, ShiftKind.LSL, 32, False) == (0, False)

    def test_lsr_32_carry_is_bit31(self):
        assert barrel_shift(0x80000000, ShiftKind.LSR, 32, False) == (0, True)

    def test_asr_32_saturates_to_sign(self):
        assert barrel_shift(0x80000000, ShiftKind.ASR, 32, False) == (0xFFFFFFFF, True)
        assert barrel_shift(0x7FFFFFFF, ShiftKind.ASR, 32, False) == (0, False)

    def test_rrx_shifts_in_carry(self):
        result, carry = barrel_shift(0x3, ShiftKind.RRX, 0, True)
        assert result == 0x80000001 and carry is True

    @given(U32)
    def test_ror_by_32_is_identity_carry_msb(self, value):
        result, carry = barrel_shift(value, ShiftKind.ROR, 32, False)
        assert result == value
        assert carry == bool(value >> 31)


class TestArithmetic:
    @given(U32, U32)
    @settings(max_examples=40)
    def test_add(self, a, b):
        state = run_regs("add r0, r1, r2", r1=a, r2=b)
        assert state.register(Reg.R0) == (a + b) & 0xFFFFFFFF

    @given(U32, U32)
    @settings(max_examples=40)
    def test_sub(self, a, b):
        state = run_regs("sub r0, r1, r2", r1=a, r2=b)
        assert state.register(Reg.R0) == (a - b) & 0xFFFFFFFF

    @given(U32, U32)
    @settings(max_examples=40)
    def test_rsb(self, a, b):
        state = run_regs("rsb r0, r1, r2", r1=a, r2=b)
        assert state.register(Reg.R0) == (b - a) & 0xFFFFFFFF

    @given(U32, U32)
    @settings(max_examples=40)
    def test_logical_ops(self, a, b):
        for op, fn in [("and", lambda x, y: x & y), ("orr", lambda x, y: x | y),
                       ("eor", lambda x, y: x ^ y), ("bic", lambda x, y: x & ~y & 0xFFFFFFFF)]:
            state = run_regs(f"{op} r0, r1, r2", r1=a, r2=b)
            assert state.register(Reg.R0) == fn(a, b), op

    @given(U32, U32)
    @settings(max_examples=40)
    def test_mul(self, a, b):
        state = run_regs("mul r0, r1, r2", r1=a, r2=b)
        assert state.register(Reg.R0) == (a * b) & 0xFFFFFFFF

    @given(U32, U32, U32)
    @settings(max_examples=40)
    def test_mla(self, a, b, c):
        state = run_regs("mla r0, r1, r2, r3", r1=a, r2=b, r3=c)
        assert state.register(Reg.R0) == (a * b + c) & 0xFFFFFFFF

    def test_mvn(self):
        state = run_regs("mvn r0, r1", r1=0x0F0F0F0F)
        assert state.register(Reg.R0) == 0xF0F0F0F0

    def test_adc_sbc_use_carry(self):
        src = "adds r0, r1, r2\n    adc r3, r4, r5"
        state = run_regs(src, r1=0xFFFFFFFF, r2=1, r4=10, r5=20)
        assert state.register(Reg.R3) == 31  # carry from the adds
        src = "subs r0, r1, r2\n    sbc r3, r4, r5"
        state = run_regs(src, r1=5, r2=3, r4=10, r5=2)
        assert state.register(Reg.R3) == 8  # no borrow -> full subtract

    def test_movw_movt_compose(self):
        state = run_regs("movw r0, #0x5678\n    movt r0, #0x1234")
        assert state.register(Reg.R0) == 0x12345678


class TestFlags:
    def test_zero_and_negative(self):
        state = run_regs("subs r0, r1, r2", r1=5, r2=5)
        assert state.state.flags.z and not state.state.flags.n
        state = run_regs("subs r0, r1, r2", r1=3, r2=5)
        assert state.state.flags.n and not state.state.flags.z

    def test_carry_on_subtraction_means_no_borrow(self):
        assert run_regs("subs r0, r1, r2", r1=5, r2=3).state.flags.c
        assert not run_regs("subs r0, r1, r2", r1=3, r2=5).state.flags.c

    def test_overflow(self):
        state = run_regs("adds r0, r1, r2", r1=0x7FFFFFFF, r2=1)
        assert state.state.flags.v
        state = run_regs("adds r0, r1, r2", r1=1, r2=1)
        assert not state.state.flags.v

    def test_cmp_writes_no_register(self):
        state = run_regs("mov r0, #7\n    cmp r0, #7")
        assert state.register(Reg.R0) == 7
        assert state.state.flags.z

    @pytest.mark.parametrize(
        "cond,flags,expected",
        [
            (Cond.EQ, Flags(z=True), True),
            (Cond.NE, Flags(z=True), False),
            (Cond.CS, Flags(c=True), True),
            (Cond.MI, Flags(n=True), True),
            (Cond.GE, Flags(n=True, v=True), True),
            (Cond.LT, Flags(n=True, v=False), True),
            (Cond.GT, Flags(), True),
            (Cond.LE, Flags(z=True), True),
            (Cond.HI, Flags(c=True, z=False), True),
            (Cond.LS, Flags(c=True, z=False), False),
            (Cond.AL, Flags(), True),
            (Cond.NV, Flags(), False),
        ],
    )
    def test_condition_table(self, cond, flags, expected):
        assert condition_passed(cond, flags) is expected


class TestConditionalExecution:
    def test_failed_condition_skips_write(self):
        state = run_regs("cmp r1, #0\n    movne r0, #1\n    moveq r2, #2", r1=0)
        assert state.register(Reg.R0) == 0  # ne failed
        assert state.register(Reg.R2) == 2  # eq passed

    def test_branch_conditions(self):
        src = """
        cmp r1, #10
        bne not_ten
        mov r0, #1
        bx lr
    not_ten:
        mov r0, #2
        """
        assert run_regs(src, r1=10).register(Reg.R0) == 1
        assert run_regs(src, r1=11).register(Reg.R0) == 2

    def test_squashed_register_shift_still_reads_its_amount(self):
        """A squashed instruction reads every operand register (the
        pipeline drives them all onto the register-file read ports),
        including a register shift amount; it never reaches the shifter."""
        src = "mov r5, #0x103\n    cmp r1, r1\n    movne r0, r1, lsl r5\n    bx lr"
        records = run_program(assemble(src), regs={Reg.R1: 0x55}).records
        squashed = records[2]
        assert not squashed.executed
        assert (squashed.op2, squashed.op3, squashed.shifted) == (0x55, 0x03, 0)


class TestMemoryAccess:
    def test_word_round_trip(self):
        src = "str r1, [r2]\n    ldr r0, [r2]"
        state = run_regs(src, r1=0xCAFEBABE, r2=0x9000)
        assert state.register(Reg.R0) == 0xCAFEBABE

    def test_byte_and_half_zero_extend(self):
        src = "str r1, [r2]\n    ldrb r0, [r2]\n    ldrh r3, [r2]"
        state = run_regs(src, r1=0xA1B2C3D4, r2=0x9000)
        assert state.register(Reg.R0) == 0xD4
        assert state.register(Reg.R3) == 0xC3D4

    def test_strb_touches_one_byte(self):
        src = "str r1, [r2]\n    strb r3, [r2, #1]\n    ldr r0, [r2]"
        state = run_regs(src, r1=0x11223344, r2=0x9000, r3=0xAB)
        assert state.register(Reg.R0) == 0x1122AB44

    def test_post_index_updates_base(self):
        src = "str r1, [r2], #4"
        state = run_regs(src, r1=7, r2=0x9000)
        assert state.register(Reg.R2) == 0x9004
        assert state.state.memory.read_word(0x9000) == 7

    def test_pre_index_updates_base(self):
        src = "str r1, [r2, #4]!"
        state = run_regs(src, r1=7, r2=0x9000)
        assert state.register(Reg.R2) == 0x9004
        assert state.state.memory.read_word(0x9004) == 7

    def test_unaligned_word_access_raises(self):
        from repro.isa.semantics import ExecutionError

        with pytest.raises(ExecutionError):
            run_regs("ldr r0, [r1]", r1=0x9001)

    def test_record_mem_word_for_subword_store(self):
        program = assemble("str r1, [r2]\n    strb r3, [r2, #1]\n    bx lr")
        result = run_program(program, regs={Reg.R1: 0x11223344, Reg.R2: 0x9000, Reg.R3: 0xAB})
        strb_record = result.records[1]
        assert strb_record.mem_word == 0x1122AB44
        assert strb_record.sub_word == 0xAB


class TestPcReads:
    def test_pc_reads_as_instruction_plus_8(self):
        program = assemble("mov r0, pc\n    bx lr")
        result = run_program(program)
        assert result.register(Reg.R0) == program.text_base + 8
