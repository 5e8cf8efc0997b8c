"""Trace-compiled tape: equivalence with the scalar reference executor.

The tape is compiled from one reference execution and replayed for a
batch; its packed value matrix must agree bit-for-bit with
``ValueTable.from_records`` over one scalar run per trace, for every
``(dyn_index, kind)`` slot of the tape's layout — across every opcode
class, shifts, sub-word memory, table lookups, squashed conditionals,
branches and loops — and every value the layout leaves out must be zero
in the scalar records.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.executor import Executor
from repro.isa.operands import ShiftKind
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.isa.semantics import ExecutionError, barrel_shift
from repro.isa.values import ValueKind, ValueTable
from repro.isa.vtrace import (
    TapeDivergence,
    compile_tape,
    iter_page_chunks,
    vector_barrel_shift,
)

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

#: straight-line template programs exercising every instruction family
TEMPLATES = [
    "add r0, r1, r2\n    sub r3, r0, r1\n    eor r4, r3, r2",
    "mov r0, r1, lsl #3\n    orr r2, r0, r1, lsr #5\n    mvn r3, r2",
    "mul r0, r1, r2\n    mla r3, r0, r1, r2",
    "adds r0, r1, r2\n    adc r3, r1, r2\n    sbc r4, r2, r1",
    "movw r0, #0x9000\n    str r1, [r0]\n    ldr r2, [r0]\n    ldrb r3, [r0, #1]",
    "movw r0, #0x9000\n    strh r1, [r0]\n    ldrh r2, [r0]\n    strb r1, [r0, #2]",
    "cmp r1, r2\n    mov r0, #1",
    "and r0, r1, r2, ror #7\n    bic r3, r1, r0",
    "rsb r0, r1, #100\n    add r2, r0, r1, asr #2",
    "movw r4, #0x9100\n    strb r1, [r4], #1\n    strb r2, [r4, #1]!\n    ldrb r5, [r4, #-1]",
    "mov r5, #12\n    mov r0, r1, lsl r5\n    movt r1, #0xBEEF",
    "mvn r0, r1, rrx\n    adds r2, r0, r1\n    mov r3, r1, ror #31",
]

#: templates with conditionally executed (squashed) instructions; the
#: inputs keep the condition outcomes uniform across traces
CONDITIONAL_TEMPLATES = [
    "subs r3, r1, r2\n    addge r0, r1, #5\n    addlt r0, r2, #7",
    "subs r3, r1, r2\n    movge r0, r1\n    movlt r0, r2\n    eorlt r4, r1, r2, lsl #3",
    "subs r3, r1, r2\n    mov r5, #3\n    movlt r0, r1, lsl r5\n    addge r0, r1, r2",
    "cmp r1, r1\n    beq skip\n    mov r0, #9\nskip:\n    mvn r6, r1",
]

LOOP_SRC = """
    mov r0, #0
    mov r3, #4
loop:
    add r0, r0, r1
    subs r3, r3, #1
    bne loop
    bx lr
"""

#: taken for every r1 != 100; a batch mixing r1 == 100 with others diverges
BRANCH_SRC = """
    cmp r1, #100
    bne skip
    mov r0, #1
skip:
    bx lr
"""

#: a per-trace index into a table the program image initializes
TABLE_LOOKUP_SRC = """
    movw r4, #0xA000
    ldrb r0, [r4, r1]
    ldr r2, [r4, r2]
    bx lr
    .org 0xA000
table:
    .byte 0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5
    .byte 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76
"""


def scalar_reference(program, row):
    executor = Executor(program)
    state = executor.fresh_state()
    for reg, value in row.items():
        state.regs[reg] = value
    return executor.run(state=state)


def reference_table(program, rows):
    """``ValueTable`` and dynamic path of one scalar run per input row."""
    runs = [scalar_reference(program, row) for row in rows]
    return ValueTable.from_records([run.records for run in runs]), runs[0].path


def signature(regs=(), mem=()):
    """A ``BatchInputs.signature()``-shaped tuple: varying registers and
    ``(address, length)`` memory blocks."""
    return (tuple(sorted(int(reg) for reg in regs)), tuple(sorted(mem)))


def batch_regs(rows):
    return {
        reg: np.array([row[reg] for row in rows], dtype=np.uint32) for reg in rows[0]
    }


def tape_batch(program, rows, keep=None):
    records = scalar_reference(program, rows[0]).records
    tape = compile_tape(program, records, signature(rows[0]), keep=keep)
    return tape, tape.run(len(rows), regs=batch_regs(rows))


def assert_replay_matches(tape, result, program, rows):
    """Every layout slot equals the scalar reference; the rest is zero there."""
    reference, path = reference_table(program, rows)
    assert result.path == path
    assert tape.n_dyn == reference.n_dyn
    for (dyn, kind), row in tape.layout.slots.items():
        assert np.array_equal(result.table.matrix[row], reference.values(dyn, kind)), (
            f"dyn {dyn} {kind}"
        )
    for dyn in range(tape.n_dyn):
        for kind in ValueKind:
            if (dyn, kind) not in tape.layout.slots:
                assert not np.any(reference.values(dyn, kind)), (
                    f"dyn {dyn} {kind}: scalar nonzero, tape absent"
                )


def assert_tables_match(program, rows):
    tape, result = tape_batch(program, rows)
    assert_replay_matches(tape, result, program, rows)


@st.composite
def template_and_inputs(draw):
    template = draw(st.sampled_from(TEMPLATES))
    n_traces = draw(st.integers(min_value=1, max_value=5))
    rows = [
        {Reg.R1: draw(U32), Reg.R2: draw(U32)} for _ in range(n_traces)
    ]
    return template, rows


@st.composite
def conditional_template_and_inputs(draw):
    template = draw(st.sampled_from(CONDITIONAL_TEMPLATES))
    n_traces = draw(st.integers(min_value=1, max_value=5))
    # r1 > r2 (as signed and unsigned) for every trace, so flag-driven
    # conditions resolve uniformly; vary the low bits freely.
    rows = []
    for _ in range(n_traces):
        r1 = draw(st.integers(min_value=2**20, max_value=2**29))
        r2 = draw(st.integers(min_value=0, max_value=2**19))
        rows.append({Reg.R1: r1, Reg.R2: r2})
    return template, rows


class TestEquivalence:
    @given(template_and_inputs())
    @settings(max_examples=60, deadline=None)
    def test_packed_values_match_scalar_reference(self, case):
        template, rows = case
        program = assemble(template + "\n    bx lr")
        assert_tables_match(program, rows)

    @given(conditional_template_and_inputs())
    @settings(max_examples=40, deadline=None)
    def test_squashed_conditionals_match(self, case):
        template, rows = case
        program = assemble(template + "\n    bx lr")
        assert_tables_match(program, rows)

    def test_loop_replay_matches(self):
        program = assemble(LOOP_SRC)
        rows = [{Reg.R1: v, Reg.R2: 0} for v in (1, 2, 3)]
        assert_tables_match(program, rows)
        _tape, result = tape_batch(program, rows)
        # the last add's RESULT is the final accumulator, 4 * r1
        adds = [d for d, index in enumerate(result.path) if index == 2]
        final = result.table.values(adds[-1], ValueKind.RESULT)
        assert [int(v) for v in final] == [4, 8, 12]

    def test_uniform_branch_matches(self):
        program = assemble(BRANCH_SRC)
        assert_tables_match(program, [{Reg.R1: 5}, {Reg.R1: 6}])  # both taken
        assert_tables_match(program, [{Reg.R1: 100}, {Reg.R1: 100}])  # neither

    def test_table_lookup_matches(self):
        program = assemble(TABLE_LOOKUP_SRC)
        rows = [{Reg.R1: i, Reg.R2: 4 * (i % 4)} for i in range(16)]
        assert_tables_match(program, rows)

    def test_final_registers_match_scalar(self):
        program = assemble(TEMPLATES[0] + "\n    bx lr")
        rows = [{Reg.R1: 7, Reg.R2: 11}, {Reg.R1: 100, Reg.R2: 3}]
        tape, result = tape_batch(program, rows)
        for index, row in enumerate(rows):
            scalar = scalar_reference(program, row)
            for dyn, record in enumerate(scalar.records):
                packed = result.table.values(dyn, ValueKind.RESULT)
                if packed is not None:
                    assert int(packed[index]) == record.result

    def test_per_trace_table_lookup(self):
        src = """
        movw r4, #0xA000
        ldrb r0, [r4, r1]
        bx lr
        """
        program = assemble(src)
        rows = [{Reg.R1: 3 * i} for i in range(8)]
        records = scalar_reference(program, rows[0]).records
        tape = compile_tape(program, records, signature([Reg.R1]))
        # uniform page image: the table is shared, never materialized
        regs = {Reg.R1: np.array([r[Reg.R1] for r in rows], dtype=np.uint32)}
        result = tape.run(len(rows), regs=regs)
        sub = result.table.values(1, ValueKind.SUB_WORD)
        assert sub is not None
        assert np.all(sub == 0)  # page starts zeroed

    def test_mem_inputs_roundtrip(self):
        src = """
        movw r4, #0x9000
        ldrb r0, [r4, r1]
        bx lr
        """
        program = assemble(src)
        n = 6
        data = np.arange(n * 4, dtype=np.uint8).reshape(n, 4)
        indices = np.array([0, 1, 2, 3, 0, 2], dtype=np.uint32)
        records = scalar_reference(program, {Reg.R1: int(indices[0])}).records
        tape = compile_tape(program, records, signature([Reg.R1], [(0x9000, 4)]))
        result = tape.run(n, regs={Reg.R1: indices}, mem_bytes={0x9000: data})
        loaded = result.table.values(1, ValueKind.RESULT)
        assert loaded is not None
        expected = data[np.arange(n), indices]
        assert np.array_equal(loaded, expected.astype(np.uint32))


class TestKeepLayout:
    def test_keep_restricts_slots(self):
        program = assemble("mov r0, r1\n    mov r2, r1\n    mov r3, r1\n    bx lr")
        rows = [{Reg.R1: 7}, {Reg.R1: 9}]
        tape_full, full = tape_batch(program, rows)
        keep = {(1, ValueKind.OP2)}
        tape_kept, kept = tape_batch(program, rows, keep=keep)
        assert tape_kept.layout.n_slots < tape_full.layout.n_slots
        assert kept.table.values(0, ValueKind.OP2) is None
        assert kept.table.values(2, ValueKind.OP2) is None
        vals = kept.table.values(1, ValueKind.OP2)
        assert vals is not None and [int(v) for v in vals] == [7, 9]

    def test_alias_kinds_share_rows(self):
        program = assemble("movw r0, #0x9000\n    str r1, [r0]\n    bx lr")
        rows = [{Reg.R1: 0xDEADBEEF}]
        tape, result = tape_batch(program, rows)
        layout = tape.layout
        # a store's OP2, STORE_DATA and MEM_WORD are the same array
        assert layout.slots[(1, ValueKind.OP2)] == layout.slots[(1, ValueKind.STORE_DATA)]
        assert layout.slots[(1, ValueKind.MEM_WORD)] == layout.slots[(1, ValueKind.STORE_DATA)]


class TestDivergence:
    def test_other_uniform_direction_raises_tape_divergence(self):
        program = assemble(BRANCH_SRC)
        records = scalar_reference(program, {Reg.R1: 100}).records
        tape = compile_tape(program, records, signature([Reg.R1]))
        with pytest.raises(TapeDivergence):
            tape.run(3, regs={Reg.R1: np.full(3, 5, dtype=np.uint32)})

    def test_cross_trace_divergence_raises_execution_error(self):
        program = assemble(BRANCH_SRC)
        records = scalar_reference(program, {Reg.R1: 100}).records
        tape = compile_tape(program, records, signature([Reg.R1]))
        with pytest.raises(ExecutionError) as excinfo:
            tape.run(2, regs={Reg.R1: np.array([100, 5], dtype=np.uint32)})
        assert not isinstance(excinfo.value, TapeDivergence)

    def test_divergent_bx_target_raises(self):
        program = assemble("bx lr")
        records = scalar_reference(program, {}).records
        tape = compile_tape(program, records, signature([Reg.R14]))
        lr = np.array([0xFFFFFFFC, 0x8000], dtype=np.uint32)
        with pytest.raises(ExecutionError):
            tape.run(2, regs={Reg.R14: lr})

    def test_page_straddle_raises(self):
        src = """
        movw r4, #0x9F00
        ldrb r0, [r4, r1]
        bx lr
        """
        program = assemble(src)
        records = scalar_reference(program, {Reg.R1: 0}).records
        tape = compile_tape(program, records, signature([Reg.R1]))
        offs = np.array([0, 0x200], dtype=np.uint32)  # 0x9F00 vs 0xA100
        with pytest.raises(ExecutionError):
            tape.run(2, regs={Reg.R1: offs})


class TestReplayReuse:
    def test_tape_replays_for_chunked_batches(self):
        """One tape serves batches of different sizes (streaming chunks)."""
        program = assemble(TEMPLATES[4] + "\n    bx lr")
        rows = [{Reg.R1: 11 * i + 1, Reg.R2: 0} for i in range(7)]
        records = scalar_reference(program, rows[0]).records
        tape = compile_tape(program, records, signature(rows[0]))
        for chunk in (rows[:4], rows[4:]):
            result = tape.run(len(chunk), regs=batch_regs(chunk))
            assert_replay_matches(tape, result, program, chunk)


class TestHelpers:
    @pytest.mark.parametrize("kind", list(ShiftKind))
    def test_vector_barrel_shift_matches_scalar(self, kind):
        """Run-time shifts agree with the scalar barrel shifter, carry too."""
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.integers(0, 1 << 32, size=64, dtype=np.uint64),
            np.array([0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF], dtype=np.uint64),
        ]).astype(np.uint32)
        carry_in = rng.integers(0, 2, size=values.size).astype(bool)
        amounts = [0] if kind is ShiftKind.RRX else [0, 1, 5, 31, 32, 33, 40, 255]
        for amount in amounts:
            result, carry = vector_barrel_shift(values, kind, amount, carry_in)
            for i, value in enumerate(values):
                want = barrel_shift(int(value), kind, amount, bool(carry_in[i]))
                assert (int(result[i]), bool(carry[i])) == want, (kind, amount, hex(int(value)))

    def test_iter_page_chunks_split_at_page_boundaries(self):
        """Spans tile the range in order and never cross a 4 KiB page."""
        for address, length in [(0x9000, 16), (0x9FF0, 0x20), (0x8FFF, 0x2002), (0x1234, 0)]:
            spans = list(iter_page_chunks(address, length))
            pos = 0
            for page_no, offset, data_offset, chunk in spans:
                assert data_offset == pos
                assert (page_no << 12) + offset == address + pos
                assert 0 < chunk and offset + chunk <= 4096
                pos += chunk
            assert pos == length
            assert len(spans) == len({span[0] for span in spans})


# ----------------------------------------------------------------------
# Partial evaluation: folding against the input signature
# ----------------------------------------------------------------------

#: varying inputs of the random programs: two registers and a 16-byte
#: block; r10/r11/r12 hold the block, a scratch buffer and a table base
INPUT_REGS = (Reg.R1, Reg.R2)
INPUT_BLOCK = (0x9000, 16)
FOLD_SIGNATURE = signature(INPUT_REGS, [INPUT_BLOCK])
#: every register and every page the random programs touch varies
ALL_VARYING = signature(range(16), [(0x9000, 4096), (0xA000, 4096)])
PROLOGUE = "movw r10, #0x9000\n    movt r10, #0\n    movw r11, #0x9100\n    movw r12, #0xA000"
TABLE = "    .org 0xA000\n" + "\n".join(
    "    .byte " + ", ".join(str((37 * i + 11 * j + 5) & 0xFF) for j in range(16))
    for i in range(16)
)
DATA_REGS = st.sampled_from(["r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8"])
DP_OPS = ["add", "sub", "rsb", "eor", "orr", "and", "bic", "adc", "sbc"]
#: conditions that a flag setter of the same snippet decides uniformly
ANY_COND = ["eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le"]
NZ_COND = ["eq", "ne", "mi", "pl"]


@st.composite
def operand2(draw):
    kind = draw(st.sampled_from(["imm", "reg", "shift", "rrx"]))
    if kind == "imm":
        return f"#{draw(st.integers(0, 0xFF)) << draw(st.sampled_from([0, 8, 24]))}"
    reg = draw(DATA_REGS)
    if kind == "reg":
        return reg
    if kind == "rrx":
        return f"{reg}, rrx"
    shift = draw(st.sampled_from(["lsl", "lsr", "asr", "ror"]))
    return f"{reg}, {shift} #{draw(st.integers(1, 31))}"


@st.composite
def snippet(draw):
    """A few instructions of one family; every address and every
    condition stays uniform across traces whatever the inputs."""
    rd, rn, rm, rx = (draw(DATA_REGS) for _ in range(4))
    family = draw(
        st.sampled_from(
            ["dp", "flags", "carry", "mul", "movt", "regshift", "const_mem", "lookup",
             "tainted_store", "writeback", "conditional"]
        )
    )
    if family == "dp":
        op = draw(st.sampled_from(DP_OPS + ["mov", "mvn"]))
        s = draw(st.sampled_from(["", "s"]))
        if op in ("mov", "mvn"):
            return [f"{op}{s} {rd}, {draw(operand2())}"]
        return [f"{op}{s} {rd}, {rn}, {draw(operand2())}"]
    if family == "flags":
        op = draw(st.sampled_from(["cmp", "cmn", "tst", "teq"]))
        return [f"{op} {rn}, {draw(operand2())}"]
    if family == "carry":
        # a carry set from both inputs or from constants, read by an op
        # on an input that may set the flags itself
        op = draw(st.sampled_from(["adds", "subs", "rsbs", "adcs", "sbcs"]))
        if draw(st.booleans()):
            setter = [f"{op} {rd}, {draw(st.sampled_from(['r1, r2', 'r2, r1']))}"]
        else:
            value = draw(st.integers(0, 0xFFFF))
            setter = [f"movw {rd}, #{value}", f"{op} {rd}, {rd}, #{draw(st.integers(0, 255))}"]
        source = draw(st.sampled_from(["r1", "r2", rm]))
        reader = draw(st.sampled_from([
            f"adc{draw(st.sampled_from(['', 's']))} {rx}, {source}, {rn}",
            f"sbc{draw(st.sampled_from(['', 's']))} {rx}, {source}, {rn}",
            f"mov{draw(st.sampled_from(['', 's']))} {rx}, {source}, rrx",
            f"movs {rx}, {source}, lsl #1",
        ]))
        return [*setter, reader]
    if family == "mul":
        if draw(st.booleans()):
            return [f"mul{draw(st.sampled_from(['', 's']))} {rd}, {rn}, {rm}"]
        return [f"mla {rd}, {rn}, {rm}, {rx}"]
    if family == "movt":
        # a constant address built from movw/movt, or a varying OP1
        if draw(st.booleans()):
            return [f"movw {rd}, #{draw(st.integers(0, 0xFFFF))}", f"movt {rd}, #0"]
        return [f"movt {rd}, #{draw(st.integers(0, 0xFFFF))}"]
    if family == "regshift":
        # the amount register is uniform: a constant, or varying-but-zero
        amount = draw(st.sampled_from([
            f"mov {rx}, #{draw(st.integers(0, 40))}",
            f"and {rx}, {rn}, #0",
        ]))
        shift = draw(st.sampled_from(["lsl", "lsr", "asr", "ror"]))
        op = draw(st.sampled_from(["mov", "movs", "add", "eors"]))
        operands = f"{rm}, {shift} {rx}"
        if not op.startswith("mov"):
            operands = f"{rn}, {operands}"
        return [amount, f"{op} {rd}, {operands}"]
    if family == "const_mem":
        op, width = draw(st.sampled_from(
            [("ldr", 4), ("ldrb", 1), ("ldrh", 2), ("str", 4), ("strb", 1), ("strh", 2)]
        ))
        base, size = draw(st.sampled_from([("r10", 16), ("r11", 32)]))
        offset = draw(st.integers(0, size // width - 1)) * width
        return [f"{op} {rd}, [{base}, #{offset}]"]
    if family == "lookup":
        variant = draw(st.sampled_from(["byte", "word", "unbounded"]))
        if variant == "unbounded":
            # a uniform index no bound proves: page and alignment checked at replay
            return [f"sub {rx}, {rn}, {rn}", f"ldr {rd}, [r12, {rx}]"]
        if variant == "word":
            return [f"and {rx}, {rn}, #0x3C", f"ldr {rd}, [r12, {rx}]"]
        # byte-bounded indices into the page-aligned table
        index = draw(st.sampled_from([
            [f"and {rx}, {rn}, #0xFF"],
            [f"ldrb {rx}, [r10, #{draw(st.integers(0, 15))}]"],
            [f"eor {rx}, {rn}, {rm}", f"and {rx}, {rx}, #0xFF"],
        ]))
        return [*index, f"ldrb {rd}, [r12, {rx}]"]
    if family == "tainted_store":
        store, width = draw(st.sampled_from([("str", 4), ("strb", 1), ("strh", 2)]))
        mask = {4: "#0xC", 2: "#0xE", 1: "#0xF"}[width]
        load, offset = draw(st.sampled_from([("ldr", 4), ("ldrb", 5), ("ldrh", 6)]))
        lines = [
            f"and {rx}, {rn}, {mask}",
            f"{store} {rm}, [r11, {rx}]",
            f"{load} {rd}, [r11, #{offset}]",
        ]
        if draw(st.booleans()):
            # a constant store the varying load may read back
            const, at = draw(st.sampled_from([("str", 4), ("strb", 5), ("strh", 6)]))
            value = draw(st.integers(1, 0xFFFF))
            lines[:0] = [f"movw {rd}, #{value}", f"{const} {rd}, [r11, #{at}]"]
        return lines
    if family == "writeback":
        base = 0x9120 + 4 * draw(st.integers(0, 3))
        return [
            f"movw r9, #{base}",
            f"strb {rm}, [r9], #1",
            f"ldrb {rd}, [r9, #-1]!",
            f"str {rn}, [r9, #4]!",
        ]
    # flag-setting op feeding (possibly squashed) conditionals
    setter, conds = draw(st.sampled_from([
        (f"cmp {rn}, {rn}", ANY_COND),
        (f"movs {rx}, #{draw(st.sampled_from([0, 1, 0x80000000]))}", NZ_COND),
        (f"ands {rx}, {rn}, #0", NZ_COND),
        (f"orrs {rx}, {rn}, #0x80000000", NZ_COND),
    ]))
    body = []
    for _ in range(draw(st.integers(1, 3))):
        cond = draw(st.sampled_from(conds))
        body.append(draw(st.sampled_from([
            f"add{cond} {rd}, {rn}, {draw(operand2())}",
            f"mov{cond} {rd}, {rm}",
            f"mul{cond} {rd}, {rn}, {rm}",
            f"ldrb{cond} {rd}, [r10, #{draw(st.integers(0, 15))}]",
            f"str{cond} {rm}, [r11, #8]",
            f"adc{cond} {rd}, {rn}, {rm}",
        ])))
    return [setter, *body]


@st.composite
def folding_case(draw):
    lines = [line for _ in range(draw(st.integers(1, 8))) for line in draw(snippet())]
    source = f"    {PROLOGUE}\n    " + "\n    ".join(lines) + "\n    bx lr\n" + TABLE
    n = draw(st.integers(2, 4))
    rows = [{Reg.R1: draw(U32), Reg.R2: draw(U32)} for _ in range(n)]
    block = np.array(
        [[draw(st.integers(0, 255)) for _ in range(INPUT_BLOCK[1])] for _ in range(n)],
        dtype=np.uint8,
    )
    window = draw(st.one_of(st.none(), st.tuples(st.integers(0, 40), st.integers(1, 12))))
    return source, rows, block, window


def scalar_run(program, row, block_row):
    executor = Executor(program)
    state = executor.fresh_state()
    for reg, value in row.items():
        state.regs[reg] = value
    state.memory.write_bytes(INPUT_BLOCK[0], bytes(block_row))
    return executor.run(state=state)


class TestFoldingProperties:
    @given(folding_case())
    @settings(max_examples=150, deadline=None)
    def test_folded_tape_matches_scalar_and_unfolded(self, case):
        source, rows, block, window = case
        program = assemble(source)
        runs = [scalar_run(program, row, block[i]) for i, row in enumerate(rows)]
        records = runs[0].records
        keep = None
        if window is not None:
            lo, width = window
            keep = {(dyn, kind) for dyn in range(lo, lo + width) for kind in ValueKind}
        folded = compile_tape(program, records, FOLD_SIGNATURE, keep=keep)
        unfolded = compile_tape(program, records, ALL_VARYING, keep=keep)
        regs = batch_regs(rows)
        mem = {INPUT_BLOCK[0]: block}
        got = folded.run(len(rows), regs=regs, mem_bytes=mem)
        want = unfolded.run(len(rows), regs=regs, mem_bytes=mem)
        assert got.table.matrix.tobytes() == want.table.matrix.tobytes()
        assert folded.n_ops <= unfolded.n_ops
        reference = ValueTable.from_records([run.records for run in runs])
        for (dyn, kind), row in folded.layout.slots.items():
            assert np.array_equal(got.table.matrix[row], reference.values(dyn, kind)), (
                f"dyn {dyn} {kind}: {program.instructions[got.path[dyn]]}"
            )


class TestFoldingStructure:
    def test_figure4_window_replays_about_a_hundred_ops(self):
        """Round-1 SubBytes out of a full AES run: the tail past the
        window folds away and no memory check survives.  A change that
        defeats folding fails here instead of slowing figure4 down."""
        from repro.campaigns.engine import StreamingCampaign, clear_schedule_cache
        from repro.crypto.aes_asm import LAYOUT, aes128_program
        from repro.experiments.figure4 import _subbytes_window
        from repro.power.acquisition import TraceCampaign, random_inputs

        clear_schedule_cache()
        program = aes128_program(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        inputs = random_inputs(100, mem_blocks={LAYOUT.state: 16}, seed=0xF16004)
        prototype = StreamingCampaign(program, entry="aes_main", seed=0xF16004)
        window = _subbytes_window(program, prototype, inputs)
        # the windowless prototype is read only for its schedule
        assert prototype.compiled(inputs).build_tape is not None
        campaign = TraceCampaign(program, entry="aes_main", window_cycles=window)
        tape = campaign.compile_with(inputs).tape
        assert tape.n_dyn > 4000
        assert tape.n_ops <= 150
        assert "page" not in tape.checks and "align" not in tape.checks

    def test_run_rejects_inputs_outside_the_signature(self):
        program = assemble(TEMPLATES[4] + "\n    bx lr")
        records = scalar_reference(program, {Reg.R1: 5, Reg.R2: 9}).records
        tape = compile_tape(program, records, signature([Reg.R1], [(0x9000, 8)]))
        ones = np.ones(2, dtype=np.uint32)
        with pytest.raises(ValueError, match="registers"):
            tape.run(2, regs={Reg.R1: ones, Reg.R2: ones})
        with pytest.raises(ValueError, match="memory block"):
            tape.run(2, mem_bytes={0x9004: np.zeros((2, 8), dtype=np.uint8)})
        with pytest.raises(ValueError, match="memory block"):
            tape.run(2, mem_bytes={0xA000: np.zeros((2, 4), dtype=np.uint8)})
        # a batch varying less than the signature still replays
        tape.run(2, regs={Reg.R1: ones}, mem_bytes={0x9002: np.zeros((2, 4), dtype=np.uint8)})

    def test_unbounded_table_index_keeps_its_page_check(self):
        program = assemble("movw r4, #0x9F00\n    ldrb r0, [r4, r1]\n    bx lr")
        records = scalar_reference(program, {Reg.R1: 0}).records
        tape = compile_tape(program, records, signature([Reg.R1]))
        assert tape.checks == {"page": 1}
        with pytest.raises(ExecutionError, match="straddles pages"):
            tape.run(2, regs={Reg.R1: np.array([0, 0x200], dtype=np.uint32)})

    def test_byte_bounded_index_proves_its_page(self):
        src = "movw r4, #0xA000\n    and r1, r1, #0xFF\n    ldrb r0, [r4, r1]\n    bx lr"
        program = assemble(src)
        records = scalar_reference(program, {Reg.R1: 0}).records
        tape = compile_tape(program, records, signature([Reg.R1]))
        assert tape.checks == {}
        assert tape.n_ops == 2  # the movw folds; and + ldrb replay

    def test_unaligned_varying_word_index_keeps_its_alignment_check(self):
        src = "movw r4, #0xA000\n    and r1, r1, #0xFF\n    ldr r0, [r4, r1]\n    bx lr"
        program = assemble(src)
        records = scalar_reference(program, {Reg.R1: 0}).records
        tape = compile_tape(program, records, signature([Reg.R1]))
        assert tape.checks == {"align": 1}
        with pytest.raises(ExecutionError, match="unaligned"):
            tape.run(2, regs={Reg.R1: np.array([0, 2], dtype=np.uint32)})
