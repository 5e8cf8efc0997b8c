"""A two-pass assembler for the ARM ISA subset.

Supported syntax (GNU-as flavour):

* labels (``loop:``), comments (``@``, ``;``, ``//`` to end of line),
* condition suffixes and the ``s`` flag-setting suffix in either UAL or
  legacy order (``addseq`` / ``addeqs``),
* data-processing, multiply, load/store (offset / pre-index / post-index),
  branch and ``nop`` instructions,
* shift mnemonics (``lsl r0, r1, #3``) desugared to ``mov`` with a shifted
  operand,
* the ``ldr rX, =const_or_label`` pseudo-instruction, expanded to a
  ``movw``/``movt`` pair (ARMv7 idiom, two ``ALU w/ imm`` class slots),
* directives: ``.org``, ``.word``, ``.half``, ``.byte``, ``.space``,
  ``.align``, ``.equ``.

The assembler is two-pass: pass one lays out addresses and collects
symbols, pass two resolves symbol references in immediates, data words and
``ldr =`` expansions.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from dataclasses import dataclass

from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    BRANCHES,
    COMPARE,
    DATA_PROCESSING,
    MEMORY,
    MULTIPLY,
    STORES,
    WIDE_MOVES,
    Cond,
    Opcode,
)
from repro.isa.operands import AddrMode, Imm, LabelRef, MemRef, RegShift, ShiftKind
from repro.isa.operands import WORD_MASK
from repro.isa.program import DataBlock, Program
from repro.isa.registers import Reg

_SHIFT_MNEMONICS = {
    "lsl": ShiftKind.LSL,
    "lsr": ShiftKind.LSR,
    "asr": ShiftKind.ASR,
    "ror": ShiftKind.ROR,
}

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_SYMBOL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")


class AssemblyError(ValueError):
    """Raised for any syntactic or semantic assembly problem."""

    def __init__(self, message: str, line_no: int | None = None, line: str = ""):
        location = f"line {line_no}: " if line_no is not None else ""
        suffix = f"  [{line.strip()}]" if line else ""
        super().__init__(f"{location}{message}{suffix}")
        self.line_no = line_no


@dataclass
class _PendingConstLoad:
    """``ldr rX, =expr`` awaiting symbol resolution (expands to 2 instrs)."""

    rd: Reg
    expr: str
    cond: Cond
    line_no: int
    address: int


#: Programs :func:`assemble` keeps, least recently used dropped first.
_PROGRAM_CACHE_SIZE = 16


def assemble(source: str, text_base: int = 0x8000) -> Program:
    """Assemble ``source`` into a :class:`Program`.

    Memoized per process on ``(source, text_base)``: the builders
    regenerate the same source on every run, and a :class:`Program` is
    frozen, so all of them can share the one object assembled first.
    """
    return _assemble(source, text_base)


@functools.lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _assemble(source: str, text_base: int) -> Program:
    return _Assembler(source, text_base).run()


class _Assembler:
    def __init__(self, source: str, text_base: int):
        self.source = source
        self.text_base = text_base
        self.symbols: dict[str, int] = {}
        self.items: list[tuple[Instruction | _PendingConstLoad, int]] = []
        self.data_blocks: list[DataBlock] = []
        self._pending_words: list[tuple[int, str, int, int]] = []  # addr, expr, width, line
        self.counter = text_base

    # ------------------------------------------------------------------
    # Pass 1: layout + parse
    # ------------------------------------------------------------------

    def run(self) -> Program:
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            line = _strip_comment(raw)
            while True:
                match = _LABEL_RE.match(line.strip())
                if not match:
                    break
                self._define_symbol(match.group(1), self.counter, line_no)
                line = line.strip()[match.end() :]
            line = line.strip()
            if not line:
                continue
            if line.startswith("."):
                self._directive(line, line_no)
            else:
                self._instruction_line(line, line_no)
        return self._second_pass()

    def _define_symbol(self, name: str, value: int, line_no: int) -> None:
        if name in self.symbols:
            raise AssemblyError(f"duplicate symbol {name!r}", line_no)
        self.symbols[name] = value

    def _directive(self, line: str, line_no: int) -> None:
        parts = line.split(None, 1)
        name = parts[0]
        args = parts[1] if len(parts) > 1 else ""
        if name == ".org":
            self.counter = self._int_or_fail(args, line_no)
        elif name == ".align":
            alignment = self._int_or_fail(args, line_no) if args else 4
            if alignment & (alignment - 1):
                raise AssemblyError(f".align must be a power of two, got {alignment}", line_no)
            self.counter = (self.counter + alignment - 1) & ~(alignment - 1)
        elif name == ".space":
            size = self._int_or_fail(args, line_no)
            self.data_blocks.append(DataBlock(self.counter, bytes(size)))
            self.counter += size
        elif name in (".word", ".half", ".byte"):
            width = {".word": 4, ".half": 2, ".byte": 1}[name]
            for item in _split_operands(args):
                value = _try_int(item)
                if value is None:
                    self._pending_words.append((self.counter, item, width, line_no))
                    self.data_blocks.append(DataBlock(self.counter, bytes(width)))
                else:
                    self.data_blocks.append(
                        DataBlock(self.counter, (value & _mask(width)).to_bytes(width, "little"))
                    )
                self.counter += width
        elif name == ".equ":
            sym, _, value = args.partition(",")
            if not value:
                raise AssemblyError(".equ requires 'name, value'", line_no)
            self._define_symbol(sym.strip(), self._int_or_fail(value, line_no), line_no)
        else:
            raise AssemblyError(f"unknown directive {name}", line_no)

    def _int_or_fail(self, text: str, line_no: int) -> int:
        value = _try_int(text.strip())
        if value is None:
            value = self.symbols.get(text.strip())
        if value is None:
            raise AssemblyError(f"expected integer, got {text.strip()!r}", line_no)
        return value

    def _instruction_line(self, line: str, line_no: int) -> None:
        mnemonic, _, rest = line.partition(" ")
        opcode, cond, set_flags = _parse_mnemonic(mnemonic.strip().lower(), line_no, line)
        operands = _split_operands(rest)
        if opcode is Opcode.LDR and len(operands) == 2 and operands[1].startswith("="):
            rd = self._reg(operands[0], line_no, line)
            pending = _PendingConstLoad(rd, operands[1][1:].strip(), cond, line_no, self.counter)
            self.items.append((pending, self.counter))
            self.counter += 8  # movw + movt
            return
        instr = self._build(opcode, cond, set_flags, operands, line_no, line)
        self.items.append((instr, self.counter))
        self.counter += 4

    # ------------------------------------------------------------------
    # Pass 2: symbol resolution + numbering
    # ------------------------------------------------------------------

    def _second_pass(self) -> Program:
        placed: list[tuple[Instruction, int]] = []
        for item, address in self.items:
            if isinstance(item, _PendingConstLoad):
                value = self._resolve_expr(item.expr, item.line_no)
                low, high = value & 0xFFFF, (value >> 16) & 0xFFFF
                placed.append(
                    (Instruction(Opcode.MOVW, cond=item.cond, rd=item.rd, op2=Imm(low)), address)
                )
                placed.append(
                    (
                        Instruction(Opcode.MOVT, cond=item.cond, rd=item.rd, op2=Imm(high)),
                        address + 4,
                    )
                )
            else:
                placed.append((item, address))
        instructions = [
            dataclasses.replace(instr, index=index, address=address)
            for index, (instr, address) in enumerate(placed)
        ]
        for block_addr, expr, width, line_no in self._pending_words:
            value = self._resolve_expr(expr, line_no) & _mask(width)
            for position, block in enumerate(self.data_blocks):
                if block.address == block_addr and len(block.data) == width:
                    data = value.to_bytes(width, "little")
                    self.data_blocks[position] = DataBlock(block_addr, data)
                    break
        program = Program(
            instructions,
            labels=dict(self.symbols),
            data_blocks=self.data_blocks,
            text_base=self.text_base,
            source=self.source,
        )
        self._check_branch_targets(program)
        return program

    def _resolve_expr(self, expr: str, line_no: int) -> int:
        """Evaluate ``symbol``, ``number`` or ``symbol+number`` expressions."""
        expr = expr.strip()
        value = _try_int(expr)
        if value is not None:
            return value & WORD_MASK
        match = re.match(r"^([\w.$]+)\s*([+-])\s*(\S+)$", expr)
        if match:
            base = self._resolve_expr(match.group(1), line_no)
            delta = self._resolve_expr(match.group(3), line_no)
            return (base + delta if match.group(2) == "+" else base - delta) & WORD_MASK
        if expr in self.symbols:
            return self.symbols[expr] & WORD_MASK
        raise AssemblyError(f"undefined symbol {expr!r}", line_no)

    def _check_branch_targets(self, program: Program) -> None:
        for instr in program.instructions:
            if instr.target is not None and instr.target.name not in program.labels:
                raise AssemblyError(f"undefined branch target {instr.target.name!r}")

    # ------------------------------------------------------------------
    # Instruction builders
    # ------------------------------------------------------------------

    def _build(
        self,
        opcode: Opcode,
        cond: Cond,
        set_flags: bool,
        operands: list[str],
        line_no: int,
        line: str,
    ) -> Instruction:
        if opcode is Opcode.NOP:
            self._expect(len(operands) == 0, "nop takes no operands", line_no, line)
            return Instruction(Opcode.NOP, cond=cond)
        if opcode in BRANCHES:
            return self._build_branch(opcode, cond, operands, line_no, line)
        if opcode in MEMORY:
            return self._build_memory(opcode, cond, operands, line_no, line)
        if opcode in MULTIPLY:
            return self._build_multiply(opcode, cond, set_flags, operands, line_no, line)
        if opcode in WIDE_MOVES:
            self._expect(len(operands) == 2, f"{opcode} needs rd, #imm16", line_no, line)
            rd = self._reg(operands[0], line_no, line)
            imm = self._imm(operands[1], line_no, line)
            self._expect(0 <= imm.value <= 0xFFFF, f"{opcode} immediate must fit 16 bits", line_no, line)
            return Instruction(opcode, cond=cond, rd=rd, op2=imm)
        if opcode.value in _SHIFT_MNEMONICS:
            return self._build_shift_alias(opcode, cond, set_flags, operands, line_no, line)
        if opcode in COMPARE:
            self._expect(len(operands) >= 2, f"{opcode} needs rn, op2", line_no, line)
            rn = self._reg(operands[0], line_no, line)
            op2 = self._op2(operands[1:], line_no, line)
            return Instruction(opcode, cond=cond, set_flags=True, rn=rn, op2=op2)
        if opcode in (Opcode.MOV, Opcode.MVN):
            self._expect(len(operands) >= 2, f"{opcode} needs rd, op2", line_no, line)
            rd = self._reg(operands[0], line_no, line)
            op2 = self._op2(operands[1:], line_no, line)
            return Instruction(opcode, cond=cond, set_flags=set_flags, rd=rd, op2=op2)
        if opcode in DATA_PROCESSING:
            self._expect(len(operands) >= 3, f"{opcode} needs rd, rn, op2", line_no, line)
            rd = self._reg(operands[0], line_no, line)
            rn = self._reg(operands[1], line_no, line)
            op2 = self._op2(operands[2:], line_no, line)
            return Instruction(opcode, cond=cond, set_flags=set_flags, rd=rd, rn=rn, op2=op2)
        raise AssemblyError(f"unsupported opcode {opcode}", line_no, line)

    def _build_shift_alias(
        self,
        opcode: Opcode,
        cond: Cond,
        set_flags: bool,
        operands: list[str],
        line_no: int,
        line: str,
    ) -> Instruction:
        self._expect(len(operands) == 3, f"{opcode} needs rd, rm, amount", line_no, line)
        rd = self._reg(operands[0], line_no, line)
        rm = self._reg(operands[1], line_no, line)
        kind = _SHIFT_MNEMONICS[opcode.value]
        amount: int | Reg
        if operands[2].startswith("#"):
            amount = self._imm(operands[2], line_no, line).value
        else:
            amount = self._reg(operands[2], line_no, line)
        op2 = RegShift(rm, kind, amount)
        return Instruction(Opcode.MOV, cond=cond, set_flags=set_flags, rd=rd, op2=op2)

    def _build_branch(
        self, opcode: Opcode, cond: Cond, operands: list[str], line_no: int, line: str
    ) -> Instruction:
        if opcode is Opcode.BX:
            self._expect(len(operands) == 1, "bx needs a register", line_no, line)
            return Instruction(Opcode.BX, cond=cond, rm=self._reg(operands[0], line_no, line))
        self._expect(len(operands) == 1, f"{opcode} needs a target label", line_no, line)
        self._expect(
            _SYMBOL_RE.match(operands[0]) is not None,
            f"bad branch target {operands[0]!r}",
            line_no,
            line,
        )
        return Instruction(opcode, cond=cond, target=LabelRef(operands[0]))

    def _build_memory(
        self, opcode: Opcode, cond: Cond, operands: list[str], line_no: int, line: str
    ) -> Instruction:
        self._expect(len(operands) >= 2, f"{opcode} needs rt, [address]", line_no, line)
        rt = self._reg(operands[0], line_no, line)
        mem = self._memref(operands[1:], line_no, line)
        if opcode in STORES:
            self._expect(not rt.is_pc, "cannot store pc", line_no, line)
        return Instruction(opcode, cond=cond, rd=rt, mem=mem)

    def _build_multiply(
        self,
        opcode: Opcode,
        cond: Cond,
        set_flags: bool,
        operands: list[str],
        line_no: int,
        line: str,
    ) -> Instruction:
        if opcode is Opcode.MLA:
            self._expect(len(operands) == 4, "mla needs rd, rm, rs, rn", line_no, line)
            rd, rm, rs, rn = (self._reg(op, line_no, line) for op in operands)
            return Instruction(
                Opcode.MLA, cond=cond, set_flags=set_flags, rd=rd, rm=rm, rs=rs, rn=rn
            )
        self._expect(len(operands) == 3, "mul needs rd, rm, rs", line_no, line)
        rd, rm, rs = (self._reg(op, line_no, line) for op in operands)
        return Instruction(Opcode.MUL, cond=cond, set_flags=set_flags, rd=rd, rm=rm, rs=rs)

    # ------------------------------------------------------------------
    # Operand parsing helpers
    # ------------------------------------------------------------------

    def _expect(self, condition: bool, message: str, line_no: int, line: str) -> None:
        if not condition:
            raise AssemblyError(message, line_no, line)

    def _reg(self, text: str, line_no: int, line: str) -> Reg:
        try:
            return Reg.parse(text)
        except ValueError as exc:
            raise AssemblyError(str(exc), line_no, line) from None

    def _imm(self, text: str, line_no: int, line: str) -> Imm:
        body = text.strip()
        if body.startswith("#"):
            body = body[1:].strip()
        value = _try_int(body)
        if value is None:
            value = self.symbols.get(body)
        if value is None:
            raise AssemblyError(f"bad immediate {text!r}", line_no, line)
        return Imm(value)

    def _op2(self, tokens: list[str], line_no: int, line: str) -> Imm | RegShift:
        """Parse an <Operand2>: immediate, register, or shifted register."""
        first = tokens[0]
        if first.startswith("#"):
            self._expect(len(tokens) == 1, "immediate operand takes no shift", line_no, line)
            return self._imm(first, line_no, line)
        reg = self._reg(first, line_no, line)
        if len(tokens) == 1:
            return RegShift(reg)
        self._expect(len(tokens) == 2, f"trailing operands {tokens[2:]}", line_no, line)
        return self._shift_spec(reg, tokens[1], line_no, line)

    def _shift_spec(self, reg: Reg, spec: str, line_no: int, line: str) -> RegShift:
        parts = spec.split(None, 1)
        kind_name = parts[0].lower()
        if kind_name == "rrx":
            self._expect(len(parts) == 1, "rrx takes no amount", line_no, line)
            return RegShift(reg, ShiftKind.RRX)
        self._expect(kind_name in _SHIFT_MNEMONICS, f"bad shift {spec!r}", line_no, line)
        self._expect(len(parts) == 2, f"shift {kind_name} needs an amount", line_no, line)
        kind = _SHIFT_MNEMONICS[kind_name]
        amount_text = parts[1].strip()
        if amount_text.startswith("#"):
            return RegShift(reg, kind, self._imm(amount_text, line_no, line).value)
        return RegShift(reg, kind, self._reg(amount_text, line_no, line))

    def _memref(self, tokens: list[str], line_no: int, line: str) -> MemRef:
        joined = ", ".join(tokens)
        match = re.match(r"^\[([^\]]*)\](!?)\s*(?:,\s*(.+))?$", joined.strip())
        self._expect(match is not None, f"bad address {joined!r}", line_no, line)
        assert match is not None
        inner, writeback, post = match.group(1), match.group(2), match.group(3)
        inner_parts = _split_operands(inner)
        base = self._reg(inner_parts[0], line_no, line)
        offset: int | Reg = 0
        if len(inner_parts) == 2:
            offset = self._offset(inner_parts[1], line_no, line)
        elif len(inner_parts) > 2:
            raise AssemblyError(f"bad address {joined!r}", line_no, line)
        if post is not None:
            self._expect(not writeback, "cannot mix pre- and post-index", line_no, line)
            self._expect(len(inner_parts) == 1, "post-index offset goes outside []", line_no, line)
            return MemRef(base, self._offset(post, line_no, line), AddrMode.POST_INDEX)
        mode = AddrMode.PRE_INDEX if writeback else AddrMode.OFFSET
        return MemRef(base, offset, mode)

    def _offset(self, text: str, line_no: int, line: str) -> int | Reg:
        text = text.strip()
        if text.startswith("#"):
            return self._imm(text, line_no, line).value
        return self._reg(text, line_no, line)


# ----------------------------------------------------------------------
# Lexical helpers
# ----------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    for marker in ("@", ";", "//"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line


def _split_operands(text: str) -> list[str]:
    """Split on commas that are not inside square brackets."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _try_int(text: str) -> int | None:
    text = text.strip()
    try:
        return int(text, 0)
    except ValueError:
        return None


def _mask(width: int) -> int:
    return (1 << (8 * width)) - 1


_OPCODES_BY_LENGTH = sorted(Opcode, key=lambda op: len(op.value), reverse=True)
_COND_NAMES = {c.value for c in Cond if c is not Cond.AL}
_NO_FLAGS = BRANCHES | MEMORY | WIDE_MOVES | {Opcode.NOP}


def _parse_mnemonic(text: str, line_no: int, line: str) -> tuple[Opcode, Cond, bool]:
    """Split a mnemonic into opcode, condition and S-suffix.

    Both UAL (``adds`` + cond) and legacy (cond + ``s``) suffix orders are
    accepted.  Longest opcode match wins, so ``bls`` parses as ``b`` +
    ``ls`` (BL takes no ``s`` suffix) while ``bleq`` parses as ``bl`` +
    ``eq``.
    """
    for opcode in _OPCODES_BY_LENGTH:
        name = opcode.value
        if not text.startswith(name):
            continue
        suffix = text[len(name) :]
        parsed = _parse_suffix(suffix, opcode)
        if parsed is not None:
            return (opcode, *parsed)
    raise AssemblyError(f"unknown mnemonic {text!r}", line_no, line)


def _parse_suffix(suffix: str, opcode: Opcode) -> tuple[Cond, bool] | None:
    allow_s = opcode not in _NO_FLAGS
    if suffix == "":
        return Cond.AL, False
    if suffix == "s" and allow_s:
        return Cond.AL, True
    if suffix in _COND_NAMES:
        return Cond(suffix), False
    if allow_s and suffix.endswith("s") and suffix[:-1] in _COND_NAMES:
        return Cond(suffix[:-1]), True
    if allow_s and suffix.startswith("s") and suffix[1:] in _COND_NAMES:
        return Cond(suffix[1:]), True
    return None
