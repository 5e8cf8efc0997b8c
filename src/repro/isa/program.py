"""The ``Program`` container produced by the assembler.

A program is a linear sequence of instructions plus a symbol table and an
initial data image.  Instructions are executed from the in-memory sequence
(the simulator does not fetch encoded bytes), but every instruction carries
the byte address it would occupy, so branch targets, literal pools and the
address-generation leakage model all see realistic addresses.

A program is immutable: its fields cannot be reassigned and its
containers are tuples and a read-only label mapping, so the assembler's
memo can hand one object to every caller.
"""

from __future__ import annotations

import hashlib
import pickle
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Cond
from repro.isa.registers import Reg


@dataclass(frozen=True)
class DataBlock:
    """A chunk of initialized memory emitted by data directives."""

    address: int
    data: bytes

    @property
    def end(self) -> int:
        return self.address + len(self.data)


@dataclass(frozen=True)
class Program:
    """An assembled program: instructions, symbols and initial data."""

    instructions: tuple[Instruction, ...]
    labels: Mapping[str, int] = field(default_factory=dict)
    data_blocks: tuple[DataBlock, ...] = ()
    text_base: int = 0x8000
    source: str = ""

    def __post_init__(self) -> None:
        # Freeze the containers; the derived fields below rely on it.
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        object.__setattr__(self, "data_blocks", tuple(self.data_blocks))
        derived = {
            "_by_address": {instr.address: instr for instr in self.instructions},
            "_content_key": hashlib.sha256(
                pickle.dumps(self._content(), protocol=pickle.HIGHEST_PROTOCOL)
            ).hexdigest(),
            "_input_independent": all(
                instr.cond is Cond.AL or instr.is_branch for instr in self.instructions
            ),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # A mapping proxy does not pickle: carry the labels as a plain dict.
    def __getstate__(self) -> dict:
        return {**self.__dict__, "labels": dict(self.labels)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, labels=MappingProxyType(state["labels"]))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def label_address(self, name: str) -> int:
        """Resolve a label to its byte address."""
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(f"undefined label: {name!r}") from None

    def instruction_at(self, address: int) -> Instruction:
        """Return the instruction at a byte address (branch resolution)."""
        try:
            return self._by_address[address]
        except KeyError:
            raise KeyError(f"no instruction at address {address:#x}") from None

    def index_of_address(self, address: int) -> int:
        return self.instruction_at(address).index

    def content_key(self) -> str:
        """A digest of everything a schedule compile reads.

        Two separately assembled copies of one program share a key, so
        caches keyed on it survive re-assembly.  Computed once, at
        construction, so a cache lookup hashes a short string.  The
        digest is over the pickled content, which reconstructs equal
        objects, so different programs never share a key.
        """
        return self._content_key

    @property
    def schedule_input_independent(self) -> bool:
        """Is a compiled schedule valid for any same-shape input batch?

        Only when every conditional instruction is a branch.  A
        conditionally-executed *non-branch* instruction appears in the
        dynamic path whichever way its condition goes, so the path
        cannot tell such batches apart: these programs compile against
        every batch instead of sharing one compile.
        """
        return self._input_independent

    def _content(self) -> tuple:
        """The canonical content :meth:`content_key` digests.

        ``source`` is left out (directly built programs have none).
        ``Reg`` is an ``IntEnum``, so a register shift amount or memory
        offset compares equal to the immediate of the same number; which
        of the two each instruction carries is keyed separately.
        """
        return (
            self.text_base,
            tuple(self.instructions),
            tuple(
                (
                    instr.index,
                    instr.address,
                    isinstance(getattr(instr.op2, "amount", None), Reg),
                    isinstance(getattr(instr.mem, "offset", None), Reg),
                )
                for instr in self.instructions
            ),
            tuple(sorted(self.labels.items())),
            tuple((block.address, bytes(block.data)) for block in self.data_blocks),
        )

    @property
    def text_end(self) -> int:
        """First byte address past the last instruction."""
        if not self.instructions:
            return self.text_base
        return self.instructions[-1].address + 4

    def listing(self) -> str:
        """Human-readable listing with addresses, for debugging."""
        addr_to_labels: dict[int, list[str]] = {}
        for name, addr in self.labels.items():
            addr_to_labels.setdefault(addr, []).append(name)
        lines = []
        for instr in self.instructions:
            for name in addr_to_labels.get(instr.address, ()):
                lines.append(f"{name}:")
            lines.append(f"  {instr.address:#010x}:  {instr}")
        return "\n".join(lines)
