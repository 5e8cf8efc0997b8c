"""The assembler's memo and the frozen ``Program`` it shares."""

import dataclasses
import gc
import hashlib
import pickle

import pytest

from repro.api import Session
from repro.crypto.aes_asm import aes128_program
from repro.isa import parser
from repro.isa.parser import assemble
from repro.isa.program import DataBlock, Program

SRC = """
start:
    ldr r0, =value
    ldr r1, [r0]
    cmp r1, #0
    addne r2, r2, #1
    bx lr
value:
    .word 0x1234
"""

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def _digest(program: Program) -> str:
    return hashlib.sha256(
        pickle.dumps(program._content(), protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


class TestMemo:
    def test_equal_key_returns_the_same_object(self):
        program = assemble(SRC)
        assert assemble(SRC) is program
        assert assemble(SRC, 0x8000) is program
        assert assemble(SRC, text_base=0x8000) is program

    def test_other_text_base_or_source_is_a_distinct_program(self):
        program = assemble(SRC)
        moved = assemble(SRC, text_base=0x9000)
        assert moved is not program
        assert moved.text_base == 0x9000
        assert moved.content_key() != program.content_key()
        edited = assemble(SRC.replace("#1", "#2"))
        assert edited is not program
        assert edited.content_key() != program.content_key()

    def test_comment_only_edit_is_a_new_object_with_the_same_content(self):
        program = assemble(SRC)
        commented = assemble(SRC + "@ trailing comment\n")
        assert commented is not program
        assert commented.content_key() == program.content_key()

    def test_memo_is_bounded(self):
        first = assemble(SRC + "@ evicted\n")
        for n in range(parser._PROGRAM_CACHE_SIZE):
            assemble(SRC + f"@ filler {n}\n")
        again = assemble(SRC + "@ evicted\n")
        assert again is not first
        assert again.content_key() == first.content_key()

    def test_assembly_errors_are_not_memoized(self):
        for _ in range(2):
            with pytest.raises(parser.AssemblyError):
                assemble("    b nowhere\n")


class TestFrozenProgram:
    def test_fields_cannot_be_reassigned(self):
        program = assemble(SRC)
        for name in ("instructions", "labels", "data_blocks", "text_base", "source"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(program, name, getattr(program, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.data_blocks[0].data = b"\x00" * 4

    def test_containers_are_read_only(self):
        program = assemble(SRC)
        assert isinstance(program.instructions, tuple)
        assert isinstance(program.data_blocks, tuple)
        assert all(isinstance(block, DataBlock) for block in program.data_blocks)
        with pytest.raises(TypeError):
            program.labels["start"] = 0
        with pytest.raises(TypeError):
            del program.labels["start"]

    def test_pickle_round_trip_keeps_the_content_key(self):
        program = assemble(SRC)
        clone = pickle.loads(pickle.dumps(program))
        assert clone is not program
        assert clone == program
        assert clone.content_key() == program.content_key() == _digest(clone)
        assert clone.schedule_input_independent == program.schedule_input_independent
        assert dict(clone.labels) == dict(program.labels)
        with pytest.raises(TypeError):
            clone.labels["start"] = 0
        assert clone.instruction_at(clone.label_address("start")) == clone[0]

    def test_input_independence_is_a_property_of_the_program(self):
        # ``addne`` is a conditional non-branch: compiled per batch.
        assert not assemble(SRC).schedule_input_independent
        assert assemble(SRC.replace("addne", "add")).schedule_input_independent
        assert aes128_program(KEY).schedule_input_independent


def test_scenarios_leave_every_shared_program_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    session = Session()
    session.run("figure3", n_traces=64)
    session.run("figure4", n_traces=24)
    session.run("table2", n_traces=160)
    assert aes128_program(KEY) is aes128_program(KEY)
    programs = [obj for obj in gc.get_objects() if isinstance(obj, Program)]
    assert programs
    for program in programs:
        assert _digest(program) == program.content_key(), program.listing()[:200]
