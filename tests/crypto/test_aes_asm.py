"""The attacked AES assembly: functional equivalence and code shape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import aes128_encrypt_block, round1_states
from repro.crypto.aes_asm import (
    LAYOUT,
    aes128_program,
    aes128_source,
    round1_only_program,
)
from repro.isa.executor import run_program
from repro.isa.values import ValueKind
from repro.isa.vtrace import compile_tape

BLOCK = st.binary(min_size=16, max_size=16)


def encrypt_on_simulator(pt: bytes, key: bytes) -> bytes:
    program = aes128_program(key)
    result = run_program(program, memory_init={LAYOUT.state: pt}, entry="aes_main")
    return result.state.memory.read_bytes(LAYOUT.state, 16)


class TestFunctionalEquivalence:
    def test_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert encrypt_on_simulator(pt, key) == aes128_encrypt_block(pt, key)

    @given(BLOCK, BLOCK)
    @settings(max_examples=8, deadline=None)
    def test_random_blocks_match_golden_model(self, pt, key):
        assert encrypt_on_simulator(pt, key) == aes128_encrypt_block(pt, key)

    def test_round1_program_produces_round1_state(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        program = round1_only_program(key)
        result = run_program(program, memory_init={LAYOUT.state: pt}, entry="aes_round1")
        state = result.state.memory.read_bytes(LAYOUT.state, 16)
        assert state == round1_states(pt, key)["mc"]

    def test_tape_batch_encrypts_correctly(self):
        """The tape replay's last store to each state byte is the ciphertext."""
        key = bytes(range(16))
        program = aes128_program(key)
        rng = np.random.default_rng(0)
        n = 4
        pts = rng.integers(0, 256, size=(n, 16), dtype=np.uint16).astype(np.uint8)
        records = run_program(
            program, memory_init={LAYOUT.state: bytes(pts[0])}, entry="aes_main"
        ).records
        tape = compile_tape(program, records, ((), ((LAYOUT.state, 16),)))
        table = tape.run(n, mem_bytes={LAYOUT.state: pts}).table
        # (dyn, byte shift) of the last store covering each state byte;
        # store addresses do not depend on the plaintext
        last_store: dict[int, tuple[int, int]] = {}
        for dyn, record in enumerate(records):
            if not record.instr.is_store:
                continue
            for lane in range(record.instr.access_width):
                offset = record.addr + lane - LAYOUT.state
                if 0 <= offset < 16:
                    last_store[offset] = (dyn, 8 * lane)
        assert sorted(last_store) == list(range(16))
        for t in range(n):
            got = bytes(
                (int(table.values(dyn, ValueKind.STORE_DATA)[t]) >> shift) & 0xFF
                for dyn, shift in (last_store[i] for i in range(16))
            )
            assert got == aes128_encrypt_block(bytes(pts[t]), key)


class TestCodeShape:
    """The leakage-relevant features Section 5 depends on."""

    def setup_method(self):
        self.key = bytes(range(16))
        self.source = aes128_source(self.key)
        self.program = aes128_program(self.key)

    def test_subbytes_is_ldrb_ldrb_strb(self):
        lines = [line.strip() for line in self.source.splitlines()]
        start = lines.index("sb_start:")
        window = lines[start : start + 60]
        assert any("ldrb r0, [r6, r0]" in line for line in window)
        assert any(line.startswith("strb r0, [r4") for line in window)

    def test_shiftrows_composes_with_three_shifts_per_row(self):
        shifts = [
            line
            for line in self.source.splitlines()
            if "lsl #8" in line or "lsl #16" in line or "lsl #24" in line
        ]
        # 3 rotated rows x 3 progressive shifts, in every round copy.
        assert len(shifts) >= 9

    def test_zero_store_after_shiftrows(self):
        assert "zero store observed after ShiftRows" in self.source

    def test_xtime_is_called_not_inlined(self):
        assert self.source.count("bl xtime_fn") == 16  # 4 columns x 4 lanes
        assert "xtime_fn:" in self.source

    def test_xtime_spills_to_stack(self):
        lines = self.source.splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("xtime_fn:"))
        body = "\n".join(lines[start : start + 12])
        assert "str r1, [sp, #-4]" in body
        assert "ldr r1, [sp, #-4]" in body

    def test_round_keys_baked_into_data(self):
        from repro.crypto.aes import aes128_round_keys

        rk = b"".join(aes128_round_keys(self.key))
        result = run_program(self.program, entry="aes_main",
                             memory_init={LAYOUT.state: bytes(16)})
        stored = result.state.memory.read_bytes(LAYOUT.round_keys, 176)
        assert stored == rk

    def test_primitive_labels_present(self):
        for label in ("ark0_start", "sb_start", "shr_start", "mc_start", "trigger_end"):
            assert label in self.program.labels

    def test_truncated_rounds_validated(self):
        with pytest.raises(ValueError):
            aes128_source(self.key, n_rounds=0)
        with pytest.raises(ValueError):
            aes128_source(self.key, n_rounds=11)
