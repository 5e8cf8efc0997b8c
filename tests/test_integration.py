"""End-to-end integration: the full stack in one pass per scenario."""

import numpy as np

from repro.crypto.aes import aes128_encrypt_block
from repro.crypto.aes_asm import LAYOUT, aes128_program, round1_only_program
from repro.isa.executor import run_program
from repro.power.acquisition import TraceCampaign, random_inputs
from repro.power.scope import ScopeConfig
from repro.sca.cpa import cpa_attack
from repro.sca.models import hw_sbox_matrix

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


class TestFullAttackPipeline:
    """assemble -> execute -> schedule -> synthesize -> attack."""

    def test_low_noise_cpa_recovers_multiple_key_bytes(self):
        program = round1_only_program(KEY)
        inputs = random_inputs(500, mem_blocks={LAYOUT.state: 16}, seed=77)
        campaign = TraceCampaign(
            program,
            scope=ScopeConfig(noise_sigma=4.0, n_averages=16),
            entry="aes_round1",
        )
        trace_set = campaign.acquire(inputs)
        plaintexts = inputs.mem_bytes[LAYOUT.state]
        for byte_index in (0, 5, 15):
            result = cpa_attack(trace_set.traces, hw_sbox_matrix(plaintexts, byte_index))
            assert result.best_guess == KEY[byte_index], f"byte {byte_index}"

    def test_functional_and_leakage_paths_agree(self):
        """The ciphertext from the attack campaign's executor matches the
        golden model for the same plaintext."""
        program = aes128_program(KEY)
        pt = bytes(range(16))
        result = run_program(program, memory_init={LAYOUT.state: pt}, entry="aes_main")
        assert result.state.memory.read_bytes(LAYOUT.state, 16) == aes128_encrypt_block(
            pt, KEY
        )

    def test_schedule_is_input_independent(self):
        """Two different plaintext batches give identical schedules."""
        program = round1_only_program(KEY)
        campaign = TraceCampaign(program, entry="aes_round1")
        a = campaign.acquire(random_inputs(3, mem_blocks={LAYOUT.state: 16}, seed=1))
        b = campaign.acquire(random_inputs(3, mem_blocks={LAYOUT.state: 16}, seed=2))
        assert a.schedule.issue_cycle == b.schedule.issue_cycle
        assert a.schedule.n_cycles == b.schedule.n_cycles

    def test_trace_determinism(self):
        """Same seeds, same traces: the whole chain is reproducible."""
        program = round1_only_program(KEY)
        inputs = random_inputs(5, mem_blocks={LAYOUT.state: 16}, seed=3)
        def campaign():
            return TraceCampaign(program, entry="aes_round1", seed=99)
        t1 = campaign().acquire(inputs).traces
        t2 = campaign().acquire(inputs).traces
        assert np.array_equal(t1, t2)


class TestCrossValidation:
    def test_sbox_intermediates_appear_in_the_value_table(self):
        """The simulated S-box lookups produce exactly the golden
        SubBytes bytes (links the attack model to the substrate)."""
        from repro.crypto.aes import round1_states
        from repro.isa.values import ValueKind

        program = round1_only_program(KEY)
        inputs = random_inputs(4, mem_blocks={LAYOUT.state: 16}, seed=5)
        campaign = TraceCampaign(program, entry="aes_round1")
        ts = campaign.acquire(inputs)

        sb_static = program.instruction_at(program.label_address("sb_start")).index
        sb_dyn = ts.path.index(sb_static)
        # SubBytes: per byte [ldrb state, ldrb sbox, strb]; the table
        # lookup of byte 0 is the second instruction of the group.
        lookup = ts.table.values(sb_dyn + 1, ValueKind.RESULT)
        for t in range(4):
            pt = bytes(inputs.mem_bytes[LAYOUT.state][t])
            expected = round1_states(pt, KEY)["sb"][0]
            assert int(lookup[t]) == expected
