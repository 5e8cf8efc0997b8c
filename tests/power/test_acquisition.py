"""Trace campaigns: compile/acquire, inputs, divergence detection."""

import numpy as np
import pytest

from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.isa.semantics import ExecutionError
from repro.power.acquisition import (
    BatchInputs,
    TraceCampaign,
    derive_seed,
    random_inputs,
)
from repro.power.scope import ScopeConfig

SRC = """
    add r0, r1, r2
    eor r3, r0, r1
    bx lr
"""

MEM_SRC = """
    movw r4, #0x9000
    str r1, [r4]
    ldrb r0, [r4]
    bx lr
"""


def quiet_scope():
    return ScopeConfig(noise_sigma=0.0, kernel=(1.0,), quantize_bits=None)


class TestBatchInputs:
    def test_validation_catches_bad_shapes(self):
        with pytest.raises(ValueError):
            BatchInputs(4, regs={Reg.R1: np.zeros(3, dtype=np.uint32)}).validate()
        with pytest.raises(ValueError):
            BatchInputs(4, mem_bytes={0x100: np.zeros(4, dtype=np.uint8)}).validate()

    def test_validation_rejects_non_uint8_memory(self):
        """A wider dtype would give the compile pass (raw row bytes) and
        the tape (one byte per column) different memory images."""
        block = np.zeros((4, 2), dtype=np.int64)
        with pytest.raises(ValueError, match=r"0x100.*int64"):
            BatchInputs(4, mem_bytes={0x100: block}).validate()

    def test_row_view(self):
        inputs = BatchInputs(
            2,
            regs={Reg.R1: np.array([1, 2], dtype=np.uint32)},
            mem_bytes={0x100: np.array([[1, 2], [3, 4]], dtype=np.uint8)},
        )
        mem, regs = inputs.row(1)
        assert regs[Reg.R1] == 2
        assert mem[0x100] == b"\x03\x04"

    def test_random_inputs_shapes(self):
        inputs = random_inputs(8, reg_names=(Reg.R1,), mem_blocks={0x100: 16})
        inputs.validate()
        assert inputs.regs[Reg.R1].shape == (8,)
        assert inputs.mem_bytes[0x100].shape == (8, 16)

    def test_word_aligned_register_option(self):
        inputs = random_inputs(64, reg_names=(Reg.R1,), word_aligned_regs=True)
        assert np.all(inputs.regs[Reg.R1] % 4 == 0)

    def test_random_inputs_are_seeded(self):
        a = random_inputs(8, reg_names=(Reg.R1,), seed=5)
        b = random_inputs(8, reg_names=(Reg.R1,), seed=5)
        assert np.array_equal(a.regs[Reg.R1], b.regs[Reg.R1])

    def test_slice_views_the_batch(self):
        inputs = random_inputs(16, reg_names=(Reg.R1,), mem_blocks={0x100: 8}, seed=2)
        part = inputs.slice(4, 12)
        part.validate()
        assert part.n_traces == 8
        assert np.array_equal(part.regs[Reg.R1], inputs.regs[Reg.R1][4:12])
        assert np.array_equal(part.mem_bytes[0x100], inputs.mem_bytes[0x100][4:12])

    def test_slice_clamps_and_rejects_empty(self):
        inputs = random_inputs(8, reg_names=(Reg.R1,))
        assert inputs.slice(4, 100).n_traces == 4
        with pytest.raises(ValueError):
            inputs.slice(8, 12)

    def test_signature_ignores_trace_count(self):
        a = random_inputs(8, reg_names=(Reg.R1,), mem_blocks={0x100: 8})
        b = random_inputs(32, reg_names=(Reg.R1,), mem_blocks={0x100: 8})
        c = random_inputs(8, reg_names=(Reg.R2,), mem_blocks={0x100: 8})
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()


class TestCampaign:
    def test_acquire_produces_traces(self):
        campaign = TraceCampaign(assemble(SRC), scope=quiet_scope())
        inputs = random_inputs(16, reg_names=(Reg.R1, Reg.R2))
        ts = campaign.acquire(inputs)
        assert ts.traces.shape[0] == 16
        assert ts.n_samples == ts.leakage.n_samples
        assert len(ts.path) == 3

    def test_power_kept_when_requested(self):
        campaign = TraceCampaign(assemble(SRC), scope=quiet_scope(), keep_power=True)
        ts = campaign.acquire(random_inputs(4, reg_names=(Reg.R1, Reg.R2)))
        assert ts.power is not None and ts.power.shape == ts.traces.shape

    def test_memory_inputs_reach_the_program(self):
        campaign = TraceCampaign(assemble(MEM_SRC), scope=quiet_scope())
        inputs = random_inputs(8, reg_names=(Reg.R1,))
        ts = campaign.acquire(inputs)
        from repro.isa.values import ValueKind

        loaded = ts.table.values(2, ValueKind.RESULT)
        assert np.array_equal(loaded, inputs.regs[Reg.R1] & 0xFF)

    def test_power_transform_applies(self):
        campaign = TraceCampaign(assemble(SRC), scope=quiet_scope(), keep_power=True)
        inputs = random_inputs(4, reg_names=(Reg.R1, Reg.R2))
        plain = campaign.acquire(inputs)
        boosted = campaign.acquire(inputs, power_transform=lambda p: p * 3.0)
        assert np.allclose(boosted.traces, 3.0 * plain.traces, atol=1e-4)

    def test_divergent_control_flow_rejected(self):
        src = """
        cmp r1, #128
        bcc low
        mov r0, #1
        bx lr
    low:
        mov r0, #2
        bx lr
        """
        campaign = TraceCampaign(assemble(src), scope=quiet_scope())
        inputs = BatchInputs(2, regs={Reg.R1: np.array([5, 200], dtype=np.uint32)})
        with pytest.raises(ExecutionError):
            campaign.acquire(inputs)

    def test_schedule_compiled_once_for_same_shape(self):
        """Regression: acquire used to recompile the schedule every call."""
        campaign = TraceCampaign(assemble(SRC), scope=quiet_scope())
        inputs = random_inputs(8, reg_names=(Reg.R1, Reg.R2))
        campaign.acquire(inputs)
        campaign.acquire(inputs)
        campaign.acquire(random_inputs(16, reg_names=(Reg.R1, Reg.R2), seed=9))
        assert campaign.compile_count == 1

    def test_schedule_recompiled_when_input_shape_changes(self):
        campaign = TraceCampaign(assemble(SRC), scope=quiet_scope())
        campaign.acquire(random_inputs(8, reg_names=(Reg.R1, Reg.R2)))
        campaign.acquire(random_inputs(8, reg_names=(Reg.R1, Reg.R2, Reg.R5)))
        assert campaign.compile_count == 2

    def test_uniform_branch_flip_recompiles_instead_of_raising(self):
        """A same-shape batch that uniformly takes the other branch
        direction must recompile against the new path, not crash."""
        src = """
        cmp r1, #128
        bcc low
        mov r0, #1
        bx lr
    low:
        mov r0, #2
        bx lr
        """
        campaign = TraceCampaign(assemble(src), scope=quiet_scope())
        below = BatchInputs(2, regs={Reg.R1: np.array([5, 7], dtype=np.uint32)})
        above = BatchInputs(2, regs={Reg.R1: np.array([200, 250], dtype=np.uint32)})
        first = campaign.acquire(below)
        second = campaign.acquire(above)
        assert first.path != second.path
        assert campaign.compile_count == 2
        # And the cache still works once the path stabilizes.
        campaign.acquire(above)
        assert campaign.compile_count == 2

    def test_conditional_programs_always_recompile(self):
        """A conditionally-executed non-branch op defeats the path check,
        so its schedule must not be reused across same-shape batches."""
        src = """
        cmp r1, #0
        moveq r0, #1
        bx lr
        """
        campaign = TraceCampaign(assemble(src), scope=quiet_scope())
        inputs = BatchInputs(4, regs={Reg.R1: np.ones(4, dtype=np.uint32)})
        campaign.acquire(inputs)
        campaign.acquire(inputs)
        assert campaign.compile_count == 2

    def test_successive_acquires_draw_fresh_noise(self):
        """Regression: a fixed scope seed made repeat campaigns identical."""
        campaign = TraceCampaign(
            assemble(SRC), scope=ScopeConfig(noise_sigma=5.0), seed=77
        )
        inputs = random_inputs(8, reg_names=(Reg.R1, Reg.R2))
        first = campaign.acquire(inputs)
        second = campaign.acquire(inputs)
        assert not np.array_equal(first.traces, second.traces)

    def test_first_acquire_keeps_historical_noise(self):
        """The first acquisition still uses the campaign seed verbatim."""
        inputs = random_inputs(8, reg_names=(Reg.R1, Reg.R2))
        one = TraceCampaign(
            assemble(SRC), scope=ScopeConfig(noise_sigma=5.0), seed=77
        ).acquire(inputs)
        two = TraceCampaign(
            assemble(SRC), scope=ScopeConfig(noise_sigma=5.0), seed=77
        ).acquire(inputs)
        assert np.array_equal(one.traces, two.traces)

    def test_scope_seed_override_pins_the_noise(self):
        campaign = TraceCampaign(
            assemble(SRC), scope=ScopeConfig(noise_sigma=5.0), seed=77
        )
        inputs = random_inputs(8, reg_names=(Reg.R1, Reg.R2))
        first = campaign.acquire(inputs, scope_seed=123)
        second = campaign.acquire(inputs, scope_seed=123)
        assert np.array_equal(first.traces, second.traces)

    def test_derive_seed_streams(self):
        assert derive_seed(42, 0) == 42
        assert derive_seed(42, 1) != 42
        assert derive_seed(42, 1) == derive_seed(42, 1)
        assert derive_seed(42, 1) != derive_seed(42, 2)
        assert derive_seed(43, 1) != derive_seed(42, 1)

    def test_window_set_after_compile_takes_effect(self):
        """acquire() must not reuse a compile made before the window was set."""
        body = "\n".join(["    add r0, r1, r2"] * 30)
        campaign = TraceCampaign(assemble(body + "\n    bx lr"), scope=quiet_scope())
        inputs = random_inputs(4, reg_names=(Reg.R1, Reg.R2))
        campaign.compile_with(inputs)
        campaign.window_cycles = (10, 20)
        windowed = campaign.acquire(inputs)
        assert windowed.n_samples == 10 * windowed.leakage.samples_per_cycle
        assert campaign.compile_count == 2

    def test_window_limits_samples_and_memory(self):
        body = "\n".join(["    add r0, r1, r2"] * 30)
        campaign_full = TraceCampaign(assemble(body + "\n    bx lr"), scope=quiet_scope())
        inputs = random_inputs(4, reg_names=(Reg.R1, Reg.R2))
        full = campaign_full.acquire(inputs)
        campaign_win = TraceCampaign(
            assemble(body + "\n    bx lr"), scope=quiet_scope(), window_cycles=(10, 20)
        )
        windowed = campaign_win.acquire(inputs)
        assert windowed.n_samples < full.n_samples
        spc = windowed.leakage.samples_per_cycle
        lo = 10 * spc
        assert np.allclose(
            windowed.traces, full.traces[:, lo : lo + windowed.n_samples], atol=1e-4
        )
