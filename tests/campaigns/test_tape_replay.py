"""Tape-compiled acquisition: packed path vs the scalar reference.

The campaign's path (op tape + packed evaluator) must agree with one
scalar ``Executor`` run per trace, gathered into a ``ValueTable`` and
put through the per-component evaluator, within 1e-10 on power; and the
streamed engine must compile the tape exactly once and replay it for
every chunk.
"""

import numpy as np
import rawchunks

from repro.campaigns.engine import StreamingCampaign, clear_schedule_cache
from repro.isa.executor import Executor
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.isa.values import ValueKind, ValueTable
from repro.isa.vtrace import PackedValues
from repro.power.acquisition import TraceCampaign, random_inputs
from repro.power.scope import ScopeConfig

SRC = """
    add r0, r1, r2
    eor r3, r0, r1
    lsl r4, r3, #3
    strb r3, [r9]
    ldrh r5, [r9]
    mul r6, r3, r1
    str r6, [r9, #4]
    bx lr
    .org 0x30000
buf:
    .space 64
"""


def make_inputs(n=48, seed=11):
    inputs = random_inputs(n, reg_names=(Reg.R1, Reg.R2), seed=seed)
    inputs.regs[Reg.R9] = np.full(n, 0x30000, dtype=np.uint32)
    return inputs


def make_campaign(**kwargs):
    return TraceCampaign(
        assemble(SRC), scope=ScopeConfig(noise_sigma=3.0), seed=0xE1, **kwargs
    )


def scalar_table(program, inputs) -> ValueTable:
    """The reference values: one scalar executor run per trace."""
    per_trace = []
    for index in range(inputs.n_traces):
        executor = Executor(program)
        state = executor.fresh_state()
        mem, regs = inputs.row(index)
        for reg, value in regs.items():
            state.regs[reg] = value
        for address, data in mem.items():
            state.memory.write_bytes(address, data)
        per_trace.append(executor.run(state=state).records)
    return ValueTable.from_records(per_trace)


def reference_power(campaign, trace_set):
    """Per-component evaluation of the scalar table on the same schedule."""
    reference = scalar_table(campaign.program, trace_set.inputs)
    return trace_set.leakage.evaluate(reference, campaign.profile)


def assert_table_matches(packed, reference, dyns):
    """Every packed slot equals the reference; within ``dyns`` no nonzero
    reference value is missing from the packed table."""
    for (dyn, kind), row in packed.layout.slots.items():
        np.testing.assert_array_equal(
            packed.matrix[row], reference.values(dyn, kind), err_msg=f"{dyn} {kind}"
        )
    for dyn in dyns:
        for kind in ValueKind:
            if np.any(reference.values(dyn, kind)):
                assert (dyn, kind) in packed.layout.slots, (dyn, kind)


class TestPackedEquivalence:
    def test_tape_acquisition_matches_reference_power(self):
        campaign = make_campaign(keep_power=True)
        fast = campaign.acquire(make_inputs())
        assert isinstance(fast.table, PackedValues)
        power = reference_power(campaign, fast)
        np.testing.assert_allclose(fast.power, power, atol=1e-10)
        # The scope chain is bit-identical given equal power, so the
        # quantized traces agree to float32 resolution.
        traces, _power = make_campaign().capture_stage(power)
        np.testing.assert_allclose(fast.traces, traces, atol=1e-4)

    def test_windowed_tape_matches_reference(self):
        campaign = make_campaign(keep_power=True, window_cycles=(2, 8))
        fast = campaign.acquire(make_inputs())
        np.testing.assert_allclose(fast.power, reference_power(campaign, fast), atol=1e-10)

    def test_windowed_table_contract_matches_reference(self):
        """Inside the retained window range the packed table answers every
        (dyn, kind) query the scalar reference does — including kinds no
        leakage event references."""
        campaign = make_campaign(window_cycles=(2, 8))
        fast = campaign.acquire(make_inputs())
        reference = scalar_table(campaign.program, fast.inputs)
        referenced = [
            dyn
            for compiled in fast.leakage.compiled.values()
            for (dyn, _kind) in compiled.refs
            if dyn >= 0
        ]
        window = range(min(referenced), max(referenced) + 1)
        assert len(window) < reference.n_dyn  # the window really drops values
        assert_table_matches(fast.table, reference, window)

    def test_packed_table_serves_schedule_refs(self):
        """Every (dyn, kind) a schedule event references is retrievable."""
        inputs = make_inputs()
        campaign = make_campaign()
        trace_set = campaign.acquire(inputs)
        for compiled in trace_set.leakage.compiled.values():
            for dyn, kind in compiled.refs:
                if dyn < 0 or kind is None:
                    continue
                values = trace_set.table.values(dyn, kind)
                assert values is None or values.shape == (inputs.n_traces,)

    def test_windowless_table_keeps_full_contract(self):
        """Without a window, the packed table answers every value the
        scalar reference produced (absent only where that is zero)."""
        campaign = make_campaign()
        fast = campaign.acquire(make_inputs())
        reference = scalar_table(campaign.program, fast.inputs)
        assert_table_matches(fast.table, reference, range(reference.n_dyn))


class TestStreamedReplay:
    def test_stream_compiles_once_and_replays_tape(self):
        clear_schedule_cache()
        inputs = make_inputs(n=60)
        engine = StreamingCampaign(
            assemble(SRC), scope=ScopeConfig(noise_sigma=3.0), seed=0xE1
        )
        chunks = rawchunks.chunks(engine, inputs, table=True, chunk_size=17)
        assert len(chunks) == 4
        assert engine._campaign.compile_count == 1
        for chunk in chunks:
            assert isinstance(chunk["table"], PackedValues)
        # chunks share one tape: the layouts are the same object
        layouts = {id(c["table"].layout) for c in chunks}
        assert len(layouts) == 1

    def test_tape_is_built_on_first_replay(self, monkeypatch):
        """A compile read only for its schedules never builds a tape."""
        import repro.power.acquisition as acquisition

        built = []
        real = acquisition.compile_tape

        def counted(*args, **kwargs):
            built.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(acquisition, "compile_tape", counted)
        clear_schedule_cache()
        inputs = make_inputs()
        engine = StreamingCampaign(
            assemble(SRC), scope=ScopeConfig(noise_sigma=3.0), seed=0xE1
        )
        compiled = engine.compiled(inputs)
        assert compiled.leakage is not None and built == []
        engine.acquire(inputs)
        engine.acquire(inputs)
        assert built == [inputs.signature()]
        assert compiled.build_tape is None  # the records are released

    def test_streamed_equals_monolithic_with_tape(self):
        clear_schedule_cache()
        inputs = make_inputs(n=60)
        monolithic = StreamingCampaign(
            assemble(SRC), scope=ScopeConfig(noise_sigma=3.0), seed=0xE1
        ).acquire(inputs)
        streamed = rawchunks.traces(
            StreamingCampaign(assemble(SRC), scope=ScopeConfig(noise_sigma=3.0), seed=0xE1),
            inputs,
            chunk_size=1_000,
        )
        np.testing.assert_array_equal(streamed, monolithic.traces)


class TestDivergenceRecovery:
    SRC_BRANCHY = """
        cmp r1, #100
        bne skip
        mov r0, #1
    skip:
        eor r2, r0, r1
        bx lr
    """

    def test_recompiles_when_batch_takes_other_direction(self):
        program = assemble(self.SRC_BRANCHY)
        campaign = TraceCampaign(
            program, scope=ScopeConfig(noise_sigma=0.0), seed=1
        )
        taken = random_inputs(4, reg_names=(Reg.R1,), seed=1)
        taken.regs[Reg.R1] = np.full(4, 5, dtype=np.uint32)
        not_taken = random_inputs(4, reg_names=(Reg.R1,), seed=1)
        not_taken.regs[Reg.R1] = np.full(4, 100, dtype=np.uint32)
        first = campaign.acquire(taken)
        second = campaign.acquire(not_taken)  # divergence -> recompile
        assert first.path != second.path
        assert campaign.compile_count == 2
