"""Leakage-schedule compilation and evaluation."""

import dataclasses

import numpy as np
import pytest

from repro.isa.executor import Executor
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.isa.values import ValueTable
from repro.isa.vtrace import compile_tape
from repro.power.profile import ComponentWeights, LeakageProfile, cortex_a7_profile
from repro.power.synth import LeakageSchedule
from repro.uarch.components import ComponentKind
from repro.uarch.config import PipelineConfig
from repro.uarch.pipeline import Pipeline


def compile_program(src: str, regs: dict[Reg, int]):
    program = assemble(src + "\n    bx lr")
    executor = Executor(program)
    state = executor.fresh_state()
    for reg, value in regs.items():
        state.regs[reg] = value
    result = executor.run(state=state)
    pipeline = Pipeline()
    schedule = pipeline.schedule(result.records)
    return program, result, schedule, pipeline


def table_for(program, result, reg_rows: list[dict[Reg, int]]):
    """Scalar-executor batch -> dense ValueTable."""
    per_trace = []
    for row in reg_rows:
        executor = Executor(program)
        state = executor.fresh_state()
        for reg, value in row.items():
            state.regs[reg] = value
        per_trace.append(executor.run(state=state).records)
    return ValueTable.from_records(per_trace)


class TestEvaluation:
    def test_hd_leak_of_consecutive_bus_values(self):
        # Two reg-reg adds never dual-issue (read-port budget), so their
        # op2 operands transition on the same slot-0 bus.
        src = "add r1, r9, r2\n    add r3, r10, r4"
        program, result, schedule, pipeline = compile_program(src, {})
        # Profile leaking only on the op2 issue bus.
        profile = LeakageProfile(
            kind_weights={ComponentKind.ISSUE_BUS: ComponentWeights(1.0, 0.0)},
            overrides={
                name: ComponentWeights()
                for name in pipeline.components
                if not name.startswith("issue_op2_s0")
            },
        )
        rows = [
            {Reg.R2: 0x0, Reg.R4: 0xFF},  # HD(r2->r4)=8 after HW(r2)=0 arrival
            {Reg.R2: 0xF, Reg.R4: 0xF},  # arrival HW 4, then HD 0
        ]
        leakage = LeakageSchedule(schedule, pipeline.components, samples_per_cycle=1)
        power = leakage.evaluate(table_for(program, result, rows), profile)
        totals = power.sum(axis=1)
        assert totals[0] == pytest.approx(8.0)  # 0 arrives (HD 0), then HD 8
        assert totals[1] == pytest.approx(4.0)  # HD(0->0xF)=4, then HD 0

    def test_precharged_component_leaks_hw(self):
        src = "add r1, r2, r3"
        program, result, schedule, pipeline = compile_program(src, {})
        profile = LeakageProfile(
            kind_weights={ComponentKind.ALU_OUT: ComponentWeights(0.0, 1.0)},
        )
        rows = [{Reg.R2: 0x3, Reg.R3: 0x4}, {Reg.R2: 0, Reg.R3: 0}]
        leakage = LeakageSchedule(schedule, pipeline.components, samples_per_cycle=1)
        power = leakage.evaluate(table_for(program, result, rows), profile)
        assert power.sum(axis=1)[0] == pytest.approx(3.0)  # HW(7)
        assert power.sum(axis=1)[1] == pytest.approx(0.0)

    def test_gain_scales_everything(self):
        src = "add r1, r2, r3"
        program, result, schedule, pipeline = compile_program(src, {})
        table = table_for(program, result, [{Reg.R2: 5, Reg.R3: 6}])
        leakage = LeakageSchedule(schedule, pipeline.components, samples_per_cycle=2)
        base = leakage.evaluate(table, cortex_a7_profile())
        import dataclasses

        doubled = leakage.evaluate(
            table, dataclasses.replace(cortex_a7_profile(), gain=2.0)
        )
        assert np.allclose(doubled, 2 * base)

    def test_samples_per_cycle_spreads_time(self):
        src = "add r1, r2, r3"
        program, result, schedule, pipeline = compile_program(src, {})
        table = table_for(program, result, [{Reg.R2: 5, Reg.R3: 6}])
        for spc in (1, 2, 4, 8):
            leakage = LeakageSchedule(schedule, pipeline.components, samples_per_cycle=spc)
            assert leakage.n_samples == leakage.n_cycles * spc
            power = leakage.evaluate(table, cortex_a7_profile())
            assert power.shape == (1, leakage.n_samples)


class TestWindows:
    def make(self, window):
        src = "\n    ".join(["add r1, r2, r3"] * 10)
        program, result, schedule, pipeline = compile_program(src, {Reg.R2: 1, Reg.R3: 2})
        leakage = LeakageSchedule(
            schedule, pipeline.components, samples_per_cycle=2, window=window
        )
        table = table_for(program, result, [{Reg.R2: 1, Reg.R3: 2}])
        return leakage, table

    def test_window_restricts_samples(self):
        full, table = self.make(None)
        windowed, _ = self.make((5, 9))
        assert windowed.n_samples == 4 * 2
        assert windowed.n_samples < full.n_samples

    def test_window_power_matches_full_slice(self):
        full, table = self.make(None)
        windowed, _ = self.make((5, 9))
        power_full = full.evaluate(table, cortex_a7_profile())
        power_win = windowed.evaluate(table, cortex_a7_profile())
        lo = 5 * 2
        assert np.allclose(power_win, power_full[:, lo : lo + windowed.n_samples])

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            self.make((5, 5))

    def test_introspection_helpers(self):
        leakage, _ = self.make(None)
        positions = leakage.sample_positions("issue_op1_s0")
        events = leakage.events_of("issue_op1_s0")
        assert len(positions) == len(events) == 10
        assert leakage.sample_positions("no_such_component").size == 0
        assert leakage.events_of("no_such_component") == []

    def test_sample_of_cycle(self):
        leakage, _ = self.make((5, 9))
        assert leakage.sample_of_cycle(5) == 0
        assert leakage.sample_of_cycle(6, phase=0.5) == 3


class TestPackedEvaluation:
    """The packed fast path agrees with the per-component reference."""

    SRC = """
        add r0, r1, r2
        eor r3, r0, r1, lsl #5
        strb r3, [r9]
        ldrh r4, [r9]
        mul r5, r3, r1
        nop
        str r5, [r9, #4]
    """

    def _packed_and_reference(self, window=None, profile=None, config=None):
        program = assemble(self.SRC + "\n    bx lr")
        executor = Executor(program)
        state = executor.fresh_state()
        state.regs[Reg.R9] = 0x30000
        result = executor.run(state=state)
        pipeline = Pipeline(config)
        schedule = pipeline.schedule(result.records)
        leakage = LeakageSchedule(
            schedule, pipeline.components, samples_per_cycle=2, window=window
        )
        rows = [
            {Reg.R1: 0x1234, Reg.R2: 0xFF00FF, Reg.R9: 0x30000},
            {Reg.R1: 0xDEAD, Reg.R2: 0x1, Reg.R9: 0x30000},
            {Reg.R1: 0x0, Reg.R2: 0xFFFFFFFF, Reg.R9: 0x30000},
        ]
        reference_table = table_for(program, result, rows)
        keep = {
            (dyn, kind)
            for compiled in leakage.compiled.values()
            for (dyn, kind) in compiled.refs
            if dyn >= 0 and kind is not None
        }
        tape = compile_tape(program, result.records, (sorted(rows[0]), ()), keep=keep)
        regs = {
            reg: np.array([row[reg] for row in rows], dtype=np.uint32)
            for reg in rows[0]
        }
        packed_table = tape.run(len(rows), regs=regs).table
        profile = profile if profile is not None else cortex_a7_profile()
        reference = leakage.evaluate(reference_table, profile)
        packed = leakage.evaluate(packed_table, profile)
        return packed, reference

    def test_full_schedule_matches(self):
        packed, reference = self._packed_and_reference()
        np.testing.assert_allclose(packed, reference, atol=1e-10)

    def test_windowed_schedule_matches(self):
        packed, reference = self._packed_and_reference(window=(3, 9))
        np.testing.assert_allclose(packed, reference, atol=1e-10)

    def test_gain_and_overrides_match(self):
        profile = dataclasses.replace(cortex_a7_profile(), gain=2.5)
        packed, reference = self._packed_and_reference(profile=profile)
        np.testing.assert_allclose(packed, reference, atol=1e-10)

    def test_zero_drive_events_match(self):
        # lsu_remanence=False emits explicit MDR/align zero drives whose
        # HD contribution is popcount(previous value); nop-reset buses
        # exercise the zeros row as both gather and pair member.
        config = PipelineConfig(lsu_remanence=False, nop_zeroes_issue_bus=True)
        packed, reference = self._packed_and_reference(config=config)
        np.testing.assert_allclose(packed, reference, atol=1e-10)

    def test_plan_cached_per_layout_and_profile(self):
        program = assemble(self.SRC + "\n    bx lr")
        executor = Executor(program)
        state = executor.fresh_state()
        state.regs[Reg.R9] = 0x30000
        result = executor.run(state=state)
        pipeline = Pipeline()
        schedule = pipeline.schedule(result.records)
        leakage = LeakageSchedule(schedule, pipeline.components)
        tape = compile_tape(program, result.records, ((Reg.R1, Reg.R9), ()))
        regs = {Reg.R1: np.array([1], dtype=np.uint32), Reg.R9: np.array([0x30000], dtype=np.uint32)}
        table = tape.run(1, regs=regs).table
        profile = cortex_a7_profile()

        def plan_for(profile):
            leakage.evaluate(table, profile)
            return leakage._packed_plans[(id(table.layout), profile.identity())]

        plan_first = plan_for(profile)
        # Same layout and profile content -> the same plan, whether the
        # profile is the same object or a separately built equal one.
        assert plan_for(profile) is plan_first
        assert plan_for(cortex_a7_profile()) is plan_first
        assert len(leakage._packed_plans) == 1
        # Any weight or gain difference -> a plan of its own.
        variants = (
            profile.with_override("align_store", ComponentWeights(2.0, 0.1)),
            profile.with_kind(ComponentKind.ALU_OUT, ComponentWeights(0.0, 0.5)),
            dataclasses.replace(profile, gain=2.0),
        )
        plans = [plan_for(variant) for variant in variants]
        assert len({id(plan) for plan in [plan_first, *plans]}) == 4
        assert len(leakage._packed_plans) == 4
