"""Streaming engine: chunking, determinism, parallelism, schedule cache."""

import gc

import numpy as np
import pytest
import rawchunks

from repro.campaigns import engine as engine_module
from repro.campaigns.engine import (
    StreamingCampaign,
    clear_schedule_cache,
    schedule_cache_info,
    schedule_compiles,
)
from repro.campaigns.reduction import ChunkFold
from repro.crypto.aes_asm import LAYOUT, aes128_program
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.power.acquisition import TraceCampaign, random_inputs
from repro.power.scope import ScopeConfig

SRC = """
    add r0, r1, r2
    eor r3, r0, r1
    lsl r4, r3, #3
    str r3, [r9]
    bx lr
    .org 0x30000
buf:
    .space 64
"""

#: SRC with two entry points, for cache-key tests on ``entry``
ENTRY_SRC = "main:\n" + SRC.replace("    bx lr", "alt:\n    sub r5, r1, r2\n    bx lr", 1)


def make_inputs(n=48, seed=11):
    inputs = random_inputs(n, reg_names=(Reg.R1, Reg.R2), seed=seed)
    inputs.regs[Reg.R9] = np.full(n, 0x30000, dtype=np.uint32)
    return inputs


def make_engine(seed=0xE1, **kwargs):
    return StreamingCampaign(
        assemble(SRC), scope=ScopeConfig(noise_sigma=3.0), seed=seed, **kwargs
    )


class ChunkInputsFold(ChunkFold):
    """Records each chunk's bounds, row count and ``r1`` input slice."""

    def create(self):
        return []

    def fold_chunk(self, task, trace_set):
        return (task.lo, task.hi, trace_set.n_traces, trace_set.inputs.regs[Reg.R1])

    def merge_state(self, accumulator, task, state):
        accumulator.append(state)
        return accumulator


class TestMonolithicEquivalence:
    def test_engine_acquire_equals_legacy_campaign(self):
        inputs = make_inputs()
        legacy = TraceCampaign(
            assemble(SRC), scope=ScopeConfig(noise_sigma=3.0), seed=0xE1
        ).acquire(inputs)
        engine = make_engine()
        np.testing.assert_array_equal(engine.acquire(inputs).traces, legacy.traces)

    def test_single_chunk_stream_equals_monolithic(self):
        inputs = make_inputs()
        monolithic = make_engine().acquire(inputs)
        chunks = rawchunks.chunks(make_engine(), inputs, chunk_size=1_000)
        assert len(chunks) == 1
        np.testing.assert_array_equal(chunks[0]["traces"], monolithic.traces)


class TestChunking:
    def test_chunk_bounds_cover_the_campaign(self):
        engine = make_engine()
        assert engine.chunk_bounds(10, None) == [(0, 10)]
        assert engine.chunk_bounds(10, 100) == [(0, 10)]
        assert engine.chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert engine.chunk_bounds(3, 1) == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError):
            engine.chunk_bounds(10, 0)

    @pytest.mark.parametrize("chunk_size", (1, 7, 16))
    def test_chunks_tile_the_inputs(self, chunk_size):
        inputs = make_inputs()
        seen = make_engine().reduce(inputs, ChunkInputsFold(), chunk_size=chunk_size).value
        covered = 0
        for lo, hi, rows, r1 in seen:
            assert (lo, rows) == (covered, hi - lo)
            np.testing.assert_array_equal(r1, inputs.regs[Reg.R1][lo:hi])
            covered = hi
        assert covered == inputs.n_traces

    def test_stream_is_deterministic(self):
        inputs = make_inputs()
        engine = make_engine()
        first = rawchunks.traces(engine, inputs, chunk_size=16)
        second = rawchunks.traces(engine, inputs, chunk_size=16)
        np.testing.assert_array_equal(first, second)

    def test_chunks_have_distinct_noise(self):
        inputs = make_inputs()
        chunks = rawchunks.chunks(make_engine(), inputs, chunk_size=24)
        assert len(chunks) == 2
        # Same program, same shapes — only the noise stream differs.
        assert not np.array_equal(chunks[0]["traces"], chunks[1]["traces"])


class TestParallel:
    def test_parallel_stream_equals_serial(self):
        inputs = make_inputs()
        engine = make_engine()
        serial = rawchunks.chunks(engine, inputs, chunk_size=8, jobs=1)
        parallel = rawchunks.chunks(engine, inputs, chunk_size=8, jobs=3)
        assert [c["lo"] for c in serial] == [c["lo"] for c in parallel]
        for left, right in zip(serial, parallel):
            np.testing.assert_array_equal(left["traces"], right["traces"])

    def test_parallel_chunks_carry_value_tables(self):
        inputs = make_inputs()
        for chunk in rawchunks.chunks(
            make_engine(), inputs, table=True, chunk_size=16, jobs=2
        ):
            assert chunk["table"] is not None
            assert chunk["table"].n_traces == chunk["traces"].shape[0]


class TestFloat32Streaming:
    """The counter-based noise stream makes chunking a no-op."""

    def make_float32_engine(self, seed=0xE1, **kwargs):
        return StreamingCampaign(
            assemble(SRC),
            scope=ScopeConfig(noise_sigma=3.0, precision="float32"),
            seed=seed,
            **kwargs,
        )

    @pytest.mark.parametrize("chunk_size", (7, 16, 60))
    def test_chunked_equals_monolithic_byte_for_byte(self, chunk_size):
        inputs = make_inputs(n=120)
        monolithic = self.make_float32_engine().acquire(inputs).traces
        chunked = rawchunks.traces(self.make_float32_engine(), inputs, chunk_size=chunk_size)
        np.testing.assert_array_equal(chunked, monolithic)

    def test_parallel_fanout_equals_monolithic(self):
        inputs = make_inputs(n=120)
        monolithic = self.make_float32_engine().acquire(inputs).traces
        parallel = rawchunks.traces(
            self.make_float32_engine(), inputs, chunk_size=32, jobs=3
        )
        np.testing.assert_array_equal(parallel, monolithic)

    def test_full_scale_pinned_across_chunks(self):
        inputs = make_inputs(n=120)
        engine = self.make_float32_engine()
        chunks = rawchunks.chunks(engine, inputs, chunk_size=40)
        pinned = engine._campaign.pinned_full_scale
        assert pinned is not None
        lsb = pinned / 256
        for chunk in chunks:
            grid = chunk["traces"] / lsb
            np.testing.assert_allclose(grid, np.rint(grid), atol=1e-2)

    @pytest.mark.parametrize("transform", [None, lambda power: power * 4.0])
    def test_single_chunk_stream_self_calibrates(self, transform):
        # One chunk needs no separate calibration pass: the lone capture
        # self-calibrates from the same leading traces, byte for byte
        # (300 traces > the 128 calibration traces).
        def counting(engine):
            runs = []
            run_checked = engine._campaign._run_checked

            def spy(batch, *args, **kwargs):
                runs.append(batch.n_traces)
                return run_checked(batch, *args, **kwargs)

            engine._campaign._run_checked = spy
            return engine, runs

        inputs = make_inputs(n=300)
        engine, monolithic_runs = counting(self.make_float32_engine())
        monolithic = engine.acquire(inputs, power_transform=transform)
        engine, streamed_runs = counting(self.make_float32_engine())
        chunks = rawchunks.chunks(engine, inputs, power_transform=transform)
        assert len(chunks) == 1
        # Exactly the batch executions of the monolithic capture: no
        # separate calibration pass over the leading traces.
        assert streamed_runs == monolithic_runs == [300]
        np.testing.assert_array_equal(chunks[0]["traces"], monolithic.traces)

    def test_figure3_chunks_sit_on_one_lsb_grid(self):
        # Every chunk of a streamed float32 Figure-3 campaign quantizes
        # against the one campaign-level full scale, so every recorded
        # value is an integer multiple of one LSB.  Two workers, so no
        # chunk can inherit a full scale its predecessor self-calibrated.
        from repro.crypto.aes_asm import LAYOUT, round1_only_program
        from repro.experiments.figure3 import figure3_scope
        from repro.power.profile import cortex_a7_profile

        scope = figure3_scope("float32")
        inputs = random_inputs(1500, mem_blocks={LAYOUT.state: 16}, seed=3)
        engine = StreamingCampaign(
            round1_only_program(bytes(range(16))),
            profile=cortex_a7_profile(),
            scope=scope,
            entry="aes_round1",
            seed=5,
            chunk_size=500,
        )
        chunks = [chunk["traces"] for chunk in rawchunks.chunks(engine, inputs, jobs=2)]
        assert len(chunks) == 3
        lsb = engine._campaign.pinned_full_scale / 2**scope.quantize_bits
        for traces in chunks:
            assert traces.dtype == np.float32
            grid = traces / lsb
            np.testing.assert_allclose(grid, np.rint(grid), atol=1e-2)

    def test_traces_are_float32(self):
        inputs = make_inputs(n=24)
        assert self.make_float32_engine().acquire(inputs).traces.dtype == np.float32

    def test_calibration_sees_the_chunk0_transform(self):
        # A pure row-wise transform factory must leave chunked ==
        # monolithic: the pre-stream calibration applies factory(0), the
        # same transform a monolithic capture self-calibrates under.
        inputs = make_inputs(n=120)
        monolithic = self.make_float32_engine().acquire(
            inputs, power_transform=lambda p: p * 4.0
        )
        chunked = rawchunks.traces(
            self.make_float32_engine(),
            inputs,
            chunk_size=40,
            power_transform_factory=lambda i: (lambda p: p * 4.0),
        )
        np.testing.assert_array_equal(chunked, monolithic.traces)


class TestAutoRangePinning:
    """Chunked float64 campaigns share one LSB (the auto-range fix)."""

    def test_multi_chunk_stream_pins_one_lsb(self):
        inputs = make_inputs(n=96)
        engine = make_engine()
        chunks = rawchunks.chunks(engine, inputs, chunk_size=32)
        pinned = engine._campaign.pinned_full_scale
        assert pinned is not None
        lsb = pinned / 256
        for chunk in chunks:
            grid = chunk["traces"] / lsb
            np.testing.assert_allclose(grid, np.rint(grid), atol=1e-2)

    def test_single_chunk_stream_stays_unpinned_and_exact(self):
        # Monolithic float64-exact behavior is part of the byte-exact
        # contract: no calibration pass, per-capture auto-range.
        inputs = make_inputs()
        engine = make_engine()
        monolithic = engine.acquire(inputs).traces
        assert engine._campaign.pinned_full_scale is None
        streamed = rawchunks.traces(make_engine(), inputs, chunk_size=1_000)
        np.testing.assert_array_equal(streamed, monolithic)

    def test_parallel_pinning_matches_serial(self):
        inputs = make_inputs(n=96)
        serial_engine = make_engine()
        serial = rawchunks.chunks(serial_engine, inputs, chunk_size=24)
        parallel_engine = make_engine()
        parallel = rawchunks.chunks(parallel_engine, inputs, chunk_size=24, jobs=3)
        assert (
            serial_engine._campaign.pinned_full_scale
            == parallel_engine._campaign.pinned_full_scale
        )
        for left, right in zip(serial, parallel):
            np.testing.assert_array_equal(left["traces"], right["traces"])


class TestScheduleCache:
    def test_second_engine_reuses_compiled_schedule(self):
        clear_schedule_cache()
        program = assemble(SRC)
        inputs = make_inputs()
        first = StreamingCampaign(program, scope=ScopeConfig(noise_sigma=3.0), seed=1)
        first.acquire(inputs)
        assert first._campaign.compile_count == 1
        second = StreamingCampaign(program, scope=ScopeConfig(noise_sigma=3.0), seed=2)
        second.acquire(inputs)
        assert second._campaign.compile_count == 0
        programs, entries = schedule_cache_info()
        assert programs >= 1 and entries >= 1

    def test_separately_assembled_programs_compile_once(self):
        clear_schedule_cache()
        inputs = make_inputs()
        before = schedule_compiles()
        first = StreamingCampaign(assemble(SRC), seed=1)
        first.acquire(inputs)
        second = StreamingCampaign(assemble(SRC), seed=2)
        second.acquire(inputs)
        assert first._campaign.compile_count == 1
        assert second._campaign.compile_count == 0
        assert schedule_compiles() - before == 1
        assert schedule_cache_info() == (1, 1)

    @pytest.mark.parametrize(
        "variant",
        [
            dict(src=ENTRY_SRC.replace("eor r3, r0, r1", "eor r3, r0, r2")),
            dict(src=ENTRY_SRC.replace("lsl r4, r3, #3", "lsl r4, r3, #2")),
            dict(entry="alt"),
            dict(window_cycles=(1, 6)),
        ],
        ids=["instruction", "immediate", "entry", "window"],
    )
    def test_each_compile_input_gets_its_own_entry(self, variant):
        inputs = make_inputs()
        clear_schedule_cache()
        StreamingCampaign(assemble(ENTRY_SRC), entry="main", window_cycles=(0, 6)).acquire(
            inputs
        )
        other = StreamingCampaign(
            assemble(variant.get("src", ENTRY_SRC)),
            entry=variant.get("entry", "main"),
            window_cycles=variant.get("window_cycles", (0, 6)),
        )
        other.acquire(inputs)
        assert other._campaign.compile_count == 1
        assert schedule_cache_info()[1] == 2

    def test_register_and_immediate_operands_key_apart(self):
        # Reg is an IntEnum: `lsl r1` and `lsl #1` compare equal as
        # operands, but they are different programs.
        by_register = assemble("    mov r0, r2, lsl r1\n    bx lr")
        by_immediate = assemble("    mov r0, r2, lsl #1\n    bx lr")
        assert by_register.content_key() != by_immediate.content_key()
        load_register = assemble("    ldr r0, [r9, r1]\n    bx lr")
        load_immediate = assemble("    ldr r0, [r9, #1]\n    bx lr")
        assert load_register.content_key() != load_immediate.content_key()

    def test_separately_assembled_copy_shares_the_digest(self):
        key = assemble(SRC).content_key()
        assert isinstance(key, str) and len(key) == 64
        assert assemble(SRC).content_key() == key

    @pytest.mark.parametrize(
        "old, new",
        [
            ("lsl r4, r3, #3", "lsl r4, r3, #4"),
            (".byte 0", ".byte 1"),
            ("buf:", "buffer:"),
        ],
        ids=["immediate", "data-byte", "label"],
    )
    def test_one_content_change_changes_the_digest(self, old, new):
        base = SRC.replace("    .space 64", "    .byte 0\n    .space 63")
        assert old in base
        assert assemble(base.replace(old, new)).content_key() != assemble(base).content_key()

    def test_aes_key_byte_compiles_separately(self):
        key = bytes(range(16))
        other_key = bytes([0xFF]) + key[1:]
        assert aes128_program(key).content_key() == aes128_program(key).content_key()
        assert aes128_program(key).content_key() != aes128_program(other_key).content_key()
        inputs = random_inputs(4, mem_blocks={LAYOUT.state: 16}, seed=5)
        clear_schedule_cache()
        counts = []
        for program in (aes128_program(key), aes128_program(key), aes128_program(other_key)):
            engine = StreamingCampaign(program, entry="aes_main")
            engine.compiled(inputs)
            counts.append(engine._campaign.compile_count)
        assert counts == [1, 0, 1]
        assert schedule_cache_info() == (2, 2)

    def test_distinct_programs_never_exceed_the_bound(self):
        clear_schedule_cache()
        inputs = make_inputs(n=4)
        bound = engine_module._SCHEDULE_CACHE_SIZE
        for shift in range(bound + 4):
            src = SRC.replace("lsl r4, r3, #3", f"lsl r4, r3, #{shift}")
            StreamingCampaign(assemble(src)).compiled(inputs)
            assert schedule_cache_info()[1] <= bound
        assert schedule_cache_info() == (bound, bound)
        # Least recently used goes first: the oldest shifts were evicted.
        before = schedule_compiles()
        StreamingCampaign(assemble(SRC.replace("lsl r4, r3, #3", "lsl r4, r3, #0"))).compiled(inputs)
        assert schedule_compiles() - before == 1

    def test_repeated_figure4_runs_do_not_grow_the_cache(self):
        from repro.api import Session

        clear_schedule_cache()
        session = Session()
        entries = []
        for seed in (1, 2, 3, 4):
            session.run("figure4", precision="float32", seed=seed)
            gc.collect()
            entries.append(schedule_cache_info()[1])
        # The prototype (windowless) and the windowed compile, once.
        assert entries == [2, 2, 2, 2]

    def test_acquire_then_stream_compiles_once(self):
        program = assemble(SRC)
        inputs = make_inputs()
        engine = StreamingCampaign(program, scope=ScopeConfig(noise_sigma=3.0), seed=3)
        engine.acquire(inputs)
        rawchunks.chunks(engine, inputs, chunk_size=8)
        assert engine._campaign.compile_count <= 1


class TestPowerTransforms:
    def test_power_transform_applies_to_every_chunk(self):
        inputs = make_inputs()
        quiet = StreamingCampaign(
            assemble(SRC),
            scope=ScopeConfig(noise_sigma=0.0, kernel=(1.0,), quantize_bits=None),
            seed=5,
        )
        plain = rawchunks.traces(quiet, inputs, chunk_size=16)
        boosted = rawchunks.traces(
            quiet, inputs, chunk_size=16, power_transform=lambda p: p * 2.0
        )
        np.testing.assert_allclose(boosted, 2.0 * plain, atol=1e-4)

    def test_transform_factory_sees_chunk_indices(self):
        inputs = make_inputs()
        quiet = StreamingCampaign(
            assemble(SRC),
            scope=ScopeConfig(noise_sigma=0.0, kernel=(1.0,), quantize_bits=None),
            seed=5,
        )
        seen = []

        def factory(index):
            seen.append(index)
            return lambda p: p + float(index)

        chunks = rawchunks.chunks(
            quiet, inputs, chunk_size=16, power_transform_factory=factory
        )
        assert seen == [0, 1, 2]
        # Chunk k's power was shifted by k.
        baseline = rawchunks.chunks(quiet, inputs, chunk_size=16)
        for chunk, plain in zip(chunks[1:], baseline[1:]):
            delta = chunk["traces"].astype(np.float64) - plain["traces"].astype(np.float64)
            assert delta.mean() == pytest.approx(chunk["index"], abs=1e-3)

    def test_transform_and_factory_are_exclusive(self):
        inputs = make_inputs()
        engine = make_engine()
        with pytest.raises(ValueError):
            rawchunks.chunks(
                engine,
                inputs,
                chunk_size=8,
                power_transform=lambda p: p,
                power_transform_factory=lambda i: (lambda p: p),
            )
