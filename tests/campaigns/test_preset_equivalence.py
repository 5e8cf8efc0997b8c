"""Streamed-vs-monolithic acquisition equivalence across *all* presets.

The engine's chunking contracts were historically only exercised on the
cortex-a7 default; every characterized preset routes different events
through the capture chain (nop bus writes, LSU remanence clears,
single-issue scheduling), so each gets the same guarantees:

* float32 (counter-based noise): any chunking — and any worker count —
  records byte-identical traces;
* float64-exact: a single-chunk stream is byte-identical to the
  monolithic acquisition.
"""

import numpy as np
import pytest
import rawchunks

from repro.campaigns.engine import StreamingCampaign
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.power.acquisition import random_inputs
from repro.power.scope import ScopeConfig
from repro.uarch.presets import PRESET_ORDER, PRESETS

#: Exercises the preset-sensitive machinery: a dual-issueable pair, a
#: nop (issue/wb bus behaviour), a shifted op, and sub-word stores
#: (LSU remanence byte lanes).
SRC = """
    mov r7, r1
    mov r8, r2
    add r0, r1, r2
    nop
    lsl r4, r0, #3
    strb r0, [r9]
    strb r1, [r10]
    bx lr
    .org 0x30000
buf_a:
    .space 64
buf_b:
    .space 64
"""


def make_inputs(n=96, seed=23):
    inputs = random_inputs(n, reg_names=(Reg.R1, Reg.R2), seed=seed)
    inputs.regs[Reg.R9] = np.full(n, 0x30000, dtype=np.uint32)
    inputs.regs[Reg.R10] = np.full(n, 0x30040, dtype=np.uint32)
    return inputs


def make_engine(preset, precision, seed=0xE7):
    return StreamingCampaign(
        assemble(SRC),
        config=PRESETS[preset](),
        scope=ScopeConfig(noise_sigma=4.0, precision=precision),
        seed=seed,
    )


@pytest.mark.parametrize("preset", PRESET_ORDER)
class TestAllPresets:
    def test_float32_chunked_equals_monolithic(self, preset):
        inputs = make_inputs()
        monolithic = make_engine(preset, "float32").acquire(inputs).traces
        for chunk_size in (17, 32):
            chunked = rawchunks.traces(
                make_engine(preset, "float32"), inputs, chunk_size=chunk_size
            )
            np.testing.assert_array_equal(chunked, monolithic)

    def test_float32_parallel_fanout_equals_monolithic(self, preset):
        inputs = make_inputs()
        monolithic = make_engine(preset, "float32").acquire(inputs).traces
        parallel = rawchunks.traces(
            make_engine(preset, "float32"), inputs, chunk_size=32, jobs=3
        )
        np.testing.assert_array_equal(parallel, monolithic)

    def test_float64_single_chunk_stream_equals_monolithic(self, preset):
        inputs = make_inputs()
        monolithic = make_engine(preset, "float64-exact").acquire(inputs).traces
        chunks = rawchunks.chunks(
            make_engine(preset, "float64-exact"), inputs, chunk_size=1_000
        )
        assert len(chunks) == 1
        np.testing.assert_array_equal(chunks[0]["traces"], monolithic)

    def test_float64_chunked_stream_is_seed_deterministic(self, preset):
        inputs = make_inputs()
        first = rawchunks.traces(make_engine(preset, "float64-exact"), inputs, chunk_size=24)
        second = rawchunks.traces(make_engine(preset, "float64-exact"), inputs, chunk_size=24)
        np.testing.assert_array_equal(first, second)


class TestPresetsDiffer:
    def test_presets_actually_change_the_measurement(self):
        # Sanity: the parametrized equivalence above is not vacuous —
        # the presets do record different traces on this program.
        inputs = make_inputs()
        traces = {
            preset: make_engine(preset, "float32").acquire(inputs).traces
            for preset in PRESET_ORDER
        }
        baseline = traces["cortex-a7"]
        differing = [
            preset
            for preset in PRESET_ORDER[1:]
            if not (
                traces[preset].shape == baseline.shape
                and np.array_equal(traces[preset], baseline)
            )
        ]
        assert len(differing) >= 3, differing
