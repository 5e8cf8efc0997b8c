"""Substrate throughput benchmarks (conventional pytest-benchmark use).

These quantify the performance budget behind the experiment harness:
assembler throughput, scalar execution vs trace-tape replay, pipeline
scheduling, leakage synthesis and CPA evaluation.
"""

import numpy as np
import pytest

from repro.crypto.aes_asm import LAYOUT, aes128_program, round1_only_program
from repro.isa.executor import run_program
from repro.isa.parser import assemble
from repro.isa.vtrace import compile_tape
from repro.power.acquisition import TraceCampaign, random_inputs
from repro.power.scope import ScopeConfig
from repro.sca.cpa import cpa_attack
from repro.sca.models import hw_sbox_model
from repro.uarch.pipeline import Pipeline

KEY = bytes(range(16))


@pytest.fixture(scope="module")
def aes_program():
    return aes128_program(KEY)


@pytest.fixture(scope="module")
def aes_records(aes_program):
    return run_program(
        aes_program, memory_init={LAYOUT.state: bytes(16)}, entry="aes_main"
    ).records


def test_assemble_aes(benchmark):
    from repro.crypto.aes_asm import aes128_source

    source = aes128_source(KEY)
    program = benchmark(assemble, source)
    assert len(program) > 400


def test_scalar_execute_aes(benchmark, aes_program):
    result = benchmark(
        run_program, aes_program, memory_init={LAYOUT.state: bytes(16)}, entry="aes_main"
    )
    assert result.dynamic_length > 4000


def test_tape_replay_aes_256_traces(benchmark, aes_program, aes_records):
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 256, size=(256, 16), dtype=np.uint16).astype(np.uint8)
    tape = compile_tape(aes_program, aes_records, ((), ((LAYOUT.state, 16),)))
    result = benchmark(tape.run, 256, mem_bytes={LAYOUT.state: pts})
    assert len(result.path) > 4000


def test_pipeline_schedule_aes(benchmark, aes_records):
    schedule = benchmark(Pipeline().schedule, aes_records)
    assert schedule.n_cycles > 3000


def test_acquisition_round1_200_traces(benchmark):
    program = round1_only_program(KEY)
    inputs = random_inputs(200, mem_blocks={LAYOUT.state: 16}, seed=1)
    campaign = TraceCampaign(
        program, scope=ScopeConfig(noise_sigma=8.0), entry="aes_round1"
    )
    trace_set = benchmark(campaign.acquire, inputs)
    assert trace_set.n_traces == 200


def test_cpa_256_guesses(benchmark):
    program = round1_only_program(KEY)
    inputs = random_inputs(500, mem_blocks={LAYOUT.state: 16}, seed=2)
    campaign = TraceCampaign(
        program, scope=ScopeConfig(noise_sigma=8.0), entry="aes_round1"
    )
    traces = campaign.acquire(inputs).traces
    pts = inputs.mem_bytes[LAYOUT.state]
    result = benchmark(cpa_attack, traces, lambda g: hw_sbox_model(pts, 0, g))
    assert result.best_guess == KEY[0]
