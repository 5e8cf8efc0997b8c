"""Streaming engine: monolithic vs chunked vs parallel CPA campaigns.

Times the same Figure-3-style campaign (round-1 AES, HW(SubBytes out)
CPA) through the three acquisition modes, and demonstrates the memory
contract: a streamed campaign larger than what the monolithic trace
matrix would allocate completes with peak Python-heap usage bounded by
the chunk, not the campaign.
"""

import tracemalloc

from repro.campaigns.accumulators import CpaAccumulator
from repro.campaigns.engine import StreamingCampaign
from repro.crypto.aes_asm import LAYOUT, round1_only_program
from repro.power.acquisition import random_inputs
from repro.power.scope import ScopeConfig
from repro.sca.cpa import cpa_attack
from repro.sca.models import hw_sbox_matrix

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SCOPE = ScopeConfig(noise_sigma=40.0, n_averages=16, quantize_bits=8)
N_TRACES = 2000
CHUNK = 250
SEED = 0xBE9C


def _engine(**kwargs) -> StreamingCampaign:
    return StreamingCampaign(
        round1_only_program(KEY),
        scope=SCOPE,
        entry="aes_round1",
        seed=SEED,
        **kwargs,
    )


def _inputs(n_traces=N_TRACES):
    return random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=SEED)


def _streamed_cpa(engine, inputs, chunk_size, jobs=1):
    plaintexts = inputs.mem_bytes[LAYOUT.state]
    accumulator = CpaAccumulator()
    for chunk in engine.stream(inputs, chunk_size=chunk_size, jobs=jobs):
        chunk_plaintexts = plaintexts[chunk.start : chunk.stop]
        accumulator.update(chunk.traces, hw_sbox_matrix(chunk_plaintexts, 0))
    return accumulator.result()


def test_monolithic_campaign(once):
    inputs = _inputs()
    engine = _engine()

    def run():
        trace_set = engine.acquire(inputs)
        plaintexts = inputs.mem_bytes[LAYOUT.state]
        return cpa_attack(trace_set.traces, hw_sbox_matrix(plaintexts, 0))

    result = once(run)
    assert result.best_guess == KEY[0]


def test_chunked_campaign(once):
    inputs = _inputs()
    engine = _engine()
    result = once(_streamed_cpa, engine, inputs, CHUNK)
    assert result.best_guess == KEY[0]
    assert result.n_traces == N_TRACES


def test_parallel_campaign(once):
    inputs = _inputs()
    engine = _engine()
    result = once(_streamed_cpa, engine, inputs, CHUNK, 4)
    assert result.best_guess == KEY[0]


def test_streamed_campaign_outgrows_monolithic_memory(once):
    """A campaign bigger than the monolithic matrix, at bounded memory.

    The monolithic path materializes the float64 power matrix plus the
    float32 trace matrix; the streamed path's peak heap must stay well
    below even the trace matrix alone while folding more traces than
    the monolithic benchmark above.
    """
    n_traces = 2 * N_TRACES
    inputs = _inputs(n_traces)
    engine = _engine(chunk_size=CHUNK)
    n_samples = engine.compiled(inputs).leakage.n_samples
    monolithic_traces_bytes = n_traces * n_samples * 4  # float32 matrix
    monolithic_power_bytes = n_traces * n_samples * 8  # float64 power

    def run():
        tracemalloc.start()
        result = _streamed_cpa(engine, inputs, CHUNK)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return result, peak

    result, peak = once(run)
    assert result.best_guess == KEY[0]
    assert result.n_traces == n_traces
    print(
        f"\nstreamed {n_traces} traces x {n_samples} samples: "
        f"peak heap {peak / 1e6:.1f} MB vs monolithic trace matrix "
        f"{monolithic_traces_bytes / 1e6:.1f} MB (+ {monolithic_power_bytes / 1e6:.1f} MB power)"
    )
    assert peak < monolithic_traces_bytes, (
        f"streamed peak {peak} should undercut the monolithic "
        f"trace-matrix allocation {monolithic_traces_bytes}"
    )


def test_schedule_cache_amortizes_compilation(benchmark):
    """Re-acquiring through fresh engines skips schedule compilation."""
    program = round1_only_program(KEY)
    inputs = _inputs(64)
    warm = StreamingCampaign(program, scope=SCOPE, entry="aes_round1", seed=SEED)
    warm.compiled(inputs)

    def fresh_engine_compiled():
        engine = StreamingCampaign(program, scope=SCOPE, entry="aes_round1", seed=SEED)
        return engine.compiled(inputs)

    compiled = benchmark(fresh_engine_compiled)
    assert len(compiled.path) > 0
