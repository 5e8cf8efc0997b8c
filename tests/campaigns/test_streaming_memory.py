"""The streaming memory contract: peak heap is bounded by the chunk.

A streamed campaign folds more traces than fit in the monolithic float32
trace matrix while its peak Python heap (numpy buffers included, as
``tracemalloc`` sees them) stays below that one matrix.
"""

import tracemalloc

from repro.campaigns.engine import StreamingCampaign
from repro.campaigns.reduction import SboxCpaFold
from repro.crypto.aes_asm import LAYOUT, round1_only_program
from repro.power.acquisition import random_inputs
from repro.power.scope import ScopeConfig

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def test_streamed_campaign_peak_heap_undercuts_the_monolithic_matrix():
    n_traces, chunk = 6000, 250
    engine = StreamingCampaign(
        round1_only_program(KEY),
        scope=ScopeConfig(noise_sigma=40.0, n_averages=16, quantize_bits=8),
        entry="aes_round1",
        seed=0xBE9C,
        chunk_size=chunk,
        backend="serial",
    )
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=0xBE9C)
    n_samples = engine.compiled(inputs).leakage.n_samples
    monolithic_traces_bytes = n_traces * n_samples * 4  # float32 matrix

    tracemalloc.start()
    try:
        reduced = engine.reduce(inputs, SboxCpaFold(byte_index=0))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    result = reduced.value.result()
    assert result.n_traces == n_traces
    assert result.best_guess == KEY[0]
    assert peak < monolithic_traces_bytes, (
        f"streamed peak heap {peak} B should undercut the monolithic "
        f"float32 trace matrix, {monolithic_traces_bytes} B"
    )


def test_merged_chunk_state_is_freed_before_the_next_acquisition():
    # Holding the previous chunk's [256, 2712] float64 class sums (5.5 MB)
    # while the next chunk is acquired put this reduce at a 35.5 MB
    # tracemalloc peak; freeing it on merge gives 29.9 MB.
    n_traces, chunk = 4000, 250
    engine = StreamingCampaign(
        round1_only_program(KEY),
        scope=ScopeConfig(noise_sigma=40.0, n_averages=16, quantize_bits=8),
        entry="aes_round1",
        seed=0xBE9C,
        chunk_size=chunk,
        backend="serial",
    )
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=0xBE9C)
    assert engine.compiled(inputs).leakage.n_samples == 2712

    tracemalloc.start()
    try:
        reduced = engine.reduce(inputs, SboxCpaFold(byte_index=0))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert reduced.value.result().n_traces == n_traces
    assert peak < 33.0e6, f"streamed reduce peaked at {peak / 1e6:.1f} MB"
