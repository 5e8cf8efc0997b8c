#!/usr/bin/env python
"""Hot-path benchmark harness: writes ``BENCH_hotpath.json``.

Measures the acquisition pipeline on the two paper campaigns that
dominate experiment wall-time — the Figure-3 bare-metal round-1 AES
campaign and the Figure-4 windowed full-AES campaign — with every
generation of the hot path still present in the codebase:

* **tape** — the trace-compiled op tape + packed-value evaluator
  (``TraceCampaign(use_tape=True)``, the default);
* **legacy** — the instruction-dispatching vectorized executor + the
  per-component ``np.add.at`` evaluator (``use_tape=False``), i.e. the
  pre-tape hot path, kept as the semantic reference;
* **float32** — the tape plus the counter-based float32 capture chain
  (``ScopeConfig(precision="float32")``), the current throughput mode.

Two further sections target the former bottlenecks directly:
``capture`` times the oscilloscope chain alone (float64-exact vs
float32), and ``attack_curves`` times the success-curve evaluation with
the recompute-per-budget attack loop vs the prefix-snapshot pass —
verifying on the way that both produce identical success rates.

Because all paths run in one process on the same inputs, the emitted
before/after numbers are same-machine, same-moment comparisons.  The
JSON is tracked in-repo so the perf trajectory is visible per PR; CI
runs ``--smoke`` and uploads the result as an artifact.

Usage::

    PYTHONPATH=src python scripts/bench.py [--smoke] [--out BENCH_hotpath.json]
                                           [--traces N] [--repeats K] [--jobs J]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np


def _measure(fn, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {
        "min_s": round(min(times), 6),
        "median_s": round(sorted(times)[len(times) // 2], 6),
        "repeats": repeats,
    }


def _stage_timings(campaign, inputs, repeats: int) -> dict:
    """Per-stage timings of one acquisition: execute, evaluate, capture."""
    from repro.power.scope import Oscilloscope

    dtype = np.float32 if campaign.precision == "float32" else np.float64
    compiled = campaign.compile_with(inputs)
    result = campaign._run_batch(inputs, compiled)
    power = compiled.leakage.evaluate(result.table, campaign.profile, dtype=dtype)

    stages = {
        "execute": _measure(lambda: campaign._run_batch(inputs, compiled), repeats),
        "evaluate": _measure(
            lambda: compiled.leakage.evaluate(
                result.table, campaign.profile, dtype=dtype
            ),
            repeats,
        ),
        "capture": _measure(
            lambda: Oscilloscope(campaign.scope_config, seed=5).capture(power), repeats
        ),
    }

    def hot():
        batch = campaign._run_batch(inputs, compiled)
        compiled.leakage.evaluate(batch.table, campaign.profile, dtype=dtype)

    stages["hot_path"] = _measure(hot, repeats)
    stages["acquire"] = _measure(lambda: campaign.acquire(inputs), repeats)
    return stages


def _throughput(stats: dict, n_traces: int) -> float:
    return round(n_traces / stats["min_s"], 1)


def bench_figure3(n_traces: int, repeats: int) -> dict:
    """Round-1 AES bare-metal campaign (the Figure-3 acquisition)."""
    from repro.crypto.aes_asm import LAYOUT, round1_only_program
    from repro.experiments.figure3 import figure3_scope
    from repro.power.acquisition import TraceCampaign, random_inputs
    from repro.power.profile import cortex_a7_profile

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    program = round1_only_program(key)
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=0xF16003)

    out = {"n_traces": n_traces}
    variants = (
        ("tape", True, "float64-exact"),
        ("legacy", False, "float64-exact"),
        ("float32", True, "float32"),
    )
    for label, use_tape, precision in variants:
        campaign = TraceCampaign(
            program,
            profile=cortex_a7_profile(),
            scope=figure3_scope(precision),
            entry="aes_round1",
            seed=1,
            use_tape=use_tape,
        )
        stages = _stage_timings(campaign, inputs, repeats)
        stages["traces_per_sec"] = {
            "hot_path": _throughput(stages["hot_path"], n_traces),
            "acquire": _throughput(stages["acquire"], n_traces),
        }
        out[label] = stages
    out["speedup"] = {
        stage: round(
            out["legacy"][stage]["min_s"] / out["tape"][stage]["min_s"], 2
        )
        for stage in ("execute", "evaluate", "hot_path", "acquire")
    }
    # The float32 chain against the PR-2 tape baseline (same process).
    out["speedup_float32"] = {
        stage: round(
            out["tape"][stage]["min_s"] / out["float32"][stage]["min_s"], 2
        )
        for stage in ("evaluate", "capture", "hot_path", "acquire")
    }
    return out


def bench_figure4_window(n_traces: int, repeats: int) -> dict:
    """Windowed full-AES campaign (the Figure-4 acquisition geometry)."""
    from repro.campaigns.engine import StreamingCampaign
    from repro.crypto.aes_asm import LAYOUT, aes128_program
    from repro.experiments.figure4 import _subbytes_window
    from repro.power.acquisition import TraceCampaign, random_inputs
    from repro.power.profile import cortex_a7_profile

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    program = aes128_program(key)
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=0xF16004)
    prototype = StreamingCampaign(program, entry="aes_main", seed=0xF16004)
    window = _subbytes_window(program, prototype, inputs)

    out = {"n_traces": n_traces, "window_cycles": list(window)}
    for label, use_tape in (("tape", True), ("legacy", False)):
        campaign = TraceCampaign(
            program,
            profile=cortex_a7_profile(),
            entry="aes_main",
            window_cycles=window,
            seed=2,
            use_tape=use_tape,
        )
        stages = _stage_timings(campaign, inputs, repeats)
        stages["traces_per_sec"] = {
            "hot_path": _throughput(stages["hot_path"], n_traces),
            "acquire": _throughput(stages["acquire"], n_traces),
        }
        out[label] = stages
    out["speedup"] = {
        stage: round(
            out["legacy"][stage]["min_s"] / out["tape"][stage]["min_s"], 2
        )
        for stage in ("execute", "evaluate", "hot_path", "acquire")
    }
    return out


def bench_capture(n_traces: int, repeats: int) -> dict:
    """The oscilloscope chain alone: float64-exact vs float32.

    Runs both precision modes on the same noise-free figure-3 power
    matrix, so the contrast isolates the measurement-chain model
    (noise generation + FIR response + quantizer).
    """
    from repro.crypto.aes_asm import LAYOUT, round1_only_program
    from repro.experiments.figure3 import figure3_scope
    from repro.power.acquisition import TraceCampaign, random_inputs
    from repro.power.profile import cortex_a7_profile
    from repro.power.scope import Oscilloscope

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    program = round1_only_program(key)
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=0xF16003)
    campaign = TraceCampaign(
        program, profile=cortex_a7_profile(), entry="aes_round1", seed=1
    )
    compiled = campaign.compile_with(inputs)
    result = campaign._run_batch(inputs, compiled)

    out = {"n_traces": n_traces}
    for label, precision in (("float64_exact", "float64-exact"), ("float32", "float32")):
        dtype = np.float32 if precision == "float32" else np.float64
        power = compiled.leakage.evaluate(result.table, campaign.profile, dtype=dtype)
        scope_config = figure3_scope(precision)
        out["n_samples"] = int(power.shape[1])
        stats = _measure(
            lambda: Oscilloscope(scope_config, seed=5).capture(power), repeats
        )
        stats["traces_per_sec"] = _throughput(stats, n_traces)
        out[label] = stats
    out["speedup"] = round(
        out["float64_exact"]["min_s"] / out["float32"]["min_s"], 2
    )
    return out


def bench_attack_curves(smoke: bool, repeats: int) -> dict:
    """Success-curve evaluation: recompute-per-budget vs prefix snapshot.

    ``legacy`` is the seed implementation (independent subsets, a full
    CPA with the 256-model stack rebuilt at every (budget, repeat)) —
    the recompute-per-budget baseline this PR replaces.  ``recompute``
    runs from-scratch attacks over the *same* nested-prefix subsets the
    snapshot path uses, so ``identical_rates`` certifies the snapshot
    evaluation is an exact replacement; ``snapshot_float32`` adds the
    float32 capture chain and single-precision accumulation on top (the
    full shipped fast path).
    """
    from repro.experiments.success_curves import run_success_curves

    if smoke:
        common = dict(
            trace_counts=tuple(range(50, 301, 50)), n_campaign=400, n_repeats=3
        )
    else:
        common = dict(
            trace_counts=tuple(range(25, 801, 25)), n_campaign=1200, n_repeats=10
        )

    out = {
        "n_campaign": common["n_campaign"],
        "n_budgets": len(common["trace_counts"]),
        "n_repeats": common["n_repeats"],
    }
    results = {}
    for label, kwargs in (
        ("legacy", dict(method="legacy")),
        ("recompute", dict(method="recompute")),
        ("snapshot", dict(method="snapshot")),
        ("snapshot_float32", dict(method="snapshot", precision="float32")),
    ):
        stats = _measure(lambda: results.__setitem__(
            label, run_success_curves(**common, **kwargs)
        ), repeats)
        out[label] = stats
    out["identical_rates"] = (
        results["recompute"].hw_model == results["snapshot"].hw_model
        and results["recompute"].hd_model == results["snapshot"].hd_model
    )
    out["speedup"] = {
        variant: round(out["legacy"]["min_s"] / out[variant]["min_s"], 2)
        for variant in ("recompute", "snapshot", "snapshot_float32")
    }
    return out


def bench_streamed(n_traces: int, chunk_size: int, jobs: int, repeats: int) -> dict:
    """Chunked streaming acquisition, serial and fan-out."""
    from repro.campaigns.engine import StreamingCampaign, clear_schedule_cache
    from repro.crypto.aes_asm import LAYOUT, round1_only_program
    from repro.experiments.figure3 import figure3_scope
    from repro.power.acquisition import random_inputs
    from repro.power.profile import cortex_a7_profile

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    program = round1_only_program(key)
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=0xF16003)
    import os

    out = {"n_traces": n_traces, "chunk_size": chunk_size, "n_jobs": jobs}
    variants = [("serial", 1, "float64-exact"), ("serial_float32", 1, "float32")]
    if jobs > 1 and (os.cpu_count() or 1) > 1:
        # Fork fan-out only pays off with real cores; on a single-CPU
        # host it just adds pool startup and pickling overhead.
        variants.append((f"jobs{jobs}", jobs, "float64-exact"))
        variants.append((f"jobs{jobs}_float32", jobs, "float32"))
    else:
        out["fanout_skipped"] = f"cpu_count={os.cpu_count()}"
    for label, n_jobs, precision in variants:
        clear_schedule_cache()
        engine = StreamingCampaign(
            program,
            profile=cortex_a7_profile(),
            scope=figure3_scope(precision),
            entry="aes_round1",
            seed=1,
            chunk_size=chunk_size,
            jobs=n_jobs,
        )
        engine.compiled(inputs)

        def run(engine=engine):
            for _chunk in engine.stream(inputs):
                pass

        run()  # warm the workers/caches once
        stats = _measure(run, repeats)
        stats["traces_per_sec"] = _throughput(stats, n_traces)
        out[label] = stats
    return out


def bench_backends(
    n_traces: int, chunk_size: int, jobs_list: tuple[int, ...], repeats: int
) -> dict:
    """Execution backends head to head on the figure-3 float32 campaign.

    Streams the same campaign through every usable backend at every
    fan-out width, recording traces/s, each backend's ``describe()``
    provenance, and — the contract the whole matrix rests on — whether
    the acquired bytes are identical to serial.  A final section times a
    small design-space sweep against a **cold** persistent pool (workers
    must rebuild and recompile the campaign) and a **warm** one (their
    spec-keyed campaign caches already hold it).

    On a single-core host the parallel rows measure dispatch overhead,
    not speedup — the recorded ``cpu_count`` keeps that interpretable.
    """
    from repro.backends import (
        PoolBackend,
        cpu_count,
        fork_available,
        make_backend,
    )
    from repro.campaigns.engine import StreamingCampaign
    from repro.crypto.aes_asm import LAYOUT, round1_only_program
    from repro.experiments.figure3 import figure3_scope
    from repro.power.acquisition import random_inputs
    from repro.power.profile import cortex_a7_profile
    from repro.sweeps.campaign import SweepCampaign
    from repro.sweeps.spec import SweepSpec

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    program = round1_only_program(key)
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=0xF16003)
    engine = StreamingCampaign(
        program,
        profile=cortex_a7_profile(),
        scope=figure3_scope("float32"),
        entry="aes_round1",
        seed=1,
        chunk_size=chunk_size,
    )
    engine.compiled(inputs)

    def stream_through(backend, jobs):
        return np.concatenate(
            [c.traces for c in engine.stream(inputs, jobs=jobs, backend=backend)]
        )

    out = {
        "n_traces": n_traces,
        "chunk_size": chunk_size,
        "cpu_count": cpu_count(),
        "campaign": {},
    }

    reference = stream_through("serial", 1)
    policies = ["serial"] + (["fork"] if fork_available() else []) + ["spawn"]
    for policy in policies:
        rows = {}
        widths = (1,) if policy == "serial" else jobs_list
        for jobs in widths:
            backend = make_backend(policy, jobs)
            with backend:
                identical = bool(
                    np.array_equal(stream_through(backend, jobs), reference)
                )
                stats = _measure(lambda: stream_through(backend, jobs), repeats)
            stats["traces_per_sec"] = _throughput(stats, n_traces)
            stats["identical_to_serial"] = identical
            stats["describe"] = backend.describe()
            rows[f"jobs{jobs}"] = stats
        out["campaign"][policy] = rows

    # Persistent pool: the same stream with workers kept warm.
    pool = PoolBackend(jobs=max(jobs_list))
    try:
        with pool:
            cold = _measure(lambda: stream_through(pool, pool.jobs), 1)
            warm = _measure(lambda: stream_through(pool, pool.jobs), repeats)
            identical = bool(np.array_equal(stream_through(pool, pool.jobs), reference))
        out["campaign"]["pool"] = {
            f"jobs{pool.jobs}": {
                "cold_s": cold["min_s"],
                **warm,
                "traces_per_sec": _throughput(warm, n_traces),
                "identical_to_serial": identical,
                "describe": pool.describe(),
            }
        }
    finally:
        pool.close()

    # Sweep wall-time against a cold vs a warm persistent pool.
    def sweep_once(backend):
        SweepCampaign(
            SweepSpec.from_cli(("dual_issue=true,false",)),
            n_traces=max(96, n_traces // 4),
            jobs=2,
            seed=0x5EEB,
            backend=backend,
        ).run()

    pool = PoolBackend(jobs=2)
    try:
        pool.start()
        start = time.perf_counter()
        sweep_once(pool)
        cold_s = time.perf_counter() - start
        warm = _measure(lambda: sweep_once(pool), repeats)
        out["sweep_pool"] = {
            "n_traces": max(96, n_traces // 4),
            "jobs": 2,
            "cold_s": round(cold_s, 6),
            "warm_s": warm["min_s"],
            "warm_speedup": round(cold_s / warm["min_s"], 2),
            "describe": pool.describe(),
        }
    finally:
        pool.close()
    return out


def bench_comms(
    n_traces: int, chunk_size: int, jobs_list: tuple[int, ...], repeats: int
) -> dict:
    """Chunk transports head to head: bytes over IPC and traces/s.

    Sizes what actually crosses the process boundary per chunk of the
    figure-3 float32 streamed campaign — ``len(pickle.dumps(payload))``
    of each worker-side encoder's real output — for the raw slim
    transport, the worker-folded sufficient statistics
    (:class:`~repro.campaigns.reduction.SboxCpaFold` and the extreme
    case, :class:`~repro.campaigns.reduction.SboxTTestFold`), and the
    shared-memory descriptor.  Then times all three transports through
    every usable backend at every fan-out width, asserting on the way
    that worker reduction reproduces the parent-side fold bit for bit
    and that shm-transported trace bytes are identical to serial.

    On a single-core host the parallel rows measure dispatch overhead,
    not speedup — the point of the comparison is the *relative* cost of
    the transports at equal work, and the IPC byte counts, which are
    machine-independent.
    """
    import pickle

    from repro.backends import cpu_count, fork_available, make_backend
    from repro.backends.base import ChunkTask, slim_payload
    from repro.backends.shm import ShmCodec, shm_available
    from repro.campaigns.engine import StreamingCampaign
    from repro.campaigns.reduction import SboxCpaFold, SboxTTestFold
    from repro.crypto.aes_asm import LAYOUT, round1_only_program
    from repro.experiments.figure3 import figure3_scope
    from repro.power.acquisition import random_inputs
    from repro.power.profile import cortex_a7_profile
    from repro.sca.models import hw_sbox_class_model

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    program = round1_only_program(key)
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=0xF16003)
    engine = StreamingCampaign(
        program,
        profile=cortex_a7_profile(),
        scope=figure3_scope("float32"),
        entry="aes_round1",
        seed=1,
        chunk_size=chunk_size,
    )
    engine.compiled(inputs)

    cpa_fold = SboxCpaFold(byte_index=0)
    ttest_fold = SboxTTestFold(byte_index=0, key_byte=key[0])

    # -- bytes over IPC: the actual worker-side encoders on real chunks --
    serial_chunks = list(engine.stream(inputs))
    parent_path = serial_chunks[0].trace_set.path
    sizes = {"raw_pickle": [], "worker_fold_cpa": [], "worker_fold_ttest": []}
    shm_codec = ShmCodec(token="benchcomms0") if shm_available() else None
    if shm_codec is not None:
        sizes["shm_descriptor"] = []
    try:
        for chunk in serial_chunks:
            trace_set = chunk.trace_set
            task = ChunkTask(
                index=chunk.index,
                lo=chunk.start,
                hi=chunk.start + trace_set.traces.shape[0],
                scope_seed=0,
                trace_offset=chunk.start,
            )
            sizes["raw_pickle"].append(
                len(pickle.dumps(slim_payload(trace_set, parent_path)))
            )
            sizes["worker_fold_cpa"].append(
                len(pickle.dumps(cpa_fold.fold_chunk(task, trace_set)))
            )
            sizes["worker_fold_ttest"].append(
                len(pickle.dumps(ttest_fold.fold_chunk(task, trace_set)))
            )
            if shm_codec is not None:
                sizes["shm_descriptor"].append(
                    len(pickle.dumps(shm_codec.encode(task, trace_set, parent_path)))
                )
    finally:
        if shm_codec is not None:
            shm_codec.cleanup(len(serial_chunks))

    bytes_over_ipc = {
        mode: {
            "total": int(sum(values)),
            "per_chunk_max": int(max(values)),
            "per_trace": round(sum(values) / n_traces, 1),
        }
        for mode, values in sizes.items()
    }
    raw_total = bytes_over_ipc["raw_pickle"]["total"]
    bytes_over_ipc["reduction_vs_raw"] = {
        mode: round(raw_total / bytes_over_ipc[mode]["total"], 1)
        for mode in sizes
        if mode != "raw_pickle"
    }

    # -- reference results for the equivalence columns --
    reference_traces = np.concatenate([c.trace_set.traces for c in serial_chunks])
    parent_acc = cpa_fold.create()
    for chunk in serial_chunks:
        plaintexts = chunk.trace_set.inputs.mem_bytes[LAYOUT.state]
        parent_acc.update(chunk.trace_set.traces, hw_sbox_class_model(plaintexts, 0))
    reference_corr = parent_acc.result().correlations

    def consume(backend, jobs, transport=None):
        for _chunk in engine.stream(
            inputs, jobs=jobs, backend=backend, transport=transport
        ):
            pass

    def reduce_run(backend, jobs):
        return engine.reduce(
            inputs, cpa_fold, jobs=jobs, backend=backend, reduce="worker"
        )

    out = {
        "n_traces": n_traces,
        "chunk_size": chunk_size,
        "n_chunks": len(serial_chunks),
        "cpu_count": cpu_count(),
        "shm_available": shm_codec is not None,
        "bytes_over_ipc": bytes_over_ipc,
        "campaign": {},
    }

    policies = ["serial"] + (["fork"] if fork_available() else []) + ["spawn"]
    for policy in policies:
        widths = (1,) if policy == "serial" else jobs_list
        # A fresh spawn pool per run rebuilds the campaign from its
        # spec; fewer repeats keep the matrix affordable.
        policy_repeats = 2 if policy == "spawn" else repeats
        rows = {}
        for jobs in widths:
            modes = {}
            backend = make_backend(policy, jobs)
            with backend:
                consume(backend, jobs)  # warm the workers/caches once
                stats = _measure(lambda: consume(backend, jobs), policy_repeats)
                stats["traces_per_sec"] = _throughput(stats, n_traces)
                modes["raw"] = stats

                reduced = reduce_run(backend, jobs)
                identical = bool(
                    np.array_equal(
                        reduced.value.result().correlations, reference_corr
                    )
                )
                stats = _measure(lambda: reduce_run(backend, jobs), policy_repeats)
                stats["traces_per_sec"] = _throughput(stats, n_traces)
                stats["identical_to_parent_fold"] = identical
                modes["worker_fold"] = stats

                if policy != "serial" and shm_codec is not None:
                    shm_traces = np.concatenate(
                        [
                            c.trace_set.traces
                            for c in engine.stream(
                                inputs, jobs=jobs, backend=backend, transport="shm"
                            )
                        ]
                    )
                    identical = bool(np.array_equal(shm_traces, reference_traces))
                    stats = _measure(
                        lambda: consume(backend, jobs, transport="shm"),
                        policy_repeats,
                    )
                    stats["traces_per_sec"] = _throughput(stats, n_traces)
                    stats["identical_to_serial"] = identical
                    modes["shm"] = stats
            rows[f"jobs{jobs}"] = modes
        out["campaign"][policy] = rows
    return out


def bench_session_api(n_traces: int, repeats: int) -> dict:
    """The public façade end to end: ``Session.run`` vs the raw driver.

    Certifies the ``repro.api`` layer (request validation, capability
    negotiation, envelope wrapping, JSON serialization) costs nothing
    next to the campaign itself, and that the envelope the façade emits
    is schema-valid.
    """
    import json as json_mod

    from repro.api import Session, validate_envelope
    from repro.experiments.figure3 import run_figure3

    session = Session()
    out = {"n_traces": n_traces}
    out["facade"] = _measure(
        lambda: session.run("figure3", n_traces=n_traces), repeats
    )
    out["direct"] = _measure(lambda: run_figure3(n_traces=n_traces), repeats)
    out["overhead_pct"] = round(
        100.0 * (out["facade"]["min_s"] / out["direct"]["min_s"] - 1.0), 2
    )
    envelope = session.run("figure3", n_traces=n_traces)
    record = validate_envelope(envelope.to_json())
    out["envelope_bytes"] = len(json_mod.dumps(record))
    out["envelope_schema"] = record["schema"]
    return out


def bench_resilience(n_traces: int, repeats: int) -> dict:
    """Resilience layer cost: happy-path overhead and recovery latency.

    Streams the same figure-3 float32 campaign three ways — plain
    (historical dispatch), armed (retry budget + per-chunk validation,
    no faults), and through one injected transient fault (the full
    retry path) — and records the armed-vs-plain overhead.  The
    acceptance bar is under 2% on the fault-free path.
    """
    import tempfile

    from repro.backends.faults import FlakyTransform
    from repro.backends.resilience import RetryPolicy
    from repro.campaigns.engine import StreamingCampaign
    from repro.crypto.aes_asm import LAYOUT, round1_only_program
    from repro.experiments.figure3 import figure3_scope
    from repro.power.acquisition import random_inputs
    from repro.power.profile import cortex_a7_profile

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    program = round1_only_program(key)
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=0xF16003)
    chunk = max(30, n_traces // 8)
    engine = StreamingCampaign(
        program,
        profile=cortex_a7_profile(),
        scope=figure3_scope("float32"),
        entry="aes_round1",
        seed=1,
        chunk_size=chunk,
    )
    engine.compiled(inputs)

    def run(**kwargs):
        for _chunk in engine.stream(inputs, **kwargs):
            pass

    run()  # warm the compiled schedule and buffers once
    out = {"n_traces": n_traces, "chunk_size": chunk}
    out["plain"] = _measure(run, repeats)
    # Zero backoff so the bench times the machinery, not sleeps.
    policy = RetryPolicy.from_retries(2, backoff_base=0.0)
    out["armed"] = _measure(lambda: run(retry=policy), repeats)
    out["happy_path_overhead_pct"] = round(
        100.0 * (out["armed"]["median_s"] / out["plain"]["median_s"] - 1.0), 2
    )
    out["overhead_budget_pct"] = 2.0

    # Recovery latency: one transient fault per run, absorbed by the
    # retry path (a fresh ledger per repeat re-arms the fault).
    with tempfile.TemporaryDirectory(prefix="bench-resilience-") as workdir:
        counter = {"n": 0}

        def faulted():
            counter["n"] += 1
            flaky = FlakyTransform(
                f"{workdir}/ledger-{counter['n']}", fail_times=1
            )
            run(power_transform=flaky, retry=policy)

        out["recovered"] = _measure(faulted, repeats)
    out["recovery_latency_s"] = round(
        max(0.0, out["recovered"]["median_s"] - out["plain"]["median_s"]), 6
    )
    return out


def bench_corpus(n_traces: int) -> dict:
    """Manifest-driven batch throughput: cold run vs store-served rerun.

    Expands a 3-workload x 2-config manifest (6 cells), runs it cold
    into a fresh artifact store, then reruns the identical manifest so
    every cell is served from disk.  Records cells/min for both passes
    and the warm speedup — the number the content-addressed store earns.
    """
    import tempfile

    from repro.corpus.manifest import GridEntry, Manifest
    from repro.corpus.runner import CorpusCampaign

    manifest = Manifest(
        name="bench",
        workloads=("present-round", "memcpy", "aes-sbox-tablefree"),
        configs=(
            GridEntry("baseline"),
            GridEntry("single-issue", overrides=(("dual_issue", False),)),
        ),
        budgets=(n_traces,),
    )

    def cells_per_min(result):
        return round(60.0 * len(result.cells) / result.seconds, 1)

    with tempfile.TemporaryDirectory(prefix="bench-corpus-") as store:
        cold = CorpusCampaign(manifest, store=store).run()
        warm = CorpusCampaign(manifest, store=store).run()

    return {
        "n_traces": n_traces,
        "n_cells": len(cold.cells),
        "workloads": list(manifest.workloads),
        "configs": [entry.name for entry in manifest.configs],
        "cold": {
            "seconds": round(cold.seconds, 6),
            "cells_per_min": cells_per_min(cold),
            "store_misses": cold.store_misses,
        },
        "warm": {
            "seconds": round(warm.seconds, 6),
            "cells_per_min": cells_per_min(warm),
            "store_hits": warm.store_hits,
        },
        "warm_speedup": round(cold.seconds / warm.seconds, 2),
        "all_cells_ok": cold.failed == 0 and warm.failed == 0,
        "warm_fully_store_served": warm.store_hits == len(warm.cells),
        "leakiest_cell": cold.ranked()[0].cell.name if cold.ranked() else None,
    }


def _start_service(spool: str, workers: int) -> tuple:
    """Launch ``repro serve`` on an ephemeral port; returns (proc, port)."""
    import os
    import subprocess

    try:
        os.unlink(os.path.join(spool, "port"))  # a restart must re-discover
    except FileNotFoundError:
        pass
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--spool", spool, "--workers", str(workers),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )
    port_path = os.path.join(spool, "port")
    deadline = time.time() + 30
    while time.time() < deadline:
        if os.path.exists(port_path) and process.poll() is None:
            with open(port_path) as handle:
                return process, int(handle.read())
        if process.poll() is not None:
            raise RuntimeError("repro serve died at startup")
        time.sleep(0.05)
    process.kill()
    raise RuntimeError("repro serve never published its port")


def bench_service(
    total_requests: int,
    n_variants: int,
    n_traces: int,
    workers: int,
    concurrency: int,
    restart_jobs: int,
    restart_traces: int,
) -> dict:
    """The HTTP service under load, plus a mid-bench ``kill -9`` restart.

    Phase 1 drives a running ``repro serve`` with the zipf-ish request
    mix of :mod:`repro.service.loadgen` — sustained throughput, p50/p95
    latency split by cache disposition, dedup rate and the peak queue
    depth observed.  Phase 2 submits a batch of distinct slower jobs,
    SIGKILLs the whole service mid-batch, restarts it on the same spool
    and counts lost jobs (the acceptance number is zero: recovery
    re-queues every claimed-but-unfinished job and completes it).
    """
    import os
    import signal
    import subprocess
    import tempfile

    from repro.service.client import ServiceClient
    from repro.service.loadgen import run_load

    out: dict = {
        "workers": workers,
        "concurrency": concurrency,
        "mix": {
            "n_variants": n_variants,
            "n_traces": n_traces,
            "weights": "zipf (1/rank)",
        },
    }

    with tempfile.TemporaryDirectory(prefix="bench-service-") as spool_root:
        spool = os.path.join(spool_root, "spool")
        process, port = _start_service(spool, workers)
        try:
            # warm one variant so the run starts with a live worker Session
            ServiceClient("127.0.0.1", port).run(
                "figure3",
                {"schema": "repro.request/1", "n_traces": n_traces, "seed": 1000,
                 "precision": "float32"},
            )
            report = run_load(
                "127.0.0.1",
                port,
                total_requests=total_requests,
                concurrency=concurrency,
                n_variants=n_variants,
                n_traces=n_traces,
            )
            out["sustained"] = report.to_json()
            out["sustained"]["target_runs_per_min"] = 1000.0
            out["sustained"]["meets_target"] = report.runs_per_min >= 1000.0
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()

    with tempfile.TemporaryDirectory(prefix="bench-service-restart-") as spool_root:
        spool = os.path.join(spool_root, "spool")
        process, port = _start_service(spool, workers)
        client = ServiceClient("127.0.0.1", port)
        submitted = []
        killed_cleanly = False
        try:
            for index in range(restart_jobs):
                body = client.submit(
                    "figure3",
                    {"schema": "repro.request/1", "n_traces": restart_traces,
                     "seed": 2000 + index},
                )
                submitted.append(body["id"])
            # let a worker claim work, then pull the plug mid-job
            deadline = time.time() + 60
            while time.time() < deadline:
                states = [client.status(job_id)["state"] for job_id in submitted]
                if any(state != "queued" for state in states):
                    break
                time.sleep(0.02)
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
            killed_cleanly = True
        finally:
            if not killed_cleanly and process.poll() is None:
                process.kill()

        restart_started = time.time()
        process, port = _start_service(spool, workers)
        try:
            client = ServiceClient("127.0.0.1", port)
            lost = 0
            for job_id in submitted:
                envelope = client.result(job_id, wait=True, timeout=600)
                if envelope.get("error") or envelope.get("scenario") != "figure3":
                    lost += 1
            out["restart"] = {
                "jobs": restart_jobs,
                "n_traces": restart_traces,
                "lost_jobs": lost,
                "recovered_in_s": round(time.time() - restart_started, 3),
            }
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small sizes for CI")
    parser.add_argument("--out", default="BENCH_hotpath.json")
    parser.add_argument(
        "--section",
        choices=(
            "all", "hotpath", "backends", "resilience", "comms", "service",
            "corpus",
        ),
        default="all",
        help="which benchmark family to run (default: all)",
    )
    parser.add_argument(
        "--list-sections",
        action="store_true",
        help="print the available --section names and exit",
    )
    parser.add_argument(
        "--service-out",
        default="BENCH_service.json",
        help="output path of the HTTP-service benchmark",
    )
    parser.add_argument(
        "--comms-out",
        default="BENCH_comms.json",
        help="output path of the chunk-transport (comms) benchmark",
    )
    parser.add_argument(
        "--backends-out",
        default="BENCH_backends.json",
        help="output path of the execution-backend benchmark",
    )
    parser.add_argument(
        "--resilience-out",
        default="BENCH_resilience.json",
        help="output path of the resilience-layer benchmark",
    )
    parser.add_argument(
        "--corpus-out",
        default="BENCH_corpus.json",
        help="output path of the corpus batch benchmark",
    )
    parser.add_argument("--traces", type=int, default=None, help="figure3 batch size")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=4, help="streamed fan-out width")
    parser.add_argument(
        "--no-streamed", action="store_true", help="skip the streamed/fan-out bench"
    )
    args = parser.parse_args(argv)

    if args.list_sections:
        action = next(a for a in parser._actions if a.dest == "section")
        for name in action.choices:
            print(name)
        return 0

    n3 = args.traces or (600 if args.smoke else 3000)
    n4 = max(30, n3 // 30)
    repeats = args.repeats or (2 if args.smoke else 5)

    if args.section == "service":
        total = 80 if args.smoke else 400
        sreport = {
            "schema": "bench_service/1",
            "smoke": bool(args.smoke),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "benchmarks": {},
        }
        print(f"HTTP service under load ({total} requests) ...", flush=True)
        bench_started = time.time()
        sreport["benchmarks"]["service_zipf_mix"] = bench_service(
            total_requests=total,
            n_variants=8 if args.smoke else 12,
            n_traces=32,
            workers=1,
            concurrency=4,
            restart_jobs=3 if args.smoke else 6,
            restart_traces=2000 if args.smoke else 6000,
        )
        sreport["wall_s"] = round(time.time() - bench_started, 2)
        service_path = Path(args.service_out)
        service_path.write_text(json.dumps(sreport, indent=2) + "\n")
        print(f"wrote {service_path}")
        section = sreport["benchmarks"]["service_zipf_mix"]
        sustained = section["sustained"]
        print(
            f"  sustained: {sustained['runs_per_min']:.0f} runs/min "
            f"(target {sustained['target_runs_per_min']:.0f}, "
            f"met: {sustained['meets_target']}), "
            f"dedup rate {sustained['dedup_rate']:.2f}, "
            f"max queue depth {sustained['max_queue_depth']}"
            f"/{sustained['max_queue_bound']}"
        )
        latency = sustained["latency"]
        for disposition in ("all", "miss", "hit", "coalesced"):
            stats = latency.get(disposition)
            if stats:
                print(
                    f"  latency[{disposition:9s}] p50 {stats['p50_ms']:8.1f} ms   "
                    f"p95 {stats['p95_ms']:8.1f} ms   (n={stats['n']})"
                )
        if sustained.get("cache_hit_speedup"):
            print(f"  cache-hit speedup: {sustained['cache_hit_speedup']:.0f}x (p50 miss/hit)")
        restart = section["restart"]
        print(
            f"  restart: {restart['jobs']} jobs, kill -9 mid-run, "
            f"lost {restart['lost_jobs']}, recovered in {restart['recovered_in_s']:.1f}s"
        )
        return 0

    if args.section in ("all", "corpus"):
        ncorp = args.traces or (64 if args.smoke else 200)
        xreport = {
            "schema": "bench_corpus/1",
            "smoke": bool(args.smoke),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "benchmarks": {},
        }
        print(f"corpus batch (6 cells, n={ncorp} each) ...", flush=True)
        bench_started = time.time()
        xreport["benchmarks"]["corpus_batch"] = bench_corpus(ncorp)
        xreport["wall_s"] = round(time.time() - bench_started, 2)
        corpus_path = Path(args.corpus_out)
        corpus_path.write_text(json.dumps(xreport, indent=2) + "\n")
        print(f"wrote {corpus_path}")
        section = xreport["benchmarks"]["corpus_batch"]
        print(
            f"  cold: {section['cold']['cells_per_min']:.1f} cells/min -> "
            f"warm (store-served): {section['warm']['cells_per_min']:.1f} cells/min "
            f"({section['warm_speedup']:.0f}x)"
        )
        print(
            f"  all cells ok: {section['all_cells_ok']}, "
            f"warm fully store-served: {section['warm_fully_store_served']}, "
            f"leakiest: {section['leakiest_cell']}"
        )
        if args.section == "corpus":
            return 0

    if args.section in ("all", "backends"):
        nb = args.traces or (240 if args.smoke else 600)
        jobs_list = (1, 2) if args.smoke else (1, 2, 4, 8)
        chunk = max(30, nb // 8)
        breport = {
            "schema": "bench_backends/1",
            "smoke": bool(args.smoke),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "benchmarks": {},
        }
        print(
            f"execution backends (n={nb}, chunks of {chunk}, jobs={jobs_list}) ...",
            flush=True,
        )
        bench_started = time.time()
        breport["benchmarks"]["figure3_float32_backends"] = bench_backends(
            nb, chunk, jobs_list, max(2, repeats)
        )
        breport["wall_s"] = round(time.time() - bench_started, 2)
        backends_path = Path(args.backends_out)
        backends_path.write_text(json.dumps(breport, indent=2) + "\n")
        print(f"wrote {backends_path}")
        section = breport["benchmarks"]["figure3_float32_backends"]
        for policy, rows in section["campaign"].items():
            for label, stats in rows.items():
                print(
                    f"  {policy:6s} {label:6s} {stats['traces_per_sec']:8.0f} traces/s"
                    f"   identical_to_serial={stats['identical_to_serial']}"
                )
        sweep = section["sweep_pool"]
        print(
            f"  sweep via persistent pool: cold {sweep['cold_s']:.2f}s -> "
            f"warm {sweep['warm_s']:.2f}s  ({sweep['warm_speedup']:.2f}x)"
        )
        if args.section == "backends":
            return 0

    if args.section in ("all", "resilience"):
        nr = args.traces or (240 if args.smoke else 600)
        rreport = {
            "schema": "bench_resilience/1",
            "smoke": bool(args.smoke),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "benchmarks": {},
        }
        print(f"resilience layer (n={nr}, repeats={repeats}) ...", flush=True)
        bench_started = time.time()
        rreport["benchmarks"]["figure3_float32_resilience"] = bench_resilience(
            nr, max(2, repeats)
        )
        rreport["wall_s"] = round(time.time() - bench_started, 2)
        resilience_path = Path(args.resilience_out)
        resilience_path.write_text(json.dumps(rreport, indent=2) + "\n")
        print(f"wrote {resilience_path}")
        section = rreport["benchmarks"]["figure3_float32_resilience"]
        print(
            f"  happy path: plain {section['plain']['median_s']*1e3:.1f} ms -> "
            f"armed {section['armed']['median_s']*1e3:.1f} ms  "
            f"({section['happy_path_overhead_pct']:+.2f}% overhead, "
            f"budget {section['overhead_budget_pct']:.1f}%)"
        )
        print(
            f"  recovery: one transient fault {section['recovered']['median_s']*1e3:.1f} ms "
            f"(+{section['recovery_latency_s']*1e3:.1f} ms over plain)"
        )
        if args.section == "resilience":
            return 0

    if args.section in ("all", "comms"):
        nc = args.traces or (240 if args.smoke else 600)
        chunk = max(30, nc // 8)
        jobs_list = (2,) if args.smoke else (2, 4)
        creport = {
            "schema": "bench_comms/1",
            "smoke": bool(args.smoke),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "benchmarks": {},
        }
        print(
            f"chunk transports (n={nc}, chunks of {chunk}, jobs={jobs_list}) ...",
            flush=True,
        )
        bench_started = time.time()
        creport["benchmarks"]["figure3_float32_comms"] = bench_comms(
            nc, chunk, jobs_list, max(2, repeats)
        )
        creport["wall_s"] = round(time.time() - bench_started, 2)
        comms_path = Path(args.comms_out)
        comms_path.write_text(json.dumps(creport, indent=2) + "\n")
        print(f"wrote {comms_path}")
        section = creport["benchmarks"]["figure3_float32_comms"]
        ipc = section["bytes_over_ipc"]
        print(f"  bytes over IPC (n={section['n_traces']}, {section['n_chunks']} chunks):")
        for mode, stats in ipc.items():
            if mode == "reduction_vs_raw":
                continue
            factor = ipc["reduction_vs_raw"].get(mode)
            suffix = f"   {factor:.1f}x smaller than raw" if factor else ""
            print(f"    {mode:18s} {stats['total']:>12,} B total{suffix}")
        for policy, rows in section["campaign"].items():
            for label, modes in rows.items():
                for mode, stats in modes.items():
                    checks = [
                        f"{flag}={stats[flag]}"
                        for flag in ("identical_to_parent_fold", "identical_to_serial")
                        if flag in stats
                    ]
                    print(
                        f"  {policy:6s} {label:6s} {mode:11s} "
                        f"{stats['traces_per_sec']:8.0f} traces/s"
                        + ("   " + " ".join(checks) if checks else "")
                    )
        if args.section == "comms":
            return 0

    started = time.time()
    report = {
        "schema": "bench_hotpath/2",
        "smoke": bool(args.smoke),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "benchmarks": {},
    }
    print(f"figure3 acquisition (n={n3}, repeats={repeats}) ...", flush=True)
    report["benchmarks"]["figure3_round1_baremetal"] = bench_figure3(n3, repeats)
    print(f"figure4 windowed acquisition (n={n4}, repeats={repeats}) ...", flush=True)
    report["benchmarks"]["figure4_windowed_aes"] = bench_figure4_window(n4, repeats)
    print(f"capture chain (n={n3}, repeats={repeats}) ...", flush=True)
    report["benchmarks"]["capture"] = bench_capture(n3, repeats)
    print("attack curves (recompute vs snapshot) ...", flush=True)
    report["benchmarks"]["attack_curves"] = bench_attack_curves(
        args.smoke, max(1, repeats // 2)
    )
    print(f"session façade overhead (n={n4}, repeats={repeats}) ...", flush=True)
    report["benchmarks"]["session_api"] = bench_session_api(n4, repeats)
    if not args.no_streamed:
        chunk = max(100, n3 // 8)
        print(f"streamed figure3 (chunks of {chunk}, jobs={args.jobs}) ...", flush=True)
        report["benchmarks"]["figure3_streamed"] = bench_streamed(
            n3, chunk, args.jobs, max(2, repeats // 2)
        )

    report["wall_s"] = round(time.time() - started, 2)
    report["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    )

    path = Path(args.out)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {path}")

    for name, bench in report["benchmarks"].items():
        if "tape" in bench:
            print(f"\n{name} (n={bench['n_traces']}):")
            for stage, factor in bench["speedup"].items():
                tape_s = bench["tape"][stage]["min_s"]
                legacy_s = bench["legacy"][stage]["min_s"]
                print(
                    f"  {stage:10s}  {legacy_s*1e3:8.1f} ms -> {tape_s*1e3:8.1f} ms"
                    f"   {factor:5.2f}x  (legacy -> tape)"
                )
            for stage, factor in bench.get("speedup_float32", {}).items():
                tape_s = bench["tape"][stage]["min_s"]
                fast_s = bench["float32"][stage]["min_s"]
                print(
                    f"  {stage:10s}  {tape_s*1e3:8.1f} ms -> {fast_s*1e3:8.1f} ms"
                    f"   {factor:5.2f}x  (tape -> float32)"
                )
        elif name == "capture":
            exact = bench["float64_exact"]
            fast = bench["float32"]
            print(
                f"\ncapture (n={bench['n_traces']}): "
                f"{exact['min_s']*1e3:.1f} ms -> {fast['min_s']*1e3:.1f} ms  "
                f"{bench['speedup']:.2f}x "
                f"({fast['traces_per_sec']:.0f} traces/s float32)"
            )
        elif name == "session_api":
            print(
                f"\nsession_api (n={bench['n_traces']}): facade "
                f"{bench['facade']['min_s']*1e3:.1f} ms vs direct "
                f"{bench['direct']['min_s']*1e3:.1f} ms "
                f"({bench['overhead_pct']:+.2f}% overhead, "
                f"envelope {bench['envelope_bytes']} B, "
                f"schema {bench['envelope_schema']})"
            )
        elif name == "attack_curves":
            print(
                f"\nattack_curves ({bench['n_budgets']} budgets x "
                f"{bench['n_repeats']} resamplings, identical rates: "
                f"{bench['identical_rates']}):"
            )
            for variant, factor in bench["speedup"].items():
                print(
                    f"  legacy {bench['legacy']['min_s']:.2f} s -> "
                    f"{variant} {bench[variant]['min_s']:.2f} s   {factor:.2f}x"
                )
        else:
            serial = bench["serial"]["traces_per_sec"]
            line = f"\n{name}: serial {serial:.0f} traces/s"
            for key in bench:
                if key in ("serial", "n_traces", "chunk_size", "n_jobs", "fanout_skipped"):
                    continue
                if isinstance(bench[key], dict) and "traces_per_sec" in bench[key]:
                    line += f", {key} {bench[key]['traces_per_sec']:.0f} traces/s"
            print(line)
    print(f"\npeak RSS: {report['peak_rss_mb']} MB, total {report['wall_s']}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
