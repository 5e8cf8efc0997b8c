"""CI comms smoke: worker reduction is exact and shm never leaks.

Four stories:

1. **worker-reduction byte-identity** — the figure-3 CPA with
   ``reduce="worker"`` over a parallel backend must reproduce the
   serial parent-side fold *bit for bit* (float32 chain);
2. **shm success** — a fully consumed ``transport="shm"`` stream is
   byte-identical to serial and leaves no ``/dev/shm/repro-*`` segment;
3. **shm fault** — a transiently failing chunk, recovered by the retry
   budget under the shm transport, still byte-identical, still no
   leaked segments;
4. **shm SIGKILL recovery** — a shm-streaming subprocess killed
   mid-campaign may orphan segments, but re-running the same campaign
   (deterministic fingerprint-derived segment names) cleans them up and
   finishes byte-identical with zero leftovers.

Usage: PYTHONPATH=src python scripts/comms_smoke.py [--out comms_report.json]
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap

import numpy as np

from repro.backends import fork_available
from repro.backends.faults import FlakyTransform
from repro.backends.resilience import RetryPolicy, clear_quarantine
from repro.campaigns.engine import StreamingCampaign
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.power.acquisition import random_inputs
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

N_TRACES = 96
CHUNK_SIZE = 24
SEED = 0xC0335
RETRY = RetryPolicy.from_retries(3, backoff_base=0.0)


def make_engine():
    return StreamingCampaign(
        assemble(SRC),
        scope=ScopeConfig(noise_sigma=3.0, precision="float32"),
        seed=SEED,
    )


def make_inputs():
    inputs = random_inputs(N_TRACES, reg_names=(Reg.R1, Reg.R2), seed=11)
    inputs.regs[Reg.R9] = np.full(N_TRACES, 0x30000, dtype=np.uint32)
    return inputs


def stream_traces(engine, inputs, **kwargs) -> np.ndarray:
    chunks = engine.stream(inputs, chunk_size=CHUNK_SIZE, **kwargs)
    return np.concatenate([chunk.traces for chunk in chunks])


def sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def leaked_segments() -> list[str]:
    from repro.backends.shm import sweep_graveyard

    sweep_graveyard()
    return sorted(glob.glob("/dev/shm/repro-*"))


def scenario_worker_reduction(backend: str) -> dict:
    """figure3 under ``reduce="worker"`` == the serial parent fold."""
    from repro.experiments.figure3 import run_figure3

    common = dict(n_traces=240, chunk_size=60, precision="float32", seed=0xF16003)
    serial = run_figure3(**common)
    reduced = run_figure3(**common, jobs=2, backend=backend, reduce="worker")
    assert np.array_equal(
        reduced.cpa.correlations, serial.cpa.correlations
    ), "worker reduction diverged from the serial parent fold"
    assert reduced.cpa.best_guess == serial.cpa.best_guess
    return {
        "backend": backend,
        "correlations_sha256": sha(serial.cpa.correlations),
        "best_guess": int(serial.cpa.best_guess),
    }


def scenario_shm_success(clean_sha: str, backend: str) -> dict:
    traces = stream_traces(make_engine(), make_inputs(), jobs=2, backend=backend,
                           transport="shm")
    assert sha(traces) == clean_sha, "shm transport diverged from serial"
    leaks = leaked_segments()
    assert not leaks, f"shm success path leaked segments: {leaks}"
    return {"sha256": clean_sha, "leaked": []}


def scenario_shm_fault(clean_sha: str, workdir: str, backend: str) -> dict:
    flaky = FlakyTransform(os.path.join(workdir, "shm-flaky-ledger"), fail_times=2)
    traces = stream_traces(
        make_engine(), make_inputs(), jobs=2, backend=backend,
        power_transform=flaky, retry=RETRY, transport="shm",
    )
    assert sha(traces) == clean_sha, "shm + retry diverged from serial"
    leaks = leaked_segments()
    assert not leaks, f"shm fault path leaked segments: {leaks}"
    return {"sha256": clean_sha, "leaked": []}


#: Streams this script's campaign over shm and SIGKILLs itself after the
#: first chunk lands — deliberately orphaning any in-flight segments.
KILL_DRIVER = textwrap.dedent(
    """
    import importlib.util
    import os
    import signal
    import sys

    spec = importlib.util.spec_from_file_location("comms_smoke", sys.argv[1])
    comms = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(comms)

    stream = comms.make_engine().stream(
        comms.make_inputs(),
        chunk_size=comms.CHUNK_SIZE,
        jobs=2,
        backend=sys.argv[2],
        transport="shm",
    )
    next(stream)
    os.kill(os.getpid(), signal.SIGKILL)
    raise SystemExit("the kill never landed")
    """
)


def scenario_shm_kill_recovery(clean_sha: str, workdir: str, backend: str) -> dict:
    driver = os.path.join(workdir, "shm_kill_driver.py")
    with open(driver, "w") as handle:
        handle.write(KILL_DRIVER)
    # The SIGKILL orphans the driver's pool workers, which then spew
    # BrokenPipeError tracebacks at a dead pipe — expected collateral
    # of this story, not a diagnostic, so keep it off the CI log.
    proc = subprocess.run(
        [sys.executable, driver, os.path.abspath(__file__), backend],
        timeout=300,
        env={**os.environ, "PYTHONPATH": "src"},
        stderr=subprocess.DEVNULL,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"driver exited {proc.returncode}, expected SIGKILL"
    )
    orphaned = leaked_segments()

    # Segment names derive from the stream fingerprint, so the re-run
    # reclaims its predecessor's names chunk by chunk and its cleanup
    # sweep unlinks the rest.
    traces = stream_traces(
        make_engine(), make_inputs(), jobs=2, backend=backend, transport="shm"
    )
    assert sha(traces) == clean_sha, "post-kill re-run diverged from serial"
    leaks = leaked_segments()
    assert not leaks, f"segments survived the recovery re-run: {leaks}"
    return {"sha256": clean_sha, "orphaned_by_kill": orphaned, "leaked_after": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="comms_report.json")
    args = parser.parse_args(argv)

    from repro.backends.shm import shm_available

    backend = "fork" if fork_available() else "spawn"
    clean_sha = sha(stream_traces(make_engine(), make_inputs(), backend="serial"))
    print(f"clean serial reference: {clean_sha}")

    reports = {}
    clear_quarantine()
    reports["worker_reduction_exact"] = scenario_worker_reduction(backend)
    print("worker reduction: byte-identical to the serial parent fold")

    if shm_available():
        with tempfile.TemporaryDirectory(prefix="comms-smoke-") as workdir:
            clear_quarantine()
            reports["shm_success"] = scenario_shm_success(clean_sha, backend)
            print("shm success: byte-identical, no leaked segments")
            clear_quarantine()
            reports["shm_fault"] = scenario_shm_fault(clean_sha, workdir, backend)
            print("shm + retry: byte-identical, no leaked segments")
            clear_quarantine()
            reports["shm_kill_recovery"] = scenario_shm_kill_recovery(
                clean_sha, workdir, backend
            )
            print("shm SIGKILL recovery: cleaned up, byte-identical")
    else:
        reports["shm"] = "skipped: POSIX shared memory unavailable"
        print("shm stories skipped: POSIX shared memory unavailable")

    with open(args.out, "w") as handle:
        json.dump({"reference_sha256": clean_sha, "scenarios": reports}, handle, indent=2)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
