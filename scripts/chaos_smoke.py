"""CI chaos smoke: injected faults must not change a single output byte.

Three stories, each folding the campaign into its per-sample trace
mean/variance (``TraceMeanVarFold`` through ``StreamingCampaign.reduce``)
and compared against the same clean serial reference:

1. **flaky-then-succeed** — a transform that raises transiently for its
   first two attempts, recovered by the retry budget;
2. **hang-then-timeout** — a worker that sleeps far past the watchdog
   deadline once, detected by the timeout, pool rebuilt, chunk
   re-dispatched;
3. **kill-then-resume** — a checkpointing fold SIGKILLed mid-campaign
   in a subprocess, resumed here from its checkpoint.

Every recovered run's folded statistics must serialize to JSON
byte-identical to the clean run's; each scenario's structured fault report is written to the ``--out``
path so CI can upload it as an artifact.

Usage: PYTHONPATH=src python scripts/chaos_smoke.py [--out chaos_report.json]
"""

from __future__ import annotations

import argparse
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
from repro.backends.faults import FlakyTransform, HangingTransform
from repro.backends.resilience import RetryPolicy, clear_quarantine, collecting_faults
from repro.campaigns.checkpoint import Checkpointer
from repro.campaigns.engine import StreamingCampaign
from repro.campaigns.reduction import TraceMeanVarFold
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
SEED = 0xC0DE
#: zero backoff: CI replays the retry schedule, not the sleeps
RETRY = RetryPolicy.from_retries(3, backoff_base=0.0)


def make_engine():
    # float32: the capture chain whose byte-identity across every
    # backend is the documented contract (docs/backends.md).
    return StreamingCampaign(
        assemble(SRC),
        scope=ScopeConfig(noise_sigma=3.0, precision="float32"),
        seed=SEED,
    )


def make_inputs():
    inputs = random_inputs(N_TRACES, reg_names=(Reg.R1, Reg.R2), seed=11)
    inputs.regs[Reg.R9] = np.full(N_TRACES, 0x30000, dtype=np.uint32)
    return inputs


def summarize_fold(mean_var) -> str:
    """The folded trace mean/variance as one canonical JSON string."""
    state = mean_var.state()
    return json.dumps(
        {
            "n": state["n"],
            "mean_sha256": hashlib.sha256(state["mean"].tobytes()).hexdigest(),
            "m2_sha256": hashlib.sha256(state["m2"].tobytes()).hexdigest(),
        },
        sort_keys=True,
    )


def reduce_mean_var(checkpointer=None, **kwargs):
    """The campaign's trace mean/variance fold, every story's output."""
    return make_engine().reduce(
        make_inputs(),
        TraceMeanVarFold(),
        chunk_size=CHUNK_SIZE,
        checkpoint=checkpointer,
        **kwargs,
    ).value


def scenario_flaky(clean: str, workdir: str, backend: str) -> dict:
    flaky = FlakyTransform(os.path.join(workdir, "flaky-ledger"), fail_times=2)
    with collecting_faults() as report:
        recovered = summarize_fold(reduce_mean_var(
            jobs=2, backend=backend, power_transform=flaky, retry=RETRY,
        ))
    assert recovered == clean, f"flaky run diverged:\n{recovered}\n{clean}"
    assert report.attempts >= 2 and report.retries, "no retry was recorded"
    return report.to_json()


def scenario_hang(clean: str, workdir: str, backend: str) -> dict:
    # skip=1: the parent-side calibration pass applies chunk 0's
    # transform outside the watchdog; the hang must land in a worker.
    hang = HangingTransform(
        os.path.join(workdir, "hang-ledger"), hang_times=1, hang_seconds=60.0, skip=1
    )
    with collecting_faults() as report:
        recovered = summarize_fold(reduce_mean_var(
            jobs=2, backend=backend, power_transform=hang, retry=RETRY, chunk_timeout=5.0,
        ))
    assert recovered == clean, f"hung run diverged:\n{recovered}\n{clean}"
    assert report.timeouts >= 1, "the watchdog never fired"
    return report.to_json()


#: The kill driver reuses this script's own campaign recipe by
#: importing it as a module (the recipe constants live above).
KILL_DRIVER = textwrap.dedent(
    """
    import importlib.util
    import os
    import signal
    import sys

    spec = importlib.util.spec_from_file_location("chaos_smoke", sys.argv[2])
    chaos = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(chaos)
    from repro.campaigns.checkpoint import Checkpointer


    class KilledAfterTwoCommits(Checkpointer):
        def chunk_done(self, index):
            super().chunk_done(index)
            if len(self.completed) == 2:
                os.kill(os.getpid(), signal.SIGKILL)


    chaos.reduce_mean_var(KilledAfterTwoCommits(sys.argv[1]))
    raise SystemExit("the kill never landed")
    """
)


def scenario_kill_resume(clean: str, workdir: str) -> dict:
    ckpt = os.path.join(workdir, "ckpt")
    driver = os.path.join(workdir, "kill_driver.py")
    with open(driver, "w") as handle:
        handle.write(KILL_DRIVER)
    proc = subprocess.run(
        [sys.executable, driver, ckpt, os.path.abspath(__file__)],
        timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"driver exited {proc.returncode}, expected SIGKILL"
    )

    with collecting_faults() as report:
        checkpointer = Checkpointer(ckpt, resume=True)
        recovered = summarize_fold(reduce_mean_var(checkpointer))
    assert checkpointer.resumed_from == 2, "the two committed chunks were not resumed"
    assert recovered == clean, f"resumed run diverged:\n{recovered}\n{clean}"
    return report.to_json()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="chaos_report.json")
    args = parser.parse_args(argv)

    backend = "fork" if fork_available() else "pool"
    clean = summarize_fold(reduce_mean_var(backend="serial"))
    print(f"clean serial reference: {clean}")

    reports = {}
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as workdir:
        clear_quarantine()
        reports["flaky_then_succeed"] = scenario_flaky(clean, workdir, backend)
        print("flaky-then-succeed: recovered byte-identical")
        clear_quarantine()
        reports["hang_then_timeout"] = scenario_hang(clean, workdir, backend)
        print("hang-then-timeout: recovered byte-identical")
        clear_quarantine()
        reports["kill_then_resume"] = scenario_kill_resume(clean, workdir)
        print("kill-then-resume: recovered byte-identical")

    with open(args.out, "w") as handle:
        json.dump({"reference": json.loads(clean), "scenarios": reports}, handle, indent=2)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
