"""Ctrl-C regression: an interrupted streaming run leaves no orphans.

The driver script streams a campaign through a fork pool with slow
chunks, the test SIGINTs the *parent* (exactly what Ctrl-C delivers to a
foreground process group member), and the script then verifies its own
worker children exit promptly — terminated by the backend's cleanup, not
by the signal — before reporting CLEAN.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.backends import fork_available

pytestmark = pytest.mark.skipif(not fork_available(), reason="fork unavailable")

DRIVER = textwrap.dedent(
    """
    import multiprocessing
    import sys
    import time

    import numpy as np

    from repro.campaigns.engine import StreamingCampaign
    from repro.campaigns.reduction import TraceMeanVarFold
    from repro.isa.parser import assemble
    from repro.isa.registers import Reg
    from repro.power.acquisition import random_inputs
    from repro.power.scope import ScopeConfig

    SRC = '''
        add r0, r1, r2
        eor r3, r0, r1
        str r3, [r9]
        bx lr
        .org 0x30000
    buf:
        .space 64
    '''


    class SlowTransform:
        def __call__(self, power):
            time.sleep(0.5)
            return power


    class AnnouncingFold(TraceMeanVarFold):
        def merge_state(self, accumulator, task, state):
            print(f"chunk {task.index}", flush=True)
            return super().merge_state(accumulator, task, state)


    def main():
        program = assemble(SRC)
        inputs = random_inputs(96, reg_names=(Reg.R1, Reg.R2), seed=3)
        inputs.regs[Reg.R9] = np.full(96, 0x30000, dtype=np.uint32)
        engine = StreamingCampaign(
            program, scope=ScopeConfig(noise_sigma=1.0, precision="float32"), seed=7
        )
        try:
            engine.reduce(
                inputs,
                AnnouncingFold(),
                chunk_size=8,
                jobs=2,
                backend="fork",
                power_transform=SlowTransform(),
            )
        except KeyboardInterrupt:
            deadline = time.monotonic() + 15.0
            while multiprocessing.active_children():
                if time.monotonic() > deadline:
                    print("LEAKED", multiprocessing.active_children(), flush=True)
                    sys.exit(3)
                time.sleep(0.05)
            print("CLEAN", flush=True)
            sys.exit(42)
        print("FINISHED-WITHOUT-INTERRUPT", flush=True)
        sys.exit(4)


    if __name__ == "__main__":
        main()
    """
)


def test_sigint_terminates_workers_promptly(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text(DRIVER)
    env = dict(os.environ)
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        # Wait until the stream is demonstrably in flight (first chunk
        # delivered), then interrupt the parent only — the workers must
        # be torn down by the backend, not by a group-wide signal.
        deadline = time.monotonic() + 60.0
        line = ""
        while not line.startswith("chunk"):
            assert time.monotonic() < deadline, "stream never produced a chunk"
            line = proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 42, f"stdout={line + out!r} stderr={err!r}"
    assert "CLEAN" in out
