"""Shared fixtures for the execution-backend suite.

One small program, one input recipe, engines on demand — the program is
session-scoped so the process-wide compiled-schedule cache makes every
fork-backend test inherit a warm schedule.
"""

import numpy as np
import pytest
import rawchunks

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


@pytest.fixture(scope="session")
def program():
    return assemble(SRC)


@pytest.fixture
def make_inputs():
    def make(n=48, seed=11):
        inputs = random_inputs(n, reg_names=(Reg.R1, Reg.R2), seed=seed)
        inputs.regs[Reg.R9] = np.full(n, 0x30000, dtype=np.uint32)
        return inputs

    return make


@pytest.fixture
def make_engine(program):
    def make(precision="float32", seed=0xB0, **kwargs):
        return StreamingCampaign(
            program,
            scope=ScopeConfig(noise_sigma=3.0, precision=precision),
            seed=seed,
            **kwargs,
        )

    return make


@pytest.fixture
def capture(make_engine, make_inputs):
    """Acquire the whole campaign through one backend, concatenated.

    Each chunk's raw traces are its fold state, so the comparison is of
    trace bytes, not of a statistic over them.
    """

    def run(backend, chunk_size, precision="float32", jobs=2, n=48, **reduce_kwargs):
        return rawchunks.traces(
            make_engine(precision),
            make_inputs(n),
            chunk_size=chunk_size,
            jobs=jobs,
            backend=backend,
            **reduce_kwargs,
        )

    return run
