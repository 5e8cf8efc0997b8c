"""The call-scoped device-stage memo.

Inside one ``Session.run`` (or ``Scenario.run``) the deterministic
device stage — tape replay, then leakage evaluation — runs once per
``(compiled schedule, inputs content, profile, dtype)``; every
acquisition that differs only in power transform, scope or seed reuses
it.  These pins require the envelopes to be identical with and without
the memo, count the replays the memo saves, and check the memo's scope,
key and multi-chunk bypass.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.isa.vtrace import TraceTape
from repro.power import acquisition
from repro.power.acquisition import (
    DeviceMemo,
    TraceCampaign,
    active_device_memo,
    device_memo,
    random_inputs,
)
from repro.power.profile import cortex_a7_profile
from repro.power.scope import ScopeConfig
from repro.power.synth import LeakageSchedule

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


def _stable(envelope) -> str:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
    try:
        from json_equal_modulo_seconds import stable
    finally:
        sys.path.pop(0)
    return json.dumps(stable(envelope.to_json()), sort_keys=True)


@pytest.fixture
def device_calls(monkeypatch):
    """Count tape replays and leakage evaluations (as perfbench does)."""
    calls = {"tape": 0, "evaluate": 0}
    tape_run, evaluate = TraceTape.run, LeakageSchedule.evaluate

    def counted_run(self, *args, **kwargs):
        calls["tape"] += 1
        return tape_run(self, *args, **kwargs)

    def counted_evaluate(self, *args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(TraceTape, "run", counted_run)
    monkeypatch.setattr(LeakageSchedule, "evaluate", counted_evaluate)
    return calls


@pytest.fixture
def memo_traffic(monkeypatch):
    """Count memo lookups and stores across every memo of the test."""
    traffic = {"get": 0, "put": 0}
    get, put = DeviceMemo.get, DeviceMemo.put

    def counted_get(self, *args):
        traffic["get"] += 1
        return get(self, *args)

    def counted_put(self, *args):
        traffic["put"] += 1
        return put(self, *args)

    monkeypatch.setattr(DeviceMemo, "get", counted_get)
    monkeypatch.setattr(DeviceMemo, "put", counted_put)
    return traffic


def _without_memo(monkeypatch):
    monkeypatch.setattr(acquisition, "active_device_memo", lambda: None)


CASES = {
    "figure4-float32": ("figure4", dict(precision="float32"), 3),
    "figure4-float64": ("figure4", dict(), 3),
    "noise-floor": ("sweep", dict(grid=["noise-floor"], n_traces=200), 8),
}


@pytest.mark.parametrize("case", list(CASES))
def test_memo_changes_no_envelope_and_replays_once(case, monkeypatch, device_calls):
    name, knobs, acquisitions = CASES[case]
    session = Session()
    session.run(name, seed=5, **knobs)  # warm the schedule cache
    device_calls.update(tape=0, evaluate=0)
    shared = _stable(session.run(name, seed=5, **knobs))
    assert device_calls == {"tape": 1, "evaluate": 1}

    _without_memo(monkeypatch)
    device_calls.update(tape=0, evaluate=0)
    replayed = _stable(session.run(name, seed=5, **knobs))
    assert device_calls == {"tape": acquisitions, "evaluate": acquisitions}
    assert shared == replayed


@pytest.mark.parametrize(
    "name, knobs",
    [
        ("figure3", dict(n_traces=400, chunk_size=200, precision="float32")),
        ("figure4", dict(chunk_size=50, precision="float32")),
    ],
    ids=["figure3-2-chunks", "figure4-chunked"],
)
def test_multi_chunk_streams_bypass_the_memo(name, knobs, monkeypatch, memo_traffic):
    shared = _stable(Session().run(name, seed=9, **knobs))
    assert memo_traffic == {"get": 0, "put": 0}
    _without_memo(monkeypatch)
    assert _stable(Session().run(name, seed=9, **knobs)) == shared


def _memoized_campaign(**kwargs) -> tuple[TraceCampaign, object]:
    inputs = random_inputs(24, reg_names=(Reg.R1, Reg.R2), seed=3)
    inputs.regs[Reg.R9] = np.full(24, 0x30000, dtype=np.uint32)
    campaign = TraceCampaign(
        assemble(SRC), scope=ScopeConfig(noise_sigma=2.0, **kwargs), keep_power=True
    )
    return campaign, inputs


def test_memoized_arrays_are_read_only():
    campaign, inputs = _memoized_campaign()
    with device_memo() as memo:
        trace_set = campaign.acquire(inputs)
        assert memo.stores == 1
        with pytest.raises(ValueError):
            trace_set.power[0, 0] = 1.0
        with pytest.raises(ValueError):
            trace_set.table.matrix[0, 0] = 1
        # The traces are the capture stage's own, fresh every time.
        trace_set.traces[0, 0] = 1.0


def test_every_key_component_misses(device_calls):
    campaign, inputs = _memoized_campaign()
    with device_memo() as memo:
        first = campaign.acquire(inputs)
        again = campaign.acquire(inputs)
        assert memo.hits == 1 and device_calls["tape"] == 1
        assert again.table is first.table
        # A new noise realization still: the capture stage ran again.
        assert campaign.acquire_count == 2
        assert not np.array_equal(first.traces, again.traces)

        other = random_inputs(24, reg_names=(Reg.R1, Reg.R2), seed=4)
        other.regs[Reg.R9] = inputs.regs[Reg.R9]
        assert other.signature() == inputs.signature()
        campaign.acquire(other)
        assert device_calls["tape"] == 2

        campaign.profile = cortex_a7_profile().with_leaky_rf()
        campaign.acquire(other)
        assert device_calls["tape"] == 3

        campaign.scope_config = ScopeConfig(noise_sigma=2.0, precision="float32")
        campaign.acquire(other)
        assert device_calls["tape"] == 4
        assert memo.hits == 1


def test_per_batch_schedules_never_hit(device_calls):
    src = SRC.replace("    str r3, [r9]", "    cmp r9, #0\n    addne r5, r5, #1\n    str r3, [r9]")
    inputs = random_inputs(16, reg_names=(Reg.R1, Reg.R2), seed=3)
    inputs.regs[Reg.R9] = np.full(16, 0x30000, dtype=np.uint32)
    campaign = TraceCampaign(assemble(src))
    assert not campaign.program.schedule_input_independent
    with device_memo() as memo:
        campaign.acquire(inputs)
        campaign.acquire(inputs)
        assert memo.hits == 0 and memo.stores == 0
    assert device_calls["tape"] == 2


def test_nested_entries_share_one_memo_and_exit_clears_it():
    campaign, inputs = _memoized_campaign()
    with device_memo() as outer:
        with device_memo() as inner:
            assert inner is outer
            campaign.acquire(inputs)
        assert len(outer) == 1 and active_device_memo() is outer
    assert len(outer) == 0
    assert active_device_memo() is None


def test_a_forked_child_does_not_use_the_parent_memo():
    with device_memo() as memo:
        memo.pid = -1  # as seen from a forked child of the opener
        assert active_device_memo() is None


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_session_run_drops_the_memo(raises, monkeypatch):
    seen = []
    run_noting = Session._run_noting

    def spying(scenario, resolved):
        seen.append(active_device_memo())
        outcome = run_noting(scenario, resolved)
        assert len(seen[-1]) == 1
        if raises:
            raise RuntimeError("runner failed")
        return outcome

    monkeypatch.setattr(Session, "_run_noting", staticmethod(spying))
    session = Session()
    if raises:
        with pytest.raises(RuntimeError, match="runner failed"):
            session.run("figure4", n_traces=40)
    else:
        session.run("figure4", n_traces=40)
    (memo,) = seen
    assert memo is not None and memo.stores >= 1
    assert len(memo) == 0
    assert active_device_memo() is None


def test_scenario_run_opens_a_memo(device_calls):
    from repro.campaigns.registry import get

    get("figure4").run()
    assert device_calls["tape"] == 1
    assert active_device_memo() is None
