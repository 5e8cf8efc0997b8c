"""Checkpoint/resume: atomic stores, fingerprints, byte-identical restarts.

The acceptance bar for the resilience layer: a fold killed mid-campaign
and resumed from its checkpoint finishes with exactly the bytes an
uninterrupted run produces, on every backend, in both reduction modes
and at both precisions — chunk determinism makes the re-acquired chunks
identical, the checkpoint makes the already-merged ones survive.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.backends import PoolBackend, fork_available
from repro.backends import base as backends_base
from repro.campaigns.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointMismatch,
    CheckpointStore,
    Checkpointer,
    checkpoint_fingerprint,
    digest_inputs,
)
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

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")


def make_inputs(n=48, seed=11):
    inputs = random_inputs(n, reg_names=(Reg.R1, Reg.R2), seed=seed)
    inputs.regs[Reg.R9] = np.full(n, 0x30000, dtype=np.uint32)
    return inputs


def make_engine(precision="float32", seed=0xCB, **kwargs):
    return StreamingCampaign(
        assemble(SRC),
        scope=ScopeConfig(noise_sigma=3.0, precision=precision),
        seed=seed,
        **kwargs,
    )


class TestCheckpointStore:
    def test_save_load_roundtrip_is_exact(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        record = {"schema": CHECKPOINT_SCHEMA, "completed": [0, 1], "state": {"x": 1}}
        store.save(record)
        assert store.load() == record
        assert store.exists()

    def test_missing_checkpoint_loads_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).load() is None

    def test_save_leaves_no_temp_files_behind(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save({"schema": CHECKPOINT_SCHEMA})
        store.save({"schema": CHECKPOINT_SCHEMA, "more": True})
        assert sorted(os.listdir(tmp_path)) == ["checkpoint.pkl"]

    def test_unreadable_record_raises_checkpoint_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with open(store.path, "wb") as handle:
            handle.write(b"not a pickle")
        with pytest.raises(CheckpointError, match="unreadable"):
            store.load()

    def test_foreign_schema_is_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with open(store.path, "wb") as handle:
            pickle.dump({"schema": "someone-else/9"}, handle)
        with pytest.raises(CheckpointError, match="schema"):
            store.load()

    def test_clear_is_idempotent(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save({"schema": CHECKPOINT_SCHEMA})
        store.clear()
        store.clear()
        assert not store.exists()


class TestCheckpointer:
    def test_fresh_run_discards_any_stored_record(self, tmp_path):
        first = Checkpointer(str(tmp_path))
        assert first.begin("fp-a", n_chunks=3) == set()
        first.chunk_done(0)
        # resume=False (the default) starts over even with a record present.
        second = Checkpointer(str(tmp_path))
        assert second.begin("fp-a", n_chunks=3) == set()

    def test_resume_restores_completed_set_and_state(self, tmp_path):
        holder = {"value": None}
        first = Checkpointer(str(tmp_path), state_fn=lambda: "folded-2")
        first.begin("fp-a", n_chunks=3)
        first.chunk_done(0)
        first.chunk_done(1)
        second = Checkpointer(
            str(tmp_path),
            restore_fn=lambda saved: holder.__setitem__("value", saved),
            resume=True,
        )
        assert second.begin("fp-a", n_chunks=3) == {0, 1}
        assert holder["value"] == "folded-2"
        assert second.resumed_from == 2

    def test_fingerprint_mismatch_refuses_to_resume(self, tmp_path):
        first = Checkpointer(str(tmp_path))
        first.begin("fp-a", n_chunks=2)
        first.chunk_done(0)
        second = Checkpointer(str(tmp_path), resume=True)
        with pytest.raises(CheckpointMismatch, match="different"):
            second.begin("fp-b", n_chunks=2)

    def test_interval_batches_flushes(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        checkpointer = Checkpointer(store, interval=2)
        checkpointer.begin("fp", n_chunks=4)
        checkpointer.chunk_done(0)
        assert not store.exists()  # below the interval, nothing written
        checkpointer.chunk_done(1)
        assert set(store.load()["completed"]) == {0, 1}
        checkpointer.chunk_done(2)
        checkpointer.finalize()  # always flushes, interval or not
        record = store.load()
        assert record["complete"] is True
        assert set(record["completed"]) == {0, 1, 2}

    def test_resume_without_a_record_starts_fresh(self, tmp_path):
        checkpointer = Checkpointer(str(tmp_path), resume=True)
        assert checkpointer.begin("fp", n_chunks=2) == set()


class TestFingerprints:
    def test_digest_covers_input_values_not_just_shapes(self):
        a = make_inputs(seed=11)
        b = make_inputs(seed=12)  # same shapes, different bytes
        assert digest_inputs(a) == digest_inputs(make_inputs(seed=11))
        assert digest_inputs(a) != digest_inputs(b)

    def test_stream_fingerprint_pins_the_campaign_recipe(self):
        inputs = make_inputs()
        bounds = [(0, 24), (24, 48)]
        base = make_engine()._stream_fingerprint(inputs, bounds)
        assert base == make_engine()._stream_fingerprint(inputs, bounds)
        assert base != make_engine(seed=0xCC)._stream_fingerprint(inputs, bounds)
        assert base != make_engine()._stream_fingerprint(inputs, [(0, 48)])
        assert base != make_engine(precision="float64-exact")._stream_fingerprint(
            inputs, bounds
        )

    def test_checkpoint_fingerprint_is_stable(self):
        payload = ("v1", (1, 2), "x")
        assert checkpoint_fingerprint(payload) == checkpoint_fingerprint(payload)
        assert checkpoint_fingerprint(payload) != checkpoint_fingerprint(("v1",))


BACKENDS = [
    "serial",
    pytest.param("fork", marks=needs_fork),
    pytest.param("pool", marks=needs_fork),
]


class _Aborted(Exception):
    """The in-process stand-in for a kill landing right after a commit."""


class AbortingCheckpointer(Checkpointer):
    """Commits like a :class:`Checkpointer`, then dies after ``abort_after``."""

    def __init__(self, *args, abort_after: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.abort_after = abort_after

    def chunk_done(self, index: int) -> None:
        super().chunk_done(index)
        if len(self.completed) == self.abort_after:
            raise _Aborted


def _reduce_state(engine, inputs, backend="serial", checkpointer=None):
    """The checkpointed trace mean/variance fold, as its frozen state."""
    owned_pool = None
    if backend == "pool":
        owned_pool = PoolBackend(jobs=2)
        backend = owned_pool
    try:
        value = engine.reduce(
            inputs,
            TraceMeanVarFold(),
            chunk_size=12,
            jobs=2,
            backend=backend,
            checkpoint=checkpointer,
        ).value
    finally:
        if owned_pool is not None:
            owned_pool.close()
    return value.state()


def assert_states_equal(left: dict, right: dict) -> None:
    assert left["n"] == right["n"]
    assert left["mean"].tobytes() == right["mean"].tobytes()
    assert left["m2"].tobytes() == right["m2"].tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precision", ["float32", "float64-exact"])
class TestResumeByteIdentity:
    """The acceptance criterion: killed + resumed == uninterrupted."""

    def test_aborted_fold_resumes_byte_identical(self, backend, precision, tmp_path):
        inputs = make_inputs(48)
        clean = _reduce_state(make_engine(precision), inputs)

        # First run: checkpoint each merged chunk, die after two.
        with pytest.raises(_Aborted):
            _reduce_state(
                make_engine(precision),
                inputs,
                backend,
                AbortingCheckpointer(str(tmp_path), abort_after=2),
            )

        # Second run: resume restores the merged state, re-acquires the
        # rest through the same backend and merges it on top.
        second = Checkpointer(str(tmp_path), resume=True)
        resumed = _reduce_state(make_engine(precision), inputs, backend, second)
        assert second.resumed_from == 2
        assert_states_equal(resumed, clean)


class TestResumeSemantics:
    def test_fully_complete_resume_dispatches_nothing(self, tmp_path, monkeypatch):
        inputs = make_inputs(48)
        first = _reduce_state(
            make_engine(), inputs, checkpointer=Checkpointer(str(tmp_path))
        )

        def no_dispatch(*args, **kwargs):
            raise AssertionError("a complete checkpoint must not dispatch chunks")

        monkeypatch.setattr(backends_base, "run_chunk_task", no_dispatch)
        second = Checkpointer(str(tmp_path), resume=True)
        restored = _reduce_state(make_engine(), inputs, checkpointer=second)
        assert second.resumed_from == 4  # all four 12-trace chunks
        assert_states_equal(restored, first)

    def test_resuming_different_inputs_is_refused(self, tmp_path):
        _reduce_state(
            make_engine(),
            make_inputs(48, seed=11),
            checkpointer=Checkpointer(str(tmp_path)),
        )
        with pytest.raises(CheckpointMismatch):
            _reduce_state(
                make_engine(),
                make_inputs(48, seed=12),
                checkpointer=Checkpointer(str(tmp_path), resume=True),
            )

    def test_checkpoint_events_reach_the_ambient_fault_report(self, tmp_path):
        from repro.backends.resilience import collecting_faults

        with collecting_faults() as report:
            _reduce_state(
                make_engine(), make_inputs(24), checkpointer=Checkpointer(str(tmp_path))
            )
        events = [entry["event"] for entry in report.checkpoint]
        assert events[0] == "started"
        assert events[-1] == "completed"
        assert "saved" in events


DRIVER = textwrap.dedent(
    """
    import os
    import signal
    import sys

    import numpy as np

    from repro.campaigns.checkpoint import Checkpointer
    from repro.campaigns.engine import StreamingCampaign
    from repro.campaigns.reduction import TraceMeanVarFold
    from repro.isa.parser import assemble
    from repro.isa.registers import Reg
    from repro.power.acquisition import random_inputs
    from repro.power.scope import ScopeConfig

    SRC = '''
        add r0, r1, r2
        eor r3, r0, r1
        lsl r4, r3, #3
        str r3, [r9]
        bx lr
        .org 0x30000
    buf:
        .space 64
    '''


    class KilledAfterTwoCommits(Checkpointer):
        def chunk_done(self, index):
            super().chunk_done(index)
            if len(self.completed) == 2:
                print("dying", flush=True)
                os.kill(os.getpid(), signal.SIGKILL)


    def main(checkpoint_dir):
        program = assemble(SRC)
        inputs = random_inputs(48, reg_names=(Reg.R1, Reg.R2), seed=11)
        inputs.regs[Reg.R9] = np.full(48, 0x30000, dtype=np.uint32)
        engine = StreamingCampaign(
            program, scope=ScopeConfig(noise_sigma=3.0, precision="float32"), seed=0xCB
        )
        engine.reduce(
            inputs,
            TraceMeanVarFold(),
            chunk_size=12,
            checkpoint=KilledAfterTwoCommits(checkpoint_dir),
        )
        print("survived", flush=True)


    if __name__ == "__main__":
        main(sys.argv[1])
    """
)


class TestKilledProcessResume:
    def test_sigkilled_campaign_resumes_byte_identical(self, tmp_path):
        """A real process kill, not a simulated abort: run a checkpointing
        fold in a subprocess, SIGKILL it mid-campaign, resume here."""
        script = tmp_path / "driver.py"
        script.write_text(DRIVER)
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "ckpt")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        assert "dying" in proc.stdout

        inputs = make_inputs(48)
        clean = _reduce_state(make_engine(), inputs)
        checkpointer = Checkpointer(str(tmp_path / "ckpt"), resume=True)
        resumed = _reduce_state(make_engine(), inputs, checkpointer=checkpointer)
        # The kill landed right after the second commit, so exactly two
        # chunks survived and were not re-acquired.
        assert checkpointer.resumed_from == 2
        assert_states_equal(resumed, clean)
