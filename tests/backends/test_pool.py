"""The persistent pool: warm reuse, provenance, idempotent lifecycle."""

import numpy as np
import pytest
import rawchunks

from repro.backends import BackendUnavailable, PoolBackend
from repro.backends.faults import FaultyTransform, InjectedWorkerError


class TestPersistentPool:
    def test_reused_across_streams_and_matches_serial(self, capture):
        backend = PoolBackend(jobs=2)
        try:
            first = capture(backend, 16)
            second = capture(backend, 16)
            serial = capture("serial", 16)
            np.testing.assert_array_equal(first, serial)
            np.testing.assert_array_equal(second, serial)
            # 48 traces / 16 per chunk = 3 tasks per stream, same pool.
            assert backend.tasks_dispatched == 6
        finally:
            backend.close()

    def test_describe_reports_persistence_and_dispatch_count(self, capture):
        backend = PoolBackend(jobs=2)
        try:
            capture(backend, 16)
            info = backend.describe()
            assert info["backend"] == "pool"
            assert info["persistent"] is True
            assert info["workers"] == 2
            assert info["start_method"] in ("fork", "spawn")
            assert info["tasks_dispatched"] == 3
        finally:
            backend.close()

    def test_survives_a_failing_campaign(self, capture, make_engine, make_inputs):
        backend = PoolBackend(jobs=2)
        try:
            with pytest.raises(InjectedWorkerError):
                rawchunks.chunks(
                    make_engine(),
                    make_inputs(32),
                    chunk_size=8,
                    backend=backend,
                    power_transform=FaultyTransform(),
                )
            np.testing.assert_array_equal(
                capture(backend, 16), capture("serial", 16)
            )
        finally:
            backend.close()

    def test_lifecycle_is_idempotent(self):
        backend = PoolBackend(jobs=1)
        pool = backend.start()._pool
        assert backend.start()._pool is pool  # start() reuses the live pool
        backend.close()
        backend.close()  # close() tolerates an already-closed pool
        assert backend._pool is None

    def test_spawn_started_pool_matches_serial(self, capture):
        # The parallel path a platform without fork keeps.
        backend = PoolBackend(jobs=2, start_method="spawn")
        try:
            np.testing.assert_array_equal(capture(backend, 16), capture("serial", 16))
            assert backend.describe()["start_method"] == "spawn"
        finally:
            backend.close()

    def test_unknown_start_method_raises(self):
        with pytest.raises(BackendUnavailable):
            PoolBackend(jobs=2, start_method="threads")

    def test_unpicklable_transform_is_rejected_up_front(
        self, make_engine, make_inputs
    ):
        backend = PoolBackend(jobs=2)
        try:
            with pytest.raises(BackendUnavailable, match="power_transform"):
                rawchunks.chunks(
                    make_engine(),
                    make_inputs(32),
                    chunk_size=8,
                    backend=backend,
                    power_transform=lambda power: power,
                )
        finally:
            backend.close()


UNGUARDED_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.backends import BackendUnavailable, PoolBackend
from repro.experiments.figure3 import run_figure3

# No `if __name__ == "__main__":` guard: every spawned worker re-runs
# this module while bootstrapping and dies.
pool = PoolBackend(jobs=2, start_method="spawn")
try:
    run_figure3(n_traces=400, chunk_size=100, precision="float32", backend=pool)
except BackendUnavailable as exc:
    print("unavailable:", exc)
    sys.exit(3)
finally:
    pool.close()
print("ran")
"""


class TestStartup:
    def test_unguarded_spawn_script_fails_fast(self, tmp_path):
        """Workers that die while bootstrapping raise instead of hanging."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        script = tmp_path / "unguarded.py"
        script.write_text(UNGUARDED_SCRIPT.format(src=os.path.abspath(src)))
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=90
        )
        assert done.returncode == 3, done.stderr[-2000:]
        assert "unavailable: pool workers died while starting" in done.stdout
