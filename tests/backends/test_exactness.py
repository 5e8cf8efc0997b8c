"""The acceptance matrix: every backend byte-identical to serial.

float32 campaigns share one counter-based noise stream (chunk tasks
carry the counter range via ``trace_offset``), so serial, fork and the
persistent pool must agree bitwise — chunked and monolithic
alike.  float64-exact keeps per-chunk derived seeds, so equality holds
per chunking (parallel == serial for the same chunk size).
"""

import os

import numpy as np
import pytest
import rawchunks

from repro.backends import PoolBackend, fork_available
from repro.campaigns.reduction import TraceMeanVarFold

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")

#: monolithic, and a chunking that exercises multi-task dispatch
CHUNKINGS = (None, 16)


class TestFloat32Matrix:
    @needs_fork
    @pytest.mark.parametrize("chunk_size", CHUNKINGS)
    def test_fork_matches_serial(self, capture, chunk_size):
        np.testing.assert_array_equal(
            capture("fork", chunk_size), capture("serial", chunk_size)
        )

    @pytest.mark.parametrize("chunk_size", CHUNKINGS)
    def test_pool_matches_serial(self, capture, chunk_size):
        np.testing.assert_array_equal(
            capture("pool", chunk_size), capture("serial", chunk_size)
        )

    def test_chunked_equals_monolithic(self, capture):
        # The float32 contract that makes the whole matrix collapse:
        # chunking itself is a no-op on the acquired bytes.
        np.testing.assert_array_equal(capture("serial", 16), capture("serial", None))
        np.testing.assert_array_equal(capture("serial", 7), capture("serial", None))

    def test_persistent_pool_matches_serial(self, capture):
        backend = PoolBackend(jobs=2)
        try:
            np.testing.assert_array_equal(
                capture(backend, 16), capture("serial", 16)
            )
        finally:
            backend.close()


class TestFloat64PerChunking:
    @needs_fork
    def test_fork_matches_serial_chunked(self, capture):
        np.testing.assert_array_equal(
            capture("fork", 8, precision="float64-exact"),
            capture("serial", 8, precision="float64-exact"),
        )

    @needs_fork
    def test_fork_matches_serial_monolithic(self, capture):
        np.testing.assert_array_equal(
            capture("fork", None, precision="float64-exact"),
            capture("serial", None, precision="float64-exact"),
        )


def test_reduce_has_no_transport_option(make_engine, make_inputs):
    """Only a chunk's fold state crosses the process boundary, by
    pickle; there is no transport to choose."""
    with pytest.raises(TypeError, match="transport"):
        make_engine().reduce(
            make_inputs(), TraceMeanVarFold(), chunk_size=8, jobs=2, transport="shm"
        )


#: every backend a chunk can be acquired on; the process ones run 2 workers
FOLD_SITE_POLICIES = ("serial", pytest.param("fork", marks=needs_fork), "pool")


@pytest.mark.parametrize("policy", FOLD_SITE_POLICIES)
def test_each_chunk_folds_where_it_was_acquired(policy, make_engine, make_inputs):
    """``fold_chunk`` runs in-process on serial and in the workers on
    the process backends, so no raw chunk crosses to the parent."""
    pids = make_engine().reduce(
        make_inputs(), rawchunks.PidFold(), chunk_size=8, jobs=2, backend=policy
    ).value
    assert len(pids) == 6
    if policy == "serial":
        assert set(pids) == {os.getpid()}
    else:
        assert os.getpid() not in pids
