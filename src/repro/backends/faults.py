"""Picklable fault injectors for backend failure testing.

Worker-failure isolation is part of the backend contract: a task that
raises inside a worker must surface the *original* exception (with the
remote traceback chained) from the mapping call, the campaign must fail
cleanly, and the pool must not hang or leak.  Exercising that contract
under the persistent-pool backend requires the failing
callable to cross a pickle boundary, so these injectors live in the
package (module-level, state-only classes) rather than in the test
suite.

The *chaos harness* half of this module (:class:`FlakyTransform`,
:class:`HangingTransform`, :class:`CrashingWorker`,
:class:`CorruptingTransform`) drives the resilience layer: transient
faults that strike a bounded number of times and then clear, so a
correctly retrying runtime recovers the exact clean-run bytes.  "A
bounded number of times" has to hold *across processes and retries* —
a retried chunk may land in a different worker, or in a freshly rebuilt
pool — so the injectors count attempts through an
:class:`AttemptLedger`: a directory where claiming attempt *n* is an
atomic exclusive file creation.  Any cooperating process observes the
same monotone attempt sequence, no locks required.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from repro.backends.resilience import TransientChunkError


class InjectedWorkerError(RuntimeError):
    """The distinguished error every injector raises.

    Deliberately *not* retryable: the pre-resilience failure tests
    assert that a deterministic worker error surfaces immediately, and
    retrying a deterministic bug would only hide it.
    """


class FaultyTransform:
    """A power transform that always raises :class:`InjectedWorkerError`."""

    def __init__(self, message: str = "injected worker fault"):
        self.message = message

    def __call__(self, power: np.ndarray) -> np.ndarray:
        raise InjectedWorkerError(self.message)


class FaultyTransformFactory:
    """A transform factory that arms the fault on one chunk index.

    Chunks other than ``fail_index`` get the identity transform, so a
    multi-chunk stream makes real progress before the failure lands in
    whichever worker drew the poisoned chunk.
    """

    def __init__(self, fail_index: int, message: str = "injected worker fault"):
        self.fail_index = fail_index
        self.message = message

    def __call__(self, index: int):
        if index == self.fail_index:
            return FaultyTransform(f"{self.message} (chunk {index})")
        return _identity


def _identity(power: np.ndarray) -> np.ndarray:
    return power


def faulty_item(item):
    """A :meth:`map_items` work function that raises on ``"boom"``."""
    if item == "boom":
        raise InjectedWorkerError(f"injected item fault ({item!r})")
    return item


class AttemptLedger:
    """Cross-process attempt counting by atomic exclusive file creation.

    ``claim(key)`` returns 1 on its first call for ``key`` *anywhere* —
    parent, fork child, persistent-pool worker, a worker in a rebuilt
    pool — and n on the n-th, because claiming attempt n means winning
    the ``O_CREAT | O_EXCL`` race for ``<dir>/<key>.n``.  The injectors use
    it to fail exactly their first N attempts and then clear.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)

    def claim(self, key: str) -> int:
        os.makedirs(self.directory, exist_ok=True)
        attempt = 1
        while True:
            path = os.path.join(self.directory, f"{key}.{attempt:04d}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                attempt += 1
                continue
            os.close(fd)
            return attempt

    def count(self, key: str) -> int:
        """Attempts claimed for ``key`` so far (0 if none)."""
        if not os.path.isdir(self.directory):
            return 0
        prefix = f"{key}."
        return sum(1 for name in os.listdir(self.directory) if name.startswith(prefix))


class _ChaosTransform:
    """Shared arming logic: fault on ledger claims in ``(skip, skip+times]``.

    ``skip`` lets a test exempt leading transform applications from the
    fault — most usefully the engine's quantizer-calibration pass, which
    applies chunk 0's transform in the *parent* before any worker runs.
    """

    def __init__(self, ledger_dir: str, times: int, key: str, skip: int):
        self.ledger = AttemptLedger(ledger_dir)
        self.times = int(times)
        self.key = key
        self.skip = int(skip)

    def _claim(self) -> tuple[int, bool]:
        attempt = self.ledger.claim(self.key)
        return attempt, self.skip < attempt <= self.skip + self.times


class FlakyTransform(_ChaosTransform):
    """Fails its first ``fail_times`` armed attempts, then passes power through.

    Raises :class:`~repro.backends.resilience.TransientChunkError`
    (retryable), so a retry policy with enough attempts recovers the
    clean-run bytes exactly — the failing attempts never touch the
    power trace.
    """

    def __init__(self, ledger_dir: str, fail_times: int = 1, key: str = "flaky", skip: int = 0):
        super().__init__(ledger_dir, fail_times, key, skip)

    def __call__(self, power: np.ndarray) -> np.ndarray:
        attempt, armed = self._claim()
        if armed:
            raise TransientChunkError(
                f"injected flaky fault (attempt {attempt}, fails {self.times})"
            )
        return power


class HangingTransform(_ChaosTransform):
    """Hangs its first ``hang_times`` armed attempts, then passes power through.

    The hang is a plain sleep of ``hang_seconds`` — long enough to trip
    any sane watchdog deadline, short enough that a test whose watchdog
    is misconfigured still terminates.  Under a pool backend the
    watchdog fires, the pool is killed and rebuilt, and the re-dispatch
    claims the next (clean) attempt.
    """

    def __init__(
        self,
        ledger_dir: str,
        hang_times: int = 1,
        hang_seconds: float = 120.0,
        key: str = "hang",
        skip: int = 0,
    ):
        super().__init__(ledger_dir, hang_times, key, skip)
        self.hang_seconds = float(hang_seconds)

    def __call__(self, power: np.ndarray) -> np.ndarray:
        _attempt, armed = self._claim()
        if armed:
            time.sleep(self.hang_seconds)
        return power


class CrashingWorker(_ChaosTransform):
    """SIGKILLs the hosting worker process on its armed attempts.

    A killed worker cannot report anything — its chunk's result simply
    never arrives, which is exactly the signature the watchdog turns
    into a :class:`~repro.backends.resilience.WatchdogTimeout`.  The
    parent pid is recorded at construction time as a safety interlock:
    if the transform ever runs *in the parent* (serial fallback, a
    misconfigured test) it degrades to a retryable
    :class:`~repro.backends.resilience.TransientChunkError` instead of
    killing the campaign driver.
    """

    def __init__(self, ledger_dir: str, crash_times: int = 1, key: str = "crash", skip: int = 0):
        super().__init__(ledger_dir, crash_times, key, skip)
        self.parent_pid = os.getpid()

    def __call__(self, power: np.ndarray) -> np.ndarray:
        attempt, armed = self._claim()
        if armed:
            if os.getpid() == self.parent_pid:
                raise TransientChunkError(
                    f"injected crash demoted to transient fault in parent "
                    f"process (attempt {attempt}, crashes {self.times})"
                )
            os.kill(os.getpid(), signal.SIGKILL)
        return power


class CorruptingTransform(_ChaosTransform):
    """Poisons power with NaN on its armed attempts.

    NaN survives the whole capture chain (filtering, decimation,
    quantization all propagate it), so the corruption reaches the chunk
    result where the engine's per-chunk finiteness validation rejects it
    as a :class:`~repro.backends.resilience.ChunkCorruption` — retryable,
    and gone by the next attempt.
    """

    def __init__(self, ledger_dir: str, corrupt_times: int = 1, key: str = "corrupt", skip: int = 0):
        super().__init__(ledger_dir, corrupt_times, key, skip)

    def __call__(self, power: np.ndarray) -> np.ndarray:
        _attempt, armed = self._claim()
        if armed:
            poisoned = np.array(power, dtype=float, copy=True)
            poisoned[..., : max(1, poisoned.shape[-1] // 8)] = np.nan
            return poisoned
        return power
