"""Process-pool backends: a fork pool per call and a persistent pool.

Two ways to put more cores behind a campaign, both byte-identical to
:class:`~repro.backends.base.SerialBackend` by construction:

* :class:`ForkBackend` — a pool forked per :meth:`map_chunks` call.  The
  live campaign (with its compiled schedule and replay tape) and the
  full input batch are inherited copy-on-write at fork time, so nothing
  campaign-sized crosses a pipe.  Unavailable where ``fork`` is missing.
* :class:`PoolBackend` — a **persistent** pool that keeps workers alive
  across ``map_chunks``/``map_items`` calls.  It starts with ``fork``
  where available and with a fresh interpreter per worker elsewhere, so
  it is also the parallel path of a platform without ``fork``.  Tasks
  are fully declarative (each carries its pickle-safe
  :class:`~repro.backends.base.CampaignSpec` and input slice); each
  worker keeps an identity-keyed campaign cache, so a sweep or a
  ``Session.run_all`` re-seeds the compiled-schedule cache once per
  campaign shape and then pays zero pool-setup or recompile cost per
  point.  A worker that raises reports the failure (with the original
  traceback chained as ``__cause__``) without poisoning the pool.

Worker-side state lives in module globals installed by pool
initializers; results stream back in task order via ``imap`` on the
historical happy path.  When the engine attaches a
:class:`~repro.backends.resilience.ResilienceContext`, dispatch switches
to per-task ``apply_async`` with a watchdog ``get(timeout)``: a worker
that hangs *or* dies (SIGKILL included — the pool silently repopulates
the process, but the in-flight task's result never arrives) surfaces as
a :class:`~repro.backends.resilience.WatchdogTimeout`, the pool is
killed and replaced wholesale, and every not-yet-delivered chunk is
re-dispatched.  Ctrl-C always terminates and joins the children before
propagating, so an interrupted campaign leaves no orphaned workers.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.backends.base import (
    BackendContext,
    BackendUnavailable,
    CampaignSpec,
    ChunkResult,
    ChunkTask,
    ExecutionBackend,
    encode_chunk,
    run_chunk_task,
)
from repro.backends.resilience import (
    BackendBroken,
    ResilienceContext,
    WatchdogTimeout,
)
from repro.power.acquisition import TraceCampaign


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _pool_size(jobs: int, n_tasks: int | None = None) -> int:
    size = max(1, int(jobs))
    if n_tasks is not None:
        size = min(size, max(1, n_tasks))
    return size


# -- fork workers (state inherited copy-on-write at fork) ---------------

_FORK_STATE: dict = {}


def _fork_init(campaign, inputs, transform, factory, parent_path, codec) -> None:  # pragma: no cover
    _FORK_STATE["campaign"] = campaign
    _FORK_STATE["inputs"] = inputs
    _FORK_STATE["transform"] = transform
    _FORK_STATE["factory"] = factory
    _FORK_STATE["parent_path"] = parent_path
    _FORK_STATE["codec"] = codec


def _fork_chunk(task: ChunkTask):  # pragma: no cover - exercised via Pool
    campaign: TraceCampaign = _FORK_STATE["campaign"]
    factory = _FORK_STATE["factory"]
    transform = factory(task.index) if factory is not None else _FORK_STATE["transform"]
    trace_set = run_chunk_task(campaign, _FORK_STATE["inputs"], task, transform)
    payload = encode_chunk(_FORK_STATE["codec"], task, trace_set, _FORK_STATE["parent_path"])
    return task.index, task.lo, payload


# -- persistent-pool workers (fully declarative tasks) ------------------

#: spec cache_key -> rebuilt TraceCampaign, kept warm across calls
_POOL_CAMPAIGNS: dict[str, TraceCampaign] = {}


def _pool_init() -> None:  # pragma: no cover - exercised via Pool
    _POOL_CAMPAIGNS.clear()


def _pool_ping(_index: int) -> int:  # pragma: no cover - exercised via Pool
    return os.getpid()


#: how long :meth:`PoolBackend.start` waits for its workers to answer
_START_TIMEOUT_S = 120.0


def _await_workers(pool, jobs: int) -> None:
    """Block until a fresh pool has answered ``jobs`` pings.

    ``multiprocessing.Pool`` silently replaces a worker that dies, so a
    worker that cannot even start -- a spawned interpreter re-running a
    script without an ``if __name__ == "__main__":`` guard dies while
    bootstrapping -- is respawned forever, and a task sent to the pool
    never comes back.  What is checked is that the pings were answered
    (by at least one worker; a fast one may answer them all) and that no
    worker was replaced before they were; otherwise, or with no answer
    within ``_START_TIMEOUT_S``, :class:`BackendUnavailable` is raised.
    A worker that dies later is the chunk-level resilience's business.
    """
    probe = pool.map_async(_pool_ping, range(jobs), chunksize=1)
    # ``Pool._pool`` (the live worker processes) is a CPython internal;
    # it is the only way to see a worker replaced behind the pool's back.
    started = {process.pid for process in pool._pool}
    deadline = time.monotonic() + _START_TIMEOUT_S
    while not probe.ready():
        current = {process.pid for process in pool._pool}
        if not current <= started:
            raise BackendUnavailable(
                "pool workers died while starting (with the spawn start method, "
                "the main script needs an `if __name__ == \"__main__\":` guard)"
            )
        if time.monotonic() > deadline:
            raise BackendUnavailable(
                f"pool workers did not answer within {_START_TIMEOUT_S:.0f} s"
            )
        probe.wait(0.05)
    probe.get()


def _pool_campaign(spec: CampaignSpec) -> TraceCampaign:  # pragma: no cover
    key = spec.cache_key()
    campaign = _POOL_CAMPAIGNS.get(key)
    if campaign is None:
        campaign = spec.build()
        _POOL_CAMPAIGNS[key] = campaign
    # Per-campaign state the cached shape does not capture.
    campaign.seed = spec.seed
    campaign.pinned_full_scale = spec.pinned_full_scale
    return campaign


def _pool_chunk(payload):  # pragma: no cover - exercised via Pool
    spec, chunk_inputs, transform, factory, task, parent_path, codec = payload
    campaign = _pool_campaign(spec)
    if factory is not None:
        transform = factory(task.index)
    trace_set = campaign.acquire(
        chunk_inputs,
        power_transform=transform,
        scope_seed=task.scope_seed,
        trace_offset=task.trace_offset,
    )
    return task.index, task.lo, encode_chunk(codec, task, trace_set, parent_path)


def _apply(payload):  # pragma: no cover - exercised via Pool
    fn, item = payload
    return fn(item)


# -- resilient dispatch --------------------------------------------------


def _shutdown(pool) -> None:
    """Terminate a pool and wait for its children to actually exit."""
    pool.terminate()
    pool.join()


def _await_result(future, timeout: float | None, task: ChunkTask, backend_name: str):
    """Wait for one chunk result under the watchdog deadline.

    A worker exception re-raises here with its remote traceback chained
    (unchanged from the ``imap`` path); a missed deadline — hung worker
    or a dead one whose result will never arrive — becomes a
    :class:`WatchdogTimeout`.
    """
    try:
        return future.get(timeout)
    except multiprocessing.TimeoutError as error:
        raise WatchdogTimeout(
            f"chunk {task.index} missed its {timeout:g}s soft deadline on "
            f"backend '{backend_name}' (worker hung or died)"
        ) from error


def _resilient_dispatch(
    tasks: Sequence[ChunkTask],
    resilience: ResilienceContext,
    backend_name: str,
    *,
    acquire: Callable[[], Any],
    replace: Callable[[Any], Any],
    release: Callable[[Any], None],
    submit: Callable[[Any, ChunkTask], Any],
):
    """Per-task ``apply_async`` dispatch with retries and a watchdog.

    All tasks are submitted up front (the pool's task queue provides the
    same pipelining ``imap`` did) and results are consumed in task
    order.  A failed attempt is retried per the policy: task-level
    errors re-submit just that task; a watchdog timeout means the pool
    itself is suspect (a hung or killed worker still occupies it), so
    the pool is replaced via ``replace`` and every not-yet-delivered
    task is re-submitted against the fresh one.  Exhausting the budget
    on timeouts raises :class:`BackendBroken` — the engine's cue to
    quarantine this backend and fall down the degradation ladder.
    """
    policy = resilience.policy
    pool = acquire()
    try:
        futures: dict[int, Any] = {}
        attempts: dict[int, int] = dict.fromkeys((t.index for t in tasks), 0)
        delivered: set[int] = set()

        def submit_pending(target_pool) -> None:
            for t in tasks:
                if t.index not in delivered:
                    futures[t.index] = submit(target_pool, t)

        submit_pending(pool)
        for task in tasks:
            while True:
                attempts[task.index] += 1
                resilience.report.record_attempt()
                try:
                    index, lo, data = _await_result(
                        futures[task.index], resilience.chunk_timeout, task, backend_name
                    )
                    if resilience.validator is not None:
                        resilience.validator(task, data)
                    yield index, lo, data
                    delivered.add(task.index)
                    break
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    resilience.record_failure(error)
                    timed_out = isinstance(error, WatchdogTimeout)
                    exhausted = attempts[task.index] >= policy.max_attempts
                    if exhausted or not policy.retryable(error):
                        if timed_out:
                            raise BackendBroken(
                                backend_name,
                                f"backend '{backend_name}' exhausted "
                                f"{policy.max_attempts} attempt(s) on chunk "
                                f"{task.index}: {error}",
                            ) from error
                        raise
                    resilience.backoff(
                        task_index=task.index,
                        attempt=attempts[task.index],
                        error=error,
                        backend=backend_name,
                    )
                    if timed_out:
                        pool = replace(pool)
                        futures.clear()
                        submit_pending(pool)
                    else:
                        futures[task.index] = submit(pool, task)
    finally:
        release(pool)


class ForkBackend(ExecutionBackend):
    """A fork pool per call; campaign state inherited copy-on-write."""

    name = "fork"
    start_method = "fork"

    def __init__(self, jobs: int = 2):
        self.jobs = max(1, int(jobs))

    @property
    def workers(self) -> int:
        return self.jobs

    def _check_available(self) -> None:
        if not fork_available():
            raise BackendUnavailable(
                f"start method 'fork' is unavailable on this platform "
                f"(has: {multiprocessing.get_all_start_methods()})"
            )

    def _pool(self, n_tasks: int, **kwargs):
        return multiprocessing.get_context("fork").Pool(
            processes=_pool_size(self.jobs, n_tasks), **kwargs
        )

    def map_items(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        self._check_available()
        payloads = [(fn, item) for item in items]
        if len(payloads) <= 1:
            return [fn(item) for _fn, item in payloads]
        pool = self._pool(len(payloads))
        try:
            return list(pool.imap(_apply, payloads))
        finally:
            _shutdown(pool)

    def _make_pool(self, context: BackendContext, n_tasks: int):
        return self._pool(
            n_tasks,
            initializer=_fork_init,
            initargs=(
                context.campaign,
                context.inputs,
                context.power_transform,
                context.power_transform_factory,
                context.compiled_path(),
                context.codec,
            ),
        )

    def map_chunks(
        self, context: BackendContext, tasks: Sequence[ChunkTask]
    ) -> Iterator[ChunkResult]:
        self._check_available()
        resilience = context.resilience
        if resilience is None:
            # Historical path: one pool, ordered imap.  terminate+join in
            # all cases (Ctrl-C included) so no child outlives the call.
            pool = self._make_pool(context, len(tasks))
            try:
                yield from pool.imap(_fork_chunk, tasks)
            finally:
                _shutdown(pool)
            return
        yield from _resilient_dispatch(
            tasks,
            resilience,
            self.name,
            acquire=lambda: self._make_pool(context, len(tasks)),
            replace=lambda old: (_shutdown(old), self._make_pool(context, len(tasks)))[1],
            release=_shutdown,
            submit=lambda pool, task: pool.apply_async(_fork_chunk, (task,)),
        )


class PoolBackend(ExecutionBackend):
    """A persistent worker pool reused across campaigns and sweeps.

    Unlike the per-call fork backend, ``start()`` builds the pool once and
    every subsequent :meth:`map_chunks`/:meth:`map_items` call reuses
    the warm workers: each worker keeps the campaigns it has rebuilt
    (and their compiled schedules) in a cache keyed by the spec's
    structural identity, so repeated campaigns over the same workload —
    a sweep's grid points, a session's scenario batch — compile once per
    worker and then stream pure data.

    A task that raises inside a worker surfaces the original exception
    (with the remote traceback chained) from the mapping call; the pool
    itself stays healthy and subsequent calls keep working.
    """

    name = "pool"

    def __init__(self, jobs: int = 2, start_method: str | None = None):
        self.jobs = max(1, int(jobs))
        if start_method is None:
            start_method = "fork" if fork_available() else "spawn"
        if start_method not in multiprocessing.get_all_start_methods():
            raise BackendUnavailable(
                f"start method '{start_method}' is unavailable on this platform"
            )
        self.start_method = start_method
        self._pool = None
        #: total tasks dispatched over the pool's lifetime (provenance)
        self.tasks_dispatched = 0
        #: watchdog-triggered pool replacements (provenance)
        self.pools_rebuilt = 0

    @property
    def workers(self) -> int:
        return self.jobs

    def start(self) -> "PoolBackend":
        """Build the pool once; raise :class:`BackendUnavailable` if its
        workers cannot start (see :func:`_await_workers`)."""
        if self._pool is None:
            pool = multiprocessing.get_context(self.start_method).Pool(
                processes=self.jobs, initializer=_pool_init
            )
            try:
                _await_workers(pool, self.jobs)
            except BaseException:
                pool.terminate()
                pool.join()
                raise
            self._pool = pool
        return self

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def describe(self) -> dict:
        info = super().describe()
        info["persistent"] = True
        info["tasks_dispatched"] = self.tasks_dispatched
        info["pools_rebuilt"] = self.pools_rebuilt
        return info

    def _live_pool(self):
        self.start()
        return self._pool

    def _replace_pool(self):
        """Kill and rebuild the worker pool after a watchdog timeout.

        The backend object itself stays healthy — callers keep using it
        — but the workers (and their warm campaign caches) are replaced
        wholesale, since a hung or SIGKILLed worker cannot be told apart
        from the outside and must not linger.
        """
        self.pools_rebuilt += 1
        self.close()
        return self._live_pool()

    def map_chunks(
        self, context: BackendContext, tasks: Sequence[ChunkTask]
    ) -> Iterator[ChunkResult]:
        context.assert_picklable(self.name)
        spec = context.spec()
        parent_path = context.compiled_path()
        payloads = {
            task.index: (
                spec,
                context.inputs.slice(task.lo, task.hi),
                context.power_transform,
                context.power_transform_factory,
                task,
                parent_path,
                context.codec,
            )
            for task in tasks
        }
        self.tasks_dispatched += len(payloads)
        resilience = context.resilience
        if resilience is None:
            try:
                yield from self._live_pool().imap(_pool_chunk, list(payloads.values()))
            except KeyboardInterrupt:
                # Release the session-owned workers promptly: an
                # interrupted campaign must not leave orphans behind.
                self.close()
                raise
            return
        yield from _resilient_dispatch(
            tasks,
            resilience,
            self.name,
            acquire=self._live_pool,
            replace=lambda _old: self._replace_pool(),
            release=lambda _pool: None,  # persistent: the owner closes it
            submit=lambda pool, task: pool.apply_async(
                _pool_chunk, (payloads[task.index],)
            ),
        )

    def map_items(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        payloads = [(fn, item) for item in items]
        self.tasks_dispatched += len(payloads)
        try:
            return list(self._live_pool().imap(_apply, payloads))
        except KeyboardInterrupt:
            self.close()
            raise


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
