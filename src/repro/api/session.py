"""The :class:`Session` façade: one stable entry point for every consumer.

A session owns the modelling context (a
:class:`~repro.uarch.config.PipelineConfig` /
:class:`~repro.power.scope.ScopeConfig` pair) plus engine policy
(chunking, jobs, precision, seed) and dispatches validated
:class:`~repro.api.request.RunRequest` objects at registered scenarios::

    from repro.api import Session

    session = Session(chunk_size=500, jobs=4)
    envelope = session.run("figure3", n_traces=2000)
    print(envelope.render())
    record = envelope.to_json()          # schema: repro.envelope/1

Knobs passed to :meth:`Session.run` are *demands* — a scenario that
cannot honor one raises :class:`~repro.api.capabilities.CapabilityError`.
Session-level policy is a *default* — it applies to scenarios that
support it and is silently skipped elsewhere, so one session can drive
scenarios with different capability sets.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import replace
from typing import Any, Iterable

from repro.api.envelope import Envelope
from repro.api.request import RunRequest


class Session:
    """A configured connection to the scenario registry and the engine."""

    def __init__(
        self,
        config: Any = None,
        scope: Any = None,
        *,
        chunk_size: int | None = None,
        jobs: int | None = None,
        precision: str | None = None,
        seed: int | None = None,
        backend: Any = None,
        retries: int | None = None,
        chunk_timeout: float | None = None,
        checkpoint: str | None = None,
        manifest: str | None = None,
    ):
        #: session policy, merged (where supported) into every request
        self.defaults = RunRequest(
            chunk_size=chunk_size,
            jobs=jobs,
            seed=seed,
            precision=precision,
            config=config,
            scope=scope,
            backend=backend,
            retries=retries,
            chunk_timeout=chunk_timeout,
            checkpoint=checkpoint,
            manifest=manifest,
        )
        #: the session-owned persistent pool, created lazily when the
        #: ``"pool"`` policy is first exercised and kept warm until
        #: :meth:`close` — sweeps and ``run_all`` batches reuse its
        #: workers (and their compiled-schedule caches) across calls
        self._owned_pool: Any = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session's persistent worker pool, if any.

        Idempotent: closing twice is a no-op.  A closed session refuses
        further work (``run``/``run_all``/``sweep``/``acquire`` raise
        ``RuntimeError``) instead of silently re-materializing a worker
        pool that nothing would ever release — service workers hold
        sessions for their whole lifetime and rely on this boundary.
        """
        if self._closed:
            return
        self._closed = True
        if self._owned_pool is not None:
            self._owned_pool.close()
            self._owned_pool = None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this Session is closed; create a new Session instead of "
                "reusing one whose worker pool has been released"
            )

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _materialize_backend(self, request: RunRequest) -> RunRequest:
        """Swap the ``"pool"`` policy for the session's live pool.

        Per-call backends resolve inside the engine; the persistent pool
        must outlive individual runs to be worth anything, so the
        session owns it and substitutes the instance into the resolved
        request (the engine leaves caller-provided instances running).
        """
        if request.backend != "pool":
            return request
        if self._owned_pool is None:
            from repro.backends import PoolBackend

            self._owned_pool = PoolBackend(jobs=request.jobs or 1).start()
        return replace(request, backend=self._owned_pool)

    # -- registry access ------------------------------------------------

    def scenarios(self) -> list:
        """Every registered scenario, in name order."""
        from repro.campaigns import registry

        return list(registry.scenarios())

    def scenario(self, name: str):
        from repro.campaigns import registry

        return registry.get(name)

    def capabilities(self, name: str) -> frozenset:
        """The declared capability set of one scenario."""
        return self.scenario(name).capabilities

    # -- running scenarios ---------------------------------------------

    def request(self, **knobs: Any) -> RunRequest:
        """Build a request from per-call knobs (session policy excluded)."""
        return RunRequest(**knobs)

    def run(self, name: str, request: RunRequest | None = None, **knobs: Any) -> Envelope:
        """Run one scenario through a capability-validated request.

        Pass either a prebuilt ``request`` or keyword knobs
        (``n_traces=...``, ``reps=...``, ``grid=...``, ...), not both.
        Explicit knobs validate strictly against the scenario's
        capabilities; session-level defaults apply only where supported.
        Returns an :class:`Envelope`; runner exceptions propagate (batch
        drivers that need isolation catch them and build
        ``Envelope.failure`` records).
        """
        self._check_open()
        if request is not None and knobs:
            raise TypeError("pass either a RunRequest or keyword knobs, not both")
        scenario = self.scenario(name)
        request = request if request is not None else RunRequest(**knobs)
        request.validate(scenario)
        # Session policy is a default, not a demand: apply only the
        # knobs this scenario can honor.
        applicable, _dropped = self.defaults.narrowed_to(scenario)
        resolved = request.merged_defaults(applicable).resolve(scenario)
        resolved = self._materialize_backend(resolved)
        from repro.backends.resilience import collecting_faults
        from repro.power.acquisition import device_memo

        start = time.perf_counter()
        try:
            with collecting_faults() as report, device_memo():
                result, notes = self._run_noting(scenario, resolved)
        except KeyboardInterrupt:
            # Release the session-owned pool before propagating: an
            # interrupted run must not leave orphaned workers behind.
            self.close()
            raise
        seconds = time.perf_counter() - start
        return Envelope(
            scenario=scenario.name,
            title=scenario.title,
            result=result,
            seconds=seconds,
            request=resolved,
            tags=scenario.tags,
            notes=notes,
            fault_report=report.to_json() if report.has_events() else None,
        )

    @staticmethod
    def _run_noting(scenario, resolved: RunRequest):
        """Run the scenario, folding degradation warnings into notes.

        A :class:`~repro.backends.BackendDegradationWarning` (requested
        parallelism that silently would have run serial) is recorded on
        the envelope so machine consumers see it too; every other
        warning is re-emitted untouched.
        """
        from repro.backends import BackendDegradationWarning

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BackendDegradationWarning)
            result = scenario.runner(resolved)
        notes = []
        for entry in caught:
            if issubclass(entry.category, BackendDegradationWarning):
                if str(entry.message) not in notes:
                    notes.append(str(entry.message))
            else:
                warnings.warn_explicit(
                    entry.message, entry.category, entry.filename, entry.lineno
                )
        return result, tuple(notes)

    def run_all(self, names: Iterable[str] | None = None, **knobs: Any) -> list[Envelope]:
        """Run several scenarios, isolating failures per scenario.

        Knobs narrow per scenario (batch semantics); a crashing scenario
        contributes an ``Envelope.failure`` record instead of aborting
        the batch.  Manifest-required scenarios (the corpus) join the
        default everything-batch only when a ``manifest=`` knob supplies
        one; naming such a scenario *explicitly* without a manifest
        yields its failure envelope instead (strict, like any other
        scenario error).
        """
        from repro.api.capabilities import Capability
        from repro.campaigns import registry

        self._check_open()
        chosen = list(names) if names is not None else registry.names()
        request = RunRequest(**knobs)
        if names is None and request.manifest is None and self.defaults.manifest is None:
            chosen = [
                name
                for name in chosen
                if Capability.MANIFEST not in self.scenario(name).capabilities
            ]
        envelopes = []
        for name in chosen:
            scenario = self.scenario(name)
            narrowed, _dropped = request.narrowed_to(scenario)
            start = time.perf_counter()
            try:
                envelopes.append(self.run(name, narrowed))
            except Exception as error:  # noqa: BLE001 - per-scenario isolation
                envelopes.append(
                    Envelope.failure(
                        scenario=name,
                        title=scenario.title,
                        seconds=time.perf_counter() - start,
                        error=f"{type(error).__name__}: {error}",
                    )
                )
        return envelopes

    def sweep(self, grid: Iterable[str] | str | None = None, **knobs: Any) -> Envelope:
        """Run the design-space sweep scenario over ``grid`` axes."""
        if isinstance(grid, str):
            grid = (grid,)
        return self.run("sweep", grid=tuple(grid) if grid is not None else None, **knobs)

    # -- raw acquisition ------------------------------------------------

    def acquire(
        self,
        program: Any,
        inputs: Any,
        *,
        entry: str | None = None,
        window_cycles: tuple[int, int] | None = None,
        seed: int | None = None,
        keep_power: bool = False,
    ):
        """Acquire one campaign on the session's pipeline and scope.

        A thin veneer over the streaming engine for callers that want
        traces rather than a scenario: honors the session's ``config``,
        ``scope``, ``precision``, ``chunk_size``, ``jobs`` and ``seed``
        policy.
        """
        import dataclasses

        from repro.campaigns.engine import StreamingCampaign

        self._check_open()
        defaults = self.defaults
        scope = defaults.scope
        if defaults.precision is not None:
            from repro.power.scope import ScopeConfig

            scope = dataclasses.replace(
                scope if scope is not None else ScopeConfig(),
                precision=defaults.precision,
            )
        if seed is None:
            seed = defaults.seed if defaults.seed is not None else 0xC0FFEE
        engine = StreamingCampaign(
            program,
            config=defaults.config,
            scope=scope,
            entry=entry,
            window_cycles=window_cycles,
            seed=seed,
            keep_power=keep_power,
            chunk_size=defaults.chunk_size,
            jobs=defaults.jobs or 1,
            backend=self._materialize_backend(defaults).backend,
        )
        return engine.acquire(inputs)


def run(name: str, **knobs: Any) -> Envelope:
    """One-shot convenience: ``Session().run(name, **knobs)``."""
    return Session().run(name, **knobs)
