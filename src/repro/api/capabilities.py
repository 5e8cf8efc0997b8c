"""Declarative scenario capabilities and their violation error.

A :class:`Capability` names one execution knob a scenario is able to
honor.  Scenarios declare a ``frozenset`` of them instead of the old
per-knob boolean sprawl, and a
:class:`~repro.api.request.RunRequest` is validated against that set
*before* dispatch: a knob the scenario cannot honor raises a structured
:class:`CapabilityError` instead of being silently ignored.

This module is import-light on purpose (stdlib only) so the registry,
the CLI parser and shell completion can use it without pulling numpy.
"""

from __future__ import annotations

import enum
from typing import Iterable


class Capability(enum.Enum):
    """One execution knob a scenario declares it honors."""

    #: the runner honors ``n_traces`` (statistical trace budget)
    TRACES = "traces"
    #: the runner honors ``reps`` (CPI microbenchmark repetitions)
    REPS = "reps"
    #: the runner honors ``chunk_size`` (streams through the engine)
    CHUNKING = "chunking"
    #: the runner honors ``jobs`` (multiprocessing fan-out)
    JOBS = "jobs"
    #: the runner honors ``backend`` (execution-backend policy)
    BACKEND = "backend"
    #: the runner honors ``precision`` (float32 capture chain)
    PRECISION = "precision"
    #: the runner honors ``grid`` (design-space sweep axes)
    GRID = "grid"
    #: the runner honors ``seed`` (campaign seed override)
    SEED = "seed"
    #: the runner honors ``config`` (a PipelineConfig override)
    PIPELINE_CONFIG = "pipeline-config"
    #: the runner honors ``scope`` (a ScopeConfig override)
    SCOPE = "scope"
    #: the runner honors the fault-tolerance knobs (``retries``,
    #: ``chunk_timeout``, ``checkpoint``, ``resume``)
    RESILIENCE = "resilience"
    #: the runner honors ``manifest`` (a corpus batch-manifest path —
    #: and *requires* one, see docs/corpus.md)
    MANIFEST = "manifest"

    def __str__(self) -> str:  # "chunking", not "Capability.CHUNKING"
        return self.value


#: RunRequest field -> the capability required to set it.
KNOB_CAPABILITIES: dict[str, Capability] = {
    "n_traces": Capability.TRACES,
    "reps": Capability.REPS,
    "chunk_size": Capability.CHUNKING,
    "jobs": Capability.JOBS,
    "backend": Capability.BACKEND,
    "precision": Capability.PRECISION,
    "grid": Capability.GRID,
    "seed": Capability.SEED,
    "config": Capability.PIPELINE_CONFIG,
    "scope": Capability.SCOPE,
    "retries": Capability.RESILIENCE,
    "chunk_timeout": Capability.RESILIENCE,
    "checkpoint": Capability.RESILIENCE,
    "resume": Capability.RESILIENCE,
    "manifest": Capability.MANIFEST,
}

#: RunRequest field -> the CLI flag that sets it (for error messages).
KNOB_FLAGS: dict[str, str] = {
    "n_traces": "--traces",
    "reps": "--reps",
    "chunk_size": "--chunk-size",
    "jobs": "--jobs",
    "backend": "--backend",
    "precision": "--precision",
    "grid": "--grid",
    "seed": "--seed",
    "config": "config=",
    "scope": "scope=",
    "retries": "--retries",
    "chunk_timeout": "--chunk-timeout",
    "checkpoint": "--checkpoint",
    "resume": "--resume",
    "manifest": "--manifest",
}


class CapabilityError(ValueError):
    """A run request sets knobs its target scenario cannot honor."""

    def __init__(self, scenario: str, knobs: Iterable[str], supported: Iterable[Capability]):
        self.scenario = scenario
        #: the offending RunRequest field names, in declaration order
        self.knobs = tuple(knobs)
        #: the scenario's declared capability set
        self.supported = frozenset(supported)
        missing = ", ".join(
            f"{knob!r} (needs capability '{KNOB_CAPABILITIES[knob]}')" for knob in self.knobs
        )
        declared = ", ".join(sorted(str(c) for c in self.supported)) or "none"
        super().__init__(
            f"scenario {scenario!r} does not support {missing}; "
            f"declared capabilities: {declared}"
        )

    def cli_message(self) -> str:
        """The same violation, worded in terms of CLI flags."""
        flags = ", ".join(KNOB_FLAGS[knob] for knob in self.knobs)
        declared = ", ".join(sorted(str(c) for c in self.supported)) or "none"
        return (
            f"scenario '{self.scenario}' does not support {flags} "
            f"(declared capabilities: {declared})"
        )


class ManifestRequiredError(CapabilityError):
    """A MANIFEST-capable scenario was dispatched without a manifest.

    The inverse direction of :class:`CapabilityError`: the scenario
    *requires* the knob rather than rejecting it, so the message is
    built directly instead of through the ``does not support`` wording.
    """

    def __init__(self, scenario: str, supported: Iterable[Capability]):
        self.scenario = scenario
        self.knobs = ("manifest",)
        self.supported = frozenset(supported)
        # Skip CapabilityError.__init__: its message has the polarity
        # reversed for this case.
        ValueError.__init__(
            self,
            f"scenario {scenario!r} requires a manifest "
            "(set RunRequest.manifest to a manifest path)",
        )

    def cli_message(self) -> str:
        return (
            f"scenario '{self.scenario}' requires --manifest PATH "
            "(see docs/corpus.md for the manifest schema)"
        )
