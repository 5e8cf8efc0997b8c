"""Layer spans recorded from outside the program.

The benchmark attributes time to the campaign layers by wrapping the
public entry point of each layer, at class level for methods and at
every import site for module functions, so nothing inside ``src/``
changes.  A span's *self time* is its duration minus the time of the
spans it encloses; summed over all layers it partitions the time spent
inside the outermost span (``session_run``).

``install()`` must run after the ``repro`` modules are imported (it
imports them itself) and before the work to be traced; wrappers stay in
place for the life of the process, and forked children inherit them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: layer -> public entry points, as (module, qualified name).  A dotted
#: name is a method, wrapped on its class; a plain name is a module
#: function, rebound everywhere a ``repro`` module imported it.
LAYERS = {
    "program_build": (
        ("repro.crypto.aes_asm", "aes128_program"),
        ("repro.crypto.aes_asm", "round1_only_program"),
        ("repro.isa.parser", "assemble"),
    ),
    "reference_execute": (("repro.isa.executor", "Executor.run"),),
    "schedule_compile": (("repro.uarch.pipeline", "Pipeline.schedule"),),
    "leakage_compile": (("repro.power.synth", "LeakageSchedule.__init__"),),
    "tape_compile": (("repro.isa.vtrace", "compile_tape"),),
    "tape_execute": (("repro.isa.vtrace", "TraceTape.run"),),
    "leakage_evaluate": (("repro.power.synth", "LeakageSchedule.evaluate"),),
    "scope_capture": (("repro.power.scope", "Oscilloscope.capture"),),
    "stat_fold": (
        ("repro.campaigns.accumulators", "CpaAccumulator.update"),
        ("repro.sca.cpa", "cpa_attack"),
        ("repro.sca.cpa", "cpa_attack_curve"),
    ),
    # The step from fold state to the key decision: the streamed
    # finish, plus the ranking/margin reads every scenario driver makes on the
    # result (the monolithic paths have no separate finish call).
    "stat_finish": (
        ("repro.campaigns.accumulators", "CpaAccumulator.result"),
        ("repro.sca.cpa", "CpaResult.rank_of"),
        ("repro.sca.cpa", "CpaResult.margin_confidence"),
        ("repro.sca.cpa", "CpaResult.timecourse"),
    ),
    "session_run": (("repro.api.session", "Session.run"),),
}

#: counter -> entry point counted (not timed): schedule-cache lookups
#: and the compilations behind the misses.
COUNTERS = {
    "schedule_lookups": ("repro.campaigns.engine", "StreamingCampaign.compiled"),
    "schedule_compiles": ("repro.power.acquisition", "TraceCampaign.compile_with"),
}


class Tracer:
    """Per-layer self time and call counts, kept in memory."""

    def __init__(self) -> None:
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNTERS}
        #: spans and counts are recorded only while this is set, so the
        #: benchmark's own checks between campaigns stay out of the totals
        self.active = False
        # One slot per open span: nanoseconds covered by its children.
        self._stack: list[list[int]] = []

    def span(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.self_ns[layer] += elapsed - frame[0]
                self.calls[layer] += 1

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _rebind(module_name: str, qualname: str, make) -> None:
    module = importlib.import_module(module_name)
    if "." in qualname:
        owner_name, attr = qualname.split(".")
        owner = getattr(module, owner_name)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(module, qualname)
    wrapped = make(original)
    for name, loaded in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or loaded is None:
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapped)


def install() -> Tracer:
    """Wrap every layer entry point in this process; returns the tracer."""
    # Load every module that may hold an import-site binding first.
    importlib.import_module("repro.api.session")
    importlib.import_module("repro.campaigns.registry").names()
    tracer = Tracer()
    for layer, targets in LAYERS.items():
        for module_name, qualname in targets:
            _rebind(module_name, qualname, lambda fn, layer=layer: tracer.span(layer, fn))
    for name, (module_name, qualname) in COUNTERS.items():
        _rebind(module_name, qualname, lambda fn, name=name: tracer.counter(name, fn))
    return tracer
