"""The leakage-schedule compiler and evaluator.

A program's pipeline schedule is data-independent (warm caches, in-order
issue), so its microarchitectural event stream is compiled **once** into
per-component value-reference sequences with fixed sample positions.
Evaluating a batch of traces is then pure array work: gather the
referenced values from the batch :class:`~repro.isa.values.ValueTable`,
popcount transitions, and scatter-add into the power matrix.

Sub-cycle component phases (see :mod:`repro.uarch.components`) map each
component's transition to a distinct sample inside its clock period,
which is what lets the Table-2 harness test a model "in the correct clock
cycle" against a specific structure, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.values import ValueKind, ValueSource
from repro.isa.vtrace import PackedLayout, PackedValues
from repro.power.profile import LeakageProfile
from repro.uarch.components import Component
from repro.uarch.events import ZERO_INDEX, BusEvent
from repro.uarch.pipeline import Schedule


@dataclass
class CompiledComponent:
    """One component's event sequence, ready for batch evaluation."""

    component: Component
    #: (dyn_index, kind) per event; dyn_index == ZERO_INDEX means all-zeros
    refs: list[tuple[int, ValueKind | None]]
    cycles: np.ndarray  # event cycle numbers
    samples: np.ndarray  # event sample positions (window-relative)

    @property
    def n_events(self) -> int:
        return len(self.refs)


class LeakageSchedule:
    """Compiled mapping from a pipeline schedule to trace samples.

    ``window`` restricts compilation to cycles ``[start, stop)`` so long
    programs (a full AES) can be acquired around a trigger window, as the
    paper does with its GPIO-triggered oscilloscope.
    """

    def __init__(
        self,
        schedule: Schedule,
        components: dict[str, Component],
        samples_per_cycle: int = 4,
        window: tuple[int, int] | None = None,
    ):
        self.schedule = schedule
        self.samples_per_cycle = samples_per_cycle
        if window is None:
            window = (0, schedule.n_cycles)
        self.window = window
        self.n_cycles = window[1] - window[0]
        if self.n_cycles <= 0:
            raise ValueError(f"empty acquisition window {window}")
        self.n_samples = self.n_cycles * samples_per_cycle
        self.components = components
        self.compiled = self._compile(schedule.events)
        #: packed-evaluation plans, keyed by (layout id, profile identity)
        self._packed_plans: dict[tuple[int, tuple], "_PackedPlan"] = {}

    def _compile(self, events: list[BusEvent]) -> dict[str, CompiledComponent]:
        spc = self.samples_per_cycle
        start, stop = self.window
        per_component: dict[str, list[BusEvent]] = {}
        for event in events:
            per_component.setdefault(event.component, []).append(event)
        compiled: dict[str, CompiledComponent] = {}
        for name, component_events in per_component.items():
            component = self.components.get(name)
            if component is None:
                raise KeyError(f"event for unregistered component {name!r}")
            component_events.sort(key=lambda e: (e.cycle, e.order))
            # Keep the last pre-window event as the initial bus state so
            # HD at the window edge is correct.
            kept: list[BusEvent] = []
            prior: BusEvent | None = None
            for event in component_events:
                if event.cycle < start:
                    prior = event
                elif event.cycle < stop:
                    kept.append(event)
            refs: list[tuple[int, ValueKind | None]] = []
            cycles: list[int] = []
            if prior is not None:
                refs.append((prior.dyn_index, prior.kind))
                cycles.append(start - 1)  # marker: contributes no sample
            for event in kept:
                refs.append((event.dyn_index, event.kind))
                cycles.append(event.cycle)
            phase_offset = min(spc - 1, int(round(component.phase * spc)))
            samples = np.array(
                [(c - start) * spc + phase_offset for c in cycles], dtype=np.int64
            )
            compiled[name] = CompiledComponent(
                component=component,
                refs=refs,
                cycles=np.array(cycles, dtype=np.int64),
                samples=samples,
            )
        return compiled

    # ------------------------------------------------------------------

    def _event_values(self, compiled: CompiledComponent, table: ValueSource) -> np.ndarray:
        """[n_events, n_traces] uint32 values asserted on the component."""
        values = np.zeros((compiled.n_events, table.n_traces), dtype=np.uint32)
        for row, (dyn_index, kind) in enumerate(compiled.refs):
            if dyn_index == ZERO_INDEX or kind is None:
                continue
            row_values = table.values(dyn_index, kind)
            if row_values is not None:
                values[row] = row_values
        return values

    def evaluate(
        self, table: ValueSource, profile: LeakageProfile, dtype=np.float64
    ) -> np.ndarray:
        """Noise-free leakage power, ``dtype[n_traces, n_samples]``.

        Packed tables (tape replays, i.e. every acquisition) take a
        compiled fast path: one Hamming-weight pass over the packed
        matrix, one XOR+popcount pass over the deduplicated HD pairs,
        and a single precomputed sparse scatter into the sample axis.
        Any other value source -- in practice a :class:`ValueTable`
        built from per-trace scalar runs -- takes the per-component
        path, which is the test reference for the packed one; both
        agree within 1e-10 (floating-point summation order is the only
        difference).

        ``dtype=np.float32`` is the throughput mode of the float32
        capture chain: the packed scatter writes float32 directly
        (halving the power-matrix traffic); the reference path computes
        in float64 and casts, since it exists for equivalence checking.
        """
        if isinstance(table, PackedValues):
            return self._packed_plan(table.layout, profile).evaluate(table, dtype)
        power = np.zeros((self.n_samples, table.n_traces), dtype=np.float64)
        for compiled in self.compiled.values():
            weights = profile.weights_for(compiled.component)
            if weights.silent or compiled.n_events == 0:
                continue
            values = self._event_values(compiled, table)
            in_window = compiled.cycles >= self.window[0]
            if compiled.component.precharged:
                leak = weights.w_hw * np.bitwise_count(values).astype(np.float64)
            else:
                previous = np.zeros_like(values)
                previous[1:] = values[:-1]
                leak = weights.w_hd * np.bitwise_count(values ^ previous).astype(np.float64)
                if weights.w_hw:
                    leak += weights.w_hw * np.bitwise_count(values).astype(np.float64)
            positions = compiled.samples[in_window]
            contributions = leak[in_window]
            np.add.at(power, positions, contributions)
        power *= profile.gain
        if dtype is not np.float64 and np.dtype(dtype) != np.float64:
            power = power.astype(dtype)
        return power.T

    def _packed_plan(self, layout: PackedLayout, profile: LeakageProfile) -> "_PackedPlan":
        # Keyed on the profile's content, not the object: a cached
        # schedule outlives the run, and every run builds its own
        # (equal) profile.
        key = (id(layout), profile.identity())
        plan = self._packed_plans.get(key)
        if plan is None or plan.layout is not layout:
            plan = _PackedPlan(self, layout, profile)
            self._packed_plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Introspection used by the Table-2 harness and tests
    # ------------------------------------------------------------------

    def sample_positions(self, component_name: str) -> np.ndarray:
        """In-window sample indices at which ``component_name`` transitions."""
        compiled = self.compiled.get(component_name)
        if compiled is None:
            return np.zeros(0, dtype=np.int64)
        in_window = compiled.cycles >= self.window[0]
        return compiled.samples[in_window]

    def events_of(self, component_name: str) -> list[tuple[int, int, ValueKind | None]]:
        """(cycle, dyn_index, kind) of in-window events on a component."""
        compiled = self.compiled.get(component_name)
        if compiled is None:
            return []
        out = []
        for cycle, (dyn_index, kind) in zip(compiled.cycles.tolist(), compiled.refs):
            if cycle >= self.window[0]:
                out.append((cycle, dyn_index, kind))
        return out

    def sample_of_cycle(self, cycle: int, phase: float = 0.0) -> int:
        """Window-relative sample index of a cycle+phase position."""
        spc = self.samples_per_cycle
        return (cycle - self.window[0]) * spc + min(spc - 1, int(round(phase * spc)))


class _PackedPlan:
    """A leakage schedule compiled against one packed value layout.

    Every contributing event is lowered to weighted references into two
    popcount pools:

    * **HW pool** — one entry per distinct packed row whose Hamming
      weight some component leaks;
    * **HD pool** — one entry per distinct ``(previous, current)`` row
      pair whose Hamming distance some component leaks (the zeros row
      stands in for missing values, pre-window bus state and explicit
      zero drives).

    The pools stay ``uint8``; the scatter into the sample axis is
    grouped by contribution *level* (k-th contribution to a sample), so
    each pass is a plain fancy-indexed ``power[samples] (+)= w * pool``
    with unique sample indices — no per-component Python loop, no
    ``np.add.at``, and the only float64 traffic is the power matrix
    itself.  Almost every sample has a single contribution, so the
    first pass does nearly all the work.
    """

    def __init__(self, schedule: "LeakageSchedule", layout: PackedLayout, profile: LeakageProfile):
        self.layout = layout
        self.n_samples = schedule.n_samples
        zeros_row = layout.zeros_row

        hw_cols: dict[int, int] = {}
        hd_cols: dict[tuple[int, int], int] = {}
        entries: list[tuple[int, int, float]] = []  # (sample, pool col, weight)

        def hw_col(row: int) -> int:
            col = hw_cols.get(row)
            if col is None:
                col = len(hw_cols)
                hw_cols[row] = col
            return col

        def hd_col(pair: tuple[int, int]) -> int:
            col = hd_cols.get(pair)
            if col is None:
                col = len(hd_cols)
                hd_cols[pair] = col
            return col

        hd_entries: list[tuple[int, tuple[int, int], float]] = []
        start = schedule.window[0]
        for compiled in schedule.compiled.values():
            weights = profile.weights_for(compiled.component)
            if weights.silent or compiled.n_events == 0:
                continue
            rows = [layout.row(dyn, kind) for dyn, kind in compiled.refs]
            precharged = compiled.component.precharged
            previous = zeros_row
            for i, row in enumerate(rows):
                if int(compiled.cycles[i]) >= start:
                    sample = int(compiled.samples[i])
                    if not precharged and weights.w_hd:
                        hd_entries.append((sample, (previous, row), weights.w_hd))
                    if weights.w_hw:
                        entries.append((sample, hw_col(row), weights.w_hw))
                previous = row

        n_hw = len(hw_cols)
        for sample, pair, weight in hd_entries:
            entries.append((sample, n_hw + hd_col(pair), weight))

        self.hw_rows = np.fromiter(hw_cols.keys(), dtype=np.intp, count=n_hw)
        pairs = np.array(list(hd_cols.keys()), dtype=np.intp).reshape(len(hd_cols), 2)
        self.hd_prev = np.ascontiguousarray(pairs[:, 0])
        self.hd_curr = np.ascontiguousarray(pairs[:, 1])
        self.n_pool = n_hw + len(hd_cols)

        # Group contributions into levels: the k-th contribution to a
        # sample lands in pass k, so indices within a pass are unique.
        seen: dict[int, int] = {}
        levels: list[list[tuple[int, int, float]]] = []
        for sample, col, weight in entries:
            level = seen.get(sample, 0)
            seen[sample] = level + 1
            if level == len(levels):
                levels.append([])
            levels[level].append((sample, col, weight))
        self.passes = [
            (
                np.array([s for s, _c, _w in level], dtype=np.intp),
                np.array([c for _s, c, _w in level], dtype=np.intp),
                np.array([w for _s, _c, w in level], dtype=np.float64)[:, None],
            )
            for level in levels
        ]
        #: float32 weight columns, materialized on first float32 evaluate
        self._passes32: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
        #: reusable float32-mode scratch, keyed by n_traces
        self._scratch: tuple[int, dict[str, np.ndarray]] | None = None
        #: for each level >= 1, its samples' positions within level 0's
        #: sample order (every k-th contribution targets a sample that
        #: already has a 0-th one), so higher levels can accumulate into
        #: the cached level-0 product instead of the big power matrix
        position_of = (
            {int(sample): i for i, sample in enumerate(self.passes[0][0])}
            if self.passes
            else {}
        )
        self._level_positions = [
            np.array([position_of[int(sample)] for sample in samples], dtype=np.intp)
            for samples, _cols, _weights in self.passes[1:]
        ]
        self.gain = profile.gain

    def _buffers(self, n_traces: int) -> dict[str, np.ndarray]:
        """Float32-mode scratch, reused across evaluations.

        Gathers, transitions and the per-pass weighted products all land
        in these buffers, so a steady-state evaluation allocates nothing
        but the power matrix it returns.
        """
        if self._scratch is None or self._scratch[0] != n_traces:
            first_pass = self.passes[0][0].size if self.passes else 0
            later = max((p[0].size for p in self.passes[1:]), default=0)
            self._scratch = (
                n_traces,
                {
                    "pool": np.empty((self.n_pool, n_traces), dtype=np.uint8),
                    "transitions": np.empty(
                        (self.hd_curr.size, n_traces), dtype=np.uint32
                    ),
                    "hw": np.empty((self.hw_rows.size, n_traces), dtype=np.uint32),
                    "rows": np.empty((max(first_pass, later), n_traces), dtype=np.uint8),
                    "product": np.empty((first_pass, n_traces), dtype=np.float32),
                    "level": np.empty((later, n_traces), dtype=np.float32),
                    "gather": np.empty((later, n_traces), dtype=np.float32),
                },
            )
        return self._scratch[1]

    def evaluate(self, table: PackedValues, dtype=np.float64) -> np.ndarray:
        """``dtype[n_traces, n_samples]`` noise-free power.

        Returned as the transpose view of a sample-major matrix, the
        same orientation the reference evaluator produces.
        """
        matrix = table.matrix
        n_traces = table.n_traces
        power = np.zeros((self.n_samples, n_traces), dtype=dtype)
        if not self.passes:
            return power.T
        passes = self.passes
        if power.dtype == np.float32:
            if self._passes32 is None:
                self._passes32 = [
                    (samples, cols, weights.astype(np.float32))
                    for samples, cols, weights in self.passes
                ]
            passes = self._passes32
        n_hw = self.hw_rows.size
        if power.dtype == np.float32:
            # Throughput mode: every gather and weighted product lands
            # in plan-owned scratch reused across calls.
            scratch = self._buffers(n_traces)
            pool = scratch["pool"]
            if n_hw:
                np.take(matrix, self.hw_rows, axis=0, out=scratch["hw"])
                np.bitwise_count(scratch["hw"], out=pool[:n_hw])
            if self.hd_curr.size:
                transitions = scratch["transitions"]
                np.take(matrix, self.hd_curr, axis=0, out=transitions)
                np.bitwise_xor(transitions, matrix[self.hd_prev], out=transitions)
                np.bitwise_count(transitions, out=pool[n_hw:])
            if passes:
                # Level 0 covers (almost) every contributing sample;
                # higher levels accumulate into its cached product, so
                # the big power matrix is written exactly once.
                samples0, cols0, weights0 = passes[0]
                product = scratch["product"][: samples0.size]
                np.take(pool, cols0, axis=0, out=scratch["rows"][: samples0.size])
                np.multiply(scratch["rows"][: samples0.size], weights0, out=product)
                for positions, (_samples, cols, weights) in zip(
                    self._level_positions, passes[1:]
                ):
                    k = cols.size
                    rows = scratch["rows"][:k]
                    level = scratch["level"][:k]
                    gathered = scratch["gather"][:k]
                    np.take(pool, cols, axis=0, out=rows)
                    np.multiply(rows, weights, out=level)
                    np.take(product, positions, axis=0, out=gathered)
                    gathered += level
                    product[positions] = gathered
                power[samples0] = product
        else:
            # The float64 path allocates per call, exactly as PR 2
            # shipped it — it is the in-process "before" of the tracked
            # benchmark and the bit-exact regression anchor.
            pool = np.empty((self.n_pool, n_traces), dtype=np.uint8)
            if n_hw:
                np.bitwise_count(matrix[self.hw_rows], out=pool[:n_hw])
            if self.hd_curr.size:
                transitions = matrix[self.hd_curr]
                np.bitwise_xor(transitions, matrix[self.hd_prev], out=transitions)
                np.bitwise_count(transitions, out=pool[n_hw:])
            first = True
            for samples, cols, weights in passes:
                if first:
                    power[samples] = pool[cols] * weights
                    first = False
                else:
                    power[samples] += pool[cols] * weights
        if self.gain != 1.0:
            power *= power.dtype.type(self.gain)
        return power.T
