"""Figure 3: CPA against bare-metal AES with the HW(SubBytes out) model.

The paper plots Pearson's correlation over time for the correct key
byte, using the microarchitecture-*unaware* Hamming-weight-of-SubBytes
model, over the first AES round.  The correlation trace is explained by
the Table-2 components: the S-box load and store inside SubBytes, the
byte load + three progressive shifts + store of ShiftRows, the MDR
receiving a zero right after, and the shift-reduce GF(2^8) products and
spills of the non-inlined MixColumns helper.  Store leakage is the
strongest.

Shape criteria checked against the paper:

* the correct key byte wins the CPA (rank 0);
* significant correlation appears in each of SubBytes, ShiftRows and
  MixColumns, and at the MDR-zeroing event;
* the global correlation peak sits on a store instruction;
* the peak magnitude is in the paper's regime (~0.1 with the calibrated
  noise, against their 100k-trace hardware campaign).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.api.capabilities import Capability
from repro.api.request import RunRequest
from repro.campaigns.checkpoint import Checkpointer
from repro.campaigns.engine import StreamingCampaign
from repro.campaigns.reduction import SboxCpaFold
from repro.campaigns.registry import Scenario, register
from repro.crypto.aes_asm import LAYOUT, round1_only_program
from repro.experiments.reporting import ascii_plot, render_table, samples_to_microseconds
from repro.power.acquisition import TraceSet, random_inputs
from repro.power.profile import LeakageProfile, cortex_a7_profile
from repro.power.scope import ScopeConfig
from repro.sca.cpa import CpaResult
from repro.sca.stats import significance_threshold
from repro.uarch.config import PipelineConfig

#: Primitive boundary labels emitted by the AES generator, in time order.
PRIMITIVE_LABELS = ("ark0_start", "sb_start", "shr_start", "mc_start", "trigger_end")
PRIMITIVE_NAMES = {"ark0_start": "ARK", "sb_start": "SB", "shr_start": "ShR", "mc_start": "MC"}


def figure3_scope(precision: str = "float64-exact") -> ScopeConfig:
    """Bare-metal acquisition calibrated for the paper's ~0.1 peak."""
    return ScopeConfig(
        noise_sigma=60.0, n_averages=16, quantize_bits=8, precision=precision
    )


@dataclass
class Figure3Result:
    """The reproduced correlation-vs-time figure and its shape checks."""

    cpa: CpaResult
    trace_set: TraceSet
    true_key_byte: int
    byte_index: int
    segments: dict[str, tuple[int, int]]  # primitive -> (sample_lo, sample_hi)
    zero_store_sample: int | None
    n_traces: int
    checks: dict[str, bool] = field(default_factory=dict)

    @cached_property
    def timecourse(self) -> np.ndarray:
        return self.cpa.timecourse(self.true_key_byte)

    @property
    def matches_paper(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "true_key_byte": self.true_key_byte,
            "byte_index": self.byte_index,
            "n_traces": self.n_traces,
            "rank_of_true_key": self.cpa.rank_of(self.true_key_byte),
            "peak_abs_corr": float(np.max(np.abs(self.timecourse))),
            "segment_peaks": {
                name: self.segment_peak(name) for name in self.segments
            },
            "checks": dict(self.checks),
        }

    def artifacts(self) -> dict:
        return {"timecourse": self.timecourse}

    def segment_peak(self, name: str) -> float:
        lo, hi = self.segments[name]
        segment = self.timecourse[lo:hi]
        return float(np.max(np.abs(segment))) if segment.size else 0.0

    def render(self) -> str:
        spc = self.trace_set.leakage.samples_per_cycle
        curve = self.timecourse
        markers = {}
        for name, (lo, _hi) in self.segments.items():
            markers[lo] = name[0]
        parts = [
            ascii_plot(
                curve,
                title=(
                    "Figure 3 (reproduced): CPA vs time, model HW(SubBytes out), "
                    f"correct key byte {self.true_key_byte:#04x}"
                ),
                markers=markers,
                x_label=(
                    f"time: 0 .. {samples_to_microseconds(curve.size, spc):.2f} us "
                    "(markers: A=ARK, s=SubBytes, S=ShiftRows, m=MixColumns)"
                ),
            )
        ]
        rows = [
            [name, f"{self.segment_peak(name):.3f}"]
            for name in ("ARK", "SB", "ShR", "MC")
            if name in self.segments
        ]
        parts.append(render_table(["primitive", "peak |r|"], rows, title="\nper-primitive peaks"))
        parts.append("\nshape checks vs the paper:")
        for name, passed in self.checks.items():
            parts.append(f"  [{'x' if passed else ' '}] {name}")
        return "\n".join(parts)


def _segment_map(trace_set: TraceSet, program) -> dict[str, tuple[int, int]]:
    """Sample ranges of the round-1 primitives, from the emitted labels."""
    boundaries: list[tuple[str, int]] = []
    for label in PRIMITIVE_LABELS:
        static_index = program.instruction_at(program.label_address(label)).index
        dyn = trace_set.path.index(static_index)
        cycle = trace_set.schedule.issue_cycle[dyn]
        boundaries.append((label, trace_set.leakage.sample_of_cycle(cycle)))
    segments: dict[str, tuple[int, int]] = {}
    for (label, start), (_next, stop) in zip(boundaries, boundaries[1:]):
        if label in PRIMITIVE_NAMES:
            segments[PRIMITIVE_NAMES[label]] = (max(0, start), stop)
    return segments


def run_figure3(
    n_traces: int = 3000,
    byte_index: int = 0,
    key: bytes = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
    config: PipelineConfig | None = None,
    profile: LeakageProfile | None = None,
    scope: ScopeConfig | None = None,
    seed: int = 0xF16003,
    chunk_size: int | None = None,
    jobs: int = 1,
    precision: str | None = None,
    backend=None,
    retries: int | None = None,
    chunk_timeout: float | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
) -> Figure3Result:
    """Acquire the bare-metal campaign and fold the Figure-3 CPA.

    The CPA is one :class:`~repro.campaigns.reduction.SboxCpaFold`
    handed to :meth:`StreamingCampaign.reduce`: each chunk folds into
    per-class trace sums (the partition-sum CPA of
    ``docs/performance.md``) and the sums merge in chunk order.  Without
    ``chunk_size`` the campaign is one whole chunk.  Every layout agrees
    within 1e-10 with the two-pass :func:`~repro.sca.cpa.cpa_attack` on
    the same traces, with the same key rank (the test oracle).
    ``precision="float32"`` switches the capture chain to the
    counter-based high-throughput mode (ignored if ``scope`` is given).

    The execution knobs never change the numbers:

    * ``retries``/``chunk_timeout`` retry and watchdog each chunk;
    * ``checkpoint``/``resume`` persist the merged CPA state and the
      completed chunk set after every folded chunk, so a killed run
      restarted with ``resume=True`` re-acquires only the missing chunks
      and produces byte-identical results (see ``docs/resilience.md``);
    * ``jobs``/``backend`` pick where chunks are acquired; each chunk
      folds there, so only its compact state crosses a process
      boundary.
    """
    program = round1_only_program(key)
    inputs = random_inputs(n_traces, mem_blocks={LAYOUT.state: 16}, seed=seed)
    engine = StreamingCampaign(
        program,
        config=config,
        profile=profile if profile is not None else cortex_a7_profile(),
        scope=scope
        if scope is not None
        else figure3_scope(precision if precision is not None else "float64-exact"),
        entry="aes_round1",
        seed=seed ^ 0x5A5A,
        chunk_size=chunk_size,
        jobs=jobs,
        backend=backend,
    )
    checkpointer = None if checkpoint is None else Checkpointer(checkpoint, resume=resume)
    reduced = engine.reduce(
        inputs,
        SboxCpaFold(byte_index=byte_index),
        retry=retries,
        chunk_timeout=chunk_timeout,
        checkpoint=checkpointer,
    )
    trace_set = reduced.trace_set
    cpa = reduced.value.result()
    segments = _segment_map(trace_set, program)
    threshold = significance_threshold(n_traces, confidence=0.995)
    timecourse = cpa.timecourse(key[byte_index])

    # Which instruction does the global peak sit on?
    peak_sample = int(np.argmax(np.abs(timecourse)))
    spc = trace_set.leakage.samples_per_cycle
    peak_cycle = peak_sample // spc + trace_set.leakage.window[0]
    nearest_dyn = int(
        np.argmin([abs(c - peak_cycle) for c in trace_set.schedule.issue_cycle])
    )
    peak_instr = program.instructions[trace_set.path[nearest_dyn]]

    result = Figure3Result(
        cpa=cpa,
        trace_set=trace_set,
        true_key_byte=key[byte_index],
        byte_index=byte_index,
        segments=segments,
        zero_store_sample=None,
        n_traces=n_traces,
    )
    result.checks = {
        "correct key ranks first": cpa.rank_of(key[byte_index]) == 0,
        "SubBytes leaks (S-box load/store)": result.segment_peak("SB") > threshold,
        "ShiftRows leaks (load, shifts, store)": result.segment_peak("ShR") > threshold,
        "MixColumns leaks (products, spills)": result.segment_peak("MC") > threshold,
        "global peak is on a memory instruction": peak_instr.is_memory,
        "peak magnitude in the paper's regime (0.03..0.4)": 0.03
        < result.segment_peak("SB")
        < 0.4,
    }
    return result


def _scenario_runner(request: RunRequest) -> Figure3Result:
    kwargs = {} if request.seed is None else {"seed": request.seed}
    if request.config is not None:
        kwargs["config"] = request.config
    if request.scope is not None:
        kwargs["scope"] = request.scope
    return run_figure3(
        n_traces=request.n_traces,
        chunk_size=request.chunk_size,
        jobs=request.jobs,
        precision=request.precision,
        backend=request.backend,
        retries=request.retries,
        chunk_timeout=request.chunk_timeout,
        checkpoint=request.checkpoint,
        resume=bool(request.resume),
        **kwargs,
    )


SCENARIO = register(
    Scenario(
        name="figure3",
        title="Figure 3: CPA vs time against bare-metal AES",
        description=(
            "Round-1 AES campaign on the bare-metal A7 model; CPA with the "
            "microarchitecture-unaware HW(SubBytes out) model."
        ),
        runner=_scenario_runner,
        default_traces=3000,
        capabilities=frozenset(
            {
                Capability.TRACES,
                Capability.SEED,
                Capability.CHUNKING,
                Capability.JOBS,
                Capability.BACKEND,
                Capability.PRECISION,
                Capability.PIPELINE_CONFIG,
                Capability.SCOPE,
                Capability.RESILIENCE,
            }
        ),
        tags=("cpa", "bare-metal"),
    )
)
