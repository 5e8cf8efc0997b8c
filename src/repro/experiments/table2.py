"""Table 2: micro-benchmark leakage characterization of the Cortex-A7.

Seven short instruction sequences run with random operands; for every
(component column, model expression) pair of the paper's Table 2 the
harness computes Pearson's correlation between the model and the trace
samples where that component transitions, and classifies the model as
*red* (correlation distinguishable from zero at >99.5% confidence, the
paper's criterion) or *black*.

The expected classification encodes the paper's findings:

* register-file read ports: silent everywhere;
* IS/EX layer: Hamming distances between same-position operands of
  consecutively single-issued instructions are red; operand pairs of a
  dual-issued pair are black; nop interleaving/padding makes operand
  Hamming weights red (the bus is driven to zero by the A7's nop);
* ALU output: HW of the result, red; shifter buffer: HW of the shifted
  operand, red at roughly 1/10 magnitude;
* EX/WB: HD between consecutive results on the same write-back port red
  when single-issued, black when dual-issued; boundary HW entries (the
  paper's dagger) from the nop write-back reset;
* MDR: HD between consecutive full 32-bit words red;
* align buffer: HD between sub-word values red across interleaved word
  accesses (LSU data remanence).

Models whose correlation is mathematically induced by a red model on the
same component (e.g. an addition result versus its own operands) are
marked *dont-care* and excluded from the pass/fail comparison; the
rendered table still reports their measured state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.campaigns.engine import StreamingCampaign
from repro.campaigns.reduction import ColumnCorrFold
from repro.api.capabilities import Capability
from repro.api.request import RunRequest
from repro.campaigns.registry import Scenario, register
from repro.experiments.reporting import render_table
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.isa.values import ValueKind
from repro.power.acquisition import BatchInputs
from repro.power.profile import LeakageProfile, cortex_a7_profile
from repro.power.scope import ScopeConfig
from repro.sca.stats import significance_threshold
from repro.uarch.config import PipelineConfig

# ----------------------------------------------------------------------
# Declarative specification of the seven benchmarks
# ----------------------------------------------------------------------

RED, BLACK, DONT_CARE = "red", "black", "dont-care"

#: Table-2 column -> tracked component names
COLUMN_COMPONENTS: dict[str, tuple[str, ...]] = {
    "Register File": ("rf_rp1", "rf_rp2", "rf_rp3"),
    "Is/Ex Buffer": (
        "issue_op1_s0",
        "issue_op2_s0",
        "issue_op1_s1",
        "issue_op2_s1",
        "alu0_in_op1",
        "alu0_in_op2",
        "alu1_in_op1",
        "alu1_in_op2",
        "lsu_in_op2",
    ),
    "Shift Buffer": ("shift_buf",),
    "ALU Buffer": ("alu0_out", "alu1_out"),
    "Ex/Wb Buffer": ("wb_bus0", "wb_bus1"),
    "MDR": ("mdr",),
    "Align Buffer": ("align_load", "align_store"),
}

TABLE2_COLUMNS = tuple(COLUMN_COMPONENTS)


@dataclass(frozen=True)
class ModelSpec:
    """One tested model expression of one Table-2 cell."""

    column: str
    label: str
    #: (sequence position, value kind); one ref = HW model, two refs = HD
    refs: tuple[tuple[int, ValueKind], ...]
    expect: str
    boundary: bool = False  # the paper's dagger: due to nop pipeline flushes


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of Table 2."""

    name: str
    description: str
    sequence: tuple[str, ...]
    dual_expected: bool
    models: tuple[ModelSpec, ...]
    #: registers loaded with uniform random words
    random_regs: tuple[Reg, ...] = ()
    #: register -> buffer name; loaded with the buffer address (plus a
    #: random word-aligned offset when ``randomize_pointers``)
    pointer_regs: dict[Reg, str] = field(default_factory=dict)
    randomize_pointers: bool = True
    #: (dest, source): dest pre-charged with source's value, following the
    #: paper's precaution of pre-charging destination registers
    precharge: tuple[tuple[Reg, Reg], ...] = ()


def _hw(column: str, label: str, pos: int, kind: ValueKind, expect: str, boundary=False):
    return ModelSpec(column, label, ((pos, kind),), expect, boundary)


def _hd(column: str, label: str, a: tuple[int, ValueKind], b: tuple[int, ValueKind], expect: str):
    return ModelSpec(column, label, (a, b), expect)


R = ValueKind.RESULT
O1, O2 = ValueKind.OP1, ValueKind.OP2
SH = ValueKind.SHIFTED
SD = ValueKind.STORE_DATA
MW = ValueKind.MEM_WORD
SW = ValueKind.SUB_WORD
BASE = ValueKind.BASE


def benchmark_specs() -> tuple[BenchmarkSpec, ...]:
    """The seven rows of Table 2."""
    return (
        BenchmarkSpec(
            name="row1-mov-nop-mov",
            description="mov rA,rB; nop; mov rC,rD",
            sequence=("mov r1, r2", "nop", "mov r3, r4"),
            dual_expected=False,
            random_regs=(Reg.R2, Reg.R4),
            precharge=((Reg.R1, Reg.R2), (Reg.R3, Reg.R4)),
            models=(
                _hw("Register File", "rB", 0, O2, BLACK),
                _hw("Register File", "rD", 2, O2, BLACK),
                _hw("Is/Ex Buffer", "rB", 0, O2, RED),
                _hw("Is/Ex Buffer", "rD", 2, O2, RED),
                _hd("Is/Ex Buffer", "rB^rD", (0, O2), (2, O2), RED),
                _hw("Ex/Wb Buffer", "rB!", 0, R, RED, boundary=True),
                _hw("Ex/Wb Buffer", "rD!", 2, R, RED, boundary=True),
                _hd("Ex/Wb Buffer", "rB^rD", (0, R), (2, R), BLACK),
            ),
        ),
        BenchmarkSpec(
            name="row2-add-add",
            description="add rA,rB,rC; add rD,rE,rF (single-issued)",
            sequence=("add r1, r2, r3", "add r4, r5, r6"),
            dual_expected=False,
            random_regs=(Reg.R2, Reg.R3, Reg.R5, Reg.R6),
            models=(
                _hw("Register File", "rB", 0, O1, BLACK),
                _hw("Register File", "rC", 0, O2, BLACK),
                _hw("Register File", "rE", 1, O1, BLACK),
                _hw("Register File", "rF", 1, O2, BLACK),
                _hw("Is/Ex Buffer", "rB!", 0, O1, RED, boundary=True),
                _hw("Is/Ex Buffer", "rC!", 0, O2, RED, boundary=True),
                _hw("Is/Ex Buffer", "rE!", 1, O1, RED, boundary=True),
                _hw("Is/Ex Buffer", "rF!", 1, O2, RED, boundary=True),
                _hd("Is/Ex Buffer", "rB^rE", (0, O1), (1, O1), RED),
                _hd("Is/Ex Buffer", "rC^rF", (0, O2), (1, O2), RED),
                _hw("ALU Buffer", "rA", 0, R, RED),
                _hw("ALU Buffer", "rD", 1, R, RED),
                _hw("ALU Buffer", "rB", 0, O1, DONT_CARE),
                _hw("ALU Buffer", "rE", 1, O1, DONT_CARE),
                _hw("Ex/Wb Buffer", "rA!", 0, R, RED, boundary=True),
                _hw("Ex/Wb Buffer", "rD!", 1, R, RED, boundary=True),
                _hd("Ex/Wb Buffer", "rA^rD", (0, R), (1, R), RED),
            ),
        ),
        BenchmarkSpec(
            name="row3-add-addimm-dual",
            description="add rA,rB,rC; add rD,rE,#n (dual-issued)",
            sequence=("add r1, r2, r3", "add r4, r5, #77"),
            dual_expected=True,
            random_regs=(Reg.R2, Reg.R3, Reg.R5),
            models=(
                _hw("Register File", "rB", 0, O1, BLACK),
                _hw("Register File", "rC", 0, O2, BLACK),
                _hw("Register File", "rE", 1, O1, BLACK),
                _hw("Is/Ex Buffer", "rB!", 0, O1, RED, boundary=True),
                _hw("Is/Ex Buffer", "rC!", 0, O2, RED, boundary=True),
                _hw("Is/Ex Buffer", "rE!", 1, O1, RED, boundary=True),
                _hd("Is/Ex Buffer", "rB^rE", (0, O1), (1, O1), BLACK),
                _hd("Is/Ex Buffer", "rC^rE", (0, O2), (1, O1), BLACK),
                _hw("ALU Buffer", "rA", 0, R, RED),
                _hw("ALU Buffer", "rD", 1, R, RED),
                _hw("Ex/Wb Buffer", "rA!", 0, R, RED, boundary=True),
                _hw("Ex/Wb Buffer", "rD!", 1, R, RED, boundary=True),
                _hd("Ex/Wb Buffer", "rA^rD", (0, R), (1, R), BLACK),
            ),
        ),
        BenchmarkSpec(
            name="row4-add-shift",
            description="add rA,rB,rC,lsl n; add rD,rE,rF,lsl n (single-issued)",
            sequence=("add r1, r2, r3, lsl #5", "add r4, r5, r6, lsl #5"),
            dual_expected=False,
            random_regs=(Reg.R2, Reg.R3, Reg.R5, Reg.R6),
            models=(
                _hw("Register File", "rB", 0, O1, BLACK),
                _hw("Register File", "rC", 0, O2, BLACK),
                _hd("Is/Ex Buffer", "rB^rE", (0, O1), (1, O1), RED),
                _hd("Is/Ex Buffer", "rC^rF", (0, O2), (1, O2), RED),
                _hw("Shift Buffer", "rC<<n", 0, SH, RED),
                _hw("Shift Buffer", "rF<<n", 1, SH, RED),
                _hw("ALU Buffer", "rA", 0, R, RED),
                _hw("ALU Buffer", "rD", 1, R, RED),
                _hw("ALU Buffer", "rB", 0, O1, DONT_CARE),
                _hw("ALU Buffer", "rE", 1, O1, DONT_CARE),
                _hw("Ex/Wb Buffer", "rA!", 0, R, RED, boundary=True),
                _hw("Ex/Wb Buffer", "rD!", 1, R, RED, boundary=True),
                _hd("Ex/Wb Buffer", "rA^rD", (0, R), (1, R), RED),
            ),
        ),
        BenchmarkSpec(
            name="row5-ldr-ldr",
            description="ldr rA,[rB]; ldr rC,[rD] (single-issued)",
            sequence=("ldr r1, [r9]", "ldr r3, [r10]"),
            dual_expected=False,
            pointer_regs={Reg.R9: "buf_a", Reg.R10: "buf_b"},
            models=(
                _hw("Register File", "rB", 0, BASE, BLACK),
                _hw("Register File", "rD", 1, BASE, BLACK),
                _hw("Ex/Wb Buffer", "rA!", 0, R, RED, boundary=True),
                _hw("Ex/Wb Buffer", "rC!", 1, R, RED, boundary=True),
                _hd("Ex/Wb Buffer", "rA^rC", (0, R), (1, R), RED),
                _hd("MDR", "rA^rC", (0, MW), (1, MW), RED),
            ),
        ),
        BenchmarkSpec(
            name="row6-str-str",
            description="str rA,[rB]; str rC,[rD] (single-issued)",
            sequence=("str r1, [r9]", "str r3, [r10]"),
            dual_expected=False,
            random_regs=(Reg.R1, Reg.R3),
            pointer_regs={Reg.R9: "buf_a", Reg.R10: "buf_b"},
            models=(
                _hw("Register File", "rB", 0, BASE, BLACK),
                _hw("Register File", "rD", 1, BASE, BLACK),
                _hw("Is/Ex Buffer", "rA!", 0, SD, RED, boundary=True),
                _hw("Is/Ex Buffer", "rC!", 1, SD, RED, boundary=True),
                _hd("Is/Ex Buffer", "rA^rC", (0, SD), (1, SD), RED),
                _hw("Ex/Wb Buffer", "rA!", 0, SD, RED, boundary=True),
                _hw("Ex/Wb Buffer", "rC!", 1, SD, RED, boundary=True),
                _hd("Ex/Wb Buffer", "rA^rC", (0, SD), (1, SD), RED),
                _hd("MDR", "rA^rC", (0, MW), (1, MW), RED),
            ),
        ),
        BenchmarkSpec(
            name="row7-ldr-ldrb-interleave",
            description="ldr rA,[rB]; ldrb rC,[rD]; ldr rE,[rF]; ldrb rG,[rH]",
            sequence=(
                "ldr r1, [r9]",
                "ldrb r3, [r10]",
                "ldr r5, [r11]",
                "ldrb r7, [r12]",
            ),
            dual_expected=False,
            pointer_regs={
                Reg.R9: "buf_a",
                Reg.R10: "buf_b",
                Reg.R11: "buf_c",
                Reg.R12: "buf_d",
            },
            models=(
                _hw("Register File", "rA", 0, R, BLACK),
                _hw("Register File", "rC", 1, R, BLACK),
                _hw("Ex/Wb Buffer", "rA!", 0, R, RED, boundary=True),
                _hw("Ex/Wb Buffer", "rC!", 1, R, RED, boundary=True),
                _hw("Ex/Wb Buffer", "rE!", 2, R, RED, boundary=True),
                _hw("Ex/Wb Buffer", "rG!", 3, R, RED, boundary=True),
                _hd("MDR", "rA^rC(w)", (0, MW), (1, MW), RED),
                _hd("MDR", "rC^rE(w)", (1, MW), (2, MW), RED),
                _hd("MDR", "rE^rG(w)", (2, MW), (3, MW), RED),
                _hd("Align Buffer", "rC^rG", (1, SW), (3, SW), RED),
                _hd("Align Buffer", "rA^rC", (0, R), (1, SW), BLACK),
            ),
        ),
    )


# ----------------------------------------------------------------------
# Program construction
# ----------------------------------------------------------------------

_BUFFERS = {"buf_a": 0x30000, "buf_b": 0x30100, "buf_c": 0x30200, "buf_d": 0x30300}
_BUFFER_SIZE = 64


def benchmark_source(spec: BenchmarkSpec, pad_nops: int = 16) -> str:
    """Assembly for one Table-2 micro-benchmark run."""
    lines: list[str] = []
    for reg, buffer in sorted(spec.pointer_regs.items()):
        lines.append(f"    ldr {Reg(reg)}, ={buffer}")  # 2 instructions each
    lines.extend(["    nop"] * pad_nops)
    lines.append("bench_start:")
    lines.extend(f"    {instr}" for instr in spec.sequence)
    lines.append("bench_end:")
    lines.extend(["    nop"] * pad_nops)
    lines.append("    bx lr")
    for name, address in _BUFFERS.items():
        lines.append(f"    .org {address:#x}")
        lines.append(f"{name}:")
        lines.append(f"    .space {_BUFFER_SIZE}")
    return "\n".join(lines)


def benchmark_inputs(spec: BenchmarkSpec, n_traces: int, seed: int) -> BatchInputs:
    """Random operands, pointer registers and buffer contents."""
    rng = np.random.default_rng(seed)
    regs: dict[Reg, np.ndarray] = {}
    for reg in spec.random_regs:
        regs[reg] = rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
    for reg, buffer in spec.pointer_regs.items():
        base = _BUFFERS[buffer]
        if spec.randomize_pointers:
            offsets = (rng.integers(0, _BUFFER_SIZE // 4, size=n_traces, dtype=np.uint32) * 4).astype(
                np.uint32
            )
        else:
            offsets = np.zeros(n_traces, dtype=np.uint32)
        regs[reg] = (np.uint32(base) + offsets).astype(np.uint32)
    for dest, source in spec.precharge:
        regs[dest] = regs[source].copy()
    mem = {
        address: rng.integers(0, 256, size=(n_traces, _BUFFER_SIZE), dtype=np.uint16).astype(
            np.uint8
        )
        for address in _BUFFERS.values()
    }
    return BatchInputs(n_traces=n_traces, regs=regs, mem_bytes=mem)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


@dataclass
class ModelOutcome:
    """Measured state of one tested model."""

    spec: ModelSpec
    peak_corr: float
    threshold: float

    @property
    def measured(self) -> str:
        return RED if abs(self.peak_corr) > self.threshold else BLACK

    @property
    def agrees(self) -> bool:
        if self.spec.expect == DONT_CARE:
            return True
        return self.measured == self.spec.expect


@dataclass
class BenchmarkOutcome:
    spec: BenchmarkSpec
    dual_measured: bool
    outcomes: list[ModelOutcome]

    @property
    def agrees(self) -> bool:
        return (
            all(outcome.agrees for outcome in self.outcomes)
            and self.dual_measured == self.spec.dual_expected
        )


@dataclass
class Table2Result:
    benchmarks: list[BenchmarkOutcome]
    n_traces: int
    shift_magnitude_ratio: float | None = None

    @property
    def matches_paper(self) -> bool:
        return all(b.agrees for b in self.benchmarks)

    def to_json(self) -> dict:
        return {
            "n_traces": self.n_traces,
            "shift_magnitude_ratio": self.shift_magnitude_ratio,
            "disagreements": self.disagreements(),
            "benchmarks": [
                {
                    "name": bench.spec.name,
                    "dual_measured": bench.dual_measured,
                    "dual_expected": bench.spec.dual_expected,
                    "cells": [
                        {
                            "component": outcome.spec.column,
                            "model": outcome.spec.label,
                            "peak_corr": round(outcome.peak_corr, 6),
                            "threshold": round(outcome.threshold, 6),
                            "expected": outcome.spec.expect,
                            "measured": outcome.measured,
                            "agrees": outcome.agrees,
                        }
                        for outcome in bench.outcomes
                    ],
                }
                for bench in self.benchmarks
            ],
        }

    def artifacts(self) -> dict:
        return {}

    def disagreements(self) -> list[str]:
        out = []
        for bench in self.benchmarks:
            if bench.dual_measured != bench.spec.dual_expected:
                out.append(f"{bench.spec.name}: dual-issue {bench.dual_measured}")
            for outcome in bench.outcomes:
                if not outcome.agrees:
                    out.append(
                        f"{bench.spec.name}/{outcome.spec.column}/{outcome.spec.label}: "
                        f"measured {outcome.measured} (r={outcome.peak_corr:+.3f}, "
                        f"thr={outcome.threshold:.3f}), expected {outcome.spec.expect}"
                    )
        return out

    def render(self) -> str:
        parts = ["Table 2 (reproduced): leakage characterization", ""]
        for bench in self.benchmarks:
            parts.append(
                f"{bench.spec.description}  "
                f"[dual-issued: {'yes' if bench.dual_measured else 'no'}"
                f" (paper: {'yes' if bench.spec.dual_expected else 'no'})]"
            )
            rows = []
            for outcome in bench.outcomes:
                mark = {
                    (RED, True): "RED  (matches)",
                    (BLACK, True): "black (matches)",
                    (RED, False): "RED  (MISMATCH)",
                    (BLACK, False): "black (MISMATCH)",
                }[(outcome.measured, outcome.agrees)]
                expected = outcome.spec.expect + (" (dagger)" if outcome.spec.boundary else "")
                rows.append(
                    [
                        outcome.spec.column,
                        outcome.spec.label,
                        f"{outcome.peak_corr:+.3f}",
                        f"{outcome.threshold:.3f}",
                        expected,
                        mark,
                    ]
                )
            parts.append(
                render_table(
                    ["component", "model", "peak r", "threshold", "paper", "measured"], rows
                )
            )
            parts.append("")
        if self.shift_magnitude_ratio is not None:
            parts.append(
                "shifter-buffer magnitude ratio vs ALU leakage: "
                f"{self.shift_magnitude_ratio:.2f} (paper: about 1/10)"
            )
        verdict = "MATCH" if self.matches_paper else "MISMATCHES:\n  " + "\n  ".join(
            self.disagreements()
        )
        parts.append(f"paper comparison: {verdict}")
        return "\n".join(parts)


def _model_samples(
    leakage, components, bench_base: int, refs, extend: bool = True
) -> tuple[int, ...]:
    """Samples where the model's referenced values transition.

    For every column component, every event referencing one of the
    model's values contributes its own sample and (when ``extend``) the
    next event's sample on that component — the instant the value is
    replaced, where a Hamming-distance leak of it appears.  The
    extension is skipped for the register-file column: its ports carry
    no transition leakage to chase, and the extra sample would only pick
    up co-located activity of other structures.
    """
    wanted = {(bench_base + pos, kind) for pos, kind in refs}
    samples: set[int] = set()
    for name in components:
        events = leakage.events_of(name)
        positions = leakage.sample_positions(name)
        for index, (cycle, dyn, kind) in enumerate(events):
            if (dyn, kind) in wanted:
                samples.add(int(positions[index]))
                if extend and index + 1 < len(events):
                    samples.add(int(positions[index + 1]))
    return tuple(sorted(samples))


def table2_scope() -> ScopeConfig:
    """Scope settings for the characterization (sharp response kernel)."""
    return ScopeConfig(noise_sigma=8.0, kernel=(1.0,), n_averages=16, quantize_bits=8)


def run_table2(
    n_traces: int = 2000,
    config: PipelineConfig | None = None,
    profile: LeakageProfile | None = None,
    seed: int = 0x7AB1E2,
    confidence: float = 0.995,
    chunk_size: int | None = None,
    jobs: int = 1,
    backend=None,
) -> Table2Result:
    """Run all seven benchmarks and classify every model expression.

    Each benchmark campaign folds through :meth:`StreamingCampaign.reduce`
    with one :class:`~repro.campaigns.reduction.ColumnCorrFold`: every
    (component, model) correlation accumulates chunk by chunk (one
    whole chunk without ``chunk_size``) from the chunk's value table.
    """
    config = config if config is not None else PipelineConfig()
    profile = profile if profile is not None else cortex_a7_profile()
    threshold = significance_threshold(n_traces, confidence)
    outcomes: list[BenchmarkOutcome] = []
    shift_peaks: list[float] = []
    alu_peaks: list[float] = []

    for row, spec in enumerate(benchmark_specs()):
        program = assemble(benchmark_source(spec))
        inputs = benchmark_inputs(spec, n_traces, seed + row)
        engine = StreamingCampaign(
            program,
            config=config,
            profile=profile,
            scope=table2_scope(),
            seed=seed + 31 * row,
            chunk_size=chunk_size,
            jobs=jobs,
            backend=backend,
        )
        compiled = engine.compiled(inputs)
        schedule, leakage = compiled.schedule, compiled.leakage
        bench_base = program.instruction_at(program.label_address("bench_start")).index
        fold = ColumnCorrFold(
            columns=tuple(
                _model_samples(
                    leakage,
                    COLUMN_COMPONENTS[model.column],
                    bench_base,
                    model.refs,
                    extend=model.column != "Register File",
                )
                for model in spec.models
            ),
            refs=tuple(
                tuple((bench_base + pos, kind) for pos, kind in model.refs)
                for model in spec.models
            ),
        )
        peaks = engine.reduce(inputs, fold).value.peaks()

        model_outcomes = []
        for model, peak in zip(spec.models, peaks):
            outcome = ModelOutcome(spec=model, peak_corr=peak, threshold=threshold)
            model_outcomes.append(outcome)
            if model.column == "Shift Buffer" and model.expect == RED:
                shift_peaks.append(abs(peak))
            if model.column == "ALU Buffer" and model.expect == RED:
                alu_peaks.append(abs(peak))

        bench_dyn = range(bench_base, bench_base + len(spec.sequence))
        dual_measured = any(schedule.dual[d] for d in bench_dyn)
        outcomes.append(
            BenchmarkOutcome(spec=spec, dual_measured=dual_measured, outcomes=model_outcomes)
        )

    ratio = None
    if shift_peaks and alu_peaks:
        ratio = float(np.mean(shift_peaks) / np.mean(alu_peaks))
    return Table2Result(benchmarks=outcomes, n_traces=n_traces, shift_magnitude_ratio=ratio)


def _scenario_runner(request: RunRequest) -> Table2Result:
    kwargs = {} if request.seed is None else {"seed": request.seed}
    if request.config is not None:
        kwargs["config"] = request.config
    return run_table2(
        n_traces=request.n_traces,
        chunk_size=request.chunk_size,
        jobs=request.jobs,
        backend=request.backend,
        **kwargs,
    )


SCENARIO = register(
    Scenario(
        name="table2",
        title="Table 2: micro-benchmark leakage characterization",
        description=(
            "Seven instruction-sequence benchmarks; every (component, model) "
            "cell classified red/black at >99.5% confidence."
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
                Capability.PIPELINE_CONFIG,
            }
        ),
        tags=("characterization",),
    )
)
