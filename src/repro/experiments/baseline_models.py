"""Instruction-level vs microarchitecture-aware leakage prediction.

The experiment behind the paper's core argument: grey-box per-instruction
models (the state of the art for scalar microcontrollers, [16, 19]) make
two characteristic errors on a superscalar core.  Both are measured,
not asserted:

* **False positive** — two *adjacent* register-register/immediate ALU
  instructions: the instruction-level model predicts their operands
  interact (HD between consecutive instructions), but the A7 dual-issues
  them onto separate slot buses, and the measured correlation is null.
* **False negative** — two instructions with an unrelated instruction
  between them: the instruction-level model sees no adjacency, but the
  middle instruction dual-issues with the first, making the outer two
  operands collide on the slot-0 bus; the measured correlation is strong.

The microarchitecture-aware auditor gets both cases right; agreement is
checked against the synthesized traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audit.auditor import MicroarchAuditor
from repro.campaigns.accumulators import OnlineCorrAccumulator
from repro.campaigns.engine import StreamingCampaign
from repro.api.capabilities import Capability
from repro.api.request import RunRequest
from repro.campaigns.registry import Scenario, register
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.isa.values import ValueKind
from repro.power.acquisition import BatchInputs
from repro.power.hamming import hamming_distance
from repro.power.isa_level import IsaLevelModel
from repro.power.scope import ScopeConfig
from repro.sca.stats import pearson_corr, significance_threshold


@dataclass
class PredictionCase:
    """One scenario: what each model predicts vs what the traces show."""

    name: str
    description: str
    isa_level_predicts_leak: bool
    microarch_predicts_leak: bool
    measured_leak: bool
    peak_corr: float
    threshold: float

    @property
    def isa_level_correct(self) -> bool:
        return self.isa_level_predicts_leak == self.measured_leak

    @property
    def microarch_correct(self) -> bool:
        return self.microarch_predicts_leak == self.measured_leak

    def render(self) -> str:
        return (
            f"[{self.name}] {self.description}\n"
            f"  instruction-level model predicts leak : {self.isa_level_predicts_leak}"
            f" ({'correct' if self.isa_level_correct else 'WRONG'})\n"
            f"  microarch-aware model predicts leak   : {self.microarch_predicts_leak}"
            f" ({'correct' if self.microarch_correct else 'WRONG'})\n"
            f"  measured |r| = {abs(self.peak_corr):.3f} "
            f"(threshold {self.threshold:.3f}) -> leak = {self.measured_leak}"
        )


@dataclass
class BaselineComparison:
    cases: list[PredictionCase]

    @property
    def isa_level_errors(self) -> int:
        return sum(not case.isa_level_correct for case in self.cases)

    @property
    def microarch_errors(self) -> int:
        return sum(not case.microarch_correct for case in self.cases)

    @property
    def matches_paper(self) -> bool:
        # The paper's claim: the microarchitecture-aware model predicts
        # every case the per-instruction model gets wrong.
        return self.microarch_errors == 0 and self.isa_level_errors > 0

    def to_json(self) -> dict:
        return {
            "isa_level_errors": self.isa_level_errors,
            "microarch_errors": self.microarch_errors,
            "cases": [
                {
                    "name": case.name,
                    "isa_level_predicts_leak": case.isa_level_predicts_leak,
                    "microarch_predicts_leak": case.microarch_predicts_leak,
                    "measured_leak": case.measured_leak,
                    "peak_corr": round(case.peak_corr, 6),
                    "threshold": round(case.threshold, 6),
                }
                for case in self.cases
            ],
        }

    def artifacts(self) -> dict:
        return {}

    def render(self) -> str:
        parts = [case.render() for case in self.cases]
        parts.append(
            f"\nprediction errors: instruction-level {self.isa_level_errors}/"
            f"{len(self.cases)}, microarchitecture-aware {self.microarch_errors}/"
            f"{len(self.cases)}"
        )
        return "\n\n".join(parts)


_SHARES = [frozenset({"sA", "sB"})]
_ISSUE_LAYER = (
    "issue_op1_s0", "issue_op2_s0", "issue_op1_s1", "issue_op2_s1",
    "alu0_in_op1", "alu0_in_op2", "alu1_in_op1", "alu1_in_op2",
)


def _measure_case(
    name: str,
    description: str,
    source_lines: list[str],
    value_refs: tuple[tuple[int, ValueKind], tuple[int, ValueKind]],
    n_traces: int,
    seed: int,
    chunk_size: int | None = None,
    jobs: int = 1,
    backend=None,
) -> PredictionCase:
    source = "\n".join(
        ["    nop"] * 12 + ["bench_start:"] + [f"    {line}" for line in source_lines]
        + ["    nop"] * 12 + ["    bx lr"]
    )
    program = assemble(source)
    rng = np.random.default_rng(seed)
    value_a = rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
    value_b = rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
    fillers = {
        reg: rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
        for reg in (Reg.R3, Reg.R8, Reg.R10)
    }
    inputs = BatchInputs(
        n_traces=n_traces, regs={Reg.R5: value_a, Reg.R6: value_b, **fillers}
    )
    engine = StreamingCampaign(
        program,
        scope=ScopeConfig(noise_sigma=8.0, kernel=(1.0,)),
        seed=seed ^ 0x9999,
        chunk_size=chunk_size,
        jobs=jobs,
        backend=backend,
    )
    leakage = engine.compiled(inputs).leakage
    base = program.instruction_at(program.label_address("bench_start")).index
    refs = tuple((base + pos, kind) for pos, kind in value_refs)
    samples = sorted(
        {int(s) for comp in _ISSUE_LAYER for s in leakage.sample_positions(comp)}
    )
    model = hamming_distance(value_a, value_b).astype(np.float64)

    if chunk_size is None:
        trace_set = engine.acquire(inputs)
        table = trace_set.table
        corr = pearson_corr(model, trace_set.traces[:, samples])
    else:
        accumulator = OnlineCorrAccumulator()
        table = None
        for chunk in engine.stream(inputs):
            accumulator.update(model[chunk.start : chunk.stop], chunk.traces[:, samples])
            table = chunk.trace_set.table
        corr = accumulator.correlations()
    peak = float(corr[np.argmax(np.abs(corr))])

    # What does the instruction-level model predict?
    isa_model = IsaLevelModel()
    isa_predicts = isa_model.predicts_interaction(table, refs[0], refs[1])

    # What does the microarchitecture-aware analysis predict?
    taints = {Reg.R5: frozenset({"sA"}), Reg.R6: frozenset({"sB"})}
    auditor = MicroarchAuditor(program, _SHARES, taints)
    micro_predicts = not auditor.audit().clean
    threshold = significance_threshold(n_traces, 1 - 0.002 / max(len(samples), 1))
    return PredictionCase(
        name=name,
        description=description,
        isa_level_predicts_leak=isa_predicts,
        microarch_predicts_leak=micro_predicts,
        measured_leak=abs(peak) > threshold,
        peak_corr=peak,
        threshold=threshold,
    )


def run_baseline_comparison(
    n_traces: int = 2000,
    seed: int = 0xBA5E,
    chunk_size: int | None = None,
    jobs: int = 1,
    backend=None,
) -> BaselineComparison:
    """Measure the three scenarios and each model's verdicts."""
    cases = [
        _measure_case(
            "adjacent-single-issued",
            "back-to-back reg-reg adds (cannot pair): both models expect "
            "op1-bus interaction",
            ["add r1, r5, r3", "add r4, r6, r3"],
            ((0, ValueKind.OP1), (1, ValueKind.OP1)),
            n_traces,
            seed,
            chunk_size=chunk_size,
            jobs=jobs,
            backend=backend,
        ),
        _measure_case(
            "adjacent-dual-issued",
            "add + add-with-immediate (dual-issues): the instruction-level "
            "model still predicts interaction; the core separates the buses",
            ["add r1, r5, r3", "add r4, r6, #9"],
            ((0, ValueKind.OP1), (1, ValueKind.OP1)),
            n_traces,
            seed + 1,
            chunk_size=chunk_size,
            jobs=jobs,
            backend=backend,
        ),
        _measure_case(
            "non-adjacent-via-dual-issue",
            "mov(sA); mov(public); mov(sB): the instruction-level model sees "
            "no adjacency; the pair (mov, mov) dual-issues and the outer "
            "operands collide on slot 0",
            ["mov r1, r5", "mov r4, r8", "mov r9, r6"],
            ((0, ValueKind.OP2), (2, ValueKind.OP2)),
            n_traces,
            seed + 2,
            chunk_size=chunk_size,
            jobs=jobs,
            backend=backend,
        ),
    ]
    return BaselineComparison(cases=cases)


def _scenario_runner(request: RunRequest) -> BaselineComparison:
    kwargs = {} if request.seed is None else {"seed": request.seed}
    return run_baseline_comparison(
        n_traces=request.n_traces,
        chunk_size=request.chunk_size,
        jobs=request.jobs,
        backend=request.backend,
        **kwargs,
    )


SCENARIO = register(
    Scenario(
        name="baselines",
        title="Instruction-level vs microarchitecture-aware prediction",
        description=(
            "The false-positive/false-negative cases where per-instruction "
            "grey-box models mispredict a superscalar core."
        ),
        runner=_scenario_runner,
        default_traces=2000,
        capabilities=frozenset(
            {
                Capability.TRACES,
                Capability.SEED,
                Capability.CHUNKING,
                Capability.JOBS,
                Capability.BACKEND,
            }
        ),
        tags=("comparison",),
    )
)
