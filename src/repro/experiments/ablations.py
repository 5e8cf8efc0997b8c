"""Ablation experiments: the Section-4.2 claims as measurable contrasts.

Each ablation builds a pair of campaigns that differ in exactly one
microarchitectural or code property and verifies that a share-combining
leak appears on one side and not the other:

* **dual-issue adjacency** (§4.2 iii): with dual-issue enabled, an
  instruction pairs with the one before it, making two *non-adjacent*
  instructions' operands collide on the slot-0 bus; single-issue keeps
  them separated;
* **operand swap** (§4.2 i+ii): swapping the operands of a commutative
  ``eor`` moves a mask share into the bus position a masked share uses,
  so their Hamming distance — the unmasked value's weight — leaks;
* **nop insertion** (§4.1): the A7 nop drives the operand buses to
  zero, adding Hamming-*weight* leakage of neighbouring operands that
  the untouched sequence does not exhibit;
* **LSU remanence** (§4.2 iv): a stored share survives in the
  store-path byte lane across unrelated instructions and combines with
  a later stored share; clearing the LSU buffers removes the leak;
* **scalar vs superscalar** (related work [18,19]): the scalar core
  leaks the HD of consecutive *results* through its single write-back
  port even for a pair the A7 would dual-issue onto separate ports;
* **parallel share scheduling** (§4.2, defensive): dual-issuing the two
  shares routes them over distinct slot buses and write-back ports,
  suppressing the sequential collision — the "closer mimicry of a
  registered hardware computation" the paper suggests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaigns.engine import StreamingCampaign
from repro.campaigns.reduction import ColumnCorrFold
from repro.api.capabilities import Capability
from repro.api.request import RunRequest
from repro.campaigns.registry import Scenario, register
from repro.isa.executor import Executor
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.isa.vtrace import compile_tape
from repro.power.acquisition import BatchInputs
from repro.power.hamming import hamming_weight
from repro.power.profile import LeakageProfile, cortex_a7_profile
from repro.power.scope import Oscilloscope, ScopeConfig
from repro.sca.stats import pearson_corr, significance_threshold
from repro.uarch.config import PipelineConfig
from repro.uarch.pipeline import Pipeline
from repro.uarch.scalar import ScalarPipeline
from repro.power.synth import LeakageSchedule

_ISSUE_LAYER = (
    "issue_op1_s0",
    "issue_op2_s0",
    "issue_op1_s1",
    "issue_op2_s1",
    "alu0_in_op1",
    "alu0_in_op2",
    "alu1_in_op1",
    "alu1_in_op2",
)

_WB_LAYER = ("wb_bus0", "wb_bus1")


@dataclass
class AblationResult:
    """A measured contrast: the leak's correlation on both sides."""

    name: str
    claim: str
    corr_with: float
    corr_without: float
    threshold: float
    #: peak |r| of the leak side at each requested trace budget (one
    #: prefix-snapshot pass, no recompute per budget); None if not asked
    curve: dict[int, float] | None = None

    @property
    def leak_appears(self) -> bool:
        return abs(self.corr_with) > self.threshold

    @property
    def leak_suppressed(self) -> bool:
        return abs(self.corr_without) <= self.threshold

    @property
    def demonstrated(self) -> bool:
        return self.leak_appears and self.leak_suppressed

    def render(self) -> str:
        verdict = "DEMONSTRATED" if self.demonstrated else "NOT demonstrated"
        text = (
            f"[{self.name}] {self.claim}\n"
            f"  leak present : |r| = {abs(self.corr_with):.3f} "
            f"(threshold {self.threshold:.3f})\n"
            f"  leak absent  : |r| = {abs(self.corr_without):.3f}\n"
            f"  -> {verdict}"
        )
        if self.curve:
            points = ", ".join(
                f"{budget}:{peak:.3f}" for budget, peak in sorted(self.curve.items())
            )
            text += f"\n  |r| vs budget: {points}"
        return text


def _ablation_scope(precision: str | None = None) -> ScopeConfig:
    return ScopeConfig(
        noise_sigma=8.0,
        kernel=(1.0,),
        n_averages=16,
        quantize_bits=8,
        precision=precision if precision is not None else "float64-exact",
    )


def _measure(
    source: str,
    inputs: BatchInputs,
    model: np.ndarray,
    components: tuple[str, ...],
    config: PipelineConfig | None = None,
    profile: LeakageProfile | None = None,
    seed: int = 0xAB1A,
    chunk_size: int | None = None,
    jobs: int = 1,
    budgets: tuple[int, ...] | None = None,
    precision: str | None = None,
    backend=None,
) -> tuple[float, int, dict[int, float] | None]:
    """Peak |corr| of ``model`` at the given components' samples.

    Returns ``(peak, n_samples, curve)`` so callers can
    Bonferroni-correct the significance threshold for the
    max-over-samples statistic.  The correlation folds through
    :meth:`StreamingCampaign.reduce` with a
    :class:`~repro.campaigns.reduction.ColumnCorrFold` (one whole chunk
    without ``chunk_size``); with ``budgets`` set the same pass also
    snapshots the peak |corr| at every listed trace budget (no
    recompute per budget).
    """
    program = assemble(source)
    engine = StreamingCampaign(
        program,
        config=config,
        profile=profile if profile is not None else cortex_a7_profile(),
        scope=_ablation_scope(precision),
        seed=seed,
        chunk_size=chunk_size,
        jobs=jobs,
        backend=backend,
    )
    leakage = engine.compiled(inputs).leakage
    samples: set[int] = set()
    for name in components:
        samples.update(int(s) for s in leakage.sample_positions(name))
    if not samples:
        return 0.0, 0, None
    columns = tuple(sorted(samples))
    budget_list = (
        tuple(sorted({min(int(b), inputs.n_traces) for b in budgets})) if budgets else ()
    )
    fold = ColumnCorrFold(
        columns=(columns,),
        values=model.astype(np.float64)[:, None],
        budgets=budget_list,
    )
    corrs = engine.reduce(inputs, fold).value
    return corrs.peaks()[0], len(columns), corrs.curve() if budget_list else None


def _bonferroni_threshold(n_traces: int, n_samples: int, alpha: float = 0.002) -> float:
    """Significance threshold for a max over ``n_samples`` correlations.

    Slightly stricter than the paper's per-sample 99.5% because the
    ablation verdict takes a maximum over the component's samples.
    """
    corrected = 1.0 - alpha / max(n_samples, 1)
    return significance_threshold(n_traces, corrected)


def _masked_inputs(n_traces: int, seed: int) -> tuple[BatchInputs, np.ndarray]:
    """Random secret v, mask m; r5 = v^m (masked share), r6 = m (mask)."""
    rng = np.random.default_rng(seed)
    secret = rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
    mask = rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
    publics = {
        reg: rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
        for reg in (Reg.R8, Reg.R10)
    }
    regs = {Reg.R5: secret ^ mask, Reg.R6: mask, **publics}
    return BatchInputs(n_traces=n_traces, regs=regs), secret


def _pad(lines: list[str], n: int = 12) -> list[str]:
    return ["    nop"] * n + lines + ["    nop"] * n + ["    bx lr"]


# ----------------------------------------------------------------------
# The ablations
# ----------------------------------------------------------------------


def ablate_operand_swap(
    n_traces: int = 2000,
    seed: int = 0x0A5B,
    chunk_size: int | None = None,
    jobs: int = 1,
    budgets: tuple[int, ...] | None = None,
    precision: str | None = None,
    backend=None,
) -> AblationResult:
    """§4.2 i+ii: a commutative operand swap re-combines the shares."""
    inputs, secret = _masked_inputs(n_traces, seed)
    model = hamming_weight(secret).astype(np.float64)
    # Unsafe: both shares travel in the first-operand position of
    # consecutive instructions -> HD(v^m, m) = HW(v) on the op1 bus.
    unsafe = _pad(["    eor r7, r5, r8", "    eor r9, r6, r10"])
    # Safe: the second eor is written with its (commutative) operands
    # swapped, so the mask rides the op2 bus instead.
    safe = _pad(["    eor r7, r5, r8", "    eor r9, r10, r6"])
    corr_unsafe, n_samples, curve = _measure(
        "\n".join(unsafe), inputs, model, _ISSUE_LAYER, seed=seed,
        chunk_size=chunk_size, jobs=jobs, budgets=budgets, precision=precision,
        backend=backend,
    )
    corr_safe, _n, _curve = _measure(
        "\n".join(safe), inputs, model, _ISSUE_LAYER, seed=seed + 1,
        chunk_size=chunk_size, jobs=jobs, precision=precision, backend=backend,
    )
    return AblationResult(
        name="operand-swap",
        claim="swapping commutative eor operands combines the shares on the op1 bus",
        corr_with=corr_unsafe,
        corr_without=corr_safe,
        threshold=_bonferroni_threshold(n_traces, n_samples),
        curve=curve,
    )


def ablate_dual_issue_adjacency(
    n_traces: int = 2000,
    seed: int = 0x0A5C,
    chunk_size: int | None = None,
    jobs: int = 1,
    budgets: tuple[int, ...] | None = None,
    precision: str | None = None,
    backend=None,
) -> AblationResult:
    """§4.2 iii: dual-issue makes non-adjacent instructions collide."""
    inputs, secret = _masked_inputs(n_traces, seed)
    model = hamming_weight(secret).astype(np.float64)
    # mov(share1); mov(public) dual-issue as an aligned pair, so the
    # slot-0 operand bus goes share1 -> share2 although another
    # instruction sits between them in program order.
    lines = _pad(["    mov r7, r5", "    mov r9, r8", "    mov r11, r6"])
    source = "\n".join(lines)
    corr_dual, n_samples, curve = _measure(
        source, inputs, model, _ISSUE_LAYER, seed=seed, chunk_size=chunk_size,
        jobs=jobs, budgets=budgets, precision=precision, backend=backend,
    )
    corr_single, _n, _curve = _measure(
        source,
        inputs,
        model,
        _ISSUE_LAYER,
        config=PipelineConfig(dual_issue=False),
        seed=seed + 1,
        chunk_size=chunk_size,
        jobs=jobs,
        precision=precision,
        backend=backend,
    )
    return AblationResult(
        name="dual-issue-adjacency",
        claim="with dual-issue, operands of non-adjacent instructions share the slot-0 bus",
        corr_with=corr_dual,
        corr_without=corr_single,
        threshold=_bonferroni_threshold(n_traces, n_samples),
        curve=curve,
    )


def ablate_nop_insertion(
    n_traces: int = 2000,
    seed: int = 0x0A5D,
    chunk_size: int | None = None,
    jobs: int = 1,
    budgets: tuple[int, ...] | None = None,
    precision: str | None = None,
    backend=None,
) -> AblationResult:
    """§4.1: inserting a nop adds HW leakage modes (bus driven to zero)."""
    rng = np.random.default_rng(seed)
    operand = rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
    partner = rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
    inputs = BatchInputs(n_traces=n_traces, regs={Reg.R5: operand, Reg.R8: partner})
    model = hamming_weight(operand).astype(np.float64)
    # Without the nop, r5 transitions against another random operand on
    # the bus (HD uncorrelated with HW(r5)); the inserted nop drives the
    # bus to zero around it, so HW(r5) appears.
    with_nop = _pad(["    mov r9, r8", "    mov r7, r5", "    nop", "    mov r9, r8"], n=0)
    with_nop = ["    mov r9, r8"] + with_nop  # keep pair alignment identical
    without_nop = _pad(
        ["    mov r9, r8", "    mov r7, r5", "    mov r9, r8"], n=0
    )
    without_nop = ["    mov r9, r8"] + without_nop
    corr_with, n_samples, curve = _measure(
        "\n".join(with_nop), inputs, model, _ISSUE_LAYER, seed=seed,
        chunk_size=chunk_size, jobs=jobs, budgets=budgets, precision=precision,
        backend=backend,
    )
    corr_without, _n, _curve = _measure(
        "\n".join(without_nop), inputs, model, _ISSUE_LAYER, seed=seed + 1,
        chunk_size=chunk_size, jobs=jobs, precision=precision, backend=backend,
    )
    return AblationResult(
        name="nop-insertion",
        claim="a semantically neutral nop adds Hamming-weight leakage of its neighbours",
        corr_with=corr_with,
        corr_without=corr_without,
        threshold=_bonferroni_threshold(n_traces, n_samples),
        curve=curve,
    )


def ablate_lsu_remanence(
    n_traces: int = 2000,
    seed: int = 0x0A5E,
    chunk_size: int | None = None,
    jobs: int = 1,
    budgets: tuple[int, ...] | None = None,
    precision: str | None = None,
    backend=None,
) -> AblationResult:
    """§4.2 iv: a stored share survives in the LSU and meets the next one."""
    inputs, secret = _masked_inputs(n_traces, seed)
    model = hamming_weight(secret & 0xFF).astype(np.float64)
    buffers = "\n    .org 0x30000\nbuf_a:\n    .space 64\nbuf_b:\n    .space 64"
    lines = _pad(
        [
            "    ldr r9, =buf_a",
            "    ldr r10, =buf_b",
            "    strb r5, [r9]",  # share 1 (byte) through the store lanes
            "    add r7, r8, #1",  # unrelated work in between
            "    add r7, r7, #2",
            "    strb r6, [r10]",  # share 2: HD(s1, s2) = HW(v) remanence
        ]
    )
    source = "\n".join(lines) + buffers
    corr_with, n_samples, curve = _measure(
        source, inputs, model, ("align_store",), seed=seed, chunk_size=chunk_size,
        jobs=jobs, budgets=budgets, precision=precision, backend=backend,
    )
    corr_without, _n, _curve = _measure(
        source,
        inputs,
        model,
        ("align_store",),
        config=PipelineConfig(lsu_remanence=False),
        seed=seed + 1,
        chunk_size=chunk_size,
        jobs=jobs,
        precision=precision,
        backend=backend,
    )
    return AblationResult(
        name="lsu-remanence",
        claim="store-path byte lanes keep the last share across unrelated instructions",
        corr_with=corr_with,
        corr_without=corr_without,
        threshold=_bonferroni_threshold(n_traces, n_samples),
        curve=curve,
    )


def ablate_parallel_shares(
    n_traces: int = 2000,
    seed: int = 0x0A5F,
    chunk_size: int | None = None,
    jobs: int = 1,
    budgets: tuple[int, ...] | None = None,
    precision: str | None = None,
    backend=None,
) -> AblationResult:
    """§4.2 defensive: dual-issuing the two shares separates their buses."""
    inputs, secret = _masked_inputs(n_traces, seed)
    model = hamming_weight(secret).astype(np.float64)
    # Sequential: both shares in slot 0 on consecutive cycles -> leak.
    sequential = _pad(["    mov r7, r5", "    nop", "    nop", "    mov r9, r6"])
    # Parallel: the two movs form an aligned dual-issue pair -> each
    # share has its own slot bus and write-back port.
    parallel = _pad(["    mov r7, r5", "    mov r9, r6"])
    corr_seq, n_samples, curve = _measure(
        "\n".join(sequential), inputs, model, _ISSUE_LAYER, seed=seed,
        chunk_size=chunk_size, jobs=jobs, budgets=budgets, precision=precision,
        backend=backend,
    )
    corr_par, _n, _curve = _measure(
        "\n".join(parallel), inputs, model, _ISSUE_LAYER, seed=seed + 1,
        chunk_size=chunk_size, jobs=jobs, precision=precision, backend=backend,
    )
    return AblationResult(
        name="parallel-shares",
        claim="dual-issuing the shares suppresses the sequential bus collision",
        corr_with=corr_seq,
        corr_without=corr_par,
        threshold=_bonferroni_threshold(n_traces, n_samples),
        curve=curve,
    )


def ablate_scalar_write_port(
    n_traces: int = 2000,
    seed: int = 0x0A60,
    chunk_size: int | None = None,
    jobs: int = 1,
    budgets: tuple[int, ...] | None = None,
    precision: str | None = None,
    backend=None,
) -> AblationResult:
    """[18,19]: the scalar core's single write port combines results.

    This contrast compares two *pipeline models* over one batch, so it
    bypasses the campaign engine; ``chunk_size``/``jobs``/``budgets``
    are accepted for signature uniformity and ignored.
    """
    inputs, secret = _masked_inputs(n_traces, seed)
    model = hamming_weight(secret).astype(np.float64)
    # Two result-producing instructions the A7 dual-issues onto separate
    # write-back ports; the scalar core funnels both through one port.
    lines = _pad(["    mov r7, r5", "    mov r9, r6"])
    source = "\n".join(lines)
    program = assemble(source)
    executor = Executor(program)
    state = executor.fresh_state()
    for reg, value in inputs.row(0)[1].items():
        state.regs[reg] = value
    records = executor.run(state=state).records
    # Both pipeline models see the same values: one tape replay.
    tape = compile_tape(program, records, inputs.signature())
    table = tape.run(inputs.n_traces, regs=inputs.regs).table

    def measure_on(schedule_cls) -> float:
        pipeline = schedule_cls()
        schedule = pipeline.schedule(records)
        leakage = LeakageSchedule(schedule, pipeline.components, samples_per_cycle=4)
        power = leakage.evaluate(table, cortex_a7_profile())
        traces = Oscilloscope(_ablation_scope(precision), seed=seed).capture(power)
        samples = sorted(
            {int(s) for name in _WB_LAYER for s in leakage.sample_positions(name)}
        )
        if not samples:
            return 0.0
        corr = pearson_corr(model.astype(np.float64), traces[:, samples])
        return float(corr[np.argmax(np.abs(corr))])

    corr_scalar = measure_on(ScalarPipeline)
    corr_superscalar = measure_on(Pipeline)
    return AblationResult(
        name="scalar-write-port",
        claim="the scalar core's shared write-back port combines what the A7 separates",
        corr_with=corr_scalar,
        corr_without=corr_superscalar,
        threshold=_bonferroni_threshold(n_traces, 8),
    )


ALL_ABLATIONS = (
    ablate_operand_swap,
    ablate_dual_issue_adjacency,
    ablate_nop_insertion,
    ablate_lsu_remanence,
    ablate_parallel_shares,
    ablate_scalar_write_port,
)


def run_preset_ablations(
    n_traces: int = 1000,
    budgets: tuple[int, ...] | None = None,
    chunk_size: int | None = None,
    jobs: int = 1,
    seed: int = 0x5EEB,
    precision: str | None = None,
    backend=None,
):
    """The §4.2 preset ablation table, rebased onto the sweep engine.

    Historically the five characterized presets could only be evaluated
    one hand-wired campaign at a time; this runs them as the degenerate
    5-point grid of :mod:`repro.sweeps` — per-preset CPA key margin,
    max Welch-t and partition SNR on the round-1 AES workload, computed
    once per point via the snapshot accumulators and ranked against the
    cortex-a7 baseline.  Returns the comparative
    :class:`~repro.sweeps.campaign.SweepResult`.
    """
    from repro.sweeps import SweepCampaign, sweep_ablations_spec

    return SweepCampaign(
        sweep_ablations_spec(),
        n_traces=n_traces,
        budgets=budgets,
        chunk_size=chunk_size,
        jobs=jobs,
        seed=seed,
        precision=precision,
        backend=backend,
    ).run()


def run_all_ablations(
    n_traces: int = 2000,
    chunk_size: int | None = None,
    jobs: int = 1,
    budgets: tuple[int, ...] | None = None,
    precision: str | None = None,
    backend=None,
) -> list[AblationResult]:
    return [
        ablation(
            n_traces=n_traces,
            chunk_size=chunk_size,
            jobs=jobs,
            budgets=budgets,
            precision=precision,
            backend=backend,
        )
        for ablation in ALL_ABLATIONS
    ]


class _AblationSuite:
    """Renderable wrapper so the scenario returns one result object."""

    def __init__(self, results: list[AblationResult], preset_sweep=None):
        self.results = results
        #: the §4.2 preset table as a SweepResult (the degenerate grid)
        self.preset_sweep = preset_sweep

    @property
    def matches_paper(self) -> bool:
        return all(result.demonstrated for result in self.results)

    def to_json(self) -> dict:
        payload = {
            "contrasts": [
                {
                    "name": result.name,
                    "claim": result.claim,
                    "corr_with": round(result.corr_with, 6),
                    "corr_without": round(result.corr_without, 6),
                    "threshold": round(result.threshold, 6),
                    "demonstrated": result.demonstrated,
                }
                for result in self.results
            ],
        }
        if self.preset_sweep is not None:
            payload["preset_sweep"] = self.preset_sweep.to_json()
        return payload

    def artifacts(self) -> dict:
        return {}

    def render(self) -> str:
        text = "\n\n".join(result.render() for result in self.results)
        if self.preset_sweep is not None:
            text += "\n\n" + self.preset_sweep.render()
        return text


def _scenario_runner(request: RunRequest) -> _AblationSuite:
    return _AblationSuite(
        run_all_ablations(
            n_traces=request.n_traces,
            chunk_size=request.chunk_size,
            jobs=request.jobs,
            precision=request.precision,
            backend=request.backend,
        ),
        preset_sweep=run_preset_ablations(
            n_traces=request.n_traces,
            chunk_size=request.chunk_size,
            jobs=request.jobs,
            precision=request.precision,
            backend=request.backend,
            **({} if request.seed is None else {"seed": request.seed}),
        ),
    )


SCENARIO = register(
    Scenario(
        name="ablations",
        title="Section-4.2 ablations: one microarchitectural knob per contrast",
        description=(
            "Six paired campaigns, each demonstrating one share-combining "
            "mechanism (and its suppression) from the paper's Section 4."
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
                Capability.PRECISION,
            }
        ),
        tags=("ablation",),
    )
)
