"""First-order masked S-box lookup — and how the pipeline un-masks it.

The classic table-based countermeasure: with fresh random masks
``m_in``/``m_out`` per execution, build ``T[i ^ m_in] = S[i] ^ m_out``
and look up ``y_m = T[x ^ m_in] = S[x] ^ m_out``.  Every architectural
value is statistically independent of the secret ``S(x)`` — the scheme
is provably first-order secure at the ISA level.

The paper's Section 4.2 (building on Seuschek et al.) shows why this
guarantee does not survive the microarchitecture.  This module provides
the masked routine in two variants differing by a *single commutative
operand swap* in the post-processing:

* ``leaky``: the masked output ``y_m`` and the output mask ``m_out``
  occupy the same operand position of two consecutively single-issued
  instructions, so the op1-bus Hamming distance is
  ``HW(y_m ^ m_out) = HW(S(x))`` — first-order leakage of the unmasked
  S-box output;
* ``hardened``: the second instruction is written with its operands
  swapped, so the mask rides the other bus position and the shares
  never meet before the architectural unmasking.

``run_masked_demo`` attacks both variants with a standard first-order
CPA (model: HW of the unmasked S-box output) and reports the contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.sbox import SBOX
from repro.isa.parser import assemble
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.power.acquisition import BatchInputs, TraceCampaign
from repro.power.scope import ScopeConfig
from repro.sca.cpa import CpaResult, cpa_attack
from repro.sca.models import hw_sbox_model


@dataclass(frozen=True)
class MaskedLayout:
    """Memory map of the masked S-box routine."""

    masked_input: int = 0x16000  # one byte: x ^ m_in
    masked_table: int = 0x17000  # 256 bytes, built per execution
    sbox: int = 0x18000


MASKED_LAYOUT = MaskedLayout()


def masked_sbox_source(leaky: bool, layout: MaskedLayout = MASKED_LAYOUT) -> str:
    """The masked lookup routine.

    Register contract at entry: ``r8`` = m_in, ``r9`` = m_out (fresh
    random masks), ``r6``/``r7`` = unrelated public values.  The masked
    input byte ``x ^ m_in`` is at ``layout.masked_input``.
    """
    lines = [
        "masked_sb:",
        "    ldr r4, =masked_table",
        "    ldr r5, =sbox_table",
        "    and r8, r8, #0xff",
        "    and r9, r9, #0xff",
        "@ ---- build T[i ^ m_in] = S[i] ^ m_out ----",
        "    mov r10, #0",
        "tloop:",
        "    ldrb r0, [r5, r10]",
        "    eor r0, r0, r9",
        "    eor r1, r10, r8",
        "    strb r0, [r4, r1]",
        "    add r10, r10, #1",
        "    cmp r10, #256",
        "    bne tloop",
        "@ ---- masked lookup ----",
        "    ldr r2, =masked_input",
        "    ldrb r2, [r2]",
        "    ldrb r3, [r4, r2]       @ y_m = S(x) ^ m_out",
        "lookup_done:",
    ]
    if leaky:
        # Both shares in the op1 position of consecutive (non-pairable)
        # reg-reg instructions: bus HD = HW(y_m ^ m_out) = HW(S(x)).
        lines += [
            "@ post-processing (leaky scheduling)",
            "    eor r11, r3, r6",
            "    eor r12, r9, r7",
        ]
    else:
        # The same computation with the second eor's commutative
        # operands swapped: the mask moves to the op2 position.
        lines += [
            "@ post-processing (hardened by an operand swap)",
            "    eor r11, r3, r6",
            "    eor r12, r7, r9",
        ]
    lines += [
        "    bx lr",
        f"    .org {layout.sbox:#x}",
        "sbox_table:",
    ]
    for off in range(0, 256, 16):
        lines.append("    .byte " + ", ".join(str(b) for b in SBOX[off : off + 16]))
    lines += [
        f"    .org {layout.masked_table:#x}",
        "masked_table:",
        "    .space 256",
        f"    .org {layout.masked_input:#x}",
        "masked_input:",
        "    .space 4",
    ]
    return "\n".join(lines)


def masked_sbox_program(leaky: bool, layout: MaskedLayout = MASKED_LAYOUT) -> Program:
    return assemble(masked_sbox_source(leaky, layout))


def masked_inputs(
    n_traces: int, key_byte: int, seed: int = 0x3A5E, layout: MaskedLayout = MASKED_LAYOUT
) -> tuple[BatchInputs, np.ndarray]:
    """Random plaintext bytes and fresh masks; returns (inputs, plaintexts)."""
    rng = np.random.default_rng(seed)
    plaintexts = rng.integers(0, 256, size=n_traces, dtype=np.uint16).astype(np.uint8)
    m_in = rng.integers(0, 256, size=n_traces, dtype=np.uint16).astype(np.uint32)
    m_out = rng.integers(0, 256, size=n_traces, dtype=np.uint16).astype(np.uint32)
    publics = {
        reg: rng.integers(0, 2**32, size=n_traces, dtype=np.uint64).astype(np.uint32)
        for reg in (Reg.R6, Reg.R7)
    }
    masked_x = (plaintexts ^ np.uint8(key_byte)) ^ m_in.astype(np.uint8)
    inputs = BatchInputs(
        n_traces=n_traces,
        regs={Reg.R8: m_in, Reg.R9: m_out, **publics},
        mem_bytes={layout.masked_input: masked_x.reshape(-1, 1)},
    )
    return inputs, plaintexts


@dataclass
class MaskedDemoResult:
    """First-order CPA outcomes against both masked variants."""

    leaky: CpaResult
    hardened: CpaResult
    key_byte: int
    n_traces: int

    @property
    def leaky_broken(self) -> bool:
        return self.leaky.rank_of(self.key_byte) == 0

    @property
    def hardened_survives(self) -> bool:
        return self.hardened.rank_of(self.key_byte) > 0

    def render(self) -> str:
        return (
            "First-order CPA against the masked S-box (model: HW(S(x))):\n"
            f"  leaky scheduling   : true key rank {self.leaky.rank_of(self.key_byte)}, "
            f"peak |r| {self.leaky.best_corr:.3f} "
            f"-> {'BROKEN by the pipeline' if self.leaky_broken else 'survived'}\n"
            f"  operand-swapped    : true key rank {self.hardened.rank_of(self.key_byte)}, "
            f"peak |r| {self.hardened.best_corr:.3f} "
            f"-> {'survives first-order CPA' if self.hardened_survives else 'broken'}"
        )


def run_masked_demo(
    n_traces: int = 2000, key_byte: int = 0x4B, seed: int = 0x3A5E
) -> MaskedDemoResult:
    """Attack both variants with the unmasked-output HW model."""

    def attack(leaky: bool, campaign_seed: int) -> CpaResult:
        program = masked_sbox_program(leaky)
        inputs, plaintexts = masked_inputs(n_traces, key_byte, seed=seed)
        lookup_static = program.instruction_at(program.label_address("lookup_done")).index
        campaign = TraceCampaign(
            program,
            scope=ScopeConfig(noise_sigma=8.0, kernel=(1.0,)),
            entry="masked_sb",
            seed=campaign_seed,
        )
        # Window the acquisition around the lookup + post-processing so
        # the table-construction loop (mask-independent) stays out.
        compiled = campaign.compile_with(inputs)
        lookup_dyn = compiled.path.index(lookup_static)
        issue = compiled.schedule.issue_cycle
        window = (issue[max(0, lookup_dyn - 4)], issue[-1] + 6)
        campaign.window_cycles = window
        trace_set = campaign.acquire(inputs)
        pts = plaintexts.reshape(-1, 1).repeat(16, axis=1)  # adapt to the model API
        return cpa_attack(
            trace_set.traces, lambda g: hw_sbox_model(pts, 0, g)
        )

    leaky = attack(True, seed ^ 0x1)
    hardened = attack(False, seed ^ 0x2)
    return MaskedDemoResult(
        leaky=leaky, hardened=hardened, key_byte=key_byte, n_traces=n_traces
    )
