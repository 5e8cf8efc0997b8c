"""The workload registry: every corpus target, one declaration.

A :class:`Workload` is the corpus generalization of the sweep engine's
single hard-wired AES target: a program builder, a per-trace input
generator, a CPA model matrix, the key-recovery metadata the metrics
fold needs (guess space, Welch-t partition split, expected rank), and
the engine capabilities its cells honor.  Everything is built from
module-level callables via :func:`functools.partial`, so workloads are
picklable by construction — a requirement of the persistent pool
backend and of worker-side reduction.

The registry seeds six targets spanning the evaluation space:

========================  =============================================
``aes-round1``            table AES round 1, HW(SubBytes out) CPA — the
                          figure-3 attack, the corpus anchor
``present-round``         PRESENT-80 round (S-box + pLayer), 16-guess
                          nibble CPA with the (1, 3) HW t-split
``aes-sbox-tablefree``    bitsliced-style table-free S-box (gf(2^8)
                          inversion chain, no memory lookups)
``masked-round-2o``       second-order masked AES round; the first-order
                          CPA is *expected not to recover* the key
``memcpy``                byte-wise copy; identity model (guess 0)
``ct-compare``            constant-time compare; the keyed XOR leak is
                          detected (Welch-t) but the unkeyed load leak
                          dominates the first-order CPA ranking
========================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.api.capabilities import Capability
from repro.crypto.aes_asm import LAYOUT as AES_LAYOUT
from repro.crypto.aes_asm import round1_only_program
from repro.crypto.bitsliced import TABLEFREE_LAYOUT, tablefree_sbox_program
from repro.crypto.masked_round import (
    MASKED_ROUND_LAYOUT,
    masked_round_inputs,
    masked_round_program,
)
from repro.crypto.present import (
    PRESENT_LAYOUT,
    present80_round_keys,
    present_round_program,
    present_sbox_model,
)
from repro.crypto.primitives import (
    PRIMITIVE_LAYOUT,
    ct_compare_program,
    memcpy_program,
)
from repro.isa.registers import Reg
from repro.power.acquisition import BatchInputs, random_inputs
from repro.sca.models import hw_sbox_matrix
from repro.sweeps.metrics import T_SPLIT

#: The AES-128 key corpus workloads attack (the FIPS-197 vector, shared
#: with figure3/figure4 and the sweep workload).
DEFAULT_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

#: The PRESENT-80 key (arbitrary but fixed; baked into the round data).
PRESENT_KEY = bytes.fromhex("00112233445566778899")

#: The constant-time compare's baked reference buffer.
CT_SECRET = DEFAULT_KEY

#: The engine knobs every seeded workload's cells honor.  A workload
#: declaring a smaller set makes the runner reject cells that demand
#: the missing knob (per-cell capability negotiation).
ENGINE_CAPABILITIES = frozenset(
    {
        Capability.CHUNKING,
        Capability.JOBS,
        Capability.BACKEND,
        Capability.PRECISION,
        Capability.RESILIENCE,
    }
)

_HW8 = np.array([bin(value).count("1") for value in range(256)], dtype=np.float64)


@dataclass(frozen=True)
class Workload:
    """One corpus target: program + inputs + attack + metadata."""

    name: str
    title: str
    description: str
    #: ``() -> Program`` (key material baked via functools.partial)
    build_program: Callable[[], object]
    #: ``(n_traces, seed) -> BatchInputs``
    build_inputs: Callable[[int, int], BatchInputs]
    #: ``(inputs, lo, hi) -> float64[hi-lo, n_guesses]`` CPA model matrix
    model_matrix: Callable[[BatchInputs, int, int], np.ndarray]
    #: the key value the CPA targets (must be a member of ``guesses``)
    true_key: int
    #: the CPA guess space, aligned with the model-matrix columns
    guesses: tuple[int, ...] = tuple(range(256))
    #: Welch-t partition split over the label (true-key model) values
    t_split: tuple[int, int] = T_SPLIT
    entry: str | None = None
    #: engine knobs this workload's cells honor; a manifest cell
    #: demanding anything else fails (isolated) at the runner
    capabilities: frozenset[Capability] = ENGINE_CAPABILITIES
    #: trace budget used when neither the manifest nor the request set one
    default_traces: int = 300
    #: worst acceptable true-key rank for a "recovered" verdict (0 for a
    #: clean CPA target, 1 for the XOR-model complement ambiguity, and
    #: ``len(guesses) - 1`` when recovery is *not* expected — e.g. a
    #: first-order attack on a second-order masked implementation)
    rank_tolerance: int = 0
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.true_key not in self.guesses:
            raise ValueError(
                f"workload {self.name!r}: true_key {self.true_key} is not in "
                f"its guess space"
            )

    @property
    def true_key_column(self) -> int:
        """The model-matrix column of the true key (labels source)."""
        return self.guesses.index(self.true_key)

    @property
    def recovers_key(self) -> bool:
        """Whether rank-0 (within tolerance) is the expected outcome."""
        return self.rank_tolerance < len(self.guesses) - 1


# -- module-level builders (picklable via functools.partial) -------------


def _mem_inputs(n_traces: int, seed: int, address: int, length: int, salt: int) -> BatchInputs:
    return random_inputs(n_traces, mem_blocks={address: length}, seed=seed ^ salt)


def _sbox_model(inputs: BatchInputs, lo: int, hi: int, address: int) -> np.ndarray:
    """HW(AES-SBOX[pt ^ guess]) over all 256 guesses, byte 0 of ``address``."""
    return hw_sbox_matrix(inputs.mem_bytes[address][lo:hi], 0)


def _present_model(inputs: BatchInputs, lo: int, hi: int) -> np.ndarray:
    """HW(PRESENT-SBOX[nibble ^ guess]) over the 16 nibble guesses."""
    plaintexts = inputs.mem_bytes[PRESENT_LAYOUT.state][lo:hi, 0]
    return np.stack(
        [present_sbox_model(plaintexts, guess) for guess in range(16)], axis=1
    )


def _xor_model(inputs: BatchInputs, lo: int, hi: int, address: int) -> np.ndarray:
    """HW(pt ^ guess): the load/store datapath model of the primitives."""
    data = inputs.mem_bytes[address][lo:hi, 0].astype(np.uint8)
    guesses = np.arange(256, dtype=np.uint8)
    return _HW8[(data[:, None] ^ guesses[None, :]).astype(np.intp)]


def _masked_build_inputs(n_traces: int, seed: int, key: bytes) -> BatchInputs:
    inputs, _plaintexts = masked_round_inputs(n_traces, key, seed=seed ^ 0x2B1D)
    return inputs


def _masked_model(inputs: BatchInputs, lo: int, hi: int, address: int) -> np.ndarray:
    """First-order HW(SBOX out) model against the *unmasked* plaintext.

    The evaluator knows the plaintexts (it generated them), so it
    un-masks the stored state with the share mask ``m1 ^ m2``; the
    attack itself stays first-order — it never conditions on the masks —
    which is exactly why it is expected to fail against the
    second-order implementation.
    """
    share_mask = (
        inputs.regs[Reg.R8][lo:hi].astype(np.uint8)
        ^ inputs.regs[Reg.R9][lo:hi].astype(np.uint8)
    )
    return hw_sbox_matrix(inputs.mem_bytes[address][lo:hi] ^ share_mask[:, None], 0)


# -- registry ------------------------------------------------------------

_REGISTRY: dict[str, Workload] = {}


def register_workload(entry: Workload) -> Workload:
    """Add (or replace, idempotently by name) a workload."""
    _REGISTRY[entry.name] = entry
    return entry


def workload(name: str) -> Workload:
    found = _REGISTRY.get(name)
    if found is None:
        known = ", ".join(workload_names())
        raise KeyError(f"unknown workload {name!r}; registered: {known}")
    return found


def workload_names() -> list[str]:
    return sorted(_REGISTRY)


def workloads() -> list[Workload]:
    return [_REGISTRY[name] for name in workload_names()]


# -- the seeded corpus ---------------------------------------------------

register_workload(
    Workload(
        name="aes-round1",
        title="AES-128 round 1 (table S-box)",
        description=(
            "The figure-3 target: one table-lookup AES round, attacked "
            "with the HW(SubBytes output) CPA on byte 0."
        ),
        build_program=partial(round1_only_program, DEFAULT_KEY),
        build_inputs=partial(
            _mem_inputs, address=AES_LAYOUT.state, length=16, salt=0x5EED
        ),
        model_matrix=partial(_sbox_model, address=AES_LAYOUT.state),
        true_key=DEFAULT_KEY[0],
        entry="aes_round1",
        default_traces=400,
        tags=("aes", "cipher"),
    )
)

register_workload(
    Workload(
        name="present-round",
        title="PRESENT-80 round (S-box + pLayer)",
        description=(
            "One round of the CHES-2007 ultra-lightweight cipher: nibble "
            "S-box lookups plus the fully unrolled 64-bit bit "
            "permutation; 16-guess CPA on the low state nibble.  The "
            "Welch partition splits at HW (1, 3) — the 4-bit "
            "intermediate's balanced tails."
        ),
        build_program=partial(present_round_program, PRESENT_KEY),
        build_inputs=partial(
            _mem_inputs, address=PRESENT_LAYOUT.state, length=8, salt=0x93A7
        ),
        model_matrix=_present_model,
        true_key=present80_round_keys(PRESENT_KEY)[0] & 0xF,
        guesses=tuple(range(16)),
        t_split=(1, 3),
        entry="present_round",
        default_traces=300,
        tags=("present", "cipher", "lightweight"),
    )
)

register_workload(
    Workload(
        name="aes-sbox-tablefree",
        title="Table-free AES S-box (gf(2^8) inversion chain)",
        description=(
            "The bitsliced-style S-box: x^254 by 7 squarings + 4 "
            "multiplications through a branchless gf_mul routine, then "
            "the affine transform — no table in memory, so all leakage "
            "rides the ALU datapath instead of the LSU."
        ),
        build_program=partial(tablefree_sbox_program, DEFAULT_KEY[0]),
        build_inputs=partial(
            _mem_inputs, address=TABLEFREE_LAYOUT.input, length=1, salt=0xB175
        ),
        model_matrix=partial(_sbox_model, address=TABLEFREE_LAYOUT.input),
        true_key=DEFAULT_KEY[0],
        entry="tf_sbox",
        default_traces=300,
        tags=("aes", "bitsliced", "countermeasure"),
    )
)

register_workload(
    Workload(
        name="masked-round-2o",
        title="Second-order masked AES round",
        description=(
            "AES round 1 under two-share table masking (input masks m1, "
            "m2; output masks n1, n2; the shares never meet in one "
            "instruction).  The first-order CPA modeled here is expected "
            "NOT to recover the key — the entry ranks the countermeasure "
            "against the unprotected targets."
        ),
        build_program=partial(masked_round_program, DEFAULT_KEY),
        build_inputs=partial(_masked_build_inputs, key=DEFAULT_KEY),
        model_matrix=partial(_masked_model, address=MASKED_ROUND_LAYOUT.state),
        true_key=DEFAULT_KEY[0],
        entry="masked_round",
        default_traces=400,
        rank_tolerance=255,
        tags=("aes", "masking", "countermeasure"),
    )
)

register_workload(
    Workload(
        name="memcpy",
        title="Byte-wise memcpy (16 bytes)",
        description=(
            "The mundane primitive: an unrolled byte copy drags every "
            "payload byte through the load/store datapath.  The 'key' is "
            "the identity (guess 0): the copied byte itself is the "
            "leaking intermediate."
        ),
        build_program=memcpy_program,
        build_inputs=partial(
            _mem_inputs, address=PRIMITIVE_LAYOUT.src, length=16, salt=0xC0B1
        ),
        model_matrix=partial(_xor_model, address=PRIMITIVE_LAYOUT.src),
        true_key=0,
        rank_tolerance=1,  # HW(x) vs HW(~x): the XOR-model complement tie
        entry="memcpy16",
        default_traces=200,
        tags=("primitive", "memory"),
    )
)

register_workload(
    Workload(
        name="ct-compare",
        title="Constant-time compare (16 bytes)",
        description=(
            "Branch-free comparison against a baked secret: "
            "diff |= in[i] ^ secret[i] per byte.  Architecturally "
            "constant-time, yet each XOR result rides the operand buses, "
            "so the Welch-t/SNR detectors (partitioned on the true "
            "HW(in ^ secret)) flag the keyed leak.  First-order CPA key "
            "recovery is *not* expected: the unkeyed input load leaks "
            "HW(in) at full strength, which the HW(in ^ guess) model "
            "matches exactly at guess 0 (and its complement), always "
            "outranking the weaker keyed XOR sample — a leakage-without-"
            "easy-recovery control, the single-trace-path counterpart of "
            "the masked round."
        ),
        build_program=partial(ct_compare_program, CT_SECRET),
        build_inputs=partial(
            _mem_inputs, address=PRIMITIVE_LAYOUT.src, length=16, salt=0xC7C0
        ),
        model_matrix=partial(_xor_model, address=PRIMITIVE_LAYOUT.src),
        true_key=CT_SECRET[0],
        rank_tolerance=255,
        entry="ct_compare",
        default_traces=200,
        tags=("primitive", "constant-time"),
    )
)
