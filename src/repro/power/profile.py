"""Per-component leakage weights: the calibration of the power model.

The default profile encodes the paper's Table-2 findings for the
Cortex-A7:

* register-file read ports: **no** measurable leakage (short capacitive
  load; the issue-stage buffers drive the execution units);
* IS/EX issue operand buses and execution-unit input latches: strong
  Hamming-distance leakage between consecutively asserted values;
* ALU output buffers: Hamming weight of the result (synthesized against
  a zero-precharged net);
* barrel shifter buffer: Hamming weight of the shifted value at roughly
  one tenth of the other leakages' magnitude;
* EX/WB write-back buses: Hamming distance between consecutive results
  on the same port (plus a weaker weight term: asymmetric 0->1/1->0
  transition cost);
* MDR: the strongest source (the paper notes store leakage was the
  highest observed), Hamming distance between consecutive full 32-bit
  words plus a precharged cache-bitline weight term;
* LSU align buffer: Hamming distance between sub-word values, with data
  remanence across interleaved word accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.uarch.components import Component, ComponentKind


@dataclass(frozen=True)
class ComponentWeights:
    """Leakage coefficients of one component.

    ``w_hd`` scales the Hamming distance between consecutive values,
    ``w_hw`` the Hamming weight of each asserted value.  For precharged
    components only ``w_hw`` applies (the net returns to zero between
    assertions, so distance and weight coincide).
    """

    w_hd: float = 0.0
    w_hw: float = 0.0

    @property
    def silent(self) -> bool:
        return self.w_hd == 0.0 and self.w_hw == 0.0


_CORTEX_A7_KIND_WEIGHTS: dict[ComponentKind, ComponentWeights] = {
    ComponentKind.RF_READ: ComponentWeights(0.0, 0.0),
    ComponentKind.ISSUE_BUS: ComponentWeights(1.0, 0.0),
    ComponentKind.UNIT_LATCH: ComponentWeights(1.0, 0.0),
    ComponentKind.AGU: ComponentWeights(0.15, 0.0),
    ComponentKind.SHIFT_BUF: ComponentWeights(0.0, 0.12),
    ComponentKind.ALU_OUT: ComponentWeights(0.0, 1.0),
    ComponentKind.WB_BUS: ComponentWeights(1.1, 0.3),
    ComponentKind.MDR: ComponentWeights(1.0, 0.65),
    ComponentKind.ALIGN: ComponentWeights(1.2, 0.3),
    ComponentKind.IMM_PATH: ComponentWeights(0.0, 0.0),
}


_CORTEX_A7_OVERRIDES: dict[str, ComponentWeights] = {
    # The paper reports store leakage as the strongest of all detected
    # sources; the store-path byte lanes drive the cache write datapath.
    "align_store": ComponentWeights(3.0, 0.3),
}


@dataclass(frozen=True)
class LeakageProfile:
    """Weights per component kind, with optional per-component overrides."""

    name: str = "cortex-a7"
    kind_weights: dict[ComponentKind, ComponentWeights] = field(
        default_factory=lambda: dict(_CORTEX_A7_KIND_WEIGHTS)
    )
    overrides: dict[str, ComponentWeights] = field(
        default_factory=lambda: dict(_CORTEX_A7_OVERRIDES)
    )
    #: global scale applied to every leak (models probe/amplifier gain)
    gain: float = 1.0

    def identity(self) -> tuple:
        """Every weight and the gain, excluding the display ``name``.

        Two profiles with equal identity leak identically; compiled
        evaluation plans key on this (the leakage counterpart of
        ``PipelineConfig.identity()`` and ``ScopeConfig.identity()``).
        """
        return (
            tuple(sorted(self.kind_weights.items(), key=lambda item: item[0].value)),
            tuple(sorted(self.overrides.items(), key=lambda item: item[0])),
            self.gain,
        )

    def weights_for(self, component: Component) -> ComponentWeights:
        if component.name in self.overrides:
            return self.overrides[component.name]
        return self.kind_weights.get(component.kind, ComponentWeights())

    # ------------------------------------------------------------------
    # Ablation helpers
    # ------------------------------------------------------------------

    def with_override(self, component_name: str, weights: ComponentWeights) -> "LeakageProfile":
        merged = dict(self.overrides)
        merged[component_name] = weights
        return replace(self, overrides=merged)

    def with_kind(self, kind: ComponentKind, weights: ComponentWeights) -> "LeakageProfile":
        merged = dict(self.kind_weights)
        merged[kind] = weights
        return replace(self, kind_weights=merged)

    def with_leaky_rf(self, w_hd: float = 1.0) -> "LeakageProfile":
        """A hypothetical core whose RF read ports drive long wires."""
        return replace(
            self,
            name=self.name + "+leaky-rf",
            kind_weights={
                **self.kind_weights,
                ComponentKind.RF_READ: ComponentWeights(w_hd, 0.0),
            },
        )


def cortex_a7_profile() -> LeakageProfile:
    """The default calibrated profile (see module docstring)."""
    return LeakageProfile()
