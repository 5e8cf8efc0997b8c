"""Leakage profile: defaults encode the paper's Table-2 findings."""

from repro.power.profile import ComponentWeights, LeakageProfile, cortex_a7_profile
from repro.uarch.components import ComponentKind, component_registry


class TestDefaults:
    def setup_method(self):
        self.profile = cortex_a7_profile()
        self.registry = component_registry()

    def test_rf_read_ports_are_silent(self):
        weights = self.profile.weights_for(self.registry["rf_rp1"])
        assert weights.silent

    def test_issue_buses_leak_hd(self):
        weights = self.profile.weights_for(self.registry["issue_op1_s0"])
        assert weights.w_hd > 0

    def test_alu_out_leaks_hw_only(self):
        weights = self.profile.weights_for(self.registry["alu0_out"])
        assert weights.w_hw > 0 and weights.w_hd == 0

    def test_shift_buffer_is_weak(self):
        shift = self.profile.weights_for(self.registry["shift_buf"])
        alu = self.profile.weights_for(self.registry["alu0_out"])
        assert 0 < shift.w_hw <= 0.2 * alu.w_hw  # "about 1/10"

    def test_store_lanes_are_the_strongest_source(self):
        store = self.profile.weights_for(self.registry["align_store"])
        others = [
            self.profile.weights_for(self.registry[name]).w_hd
            for name in ("issue_op1_s0", "wb_bus0", "mdr", "align_load")
        ]
        assert store.w_hd > max(others)


class TestAblationHelpers:
    def test_with_override(self):
        profile = cortex_a7_profile().with_override("mdr", ComponentWeights(0, 0))
        registry = component_registry()
        assert profile.weights_for(registry["mdr"]).silent
        # The original instance is unchanged (frozen semantics).
        assert not cortex_a7_profile().weights_for(registry["mdr"]).silent

    def test_with_kind(self):
        profile = cortex_a7_profile().with_kind(
            ComponentKind.WB_BUS, ComponentWeights(0, 0)
        )
        registry = component_registry()
        assert profile.weights_for(registry["wb_bus0"]).silent
        assert profile.weights_for(registry["wb_bus1"]).silent

    def test_leaky_rf_variant(self):
        profile = cortex_a7_profile().with_leaky_rf()
        registry = component_registry()
        assert profile.weights_for(registry["rf_rp1"]).w_hd > 0
        assert "leaky-rf" in profile.name

    def test_unknown_kind_defaults_to_silent(self):
        profile = LeakageProfile(kind_weights={})
        registry = component_registry()
        assert profile.weights_for(registry["mdr"]).silent


class TestIdentity:
    def test_equal_content_shares_an_identity(self):
        profile = cortex_a7_profile()
        assert profile.identity() == cortex_a7_profile().identity()
        hash(profile.identity())
        # The display name is not part of what leaks.
        renamed = LeakageProfile(name="renamed")
        assert renamed.identity() == profile.identity()

    def test_weights_and_gain_change_the_identity(self):
        profile = cortex_a7_profile()
        variants = (
            profile.with_override("mdr", ComponentWeights(0, 0)),
            profile.with_kind(ComponentKind.WB_BUS, ComponentWeights(0, 0)),
            profile.with_leaky_rf(),
            LeakageProfile(gain=2.0),
        )
        identities = {profile.identity(), *(v.identity() for v in variants)}
        assert len(identities) == 1 + len(variants)
