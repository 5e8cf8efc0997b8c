"""Workload registry: contents, metadata, and the compile/replay sweep."""

import numpy as np
import pytest

from repro.api.capabilities import Capability
from repro.corpus.workloads import (
    Workload,
    workload,
    workload_names,
    workloads,
)

EXPECTED = {
    "aes-round1",
    "aes-sbox-tablefree",
    "ct-compare",
    "masked-round-2o",
    "memcpy",
    "present-round",
}


class TestRegistry:
    def test_seeded_workloads_are_registered(self):
        assert EXPECTED <= set(workload_names())

    def test_names_are_sorted(self):
        assert workload_names() == sorted(workload_names())

    def test_lookup_by_name(self):
        entry = workload("present-round")
        assert entry.name == "present-round"

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(KeyError, match="present-round"):
            workload("no-such-workload")

    def test_workloads_iterates_in_name_order(self):
        assert [w.name for w in workloads()] == workload_names()


class TestMetadata:
    def test_present_uses_sixteen_guesses(self):
        entry = workload("present-round")
        assert entry.guesses == tuple(range(16))
        assert entry.t_split == (1, 3)

    def test_true_key_column_maps_value_to_position(self):
        entry = workload("present-round")
        assert entry.guesses[entry.true_key_column] == entry.true_key

    def test_true_key_must_be_a_guess(self):
        base = workload("memcpy")
        with pytest.raises(ValueError, match="true_key"):
            Workload(
                name="bad",
                title="bad",
                description="",
                build_program=base.build_program,
                build_inputs=base.build_inputs,
                model_matrix=base.model_matrix,
                true_key=300,
            )

    def test_recovery_expectations(self):
        assert workload("aes-round1").recovers_key
        assert workload("present-round").recovers_key
        assert not workload("masked-round-2o").recovers_key
        assert not workload("ct-compare").recovers_key

    def test_every_workload_declares_engine_capabilities(self):
        for entry in workloads():
            assert Capability.CHUNKING in entry.capabilities, entry.name
            assert Capability.JOBS in entry.capabilities, entry.name


class TestCompileAndReplay:
    """Property: every registered workload runs through the tape engine."""

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_workload_compiles_and_replays(self, name):
        from repro.campaigns.engine import StreamingCampaign
        from repro.power.scope import ScopeConfig

        entry = workload(name)
        n = 8
        inputs = entry.build_inputs(n, 0xABC0)
        assert inputs.n_traces == n
        engine = StreamingCampaign(
            entry.build_program(),
            scope=ScopeConfig(noise_sigma=1.0),
            entry=entry.entry,
            seed=3,
        )
        trace_set = engine.acquire(inputs)
        assert trace_set.traces.shape[0] == n
        assert np.all(np.isfinite(trace_set.traces))
        models = entry.model_matrix(inputs, 0, n)
        assert models.shape == (n, len(entry.guesses))
        assert np.all(np.isfinite(models))

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_model_matrix_slices_consistently(self, name):
        entry = workload(name)
        inputs = entry.build_inputs(12, 0xABC0)
        full = entry.model_matrix(inputs, 0, 12)
        part = entry.model_matrix(inputs, 4, 9)
        assert np.array_equal(full[4:9], part)
