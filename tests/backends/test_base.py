"""The backend protocol: tasks, specs, context, and the serial reference."""

import dataclasses
import pickle

import numpy as np
import pytest
import rawchunks

from repro.backends import (
    BackendContext,
    BackendUnavailable,
    CampaignSpec,
    ChunkTask,
    SerialBackend,
)
from repro.campaigns.reduction import TraceMeanVarFold
from repro.power.acquisition import TraceCampaign
from repro.power.scope import ScopeConfig


def make_campaign(program, **overrides):
    kwargs = dict(scope=ScopeConfig(noise_sigma=3.0), seed=0xB0)
    kwargs.update(overrides)
    return TraceCampaign(program, **kwargs)


class LocalFold(TraceMeanVarFold):
    """A fold that refuses to pickle, as one holding a closure would."""

    def __reduce__(self):
        raise TypeError("LocalFold is not picklable")


class TestChunkTask:
    def test_is_frozen_pure_data(self):
        task = ChunkTask(index=1, lo=8, hi=16, scope_seed=7, trace_offset=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.lo = 0
        assert pickle.loads(pickle.dumps(task)) == task


class TestCampaignSpec:
    def test_roundtrip_rebuilds_an_equivalent_campaign(self, program, make_inputs):
        campaign = make_campaign(program)
        spec = CampaignSpec.from_campaign(campaign)
        rebuilt = pickle.loads(pickle.dumps(spec)).build()
        inputs = make_inputs(16)
        np.testing.assert_array_equal(
            rebuilt.acquire(inputs).traces, campaign.acquire(inputs).traces
        )

    def test_roundtrip_carries_pinned_full_scale(self, program):
        campaign = make_campaign(program)
        campaign.pinned_full_scale = 12.5
        assert CampaignSpec.from_campaign(campaign).build().pinned_full_scale == 12.5

    def test_cache_key_ignores_per_campaign_state(self, program):
        # Seed and pinned full-scale vary per campaign without changing
        # the compiled schedule a cached worker campaign holds.
        base = CampaignSpec.from_campaign(make_campaign(program))
        reseeded = dataclasses.replace(base, seed=999, pinned_full_scale=3.0)
        assert base.cache_key() == reseeded.cache_key()

    def test_cache_key_sees_shape_changes(self, program):
        base = CampaignSpec.from_campaign(make_campaign(program))
        rescoped = dataclasses.replace(base, scope=ScopeConfig(noise_sigma=9.0))
        assert base.cache_key() != rescoped.cache_key()


class TestBackendContext:
    def test_transform_for_chunk_zero_is_precomputed(self):
        calls = []

        def factory(index):
            calls.append(index)
            return lambda power: power

        transform0 = factory(0)
        calls.clear()
        context = BackendContext(
            campaign=None,
            inputs=None,
            fold=TraceMeanVarFold(),
            power_transform_factory=factory,
            transform0=transform0,
        )
        assert context.transform_for(0) is transform0
        assert calls == []  # chunk 0 never re-evaluates the factory
        context.transform_for(2)
        assert calls == [2]

    def test_assert_picklable_names_the_offender(self):
        context = BackendContext(
            campaign=None,
            inputs=None,
            fold=TraceMeanVarFold(),
            power_transform=lambda power: power,
        )
        with pytest.raises(BackendUnavailable, match="power_transform"):
            context.assert_picklable("pool")

    def test_assert_picklable_names_an_unpicklable_fold(self):
        context = BackendContext(campaign=None, inputs=None, fold=LocalFold())
        with pytest.raises(BackendUnavailable, match="fold"):
            context.assert_picklable("pool")

    def test_assert_picklable_accepts_picklable_transforms(self):
        from repro.backends.faults import _identity

        BackendContext(
            campaign=None, inputs=None, fold=TraceMeanVarFold(), power_transform=_identity
        ).assert_picklable("pool")


class TestSerialBackend:
    def test_stream_through_serial_matches_direct_acquisition(
        self, make_engine, make_inputs
    ):
        inputs = make_inputs()
        monolithic = make_engine().acquire(inputs)
        streamed = rawchunks.traces(make_engine(), inputs, chunk_size=16, backend="serial")
        np.testing.assert_array_equal(streamed, monolithic.traces)

    def test_describe_reports_provenance(self):
        info = SerialBackend().describe()
        assert info["backend"] == "serial"
        assert info["persistent"] is False
        assert info["workers"] == 1
        assert isinstance(info["cpu_count"], int)

    def test_describe_has_no_numba_field(self):
        assert "numba" not in SerialBackend().describe()

    def test_map_items_is_ordered(self):
        assert SerialBackend().map_items(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_context_manager_lifecycle(self):
        with SerialBackend() as backend:
            assert backend.name == "serial"
        backend.close()  # idempotent
