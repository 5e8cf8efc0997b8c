"""The dedup key: result-affecting knobs in, performance knobs out.

The content address must be *honest*: two requests share a key exactly
when the equivalence guarantees of the execution stack say their
envelopes are byte-identical.  Backend/jobs/retries/timeout
equivalence is pinned by the backend test suites;
``chunk_size`` is layout-proof only on the float32 chain (counter-based
noise addressed by absolute trace position), so it stays in the key on
the float64-exact chain.
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunRequest
from repro.campaigns import registry
from repro.power.scope import ScopeConfig
from repro.service import cache as cache_module
from repro.service.cache import KEY_SCHEMA, ResultCache, job_key, key_material
from repro.uarch.config import PipelineConfig

FIGURE3 = registry.get("figure3")


def key_for(**knobs):
    return job_key(FIGURE3, RunRequest(**knobs).resolve(FIGURE3))


class TestResultKnobs:
    def test_key_is_deterministic(self):
        assert key_for(n_traces=500, seed=3) == key_for(n_traces=500, seed=3)

    @pytest.mark.parametrize(
        "a, b",
        [
            ({"n_traces": 500}, {"n_traces": 501}),
            ({"seed": 1}, {"seed": 2}),
            ({"precision": "float32"}, {"precision": "float64-exact"}),
        ],
    )
    def test_result_affecting_knobs_change_the_key(self, a, b):
        assert key_for(**a) != key_for(**b)

    def test_scenarios_never_share_keys(self):
        table2 = registry.get("table2")
        request = RunRequest(n_traces=500)
        assert job_key(FIGURE3, request.resolve(FIGURE3)) != job_key(
            table2, request.resolve(table2)
        )

    def test_config_overrides_change_the_key(self):
        ablated = PipelineConfig().with_overrides(dual_issue=False)
        assert key_for(config=ablated) != key_for(config=PipelineConfig())

    def test_renamed_config_variants_share_a_key(self):
        # Same semantics, different display name: one compiled schedule,
        # one cache entry (mirrors PipelineConfig.identity()).
        renamed = PipelineConfig().with_overrides(name="my-a7")
        assert key_for(config=renamed) == key_for(config=PipelineConfig())

    def test_scope_overrides_change_the_key(self):
        assert key_for(scope=ScopeConfig(noise_sigma=2.0)) != key_for(
            scope=ScopeConfig()
        )


class TestPerformanceKnobs:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"jobs": 4},
            {"backend": "pool"},
            {"backend": "serial"},
            {"retries": 3},
            {"chunk_timeout": 9.5},
        ],
    )
    def test_performance_knobs_never_change_the_key(self, knobs):
        assert key_for(n_traces=500, **knobs) == key_for(n_traces=500)

    def test_chunk_size_is_part_of_the_float64_key(self):
        # The exact chain draws noise serially per capture: chunk layout
        # changes the realization, so it must not dedup across layouts.
        assert key_for(n_traces=500, chunk_size=50) != key_for(
            n_traces=500, chunk_size=100
        )

    def test_chunk_size_is_layout_proof_on_float32(self):
        assert key_for(
            n_traces=500, chunk_size=50, precision="float32"
        ) == key_for(n_traces=500, chunk_size=100, precision="float32")

    def test_scope_precision_float32_also_drops_chunk_size(self):
        scope = ScopeConfig(precision="float32")
        assert key_for(n_traces=500, chunk_size=50, scope=scope) == key_for(
            n_traces=500, chunk_size=100, scope=scope
        )

    def test_material_is_schema_versioned(self):
        material = key_material(FIGURE3, RunRequest(n_traces=64).resolve(FIGURE3))
        assert material["schema"] == KEY_SCHEMA

    def test_figure3_keys_retire_their_jobkey_1_results(self, monkeypatch):
        # An unchunked figure3 now runs the single-chunk fold, whose
        # correlations differ from the former two-pass path by ~1e-14:
        # results cached under repro.jobkey/1 must never be served.
        assert KEY_SCHEMA == "repro.jobkey/2"
        current = key_for(n_traces=64)
        monkeypatch.setattr(cache_module, "KEY_SCHEMA", "repro.jobkey/1")
        assert key_for(n_traces=64) != current


def _child_key(start_method_and_pipe):
    """Compute figure3's key in a freshly started interpreter."""
    knobs, pipe = start_method_and_pipe
    from repro.api import RunRequest
    from repro.campaigns import registry
    from repro.service.cache import job_key

    scenario = registry.get("figure3")
    pipe.send(job_key(scenario, RunRequest(**knobs).resolve(scenario)))
    pipe.close()


class TestCrossProcessStability:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_key_is_identical_across_start_methods(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        knobs = {"n_traces": 640, "seed": 11, "precision": "float32"}
        parent_key = key_for(**knobs)
        context = multiprocessing.get_context(start_method)
        ours, theirs = context.Pipe()
        process = context.Process(target=_child_key, args=((knobs, theirs),))
        process.start()
        child_key = ours.recv()
        process.join(timeout=60)
        assert child_key == parent_key


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        record = {"schema": "repro.envelope/1", "scenario": "figure3"}
        key = "a" * 64
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, record)
        assert cache.get(key) == record
        assert key in cache

    def test_torn_entry_reads_as_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = "b" * 64
        with open(cache._path(key), "w") as handle:
            handle.write('{"schema": "repro.en')  # torn mid-write
        assert cache.get(key) is None


# -- property: the key digests only canonical JSON ----------------------


@given(
    knobs=st.fixed_dictionaries(
        {},
        optional={
            "n_traces": st.integers(min_value=1, max_value=5000),
            "seed": st.integers(min_value=0, max_value=2**31),
            "precision": st.sampled_from(["float32", "float64-exact"]),
            "jobs": st.integers(min_value=1, max_value=8),
            "chunk_size": st.integers(min_value=1, max_value=512),
            "backend": st.sampled_from(["auto", "serial", "fork", "pool"]),
        },
    )
)
@settings(max_examples=50, deadline=None)
def test_key_survives_a_wire_round_trip(knobs):
    """from_json(to_json(r)) must land in the same cache slot as r."""
    import json

    request = RunRequest(**knobs)
    wired = RunRequest.from_json(json.loads(json.dumps(request.to_json())))
    assert job_key(FIGURE3, wired.resolve(FIGURE3)) == job_key(
        FIGURE3, request.resolve(FIGURE3)
    )
