"""The ``repro.request/1`` wire codec: strict parse, faithful round-trip.

Two properties anchor the service contract:

* **Round-trip identity** — ``RunRequest.from_json(request.to_json())``
  rebuilds an *equal* request, and resolving both against the same
  scenario yields identical resolved requests (defaulting happens only
  in ``resolve``, never in the codec).
* **Strictness** — unknown fields, wrong types, malformed config/scope
  overrides and capability violations are all hard errors with every
  problem named; nothing is silently dropped or coerced.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    REQUEST_SCHEMA,
    CapabilityError,
    RequestSchemaError,
    RunRequest,
)
from repro.api.wire import (
    config_from_json,
    config_to_json,
    scope_from_json,
    scope_to_json,
)
from repro.campaigns import registry
from repro.power.scope import ScopeConfig
from repro.uarch.config import IssuePairing, PipelineConfig


def wire_round_trip(request: RunRequest, scenario=None) -> RunRequest:
    """to_json → actual JSON text → from_json, like the service does."""
    text = json.dumps(request.to_json())
    return RunRequest.from_json(json.loads(text), scenario)


class TestRoundTrip:
    def test_empty_request_is_schema_only(self):
        assert RunRequest().to_json() == {"schema": REQUEST_SCHEMA}

    def test_only_set_knobs_travel(self):
        record = RunRequest(n_traces=500, seed=7).to_json()
        assert record == {"schema": REQUEST_SCHEMA, "n_traces": 500, "seed": 7}

    def test_full_request_round_trips_equal(self):
        request = RunRequest(
            n_traces=2000,
            chunk_size=250,
            jobs=2,
            seed=99,
            precision="float32",
            backend="fork",
            retries=2,
            chunk_timeout=5.5,
            config=PipelineConfig().with_overrides(dual_issue=False),
            scope=ScopeConfig(noise_sigma=2.0, kernel=(1.0, 0.5)),
        )
        assert wire_round_trip(request) == request

    def test_grid_round_trips_as_tuple(self):
        request = RunRequest(grid=("dual_issue=true,false", "noise-floor"))
        rebuilt = wire_round_trip(request)
        assert rebuilt.grid == ("dual_issue=true,false", "noise-floor")

    def test_round_trip_resolves_identically(self):
        scenario = registry.get("figure3")
        request = RunRequest(n_traces=640, chunk_size=64, precision="float32")
        assert wire_round_trip(request).resolve(scenario) == request.resolve(scenario)

    def test_unset_knobs_default_only_at_resolve(self):
        # The codec must not bake scenario defaults into the record:
        # an empty request still resolves per-scenario after the trip.
        scenario = registry.get("figure3")
        rebuilt = wire_round_trip(RunRequest())
        assert rebuilt.n_traces is None
        assert rebuilt.resolve(scenario).n_traces == scenario.default_traces

    def test_checkpoint_and_resume_travel(self):
        request = RunRequest(checkpoint="/tmp/ckpt", resume=True)
        assert wire_round_trip(request) == request


class TestConfigScopeCodec:
    def test_default_config_serializes_to_no_overrides(self):
        assert config_to_json(PipelineConfig()) == {
            "name": "cortex-a7",
            "overrides": {},
        }

    def test_enum_fields_travel_by_value(self):
        config = PipelineConfig().with_overrides(issue_pairing=IssuePairing.SLIDING)
        record = config_to_json(config)
        assert record["overrides"]["issue_pairing"] == "sliding"
        rebuilt = config_from_json(record)
        assert rebuilt.issue_pairing is IssuePairing.SLIDING
        assert rebuilt == config

    def test_scope_tuple_fields_travel_as_lists(self):
        scope = ScopeConfig(kernel=(1.0, 0.25), quantize_bits=None)
        record = scope_to_json(scope)
        assert record["overrides"]["kernel"] == [1.0, 0.25]
        assert scope_from_json(json.loads(json.dumps(record))) == scope

    def test_config_rejects_unknown_field(self):
        with pytest.raises(RequestSchemaError, match="unknown field 'warp_drive'"):
            config_from_json({"overrides": {"warp_drive": 9}})

    def test_config_rejects_unknown_top_level_key(self):
        with pytest.raises(RequestSchemaError, match="unknown key"):
            config_from_json({"name": "x", "extras": {}})

    def test_config_rejects_bad_enum_value(self):
        with pytest.raises(RequestSchemaError, match="issue_pairing"):
            config_from_json({"overrides": {"issue_pairing": "sideways"}})

    def test_config_rejects_bool_for_int_field(self):
        with pytest.raises(RequestSchemaError, match="expected an integer"):
            config_from_json({"overrides": {"fetch_width": True}})

    def test_scope_rejects_unknown_field(self):
        with pytest.raises(RequestSchemaError, match="unknown field"):
            scope_from_json({"overrides": {"bandwidth": 1}})

    def test_scope_optional_int_accepts_null(self):
        assert scope_from_json({"overrides": {"quantize_bits": None}}).quantize_bits is None


class TestStrictParse:
    def test_rejects_non_object(self):
        with pytest.raises(RequestSchemaError, match="JSON object"):
            RunRequest.from_json([1, 2])

    def test_rejects_missing_schema(self):
        with pytest.raises(RequestSchemaError, match="schema"):
            RunRequest.from_json({"n_traces": 10})

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(RequestSchemaError, match="repro.request/1"):
            RunRequest.from_json({"schema": "repro.request/999"})

    def test_rejects_unknown_fields_by_name(self):
        with pytest.raises(RequestSchemaError, match="bogus"):
            RunRequest.from_json({"schema": REQUEST_SCHEMA, "bogus": 1, "n_traces": 5})

    def test_rejects_bool_masquerading_as_int(self):
        with pytest.raises(RequestSchemaError, match="n_traces"):
            RunRequest.from_json({"schema": REQUEST_SCHEMA, "n_traces": True})

    def test_rejects_wrong_scalar_type(self):
        with pytest.raises(RequestSchemaError, match="seed"):
            RunRequest.from_json({"schema": REQUEST_SCHEMA, "seed": "seven"})

    def test_rejects_non_string_grid_entries(self):
        with pytest.raises(RequestSchemaError, match="grid"):
            RunRequest.from_json({"schema": REQUEST_SCHEMA, "grid": [1, 2]})

    def test_rejects_non_string_backend(self):
        with pytest.raises(RequestSchemaError, match="backend"):
            RunRequest.from_json({"schema": REQUEST_SCHEMA, "backend": {"kind": "fork"}})

    def test_rejects_unknown_backend_policy(self):
        with pytest.raises(RequestSchemaError, match="backend"):
            RunRequest.from_json({"schema": REQUEST_SCHEMA, "backend": "numba"})

    def test_rejects_retired_spawn_policy(self):
        with pytest.raises(RequestSchemaError, match="backend"):
            RunRequest.from_json({"schema": REQUEST_SCHEMA, "backend": "spawn"})

    def test_collects_every_problem(self):
        with pytest.raises(RequestSchemaError) as excinfo:
            RunRequest.from_json(
                {"schema": "nope", "n_traces": "x", "mystery": 1, "jobs": 0.5}
            )
        text = " ".join(excinfo.value.problems)
        assert "schema" in text
        assert "n_traces" in text
        assert "mystery" in text
        assert "jobs" in text

    def test_domain_violations_become_schema_errors(self):
        # RunRequest's own __post_init__ rejects n_traces=0; the codec
        # wraps that into the same structured error family.
        with pytest.raises(RequestSchemaError, match="n_traces"):
            RunRequest.from_json({"schema": REQUEST_SCHEMA, "n_traces": 0})

    def test_live_backend_instances_refuse_to_serialize(self):
        class FakeBackend:
            def map_chunks(self, fn, chunks):  # the ExecutionBackend duck type
                return map(fn, chunks)

        request = RunRequest(backend=FakeBackend())
        with pytest.raises(ValueError, match="not wire-serializable"):
            request.to_json()


class TestRetiredReduceField:
    """``reduce`` once chose where a chunk folds; every chunk now folds
    where it is acquired.  Queued records and older clients still send
    it, so a legal value is checked and dropped."""

    RECORD = {"schema": REQUEST_SCHEMA, "n_traces": 600, "jobs": 2, "backend": "fork"}

    @pytest.mark.parametrize("value", ["parent", "worker"])
    def test_a_legal_value_parses_equal_to_the_record_without_it(self, value):
        with_reduce = RunRequest.from_json({**self.RECORD, "reduce": value})
        assert with_reduce == RunRequest.from_json(self.RECORD)

    @pytest.mark.parametrize("value", ["sideways", 1, None])
    def test_an_illegal_value_is_still_a_schema_error(self, value):
        with pytest.raises(RequestSchemaError, match="reduce"):
            RunRequest.from_json({**self.RECORD, "reduce": value})

    def test_to_json_never_emits_it(self):
        request = RunRequest.from_json({**self.RECORD, "reduce": "worker"})
        assert "reduce" not in request.to_json()
        assert request.to_json() == self.RECORD

    def test_run_requests_no_longer_take_it(self):
        with pytest.raises(TypeError, match="reduce"):
            RunRequest(reduce="worker")


class TestCapabilityAtParse:
    def test_scenario_validation_happens_at_deserialization(self):
        scenario = registry.get("figure2")  # reps-only scenario
        with pytest.raises(CapabilityError) as excinfo:
            RunRequest.from_json(
                {"schema": REQUEST_SCHEMA, "n_traces": 100}, scenario
            )
        assert "figure2" in excinfo.value.cli_message()

    def test_valid_knobs_pass_scenario_validation(self):
        scenario = registry.get("figure3")
        request = RunRequest.from_json(
            {"schema": REQUEST_SCHEMA, "n_traces": 100}, scenario
        )
        assert request.n_traces == 100


# -- property tests ------------------------------------------------------

maybe = st.none()


def knob_strategies():
    return st.fixed_dictionaries(
        {},
        optional={
            "n_traces": st.integers(min_value=1, max_value=10_000),
            "chunk_size": st.integers(min_value=1, max_value=1024),
            "jobs": st.integers(min_value=1, max_value=8),
            "seed": st.integers(min_value=0, max_value=2**32 - 1),
            "precision": st.sampled_from(["float32", "float64-exact"]),
            "backend": st.sampled_from(["auto", "serial", "fork", "pool"]),
            "retries": st.integers(min_value=0, max_value=5),
            "chunk_timeout": st.floats(
                min_value=0.001, max_value=600, allow_nan=False, allow_infinity=False
            ),
        },
    )


class TestProperties:
    @given(knobs=knob_strategies())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_rebuilds_an_equal_request(self, knobs):
        request = RunRequest(**knobs)
        assert wire_round_trip(request) == request

    @given(knobs=knob_strategies())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_resolves_byte_identically(self, knobs):
        scenario = registry.get("figure3")
        request = RunRequest(**knobs)
        local = request.resolve(scenario)
        wired = wire_round_trip(request).resolve(scenario)
        assert wired == local
        # and the resolved requests serialize to the same record too
        assert wired.to_json() == local.to_json()

    @given(
        overrides=st.fixed_dictionaries(
            {},
            optional={
                "dual_issue": st.booleans(),
                "fetch_width": st.integers(min_value=1, max_value=4),
                "mul_latency": st.integers(min_value=1, max_value=8),
                "issue_pairing": st.sampled_from(list(IssuePairing)),
            },
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_config_overrides_round_trip(self, overrides):
        config = PipelineConfig().with_overrides(**overrides)
        rebuilt = config_from_json(json.loads(json.dumps(config_to_json(config))))
        assert rebuilt == config
