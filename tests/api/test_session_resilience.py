"""Resilience through the public API: fault reports, gating, resume.

The Session collects the ambient fault report around every run, so a
recovered fault surfaces in the envelope's ``fault_report`` while a
fault-free run stays byte-identical to a pre-resilience envelope (no
key at all).  The knobs themselves are capability-gated: scenarios that
never stream cannot silently ignore a retry budget.
"""

import warnings

import pytest

from repro.api import CapabilityError, Session, validate_envelope
from repro.api.capabilities import Capability
from repro.backends import BackendDegradationWarning
from repro.backends.faults import FlakyTransform
from repro.backends.resilience import RetryPolicy
from repro.campaigns.engine import StreamingCampaign
from repro.campaigns.reduction import TraceMeanVarFold
from repro.campaigns.registry import Scenario, _REGISTRY, register
from repro.isa.parser import assemble
from repro.isa.registers import Reg
from repro.power.acquisition import random_inputs
from repro.power.scope import ScopeConfig


class _Result:
    def render(self):
        return "done"


@pytest.fixture
def temp_scenario():
    """Register a scenario for one test; always deregister."""
    names = []

    def _register(name, runner, capabilities=()):
        register(
            Scenario(
                name=name,
                title="t",
                description="d",
                runner=runner,
                capabilities=frozenset(capabilities),
            )
        )
        names.append(name)
        return name

    yield _register
    for name in names:
        _REGISTRY.pop(name, None)


class TestFaultReportPlumbing:
    def test_recovered_fault_reaches_the_envelope(self, tmp_path, temp_scenario):
        program = assemble("add r0, r1, r2\nbx lr")

        def runner(request):
            engine = StreamingCampaign(
                program, scope=ScopeConfig(noise_sigma=1.0), seed=3
            )
            inputs = random_inputs(24, reg_names=(Reg.R1, Reg.R2), seed=5)
            flaky = FlakyTransform(str(tmp_path / "ledger"), fail_times=1)
            policy = RetryPolicy.from_retries(request.retries, backoff_base=0.0)
            engine.reduce(
                inputs,
                TraceMeanVarFold(),
                chunk_size=12,
                power_transform=flaky,
                retry=policy,
            )
            return _Result()

        name = temp_scenario("_api-flaky", runner, {Capability.RESILIENCE})
        envelope = Session().run(name, retries=2)
        assert envelope.ok
        assert envelope.fault_report is not None
        assert envelope.fault_report["attempts"] >= 2
        assert len(envelope.fault_report["retries"]) >= 1
        record = envelope.to_json()
        assert record["fault_report"] == envelope.fault_report
        validate_envelope(record)

    def test_clean_resilient_run_carries_no_fault_report(self):
        envelope = Session().run("figure3", n_traces=64, retries=2)
        assert envelope.ok
        assert envelope.fault_report is None
        assert "fault_report" not in envelope.to_json()

    def test_resilient_envelope_matches_plain_run_byte_for_byte(self):
        plain = Session().run("figure3", n_traces=64, chunk_size=16).to_json()
        armed = Session().run("figure3", n_traces=64, chunk_size=16, retries=2).to_json()
        plain.pop("seconds")
        armed.pop("seconds")
        assert armed == plain


class TestCapabilityGating:
    @pytest.mark.parametrize("knob", [{"retries": 2}, {"chunk_timeout": 5.0}])
    def test_non_streaming_scenario_rejects_resilience_knobs(self, knob):
        with pytest.raises(CapabilityError, match=next(iter(knob))):
            Session().run("table1", reps=5, **knob)

    def test_resume_requires_a_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            Session().run("figure3", n_traces=64, resume=True)

    def test_session_resilience_defaults_skip_unsupported_scenarios(self):
        # table1 has no RESILIENCE capability; as a *default* the knob
        # is dropped, not an error.
        envelope = Session(retries=2).run("table1", reps=5)
        assert envelope.ok
        assert envelope.request.retries is None


class TestCheckpointThroughTheSession:
    def test_session_checkpoint_default_plus_per_run_resume(self, tmp_path):
        session = Session(checkpoint=str(tmp_path / "ckpt"), seed=11)
        first = session.run("figure3", n_traces=64, chunk_size=16)
        assert first.ok
        # A session-level checkpoint directory satisfies a per-run
        # resume=True (coherence is checked post-merge).
        resumed = session.run("figure3", n_traces=64, chunk_size=16, resume=True)
        assert resumed.ok
        assert resumed.payload() == first.payload()
        assert resumed.render() == first.render()
        # Checkpoint lifecycle events ride along in the fault report.
        events = [e["event"] for e in resumed.fault_report["checkpoint"]]
        assert "resumed" in events


class TestNotesDedupOrdering:
    def test_repeated_degradations_dedupe_preserving_first_emission_order(
        self, temp_scenario
    ):
        messages = [
            "backend 'pool' quarantined after repeated failures; degrading to 'fork'",
            "jobs=4 requested but fork unavailable; running serial",
            "backend 'pool' quarantined after repeated failures; degrading to 'fork'",
            "backend 'fork' quarantined after repeated failures; degrading to 'serial'",
            "jobs=4 requested but fork unavailable; running serial",
        ]

        def runner(_request):
            for message in messages:
                warnings.warn(BackendDegradationWarning(message))
            return _Result()

        name = temp_scenario("_api-degrading", runner)
        envelope = Session().run(name)
        assert envelope.ok
        assert list(envelope.notes) == [messages[0], messages[1], messages[3]]
        record = envelope.to_json()
        assert record["notes"] == list(envelope.notes)
        validate_envelope(record)

    def test_other_warnings_are_not_captured_as_notes(self, temp_scenario):
        def runner(_request):
            warnings.warn(UserWarning("unrelated advisory"))
            return _Result()

        name = temp_scenario("_api-warning", runner)
        with pytest.warns(UserWarning, match="unrelated"):
            envelope = Session().run(name)
        assert envelope.notes == ()
