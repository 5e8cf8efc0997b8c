"""API-surface lock: accidental public-surface drift must fail CI.

``repro.api`` is the stable entry surface; anything importable from it
is a compatibility promise.  These tests pin the exported names, the
envelope schema version and the capability vocabulary — extending the
surface is a deliberate act (update the pinned lists here *and*
``docs/api.md``), shrinking or renaming is a breaking change.
"""

import repro.api as api
from repro.api import ENVELOPE_SCHEMA, Capability

#: The public surface, alphabetical.  Keep in sync with docs/api.md.
LOCKED_SURFACE = [
    "Capability",
    "CapabilityError",
    "ENVELOPE_SCHEMA",
    "Envelope",
    "EnvelopeSchemaError",
    "REQUEST_SCHEMA",
    "RequestSchemaError",
    "ResultEnvelope",
    "RunRequest",
    "Scenario",
    "Session",
    "run",
    "scenario_names",
    "scenarios",
    "validate_envelope",
]

#: The capability vocabulary scenarios declare against.
LOCKED_CAPABILITIES = {
    "traces",
    "reps",
    "chunking",
    "jobs",
    "backend",
    "precision",
    "grid",
    "seed",
    "pipeline-config",
    "scope",
    "resilience",
    "manifest",
}


def test_all_is_locked():
    assert api.__all__ == LOCKED_SURFACE


def test_every_export_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_dir_matches_all():
    assert dir(api) == sorted(api.__all__)


def test_envelope_schema_version_is_locked():
    # Bumping the version is allowed but must be deliberate: update the
    # schema docs and the migration notes in docs/api.md alongside.
    assert ENVELOPE_SCHEMA == "repro.envelope/1"


def test_request_schema_version_is_locked():
    from repro.api import REQUEST_SCHEMA

    assert REQUEST_SCHEMA == "repro.request/1"


def test_capability_vocabulary_is_locked():
    assert {capability.value for capability in Capability} == LOCKED_CAPABILITIES


def test_import_is_light():
    """Importing repro.api must not drag numpy-heavy modules in."""
    import subprocess
    import sys

    code = (
        "import sys, repro.api; "
        "heavy = [m for m in ('numpy', 'repro.campaigns.engine', "
        "'repro.experiments.figure3') if m in sys.modules]; "
        "sys.exit(1 if heavy else 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code])
    assert proc.returncode == 0
