"""The ``corpus`` scenario: manifest-driven batches through the API.

Registered like every experiment driver, but *manifest-required*: the
MANIFEST capability is both an allowance (the corpus honors the
``manifest`` knob) and an obligation (dispatching the scenario without
one raises :class:`~repro.api.capabilities.ManifestRequiredError`, so
``repro all`` skips the corpus unless a manifest is supplied).

PIPELINE_CONFIG and SCOPE are deliberately *not* declared: a manifest
owns its config and scope grids, and a session-level ``config=`` or
``scope=`` override would silently fight the grid.
"""

from __future__ import annotations

from repro.api.capabilities import Capability, ManifestRequiredError
from repro.api.request import RunRequest
from repro.campaigns.registry import Scenario, register
from repro.corpus.manifest import load_manifest
from repro.corpus.report import CorpusResult
from repro.corpus.runner import CorpusCampaign
from repro.corpus.store import DEFAULT_STORE_DIR

CORPUS_CAPABILITIES = frozenset(
    {
        Capability.TRACES,
        Capability.SEED,
        Capability.CHUNKING,
        Capability.JOBS,
        Capability.BACKEND,
        Capability.PRECISION,
        Capability.RESILIENCE,
        Capability.MANIFEST,
    }
)


def run_corpus(request: RunRequest) -> CorpusResult:
    if request.manifest is None:
        raise ManifestRequiredError("corpus", CORPUS_CAPABILITIES)
    manifest = load_manifest(request.manifest)
    campaign = CorpusCampaign(
        manifest,
        store=DEFAULT_STORE_DIR,
        n_traces=request.n_traces,
        seed=request.seed,
        chunk_size=request.chunk_size,
        jobs=request.jobs or 1,
        backend=request.backend,
        precision=request.precision,
        retries=request.retries,
        chunk_timeout=request.chunk_timeout,
    )
    return campaign.run(checkpoint=request.checkpoint, resume=bool(request.resume))


SCENARIO = register(
    Scenario(
        name="corpus",
        title="Workload corpus: manifest-driven comparative leakage batches",
        description=(
            "Expands a batch manifest (workloads x config grid x scope "
            "grid x trace budgets) into isolated cells, runs each "
            "through the streaming engine, serves repeats from the "
            "content-addressed artifact store, and ranks every cell "
            "leakiest-first by max Welch-t / CPA margin / SNR."
        ),
        runner=run_corpus,
        default_traces=None,
        capabilities=CORPUS_CAPABILITIES,
        tags=("corpus", "batch"),
    )
)
