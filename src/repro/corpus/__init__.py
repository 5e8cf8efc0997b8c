"""The workload corpus: declarative targets + manifest-driven batches.

This package generalizes the single hard-wired sweep workload into a
*corpus* of leakage-evaluation targets and a batch runner over them:

* :mod:`repro.corpus.workloads` — the registry of declarative
  :class:`~repro.corpus.workloads.Workload` entries (program builder,
  input generator, CPA model, key-recovery metadata, capability set);
* :mod:`repro.corpus.manifest` — the ``repro.manifest/1`` schema (JSON
  or a documented YAML subset, no third-party loader) and its expansion
  into (workload x config x scope x budget) cells;
* :mod:`repro.corpus.store` — the content-addressed artifact store
  (``repro.artifact/1`` records keyed by ``repro.jobkey/2`` identities);
* :mod:`repro.corpus.runner` — :class:`~repro.corpus.runner.CorpusCampaign`,
  the per-cell-isolated batch executor with checkpoint/resume;
* :mod:`repro.corpus.report` — the comparative, leakiest-first
  cross-workload report.

The ``corpus`` scenario (:mod:`repro.corpus.scenario`) exposes the whole
pipeline through ``repro.api.Session``; the ``repro corpus`` subcommand
(:mod:`repro.corpus.cli`) is the shell front-end.
"""

from repro.corpus.manifest import (
    CorpusCell,
    GridEntry,
    Manifest,
    ManifestError,
    load_manifest,
)
from repro.corpus.report import CellResult, CorpusResult
from repro.corpus.runner import CorpusCampaign
from repro.corpus.store import ARTIFACT_SCHEMA, ArtifactStore, cell_key
from repro.corpus.workloads import (
    Workload,
    register_workload,
    workload,
    workload_names,
    workloads,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactStore",
    "CellResult",
    "CorpusCampaign",
    "CorpusCell",
    "CorpusResult",
    "GridEntry",
    "Manifest",
    "ManifestError",
    "Workload",
    "cell_key",
    "load_manifest",
    "register_workload",
    "workload",
    "workload_names",
    "workloads",
]
