"""Warm schedule cache == cold schedule cache, byte for byte.

The compiled-schedule cache is keyed on program content, so a second
run in one process reuses what the first compiled — with other seeds,
other inputs and a freshly assembled program.  These pins run seed A
then seed B in one process and require seed B's output to equal a cold
seed-B run exactly, wall time aside.  Sweep-shaped results report the
distinct schedules their grid needs, not the compiles the process ran,
so they compare unblanked too.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.campaigns.engine import clear_schedule_cache, schedule_compiles
from repro.corpus.manifest import Manifest
from repro.corpus.runner import CorpusCampaign

SEED_A, SEED_B = 3, 7

CASES = {
    "figure3": ("figure3", dict(n_traces=600)),
    "figure3-chunked": ("figure3", dict(n_traces=600, chunk_size=200)),
    "figure4": ("figure4", dict()),
    "ablations": ("ablations", dict(n_traces=200)),
    "sweep": ("sweep", dict(n_traces=200, grid=["dual_issue=true,false"])),
    "corpus": ("corpus", dict()),
}


def _stable(record):
    """``record`` minus wall time."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
    try:
        from json_equal_modulo_seconds import stable
    finally:
        sys.path.pop(0)
    return json.dumps(stable(record), sort_keys=True)


def _run(name: str, seed: int, knobs: dict) -> str:
    if name == "corpus":
        manifest = Manifest(name="warm", workloads=("aes-round1",), budgets=(96,))
        record = CorpusCampaign(manifest, store=None, seed=seed, **knobs).run().to_json()
    else:
        record = Session().run(name, seed=seed, **knobs).to_json()
    return _stable(record)


def _warm_and_cold(name: str, knobs: dict) -> tuple[str, str, int]:
    clear_schedule_cache()
    _run(name, SEED_A, knobs)
    before = schedule_compiles()
    warm = _run(name, SEED_B, knobs)
    warm_compiles = schedule_compiles() - before
    clear_schedule_cache()
    cold = _run(name, SEED_B, knobs)
    return warm, cold, warm_compiles


@pytest.mark.parametrize("precision", ["float32", "float64-exact"])
@pytest.mark.parametrize("case", list(CASES))
def test_warm_run_equals_cold_run(case, precision):
    name, knobs = CASES[case]
    warm, cold, warm_compiles = _warm_and_cold(name, dict(knobs, precision=precision))
    assert warm_compiles == 0
    assert warm == cold


def test_warm_table2_equals_cold_table2():
    # table2 has no precision knob.
    warm, cold, warm_compiles = _warm_and_cold("table2", dict(n_traces=400))
    assert warm_compiles == 0
    assert warm == cold
