"""Record the campaign seeds and result values the benchmark checks against.

Run from the checkout root::

    PYTHONPATH=src python3 perfbench/record_golden.py

For each campaign workload, runs candidate seeds 1, 2, ... with the
workload's knobs and keeps the first seeds whose campaign passes every
shape check and ranks the true key byte first, with the values
``run.py`` compares (``CampaignWorkload.gated``).  Writes
``perfbench/golden.json``.  Rerun it only when a change is meant to
alter campaign results, and say why in the change.
"""

from __future__ import annotations

import json
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

POOL_SIZE = {"figure3-stream": 24, "figure4-linux": 32}
#: |recorded - measured| allowed on every gated value
TOLERANCE = 0.002


def record(name: str, spec: run.CampaignWorkload) -> dict:
    from repro.api import Session
    from repro.campaigns.engine import clear_schedule_cache

    session = Session()
    seeds: dict[str, dict] = {}
    rejected = []
    candidate = 0
    while len(seeds) < POOL_SIZE[name]:
        candidate += 1
        envelope = session.run(spec.scenario, seed=candidate, **spec.knobs)
        result = envelope.result
        clear_schedule_cache()  # keep the recorder's memory flat
        if not result.matches_paper or result.cpa.rank_of(spec.key_byte) != 0:
            rejected.append(candidate)
            continue
        data = result.to_json()
        seeds[str(candidate)] = {field: float(data[field]) for field in spec.gated}
        print(f"{name}: seed {candidate} {seeds[str(candidate)]}", file=sys.stderr)
    return {
        "knobs": spec.knobs,
        "tolerance": TOLERANCE,
        "pool": [int(seed) for seed in seeds],
        "rejected": rejected,
        "seeds": seeds,
    }


def main() -> int:
    golden = {name: record(name, spec) for name, spec in run.CAMPAIGNS.items()}
    with open(run.GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
