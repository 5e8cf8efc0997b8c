"""Rewrite (or check) the golden digests in ``tests/golden/digests.json``.

Each recipe is the exact argv of one ``python -m repro ...`` call.  Its
digest is the sha256 of the call's ``--format json`` output in
canonical form: ``stable()`` from ``json_equal_modulo_seconds.py``
drops wall time, and the result is dumped with sorted keys.  The tier-1
suite (``tests/test_golden.py``) re-runs every recipe and compares.

A change that moves a digest must say why in CHANGES.md; with no code
change a regeneration shows zero diff.

Usage:
    PYTHONPATH=src python scripts/regen_golden.py           # rewrite
    PYTHONPATH=src python scripts/regen_golden.py --check   # diff only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from json_equal_modulo_seconds import stable  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
DIGESTS = REPO / "tests" / "golden" / "digests.json"

RECIPES = [
    ["figure3", "--seed", "3"],
    ["figure4", "--precision", "float64-exact"],
    ["figure4", "--precision", "float64-exact", "--chunk-size", "25"],
    ["figure4", "--precision", "float32"],
    ["figure4", "--precision", "float32", "--chunk-size", "25"],
    ["table2", "--traces", "600"],
    ["table2", "--traces", "600", "--chunk-size", "200"],
    ["ablations", "--traces", "600"],
    ["ablations", "--traces", "600", "--chunk-size", "200"],
    ["baselines", "--traces", "600"],
    ["baselines", "--traces", "600", "--chunk-size", "200"],
    ["corpus", "run", "manifests/smoke.yaml", "--no-store"],
    ["sweep", "--grid", "dual_issue=true,false", "--traces", "200"],
    ["sweep", "--grid", "noise-floor"],
    ["figure3", "--seed", "3", "--chunk-size", "500", "--backend", "fork", "--jobs", "2"],
    ["figure4", "--precision", "float32", "--chunk-size", "25", "--backend", "fork", "--jobs", "2"],
    ["table2", "--traces", "600", "--chunk-size", "200", "--backend", "fork", "--jobs", "2"],
]


def digest(argv: list[str]) -> str:
    """sha256 of the canonical JSON that ``python -m repro ARGV`` prints."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    run = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--format", "json"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    if run.returncode != 0:
        raise RuntimeError(f"python -m repro {' '.join(argv)} failed:\n{run.stderr[-2000:]}")
    canonical = json.dumps(stable(json.loads(run.stdout)), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def load() -> list[dict]:
    return json.loads(DIGESTS.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="report diffs, write nothing")
    args = parser.parse_args(argv)
    recorded = {tuple(entry["argv"]): entry["sha256"] for entry in load()} if DIGESTS.exists() else {}
    entries, changed = [], 0
    for recipe in RECIPES:
        sha = digest(recipe)
        old = recorded.get(tuple(recipe))
        status = "same" if old == sha else ("new" if old is None else "CHANGED")
        changed += status != "same"
        print(f"{status:8} {' '.join(recipe)}")
        entries.append({"argv": recipe, "sha256": sha})
    if not args.check:
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps(entries, indent=2) + "\n")
    return 1 if args.check and changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
