"""Golden digests: every recorded CLI recipe still prints the same JSON.

``tests/golden/digests.json`` pairs the exact argv of each
``python -m repro ...`` call with the sha256 of its canonical
``--format json`` output (wall time removed).  A mismatch means the
change moved a published number; regenerate with
``scripts/regen_golden.py`` only with a reason recorded in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from regen_golden import RECIPES, digest, load  # noqa: E402

ENTRIES = load()


def test_every_recipe_has_a_digest():
    assert [entry["argv"] for entry in ENTRIES] == RECIPES


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_recipe_matches_its_digest(entry):
    assert digest(entry["argv"]) == entry["sha256"], (
        f"`python -m repro {' '.join(entry['argv'])}` moved from its golden digest"
    )
