"""Assert two ``--format json`` outputs are identical up to wall time.

Every ``seconds`` key is dropped at any depth, and a rendered report's
``wall time N.Ns`` is blanked; everything else must match byte for
byte.

Usage: python scripts/json_equal_modulo_seconds.py LEFT.json RIGHT.json
"""

from __future__ import annotations

import json
import re
import sys


def stable(value):
    if isinstance(value, dict):
        return {key: stable(item) for key, item in value.items() if key != "seconds"}
    if isinstance(value, list):
        return [stable(item) for item in value]
    if isinstance(value, str):
        return re.sub(r"wall time [0-9.]+s", "wall time -", value)
    return value


def main(argv=None) -> int:
    left, right = argv if argv is not None else sys.argv[1:]
    with open(left) as handle:
        ours = json.dumps(stable(json.load(handle)), sort_keys=True)
    with open(right) as handle:
        theirs = json.dumps(stable(json.load(handle)), sort_keys=True)
    if ours != theirs:
        print(f"{left} and {right} differ beyond wall time", file=sys.stderr)
        return 1
    print(f"{left} == {right} (modulo wall time)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
