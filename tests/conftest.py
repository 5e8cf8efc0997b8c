"""Suite-wide setup: the helper modules beside this file (``rawchunks``)
import by name from every test directory."""

import sys
from pathlib import Path

_TESTS = str(Path(__file__).resolve().parent)
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)
