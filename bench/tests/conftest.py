"""The benchmark's own tests; collected by the tier-1 run
(``PYTHONPATH=src python -m pytest``) from the repo root."""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:  # the benchmark finds src/ itself; so do its tests
    sys.path.insert(0, _SRC)
