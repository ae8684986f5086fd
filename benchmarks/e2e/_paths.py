"""Put the repo root (for ``benchmarks.e2e``) and ``src`` (for ``repro``)
on ``sys.path``, so the entry points work from a bare checkout with no
``PYTHONPATH`` and no install."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

for entry in (REPO_ROOT / "src", REPO_ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
