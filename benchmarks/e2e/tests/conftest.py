"""Self-tests of the benchmark: plain pytest, not part of tier-1.

    python -m pytest -q benchmarks/e2e/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E_DIR))
import _paths  # noqa: E402,F401  (side effect: repo root and src on sys.path)

RUN_PY = E2E_DIR / "run.py"


def run_cli(*args, env=None, cwd=None):
    return subprocess.run([sys.executable, str(RUN_PY), *args], env=env,
                          cwd=cwd or _paths.REPO_ROOT, text=True,
                          capture_output=True, timeout=120, check=False)


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """One traced smoke run of all four workloads: (stdout, document)."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = run_cli("--smoke", "--repeats", "1", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())
