"""Every demo script runs to completion against the sources in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# The last line a demo prints, where it states a result.
LAST_LINES = {
    # reruns ingest, rank and score, then hashes every file, manifest.json too
    "05_staged_workspace.py": "byte-identical across runs: True",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.rstrip().endswith(LAST_LINES.get(demo.name, ""))
