"""The experiment scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_doc_sweep.py", ["--docs", "1,2,3", "--dispatch-count", "60"]),
    ("run_doc_sweep.py", ["--docs", "1,4", "--dispatch-count", "60", "--mps"]),
    ("run_synthetic_eval.py", ["--n-queries", "12", "--grid", "0.25,0.5"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert "Traceback" not in result.stdout + result.stderr
