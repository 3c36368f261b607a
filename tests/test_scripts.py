"""The experiment scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


CASES = [
    ("run_doc_sweep.py", ["--docs", "1,2,3", "--dispatch-count", "60"]),
    ("run_doc_sweep.py", ["--docs", "1,4", "--dispatch-count", "60", "--mps"]),
]


def test_every_script_has_a_case():
    scripts = {path.name for path in (ROOT / "scripts").glob("*.py")}
    assert scripts == {script for script, _ in CASES}


@pytest.mark.parametrize("script, args", CASES)
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
