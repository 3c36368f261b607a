"""The benchmark's input generators and its --version child still run.

perfbench/run.py builds each workload's inputs with this package's
generate_synthetic and write_profile_json and checks its question list
against reference_digests.json before it times anything; a change that
breaks either fails the whole benchmark run, so it is caught here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_writes_the_reference_questions(tmp_path, name):
    questions = WORKLOADS[name](tmp_path, 0)
    assert ([q.name for q in questions]
            == REFERENCE["workloads"][name]["questions"])


def test_version_child_exits_0():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-m", "roofcast.cli", "--version"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
