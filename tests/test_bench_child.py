"""perfbench's traced child still answers questions with this package.

A traced benchmark pass runs each question through perfbench/child.py
--spans, which keys every aggregate call on its profile's kernels to count
the distinct profiles. A change that breaks that use of the kernels fails
the whole benchmark run, so it is caught here. Only perfbench's own files
are run; none is changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from roofcast.evalkit import generate_synthetic
from roofcast.ingest import write_profile_json

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


def traced(work: Path, *argv: str) -> dict:
    """What child.py --spans records for `roofcast ARGV` run in work."""
    timing = work / "timing.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("ROOFCAST_HW", None)
    result = subprocess.run(
        [sys.executable, str(CHILD), str(timing), "--spans", "--", *argv],
        cwd=work, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    record = json.loads(timing.read_text())
    assert record["code"] == 0
    return record


def write_profiles(work: Path, n: int) -> list[str]:
    names = []
    for profile in generate_synthetic(3, n)[1]:
        names.append(f"{profile.query_id}.json")
        (work / names[-1]).write_text(write_profile_json(profile),
                                      encoding="utf-8")
    return names


def test_roofline_counts_one_profile(tmp_path):
    name, = write_profiles(tmp_path, 1)
    record = traced(tmp_path, "roofline", "--profile", name)
    assert record["distinct"]["ingest.aggregate"] == 1


def test_concurrency_counts_each_distinct_profile_once(tmp_path):
    # The first profile is named twice: read twice, equal kernels, one key.
    names = write_profiles(tmp_path, 2)
    doc = {"schema_version": 1, "doc": 2, "dispatch_count": 200, "seed": 0,
           "queries": [{"profile": name, "weight": 1.0}
                       for name in [*names, names[0]]]}
    (tmp_path / "workload.json").write_text(json.dumps(doc))
    record = traced(tmp_path, "concurrency", "--workload", "workload.json")
    calls = [span for span in record["spans"] if span[1] == "ingest.aggregate"]
    assert len(calls) == 3
    assert record["distinct"]["ingest.aggregate"] == 2
