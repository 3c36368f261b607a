"""Hostile values in otherwise valid input documents and command lines,
through cli.main.

Each example takes one valid counter export, profile, workload or hardware
spec, replaces one field (or the value of one numeric flag) with a hostile
one and runs the command that reads it. Whatever the value, the run exits
0, 1 or 2 without a traceback, and every JSON document it writes is strict
JSON.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from roofcast.cli import main
from roofcast.core import default_hardware_spec
from roofcast.ingest import profile_to_dict

from conftest import profile_from_utils, unlimited

HOSTILE = [10**5000, 10**400, math.inf, -math.inf, math.nan, True, False,
           "text", None, [1], {"a": 1}]

COUNTERS = [{"kernel_name": f"k{i}", "duration_ns": 1000 + i,
             "dram_bytes": 4096, "l2_requests": 64, "int_ops": 10**6}
            for i in range(2)]
PROFILE = profile_to_dict(profile_from_utils(
    default_hardware_spec(), util_compute=0.1, util_dram=0.3, util_l2=0.2,
    t0=0.05, cpu_overhead=0.01))
WORKLOAD = {"schema_version": 1, "doc": 2, "dispatch_count": 50, "seed": 3,
            "queries": [{"profile": "profile.json", "weight": 1.0}]}
HARDWARE = {
    "schema_version": 1, "name": "custom", "sm_count": 10,
    "peak_compute_gops": 100.0, "peak_dram_gbps": 10.0, "peak_l2_gbps": 50.0,
    "dram_capacity_gb": 1.0, "l2_request_bytes": 128,
    "mig_catalog": [{"name": "halves", "shared_memory": False, "instances": [
        {"name": "half", "compute": 0.5, "dram_bw": 0.5, "l2_bw": 0.5,
         "mem_capacity": 0.5}] * 2}],
}

# The command that reads each file, and the field paths of each file.
COMMANDS = {
    "counters.json": ["ingest", "--input", "{work}/counters.json"],
    "profile.json": ["predict", "--profile", "{work}/profile.json",
                     "--mig", "1g.5gb"],
    "workload.json": ["concurrency", "--workload", "{work}/workload.json"],
    "hw.json": ["advise", "--workload", "{work}/workload.json",
                "--hw", "{work}/hw.json", "--objective", "max-throughput"],
}
KERNEL = PROFILE["kernels"][0]
INSTANCE = HARDWARE["mig_catalog"][0]["instances"][0]
FIELDS = (
    [("counters.json", (1, key)) for key in COUNTERS[0]]
    + [("profile.json", (key,)) for key in PROFILE if key != "kernels"]
    + [("profile.json", ("kernels", 0, key)) for key in KERNEL]
    + [("workload.json", (key,)) for key in WORKLOAD if key != "queries"]
    + [("workload.json", ("queries", 0, key))
       for key in WORKLOAD["queries"][0]]
    + [("hw.json", (key,)) for key in HARDWARE if key != "mig_catalog"]
    + [("hw.json", ("mig_catalog", 0, key))
       for key in ("name", "instances", "shared_memory")]
    + [("hw.json", ("mig_catalog", 0, "instances", 1, key))
       for key in INSTANCE]
)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _with_field(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


DOCS = {"counters.json": COUNTERS, "profile.json": PROFILE,
        "workload.json": WORKLOAD, "hw.json": HARDWARE}


def _run(command, docs):
    """Exit code, stdout and stderr of COMMANDS[command] over docs, written
    to a fresh directory, and the report it wrote there, if any."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, doc in docs.items():
            (work / name).write_text(unlimited(json.dumps, doc))
        out = work / "out.json"
        argv = [arg.format(work=work) for arg in COMMANDS[command]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        report = out.read_text() if out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), report


@pytest.mark.parametrize("command", COMMANDS)
def test_undamaged_inputs_exit_0(command):
    # Else a hostile field below could pass by failing before any check.
    code, _, stderr, _ = _run(command, DOCS)
    assert code == 0, stderr


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(HOSTILE))
def test_hostile_field_exits_0_1_or_2_and_writes_strict_json(field, value):
    hostile_file, path = field
    docs = {**DOCS, hostile_file: _with_field(DOCS[hostile_file], path, value)}
    code, stdout, stderr, report = _run(hostile_file, docs)
    assert code in (0, 1, 2), stderr
    assert "Traceback" not in stderr
    if report is not None:
        json.loads(report, parse_constant=_reject_constant)
    assert stdout == ""


# Hostile text for each numeric flag, run through a command that reads it.
# --alloc takes four fractions, so the hostile one comes first of four.
ARGV_VALUES = ["x", "", "nan", "inf", "-1", "0", "1e400",
               "99999999999999999999", "1e-320"]
INGEST = ["ingest", "--input", "{work}/counters.json"]
CONCURRENCY = ["concurrency", "--workload", "{work}/workload.json"]
FLAGS = [
    (INGEST, "--scale-factor", "{}"),
    (INGEST, "--cpu-overhead", "{}"),
    (INGEST, "--setup-overhead", "{}"),
    (INGEST, "--transfer-in", "{}"),
    (INGEST, "--dram-utilization", "{}"),
    (INGEST, "--l1-hit-rate", "{}"),
    (["predict", "--profile", "{work}/profile.json"], "--alloc",
     "{},0.5,0.5,0.5"),
    (["eval", "--n-queries", "2"], "--grid", "{}"),
    (CONCURRENCY, "--doc", "{}"),
    (CONCURRENCY, "--seed", "{}"),
]


@pytest.mark.parametrize("value", ARGV_VALUES)
@pytest.mark.parametrize("command, flag, form", FLAGS,
                         ids=[flag for _, flag, _ in FLAGS])
def test_hostile_flag_value_exits_0_1_or_2(tmp_path, command, flag, form,
                                           value):
    docs = {"counters.json": COUNTERS, "profile.json": PROFILE,
            "workload.json": WORKLOAD}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = [arg.format(work=tmp_path) for arg in command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main([*argv, flag, form.format(value), "--out", str(out)])
        except SystemExit as exc:   # argparse refuses a value its type rejects
            code = exc.code
    assert code in (0, 1, 2), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if out.exists():
        json.loads(out.read_text(), parse_constant=_reject_constant)
    assert stdout.getvalue() == ""
