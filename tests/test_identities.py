"""Identities of the model that refactors lean on, stated through cli.main
and the public API.

Every answer depends on a profile only through its totals, so splitting a
kernel into parts with the same totals, merging such parts back, or
reordering kernels leaves every report unchanged. And advise ranks the
catalog's configs, not their order in the spec file. A prediction depends
on the ratios of the totals to the time and to the peaks, so scaling the
time and every counter by one factor, or every peak and every counter by
one factor, leaves each slowdown and bound unchanged.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from roofcast import (
    KernelRecord,
    QueryProfile,
    ResourceAllocation,
    aggregate,
    default_hardware_spec,
    slowdown_unified,
)
from roofcast.cli import main

from test_fuzz_cli import HARDWARE

WORKLOAD = {"schema_version": 1, "doc": 3, "dispatch_count": 60, "seed": 5,
            "queries": [{"profile": "profile.json", "weight": 1.0}]}
COMMANDS = [
    ["roofline", "--profile", "{work}/profile.json"],
    ["predict", "--profile", "{work}/profile.json",
     "--alloc", "0.5,0.25,0.75,0.5"],
    ["predict", "--profile", "{work}/profile.json", "--mig", "1g.5gb"],
    ["concurrency", "--workload", "{work}/workload.json"],
    ["advise", "--workload", "{work}/workload.json",
     "--objective", "max-throughput"],
    ["advise", "--workload", "{work}/workload.json",
     "--objective", "min-latency"],
]

kernels = st.lists(
    st.fixed_dictionaries({
        "duration_ns": st.floats(1e3, 1e9),
        "dram_bytes": st.integers(1, 10**10),
        "l2_requests": st.integers(1, 10**8),
        "int_ops": st.integers(1, 10**12),
    }),
    min_size=1, max_size=6)


def _profile(kernel_list) -> dict:
    return {"schema_version": 1, "query_id": "q", "system": "s",
            "scale_factor": 1.0, "cpu_overhead_s": 0.002,
            "kernels": [{"kernel_name": f"k{i}", **k}
                        for i, k in enumerate(kernel_list)]}


def _halves(kernel) -> list[dict]:
    """kernel as two kernels whose totals are exactly kernel's."""
    first = {"duration_ns": kernel["duration_ns"] / 2,
             **{key: kernel[key] // 2
                for key in ("dram_bytes", "l2_requests", "int_ops")}}
    second = {key: kernel[key] - first[key] for key in kernel}
    return [first, second]


def _reports(docs: dict, commands=COMMANDS) -> list:
    """Exit code, stderr and report (less its manifest) of each command
    over docs, each written as JSON to a fresh directory."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, doc in docs.items():
            (work / name).write_text(json.dumps(doc))
        for command in commands:
            out = work / "out.json"
            out.unlink(missing_ok=True)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([arg.format(work=work) for arg in command]
                            + ["--out", str(out)])
            report = json.loads(out.read_text()) if out.exists() else None
            if report is not None:
                del report["manifest"], report["manifest_hash"]
            results.append((code, stderr.getvalue(), report))
    return results


@settings(max_examples=25, deadline=None, derandomize=True)
@given(base=kernels, data=st.data())
def test_splitting_merging_or_reordering_kernels_leaves_reports_unchanged(
        base, data):
    split = data.draw(st.lists(st.booleans(), min_size=len(base),
                               max_size=len(base)))
    parts = [part for kernel, halve in zip(base, split)
             for part in (_halves(kernel) if halve else [kernel])]
    parts = data.draw(st.permutations(parts))
    # The second document is the first split; read the other way round,
    # the first is the second merged.
    before = _reports({"profile.json": _profile(base),
                       "workload.json": WORKLOAD})
    after = _reports({"profile.json": _profile(parts),
                      "workload.json": WORKLOAD})
    assert [code for code, _, _ in before] == [0] * len(COMMANDS), before
    assert after == before


@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_permuting_the_catalog_leaves_advise_rows_unchanged(data):
    slice_ = st.fixed_dictionaries({
        "compute": st.sampled_from([0.125, 0.25, 0.5]),
        "dram_bw": st.sampled_from([0.125, 0.25, 0.5]),
        "l2_bw": st.sampled_from([0.125, 0.25, 0.5]),
        "mem_capacity": st.sampled_from([0.125, 0.25, 0.5]),
    })
    # Few distinct slices, so that configs often tie on every objective
    # and only their names order them.
    configs = data.draw(st.lists(st.lists(slice_, min_size=1, max_size=2),
                                 min_size=2, max_size=6))
    catalog = [{"name": f"c{i}",
                "instances": [{"name": f"c{i}.{j}", **inst}
                              for j, inst in enumerate(instances)]}
               for i, instances in enumerate(configs)]
    shuffled = data.draw(st.permutations(catalog))
    # One memory-bound and one compute-bound query, so every fraction counts.
    docs = {
        "memory.json": _profile([{"duration_ns": 4e6, "dram_bytes": 10**7,
                                  "l2_requests": 10**5, "int_ops": 10**7}]),
        "compute.json": _profile([{"duration_ns": 4e6, "dram_bytes": 10**6,
                                   "l2_requests": 10**4, "int_ops": 10**8}]),
        "workload.json": {**WORKLOAD, "queries": [
            {"profile": "memory.json", "weight": 2.0},
            {"profile": "compute.json", "weight": 1.0}]},
    }
    commands = [["advise", "--workload", "{work}/workload.json",
                 "--hw", "{work}/hw.json", "--objective", objective]
                for objective in ("min-latency", "max-throughput",
                                  "throughput-per-resource")]
    reports = [
        _reports({**docs, "hw.json": {**HARDWARE, "mig_catalog": order}},
                 commands)
        for order in (catalog, shuffled)]
    assert [code for code, _, _ in reports[0]] == [0] * len(commands)
    assert reports[1] == reports[0]


A100 = default_hardware_spec()
fraction = st.floats(0.05, 2.0)
allocations = st.lists(st.builds(ResourceAllocation, fraction, fraction,
                                 fraction, fraction), min_size=1, max_size=4)
# Powers of two scale a float exactly; the others round.
factors = st.one_of(st.sampled_from([2, 4, 64, 1024]),
                    st.integers(3, 1000).filter(lambda k: k & (k - 1)))


def _predictions(kernel_list, allocs, hw=A100, k=1, scale_time=True):
    """(slowdown, bound) of each allocation for a profile of kernel_list
    whose counters, and with scale_time its durations, are scaled by k."""
    profile = QueryProfile("q", "s", 1.0, tuple(
        KernelRecord(f"k{i}", kernel["duration_ns"] / 1e9
                     * (k if scale_time else 1),
                     *(kernel[key] * k
                       for key in ("dram_bytes", "l2_requests", "int_ops")))
        for i, kernel in enumerate(kernel_list)))
    metrics = aggregate(profile, hw)
    return [(p.slowdown, p.bound)
            for p in (slowdown_unified(metrics, metrics.total_duration, hw, a)
                      for a in allocs)]


def _assert_same(scaled, base, exact):
    assert [bound for _, bound in scaled] == [bound for _, bound in base]
    for (slowdown, _), (expected, _) in zip(scaled, base):
        if exact:
            assert slowdown == expected
        else:
            assert math.isclose(slowdown, expected, rel_tol=1e-12, abs_tol=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(base=kernels, allocs=allocations, k=factors)
def test_scaling_time_and_every_counter_leaves_predictions_unchanged(
        base, allocs, k):
    _assert_same(_predictions(base, allocs, k=k), _predictions(base, allocs),
                 exact=not k & (k - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(base=kernels, allocs=allocations, k=factors)
def test_scaling_every_peak_and_every_counter_leaves_predictions_unchanged(
        base, allocs, k):
    faster = dataclasses.replace(
        A100, peak_compute_bw=A100.peak_compute_bw * k,
        peak_dram_bw=A100.peak_dram_bw * k, peak_l2_bw=A100.peak_l2_bw * k)
    _assert_same(_predictions(base, allocs, faster, k, scale_time=False),
                 _predictions(base, allocs), exact=False)
