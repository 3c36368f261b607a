"""Seeded inputs and the fixed question list of each benchmark workload.

Every input is generated here from the input-set number; roofcast receives
only the generated files. Profiles come from roofcast's own
``generate_synthetic``; the wide counter exports come from the seeded
generator below, which writes raw profiler metric names, extra columns
roofcast ignores, and a mix of CSV and JSON.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

from roofcast.evalkit import generate_synthetic
from roofcast.ingest import write_profile_json

STDOUT = "-"


@dataclass(frozen=True)
class Question:
    """One CLI invocation and the outputs that must match the reference.

    ``outputs`` pairs each output (a path relative to the work directory, or
    ``STDOUT``) with whether it is a JSON report, whose ``manifest`` and
    ``manifest_hash`` carry per-run paths and are left out of its digest.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[tuple[str, bool], ...]


def _write_workload(work: Path, input_set: int, n_profiles: int,
                    dispatch_count: int) -> None:
    """Profiles from generate_synthetic, one file each, plus a workload doc."""
    rng = random.Random(f"weights-{input_set}")
    _, profiles = generate_synthetic(input_set, n_profiles)
    (work / "profiles").mkdir()
    queries = []
    for profile in profiles:
        rel = f"profiles/{profile.query_id}.json"
        (work / rel).write_text(write_profile_json(profile), encoding="utf-8")
        queries.append({"profile": rel, "weight": round(rng.uniform(0.5, 2.0), 3)})
    doc = {"schema_version": 1, "doc": 7, "dispatch_count": dispatch_count,
           "seed": input_set, "queries": queries}
    (work / "workload.json").write_text(json.dumps(doc, indent=1),
                                        encoding="utf-8")


def plan_240(work: Path, input_set: int) -> list[Question]:
    _write_workload(work, input_set, 240, 100_000)
    wl = ("--workload", "workload.json")
    return [
        Question("advise-min-latency",
                 ("advise", *wl, "--objective", "min-latency"),
                 ((STDOUT, True),)),
        Question("advise-max-throughput",
                 ("advise", *wl, "--objective", "max-throughput",
                  "--out", "advise.json"),
                 ((STDOUT, False), ("advise.json", True))),
        Question("advise-throughput-per-resource",
                 ("advise", *wl, "--objective", "throughput-per-resource"),
                 ((STDOUT, True),)),
        Question("concurrency", ("concurrency", *wl), ((STDOUT, True),)),
        Question("eval",
                 ("eval", "--seed", str(input_set), "--n-queries", "240",
                  "--samples-out", "samples.csv"),
                 ((STDOUT, True), ("samples.csv", False))),
    ]


def dispatch_1m(work: Path, input_set: int) -> list[Question]:
    _write_workload(work, input_set, 8, 1_000_000)
    wl = ("concurrency", "--workload", "workload.json")
    return [
        Question("round-robin", wl, ((STDOUT, True),)),
        Question("least-loaded", (*wl, "--least-loaded"), ((STDOUT, True),)),
        Question("catalog-least-loaded",
                 (*wl, "--mig", "4g.20gb+1g.5gb*3", "--doc", "4",
                  "--least-loaded"),
                 ((STDOUT, True),)),
        Question("trace",
                 (*wl, "--trace", "trace.csv", "--out", "report.json"),
                 ((STDOUT, False), ("trace.csv", False),
                  ("report.json", True))),
    ]


# Columns of a profiler export that roofcast does not read.
EXTRA_COLUMNS = (
    "ID", "Process ID", "Process Name", "Host Name", "Context", "Stream",
    "Device", "CC", "Block Size", "Grid Size", "Section Name",
    "launch__registers_per_thread", "launch__shared_mem_per_block_static",
    "launch__grid_size", "launch__block_size",
    "launch__occupancy_limit_registers",
    "sm__throughput.avg.pct_of_peak_sustained_elapsed",
    "sm__warps_active.avg.pct_of_peak_sustained_active",
    "l1tex__t_sector_hit_rate.pct", "lts__t_sector_hit_rate.pct",
    "dram__throughput.avg.pct_of_peak_sustained_elapsed",
    "gpu__compute_memory_throughput.avg.pct_of_peak_sustained_elapsed",
    "smsp__cycles_active.avg", "sm__inst_executed.sum",
)

KERNEL_NAMES = (
    "void scan_kernel<int, 128>(int const*, int*, unsigned long)",
    "build_hashtable", "probe_hashtable", "reduce_sum<long>",
    "radix_sort_pairs", "gather_columns", "filter_predicate",
    "void group_by_agg<8>(long*, int const*)",
)

# (kernel count, layout) of each export: tens up to 20k kernels, CSV and
# JSON, one CSV giving integer ops per cycle plus the elapsed cycles. The
# list is fixed so every input set does the same amount of work.
EXPORTS = ((20_000, "csv"), (3_000, "json"), (1_200, "csv-per-cycle"),
           (40, "json"))

ALLOCATIONS = ("0.5,0.5,0.5,0.5", "0.25,0.5,0.375,0.5", "0.75,0.25,0.5,0.25",
               "0.125,0.125,0.125,0.125")

PEAK_DRAM_BPS = 1.555e12
PEAK_OPS = 1.8247e13
CLOCK_HZ = 1.41e9


def _extra_value(rng: random.Random, column: str, row: int):
    if column == "ID":
        return row
    if column in ("Block Size", "Grid Size"):
        return f"({rng.choice((64, 128, 256, 512))}, 1, 1)"
    if column in ("Process Name", "Host Name", "Section Name", "Device"):
        return rng.choice(("heavydb", "node-7", "SpeedOfLight", "A100-SXM4-40GB"))
    if column.endswith(".pct"):
        return round(rng.uniform(0, 100), 2)
    return rng.randint(0, 1 << 20)


def _write_export(path: Path, rng: random.Random, n_kernels: int,
                  layout: str) -> None:
    ops_column = ("smsp__sass_thread_inst_executed_op_integer_pred_on.sum"
                  + (".per_cycle_elapsed" if layout == "csv-per-cycle" else ""))
    columns = ["Kernel Name", "gpu__time_duration.sum", "dram__bytes.sum",
               "lts__t_requests_srcunit_tex_op_read.sum", ops_column,
               *EXTRA_COLUMNS]
    if layout == "csv-per-cycle":
        columns.append("gpc__cycles_elapsed.max")
    rng.shuffle(columns)
    rows = []
    for i in range(n_kernels):
        duration_ns = round(10 ** rng.uniform(3.0, 6.3))
        seconds = duration_ns / 1e9
        dram = int(seconds * PEAK_DRAM_BPS * rng.uniform(0.02, 0.9))
        ops = int(seconds * PEAK_OPS * rng.uniform(0.01, 0.6))
        cycles = max(1, round(seconds * CLOCK_HZ))
        row = {
            "Kernel Name": rng.choice(KERNEL_NAMES),
            "gpu__time_duration.sum": duration_ns,
            "dram__bytes.sum": dram,
            "lts__t_requests_srcunit_tex_op_read.sum":
                int(dram / 128 * rng.uniform(1.0, 4.0)) + 1,
            ops_column: ops / cycles if layout == "csv-per-cycle" else ops,
            "gpc__cycles_elapsed.max": cycles,
        }
        for column in EXTRA_COLUMNS:
            row[column] = _extra_value(rng, column, i)
        rows.append([row[c] for c in columns])
    if layout == "json":
        docs = [dict(zip(columns, values)) for values in rows]
        path.write_text(json.dumps(docs), encoding="utf-8")
        return
    with path.open("w", encoding="utf-8", newline="") as sink:
        writer = csv.writer(sink)
        writer.writerow(columns)
        writer.writerows(rows)


def ingest_wide(work: Path, input_set: int) -> list[Question]:
    rng = random.Random(f"ingest-wide-{input_set}")
    questions = []
    for i, (n_kernels, layout) in enumerate(EXPORTS):
        export = f"export{i}.{'json' if layout == 'json' else 'csv'}"
        _write_export(work / export, rng, n_kernels, layout)
        profile = f"profile{i}.json"
        ingest = ("ingest", "--input", export,
                  "--query-id", f"wide{input_set}-{i}",
                  "--system", rng.choice(("heavydb", "crystal", "blazingsql")),
                  "--scale-factor", str(rng.choice((1, 2, 4, 8, 16))),
                  "--cpu-overhead", f"{rng.uniform(0.001, 0.05):.5f}",
                  "--dram-utilization", f"{rng.uniform(0.1, 0.95):.3f}",
                  "--l1-hit-rate", f"{rng.uniform(0.5, 0.99):.3f}",
                  "--l2-hit-rate", f"{rng.uniform(0.5, 0.99):.3f}",
                  "--out", profile)
        level = ("dram", "l2")[i % 2]
        questions += [
            Question(f"ingest-{i}", ingest, ((STDOUT, False), (profile, False))),
            Question(f"roofline-{i}",
                     ("roofline", "--profile", profile, "--level", level,
                      "--plot", f"plot{i}.csv"),
                     ((STDOUT, True), (f"plot{i}.csv", False))),
            Question(f"predict-curve-{i}",
                     ("predict", "--profile", profile, "--mig", "1g.5gb",
                      "--curve", f"curve{i}.csv"),
                     ((STDOUT, True), (f"curve{i}.csv", False))),
            Question(f"predict-table-{i}",
                     ("predict", "--profile", profile,
                      "--alloc", rng.choice(ALLOCATIONS), "--table"),
                     ((STDOUT, False),)),
        ]
    return questions


WORKLOADS = {
    "plan-240": plan_240,
    "dispatch-1m": dispatch_1m,
    "ingest-wide": ingest_wide,
}
