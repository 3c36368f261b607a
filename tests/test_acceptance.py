"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line on success (run with -s or check the
captured output)."""

import io
import json
import random
import time
from pathlib import Path

from roofcast.cli import main
from roofcast.concurrency import (
    WorkloadSpec,
    equal_split_config,
    estimate_qps,
    instance_times,
    simulate_dispatch,
    warm_query_time,
)
from roofcast.core import (
    ResourceAllocation,
    default_hardware_spec,
    full_allocation,
)
from roofcast.ingest import (
    QueryProfile,
    aggregate,
    parse_counter_file,
    profile_to_dict,
    read_profile_json,
    serialize_kernels_csv,
    write_profile_json,
)
from roofcast.roofline import BoundKind, MemLevel, build_ceilings, classify
from roofcast.scaling import slowdown_mem, slowdown_unified
from roofcast.advisor import enumerate_configs

from conftest import metrics_from_utils, profile_from_utils

HW = default_hardware_spec()
GOLDEN = Path(__file__).parent / "data" / "golden_kernels.csv"


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def random_valid_metrics(rng: random.Random):
    return metrics_from_utils(
        HW,
        util_compute=rng.uniform(0.01, 0.99),
        util_dram=rng.uniform(0.01, 0.99),
        util_l2=rng.uniform(0.01, 0.99),
        t0=rng.uniform(1e-3, 1.0),
    )


def test_criterion_3_slowdown_identity_monotonicity_composition():
    rng = random.Random(3)
    start = time.perf_counter()
    for _ in range(10_000):
        m = random_valid_metrics(rng)
        t0 = m.total_duration

        identity = slowdown_unified(m, t0, HW, full_allocation())
        assert identity.slowdown == 1.0

        # offsets ascend with the base fractions so every coordinate of the
        # allocation chain is nondecreasing
        chain = sorted(rng.uniform(0.05, 1.0) for _ in range(3))
        offsets = sorted(rng.uniform(0.0, 0.2) for _ in range(3))
        previous = None
        for f, off in zip(chain, offsets):
            alloc = ResourceAllocation(
                f, min(1.0, f + off), min(1.0, f + off / 2), f)
            predicted = slowdown_unified(m, t0, HW, alloc).predicted_time
            if previous is not None:
                assert predicted <= previous
            previous = predicted

        if classify(m, HW) is not BoundKind.COMPUTE_BOUND:
            fd, fl = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
            alloc = ResourceAllocation(1.0, fd, fl, 1.0)
            unified = slowdown_unified(m, t0, HW, alloc)
            sd_dram = slowdown_mem(m, t0, MemLevel.DRAM, HW.peak_dram_bw * fd)
            sd_l2 = slowdown_mem(m, t0, MemLevel.L2, HW.peak_l2_bw * fl)
            assert unified.slowdown == max(sd_dram, sd_l2)
            assert unified.slowdown >= sd_dram
            assert unified.slowdown >= sd_l2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"10,000 randomized metrics: identity exact, predicted time "
              f"monotone along increasing chains, memory branch equals max of "
              f"components; suite ran in {elapsed:.2f}s")


def test_criterion_4_compute_branch_ratio_and_memory_independence():
    m = metrics_from_utils(HW, 0.6, 0.25, 0.3)
    assert m.ai_dram > HW.peak_compute_bw / HW.peak_dram_bw
    assert classify(m, HW) is BoundKind.COMPUTE_BOUND
    t0 = m.total_duration

    half = slowdown_unified(m, t0, HW, ResourceAllocation(0.5, 1.0, 1.0, 1.0))
    assert half.slowdown == 2.0

    for mem in (0.1, 0.125, 0.5, 1.0):
        other = slowdown_unified(
            m, t0, HW, ResourceAllocation(0.5, mem, mem, mem))
        assert other.slowdown == 2.0
        assert other.predicted_time == half.predicted_time
    report(4, "compute-bound profile at half compute slows exactly 2.0x and "
              "ignores memory fractions")


def test_criterion_5_ceiling_constants_and_catalog():
    l2 = build_ceilings(HW, full_allocation(), MemLevel.L2)
    assert l2.mem_bw == 7050e9
    assert l2.compute_bw == 18247e9
    half = build_ceilings(HW, ResourceAllocation(0.5, 1.0, 1.0, 1.0), MemLevel.L2)
    assert half.compute_bw == 9123.5e9

    configs = enumerate_configs(HW)
    assert len(configs) == 18
    assert max(len(c.instances) for c in configs) == 7
    report(5, "A100 spec exposes 7050 GB/s L2 and 18247 Gops/s compute "
              "ceilings (9123.5 at half compute); catalog has 18 configs, "
              "max 7 instances")


def test_criterion_6_concurrency_composition_and_simulator_agreement():
    rng = random.Random(6)
    profiles = [
        profile_from_utils(
            HW, util_compute=rng.uniform(0.05, 0.5),
            util_dram=rng.uniform(0.1, 0.95), util_l2=rng.uniform(0.1, 0.95),
            t0=rng.uniform(0.02, 0.1), query_id=f"mix{i}",
            cpu_overhead=rng.uniform(0.002, 0.02))
        for i in range(13)
    ]

    # Max composition: the makespan is the busy time of the busiest
    # instance. Busy times are rebuilt from the trace alone: each row adds
    # warm_query_time of its query on its instance, in dispatch order.
    configs = [*HW.mig_catalog, *(equal_split_config(k) for k in range(1, 8)),
               *(equal_split_config(k, mps=True) for k in range(2, 8))]
    by_doc = {k: [c for c in configs if len(c.instances) == k]
              for k in range(1, 8)}
    by_id = {p.query_id: p for p in profiles}
    warm = {}
    for _ in range(1000):
        config = rng.choice(by_doc[rng.randint(1, 7)])
        allocs = [inst.allocation for inst in config.instances]
        chosen = rng.sample(range(len(profiles)), rng.randint(1, 5))
        w = WorkloadSpec(
            queries=tuple((profiles[q], rng.uniform(0.1, 3.0)) for q in chosen),
            doc=len(allocs), dispatch_count=rng.randint(1, 200),
            seed=rng.randrange(1 << 30))
        table = instance_times(w, HW, config)
        for least_loaded in (False, True):
            sink = io.BytesIO()
            traced = simulate_dispatch(w, table, least_loaded, sink)
            busy = [0.0] * w.doc
            for row in sink.getvalue().decode().splitlines()[1:]:
                i, query_id = row.split(",")[:2]
                i = int(i)
                key = (query_id, allocs[i])
                if key not in warm:
                    warm[key] = warm_query_time(by_id[query_id], HW, allocs[i])
                busy[i] += warm[key]
            expected = w.dispatch_count / max(busy)
            assert traced == expected
            assert simulate_dispatch(w, table, least_loaded) == expected

    # Homogeneous: dispatch count divisible by every tested DoC, so the
    # round-robin split is exact and simulation equals the analytic rate.
    homogeneous = tuple([(profiles[0], 1.0)])
    for doc in (1, 2, 3, 7):
        w = WorkloadSpec(queries=homogeneous, doc=doc, dispatch_count=840,
                         seed=6)
        config = equal_split_config(doc)
        table = instance_times(w, HW, config)
        est = estimate_qps(w, table)
        sim = simulate_dispatch(w, table)
        assert abs(sim - est) / est < 1e-9

    # Heterogeneous: tolerance frozen at 0.10 from the oracle sweep (worst
    # observed gap 0.0965 across 30 seeds x DoC {2,3,7} at dispatch 1000).
    queries = tuple((p, rng.uniform(0.5, 2.0)) for p in profiles)
    worst = 0.0
    for doc in (2, 3, 7):
        w = WorkloadSpec(queries=queries, doc=doc, dispatch_count=1000, seed=6)
        config = equal_split_config(doc)
        table = instance_times(w, HW, config)
        est = estimate_qps(w, table)
        sim = simulate_dispatch(w, table)
        worst = max(worst, abs(sim - est) / est)
    assert worst <= 0.10
    report(6, f"1000 random workloads x 2 dispatch policies: simulated "
              f"QPS is dispatch_count over the largest busy time; "
              f"homogeneous simulator matches the estimate to 1e-9; "
              f"heterogeneous gap {worst:.3f} <= 0.10")


def test_criterion_7_roofline_beats_linear_baseline_on_synthetic_suite(tmp_path):
    out = tmp_path / "eval.json"
    assert main(["eval", "--seed", "7", "--n-queries", "240",
                 "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    rl, lin = body["roofline"], body["linear"]
    assert body["grid"] == [0.125, 0.25, 0.375, 0.5, 0.75]
    assert body["n_samples"] == 240 * 5
    assert rl["median_pct"] <= lin["median_pct"]
    report(7, f"240 synthetic queries x 5 allocations: roofline median error "
              f"{rl['median_pct']:.2f}% (p95 {rl['p95_pct']:.2f}%) vs linear "
              f"{lin['median_pct']:.2f}% (p95 {lin['p95_pct']:.2f}%)")


def test_criterion_8_throughput_trends_with_degree_of_concurrency():
    # Overhead-dominated mix: CPU cost 50x the GPU time, resources idle.
    overhead_heavy = profile_from_utils(
        HW, util_compute=0.05, util_dram=0.2, util_l2=0.15, t0=0.002,
        cpu_overhead=0.1, query_id="overheady")
    speedups = {}
    base = None
    for doc in (1, 2, 3, 7):
        w = WorkloadSpec(queries=((overhead_heavy, 1.0),), doc=doc,
                         dispatch_count=840, seed=8)
        qps = estimate_qps(w, instance_times(w, HW, equal_split_config(doc)))
        if doc == 1:
            base = qps
        speedups[doc] = qps / base
    assert speedups[1] == 1.0
    assert speedups[1] < speedups[2] < speedups[3] < speedups[7]
    assert 1.0 < speedups[7] <= 7.0

    # Fully saturated memory-bound workload: slices' slowdowns cancel the
    # added instances, so throughput stays within 10% of flat.
    saturated = profile_from_utils(
        HW, util_compute=0.05, util_dram=1.0, util_l2=0.3, t0=0.05,
        cpu_overhead=0.0, query_id="saturated")
    w1 = WorkloadSpec(queries=((saturated, 1.0),), doc=1, dispatch_count=840,
                      seed=8)
    base = estimate_qps(w1, instance_times(w1, HW, equal_split_config(1)))
    w7 = WorkloadSpec(queries=((saturated, 1.0),), doc=7, dispatch_count=840,
                      seed=8)
    flat = estimate_qps(w7, instance_times(w7, HW, equal_split_config(7))) / base
    assert abs(flat - 1.0) <= 0.10
    report(8, f"overhead-dominated speedups {speedups[2]:.2f}/"
              f"{speedups[3]:.2f}/{speedups[7]:.2f} strictly increase at "
              f"DoC 2/3/7; saturated workload speedup(7) = {flat:.4f}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    profile = profile_from_utils(HW, util_compute=0.1, util_dram=0.6,
                                 util_l2=0.4, t0=0.03, cpu_overhead=0.005,
                                 query_id="det")
    profile_path = tmp_path / "det.json"
    profile_path.write_text(json.dumps(profile_to_dict(profile)))
    workload_path = tmp_path / "workload.json"
    workload_path.write_text(json.dumps({
        "schema_version": 1, "doc": 7, "dispatch_count": 700, "seed": 7,
        "queries": [{"profile": "det.json", "weight": 1.0}],
    }))

    conc_args = ["concurrency", "--workload", str(workload_path),
                 "--doc", "7", "--seed", "7"]
    assert main(conc_args) == 0
    first = capsys.readouterr().out
    assert main(conc_args) == 0
    second = capsys.readouterr().out
    assert first.encode("utf-8") == second.encode("utf-8")

    advise_args = ["advise", "--workload", str(workload_path),
                   "--objective", "max-throughput"]
    assert main(advise_args) == 0
    first_advise = capsys.readouterr().out
    assert main(advise_args) == 0
    second_advise = capsys.readouterr().out
    assert first_advise.encode("utf-8") == second_advise.encode("utf-8")
    report(9, "concurrency and advise outputs are byte-identical across "
              "repeat runs with identical manifests")


def test_criterion_10_ingest_round_trip_and_l2_bytes(tmp_path):
    original = GOLDEN.read_text()
    with open(GOLDEN, "rb") as stream:
        records = parse_counter_file(stream, "csv")
    assert len(records) == 3

    text = write_profile_json(QueryProfile(
        query_id="golden", system="test", scale_factor=1.0,
        kernels=tuple(records)))
    profile = read_profile_json(io.BytesIO(text.encode()))
    assert serialize_kernels_csv(profile.kernels) == original

    metrics = aggregate(profile, HW)
    total_requests = sum(k.l2_requests for k in records)
    assert metrics.total_l2_bytes == total_requests * 128
    report(10, "canonical CSV -> profile JSON -> CSV is a byte-level fixed "
               "point; L2 bytes equal requests x 128 on the 3-kernel golden "
               "file")
