#!/usr/bin/env python3
"""Throughput vs degree-of-concurrency sweep on synthetic workloads.

Builds two contrasting single-query workloads (CPU-overhead-dominated and
fully memory-saturated), splits the GPU evenly at each degree of
concurrency, and prints estimated and simulated QPS with speedups over the
single-instance run. --mps keeps memory shared and splits compute only.
"""

import argparse
import sys

from roofcast.concurrency import (
    WorkloadSpec,
    equal_split_config,
    estimate_qps,
    instance_times,
    simulate_dispatch,
)
from roofcast.core import default_hardware_spec, load_hardware_spec
from roofcast.ingest import KernelRecord, QueryProfile


def synthetic_profile(hw, name, util_dram, gpu_time, cpu_overhead):
    kernel = KernelRecord(
        kernel_name=f"{name}-k0",
        duration=gpu_time,
        dram_bytes=int(util_dram * hw.peak_dram_bw * gpu_time),
        l2_requests=int(0.3 * hw.peak_l2_bw * gpu_time / hw.l2_request_bytes),
        int_ops=int(0.05 * hw.peak_compute_bw * gpu_time),
    )
    return QueryProfile(query_id=name, system="synthetic", scale_factor=1.0,
                        kernels=(kernel,), cpu_overhead=cpu_overhead)


def sweep(hw, profile, docs, dispatch_count, seed, mps):
    base = None
    print(f"\nworkload: {profile.query_id}")
    print(f"{'doc':>3} {'est_qps':>10} {'sim_qps':>10} {'speedup':>8}")
    for doc in docs:
        w = WorkloadSpec(queries=((profile, 1.0),), doc=doc,
                         dispatch_count=dispatch_count, seed=seed)
        table = instance_times(w, hw, equal_split_config(doc, mps=mps))
        est = estimate_qps(w, table)
        sim = simulate_dispatch(w, table)
        if base is None:
            base = est
        print(f"{doc:>3} {est:>10.3f} {sim:>10.3f} {est / base:>7.2f}x")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", default="1,2,3,7",
                        help="comma-separated degrees of concurrency")
    parser.add_argument("--dispatch-count", type=int, default=840)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mps", action="store_true",
                        help="share memory, split compute only")
    parser.add_argument("--hw",
                        help="hardware spec JSON (default: bundled A100)")
    args = parser.parse_args()

    hw = load_hardware_spec(args.hw) if args.hw else default_hardware_spec()
    docs = [int(d) for d in args.docs.split(",")]

    overheady = synthetic_profile(hw, "overhead-dominated", util_dram=0.2,
                                  gpu_time=0.002, cpu_overhead=0.1)
    saturated = synthetic_profile(hw, "memory-saturated", util_dram=1.0,
                                  gpu_time=0.05, cpu_overhead=0.0)
    sweep(hw, overheady, docs, args.dispatch_count, args.seed, args.mps)
    sweep(hw, saturated, docs, args.dispatch_count, args.seed, args.mps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
