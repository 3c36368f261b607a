"""End-to-end execution time and throughput across concurrent GPU instances.

A process's per-query time layers CPU-side overheads on top of the scaled
GPU time; setup and host-to-device transfer are one-time costs. Concurrent
processes finish when the longest one does. Workload throughput comes in
two independent flavors: a closed-form estimate from per-instance service
rates, and a seeded discrete-event simulation of a randomized dispatcher.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

from .core import (
    SUM_EPS,
    HardwareSpec,
    PartitionConfig,
    PartitionInstance,
    ResourceAllocation,
    allocation_of,
    fraction_sums,
)
from .errors import InfeasibleAllocationWarning, SchemaError, ValidationError
from .ingest import QueryProfile, aggregate, profile_from_dict, read_profile_json
from .scaling import slowdown_unified

WORKLOAD_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ProcessPlan:
    """What one GPU process runs: a query, its slice, and repetition count."""

    profile: QueryProfile
    allocation: ResourceAllocation
    include_cold_costs: bool = False
    repetitions: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValidationError(
                f"repetitions must be >= 1, got {self.repetitions}")


@dataclass(frozen=True)
class WorkloadSpec:
    """A weighted query mix dispatched at a fixed degree of concurrency."""

    queries: tuple[tuple[QueryProfile, float], ...]
    doc: int
    dispatch_count: int
    seed: int

    def __post_init__(self):
        if not self.queries:
            raise ValidationError("workload needs at least one query")
        for i, (_, w) in enumerate(self.queries):
            if not (math.isfinite(w) and w > 0):
                raise ValidationError(
                    f"queries[{i}].weight must be finite and > 0, got {w}")
        if self.doc < 1:
            raise ValidationError(
                f"doc (degree of concurrency) must be >= 1, got {self.doc}")
        if self.dispatch_count < 1:
            raise ValidationError(
                f"dispatch_count must be >= 1, got {self.dispatch_count}")
        total = sum(w for _, w in self.queries)
        object.__setattr__(
            self, "queries",
            tuple((p, w / total) for p, w in self.queries))


def warm_query_time(profile: QueryProfile, hw: HardwareSpec,
                    alloc: ResourceAllocation) -> float:
    """Per-invocation end-to-end time: scaled GPU time plus CPU overhead."""
    metrics = aggregate(profile, hw)
    prediction = slowdown_unified(metrics, metrics.total_duration, hw, alloc)
    return prediction.predicted_time + profile.cpu_overhead


def cold_costs(profile: QueryProfile, hw: HardwareSpec) -> float:
    """One-time setup plus host-to-device transfer; the link is unpartitioned."""
    return profile.setup_overhead + profile.transfer_in_bytes / hw.host_link_bw


def exec_time_process(plan: ProcessPlan, hw: HardwareSpec) -> float:
    """Total time for one process to run its repetitions."""
    per_rep = warm_query_time(plan.profile, hw, plan.allocation)
    one_time = cold_costs(plan.profile, hw) if plan.include_cold_costs else 0.0
    return one_time + plan.repetitions * per_rep


def exec_time_concurrent(plans: Sequence[ProcessPlan], hw: HardwareSpec) -> float:
    """End-to-end time of concurrent processes: the longest one decides."""
    if not plans:
        raise ValidationError("exec_time_concurrent needs at least one plan")
    sums = fraction_sums([p.allocation for p in plans])
    over = {k: v for k, v in sums.items() if v > 1.0 + SUM_EPS}
    if over:
        warnings.warn(
            f"concurrent plans oversubscribe the GPU: {over}",
            InfeasibleAllocationWarning, stacklevel=2)
    return max(exec_time_process(p, hw) for p in plans)


# ---------------------------------------------------------------------------
# Throughput
# ---------------------------------------------------------------------------


def instance_times(w: WorkloadSpec, hw: HardwareSpec,
                   config: PartitionConfig) -> list[list[float]]:
    """Warm per-query time on each instance: one row per instance, in
    instance order, one column per query, in query order.

    The estimator, the simulator and the advisor all read this one table.
    """
    if len(config.instances) != w.doc:
        raise ValidationError(
            f"config {config.name!r} has {len(config.instances)} instances "
            f"but workload degree of concurrency is {w.doc}")
    table = []
    for inst in config.instances:
        alloc = allocation_of(inst)
        table.append([warm_query_time(profile, hw, alloc)
                      for profile, _ in w.queries])
    return table


def instance_means(w: WorkloadSpec, table: list[list[float]]) -> list[float]:
    """Weighted mean warm per-query time of each row of an instance table."""
    return [sum(weight * t for (_, weight), t in zip(w.queries, row))
            for row in table]


def estimate_qps(w: WorkloadSpec, hw: HardwareSpec,
                 config: PartitionConfig) -> float:
    """Closed-form throughput: per-instance service rates summed.

    Each instance is a sequential server in steady state, so its rate is
    the reciprocal of its mean per-query time; cold costs amortize away.
    """
    means = instance_means(w, instance_times(w, hw, config))
    return sum(1.0 / mean for mean in means)


def simulate_dispatch(w: WorkloadSpec, hw: HardwareSpec,
                      config: PartitionConfig,
                      least_loaded: bool = False,
                      trace_sink: IO[bytes] | None = None) -> float:
    """Discrete-event dispatch simulation; the independent throughput oracle.

    Draws dispatch_count queries by weight with a seeded generator and
    assigns them round-robin (or least-loaded, for sensitivity checks) to
    instances; each instance serves its queue sequentially with the same
    per-query times the estimator uses. Returns dispatch_count / makespan.
    Identical (workload, seed, config) inputs give identical results.
    """
    per_instance_times = instance_times(w, hw, config)
    rng = random.Random(w.seed)
    weights = [weight for _, weight in w.queries]
    choices = rng.choices(range(len(w.queries)), weights=weights,
                          k=w.dispatch_count)
    busy_until = [0.0] * w.doc
    trace_rows: list[tuple[int, str, float, float]] = []
    for j, query_idx in enumerate(choices):
        if least_loaded:
            instance = min(range(w.doc), key=lambda i: (busy_until[i], i))
        else:
            instance = j % w.doc
        start = busy_until[instance]
        end = start + per_instance_times[instance][query_idx]
        busy_until[instance] = end
        if trace_sink is not None:
            trace_rows.append(
                (instance, w.queries[query_idx][0].query_id, start, end))
    makespan = max(busy_until)
    if trace_sink is not None:
        lines = ["instance,query_id,start,end"]
        lines.extend(f"{i},{qid},{start:.12g},{end:.12g}"
                     for i, qid, start, end in trace_rows)
        trace_sink.write(("\n".join(lines) + "\n").encode("utf-8"))
    return w.dispatch_count / makespan


def equal_split_config(doc: int, mps: bool = False) -> PartitionConfig:
    """An idealized uniform carving into `doc` instances of 1/doc each.

    With mps=True only compute is split; L2 and DRAM stay shared at full
    bandwidth (interference on the shared caches is not modeled).
    """
    if doc < 1:
        raise ValidationError(f"doc must be >= 1, got {doc}")
    fraction = 1.0 / doc
    mem = 1.0 if mps else fraction
    mode = "mps" if mps else "mig"
    instances = tuple(
        PartitionInstance(
            name=f"{mode}-split-{doc}",
            compute_fraction=fraction,
            dram_bw_fraction=mem,
            l2_bw_fraction=mem,
            mem_capacity_fraction=mem,
        )
        for _ in range(doc))
    return PartitionConfig(name=f"{mode}-equal-{doc}", instances=instances,
                           shared_memory=mps)


# ---------------------------------------------------------------------------
# Workload JSON document
# ---------------------------------------------------------------------------

_WORKLOAD_KEYS = {"schema_version", "queries", "doc", "dispatch_count", "seed"}


def _coerce(value, cast, field: str):
    """cast(value), with a type or parse error reported against the field."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(
            f"workload document: {field} must be a number, got {value!r}"
        ) from None


def workload_from_dict(doc: Mapping, base_dir: Path | None = None) -> WorkloadSpec:
    """Build a WorkloadSpec; query profiles may be inline or file paths."""
    if not isinstance(doc, Mapping):
        raise SchemaError("workload document must be a mapping")
    unknown = set(doc) - _WORKLOAD_KEYS
    if unknown:
        raise SchemaError(f"workload document: unknown keys {sorted(unknown)}")
    missing = {"schema_version", "queries", "doc"} - set(doc)
    if missing:
        raise SchemaError(f"workload document: missing keys {sorted(missing)}")
    if doc["schema_version"] != WORKLOAD_SCHEMA_VERSION:
        raise SchemaError(
            f"workload document: unsupported schema_version "
            f"{doc['schema_version']!r}")
    if not isinstance(doc["queries"], list):
        raise SchemaError("workload document: queries must be a list")
    queries = []
    for i, entry in enumerate(doc["queries"]):
        if not isinstance(entry, Mapping):
            raise SchemaError(f"queries[{i}] must be a mapping")
        unknown = set(entry) - {"profile", "weight"}
        if unknown:
            raise SchemaError(f"queries[{i}]: unknown keys {sorted(unknown)}")
        raw_profile = entry.get("profile")
        if isinstance(raw_profile, str):
            path = Path(raw_profile)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            profile = read_profile_json(path.read_text(encoding="utf-8"))
        elif isinstance(raw_profile, Mapping):
            profile = profile_from_dict(raw_profile)
        else:
            raise SchemaError(
                f"queries[{i}].profile must be a path or an inline profile")
        weight = _coerce(entry.get("weight", 1.0), float, f"queries[{i}].weight")
        queries.append((profile, weight))
    return WorkloadSpec(
        queries=tuple(queries),
        doc=_coerce(doc["doc"], int, "doc"),
        dispatch_count=_coerce(doc.get("dispatch_count", 1000), int,
                               "dispatch_count"),
        seed=_coerce(doc.get("seed", 0), int, "seed"),
    )


def load_workload(path: str | Path) -> WorkloadSpec:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid workload JSON: {exc}") from exc
    return workload_from_dict(doc, base_dir=path.parent)
