"""End-to-end execution time and throughput across concurrent GPU instances.

A query's warm time is its scaled GPU time plus its per-query CPU
overhead. Each instance serves its queries back to back, so a run's
makespan is the busy time of the busiest instance. Workload throughput
comes in two independent flavors: a closed-form estimate from per-instance
service rates, and a seeded discrete-event simulation of a randomized
dispatcher.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from heapq import heapreplace
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping

from .core import (
    HardwareSpec,
    PartitionConfig,
    PartitionInstance,
    ResourceAllocation,
)
from .errors import (
    SchemaError,
    ValidationError,
    check_keys,
    coerce,
    open_input,
    parse_json,
    utf8_text,
)
from .ingest import (
    AggregateMetrics,
    QueryProfile,
    aggregate,
    load_profile,
    profile_from_dict,
)
from .scaling import slowdown_unified

WORKLOAD_SCHEMA_VERSION = 1


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
    return _warm_time(profile, aggregate(profile, hw), hw, alloc)


def _warm_time(profile: QueryProfile, metrics: AggregateMetrics,
               hw: HardwareSpec, alloc: ResourceAllocation) -> float:
    """warm_query_time of a profile whose aggregate is already known."""
    prediction = slowdown_unified(metrics, metrics.total_duration, hw, alloc)
    return prediction.predicted_time + profile.cpu_overhead


# ---------------------------------------------------------------------------
# Throughput
# ---------------------------------------------------------------------------


def allocation_times(w: WorkloadSpec, hw: HardwareSpec,
                     allocations: Iterable[ResourceAllocation]
                     ) -> dict[ResourceAllocation, list[float]]:
    """Warm per-query time under each distinct allocation: one row per
    allocation, in first-seen order, one column per query, in query order.

    Each profile is aggregated once and predicted once per allocation;
    only one aggregate is alive at a time. The table is keyed on
    allocations (four floats each), never on profiles, whose kernel tuples
    are slow to hash. The estimator, the simulator and the advisor all
    read this one table.
    """
    table = {alloc: [] for alloc in allocations}
    for profile, _ in w.queries:
        metrics = aggregate(profile, hw)
        for alloc, row in table.items():
            row.append(_warm_time(profile, metrics, hw, alloc))
    return table


def instance_times(w: WorkloadSpec, hw: HardwareSpec,
                   config: PartitionConfig) -> list[list[float]]:
    """Warm per-query time on each instance: its allocation's row of
    allocation_times, in instance order.

    Instances with the same allocation share one row; rows are read-only.
    """
    if len(config.instances) != w.doc:
        raise ValidationError(
            f"config {config.name!r} has {len(config.instances)} instances "
            f"but workload degree of concurrency is {w.doc}")
    allocations = [inst.allocation for inst in config.instances]
    table = allocation_times(w, hw, allocations)
    return [table[alloc] for alloc in allocations]


def instance_means(w: WorkloadSpec, table: list[list[float]]) -> list[float]:
    """Weighted mean warm per-query time of each row of a warm-time table."""
    return [sum(weight * t for (_, weight), t in zip(w.queries, row))
            for row in table]


def estimate_qps(w: WorkloadSpec, table: list[list[float]]) -> float:
    """Closed-form throughput of an instance_times table: rates summed.

    Each instance is a sequential server in steady state, so its rate is
    the reciprocal of its mean per-query time; cold costs amortize away.
    """
    return sum(1.0 / mean for mean in instance_means(w, table))


def simulate_dispatch(w: WorkloadSpec, table: list[list[float]],
                      least_loaded: bool = False,
                      trace_sink: IO[bytes] | None = None) -> float:
    """Discrete-event dispatch simulation; the independent throughput oracle.

    Draws dispatch_count queries by weight with a seeded generator and
    assigns them round-robin (or least-loaded, for sensitivity checks) to
    the instances of an instance_times table, the one the estimator reads;
    each serves its queue sequentially. Returns dispatch_count / makespan.
    Identical (workload, seed, table) inputs give identical results.

    The draw streams in bounded chunks, each drawn as it is simulated, so
    memory does not grow with dispatch_count. The chunks continue one
    random stream: joined, they are the one list that a single draw of
    dispatch_count would give.
    """
    rng = random.Random(w.seed)
    population = range(len(w.queries))
    cum_weights = list(accumulate(weight for _, weight in w.queries))
    doc, n = len(table), w.dispatch_count
    step = doc * max(1, _CHUNK // doc)
    chunks = (rng.choices(population, cum_weights=cum_weights,
                          k=min(step, n - lo))
              for lo in range(0, n, step))
    heads = None
    if trace_sink is not None:
        trace_sink.write(b"instance,query_id,start,end\n")
        # heads[i][q] is the "instance,query_id," start of a trace row.
        heads = [[f"{i},{profile.query_id}," for profile, _ in w.queries]
                 for i in range(doc)]
    dispatch = _least_loaded if least_loaded else _round_robin
    return n / dispatch(table, chunks, heads, trace_sink)


# Dispatches are drawn, simulated and traced this many at a time (rounded
# down to a multiple of the instance count), trace rows in dispatch order.
# The text of an end time is reused as the start of the next dispatch on
# the same instance, which is the same float ("0" for the first).
_CHUNK = 1 << 13


def _write_rows(sink: IO[bytes], lines: list[str]) -> None:
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))


def _least_loaded(table: list[list[float]], chunks: Iterable[list[int]],
                  heads: list[list[str]] | None,
                  sink: IO[bytes] | None) -> float:
    """Send each dispatch to the instance that frees up first, the lowest
    index on ties; return the makespan. With a sink, write one trace row
    per dispatch, a chunk at a time."""
    heap = [(0.0, i) for i in range(len(table))]
    marks = ["0"] * len(table)
    for chunk in chunks:
        lines = []
        for q in chunk:
            start, i = heap[0]
            end = start + table[i][q]
            heapreplace(heap, (end, i))
            if sink is not None:
                mark = f"{end:.12g}"
                lines.append(f"{heads[i][q]}{marks[i]},{mark}")
                marks[i] = mark
        if lines:
            _write_rows(sink, lines)
    return max(heap)[0]


def _round_robin(table: list[list[float]], chunks: Iterable[list[int]],
                 heads: list[list[str]] | None,
                 sink: IO[bytes] | None) -> float:
    """Instance i serves dispatches i, i + doc, ... back to back; return
    the makespan.

    Every chunk but the last holds a multiple of doc dispatches, so
    instance i's share of each is chunk[i::doc], summed left to right with
    accumulate. With a sink, its trace rows are then interleaved back into
    dispatch order.
    """
    doc = len(table)
    busy_until = [0.0] * doc
    for chunk in chunks:
        lines = None if sink is None else [""] * len(chunk)
        for i, row in enumerate(table):
            mine = chunk[i::doc]
            # The instance's busy-until time, then the end of each of its
            # dispatches in this chunk (each the start of the next one).
            ends = accumulate(map(row.__getitem__, mine), add,
                              initial=busy_until[i])
            if lines is None:
                busy_until[i] = deque(ends, maxlen=1)[0]
            else:
                times = list(ends)
                busy_until[i] = times[-1]
                texts = [f"{t:.12g}" for t in times]
                head = heads[i]
                lines[i::doc] = [f"{head[q]}{start},{end}" for q, start, end
                                 in zip(mine, texts, texts[1:])]
        if lines is not None:
            _write_rows(sink, lines)
    return max(busy_until)


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
    instance = PartitionInstance(
        f"{mode}-split-{doc}", ResourceAllocation(fraction, mem, mem, mem))
    return PartitionConfig(name=f"{mode}-equal-{doc}",
                           instances=(instance,) * doc, shared_memory=mps)


# ---------------------------------------------------------------------------
# Workload JSON document
# ---------------------------------------------------------------------------

_WORKLOAD_REQUIRED = {"schema_version", "queries", "doc"}
_WORKLOAD_OPTIONAL = {"dispatch_count", "seed"}


def workload_from_dict(doc: Mapping, base_dir: Path | None = None,
                       opener: Callable[[Path], IO[bytes]] = open_input
                       ) -> WorkloadSpec:
    """Build a WorkloadSpec; query profiles may be inline or file paths.

    Profile files are opened with opener, relative paths from base_dir.
    """
    check_keys(doc, "workload document", _WORKLOAD_REQUIRED,
               _WORKLOAD_OPTIONAL, WORKLOAD_SCHEMA_VERSION)
    if not isinstance(doc["queries"], list):
        raise SchemaError("workload document: queries must be a list")
    queries = []
    for i, entry in enumerate(doc["queries"]):
        check_keys(entry, f"queries[{i}]", {"profile"}, {"weight"})
        raw_profile = entry["profile"]
        if isinstance(raw_profile, str):
            path = Path(raw_profile)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            profile = load_profile(path, opener)
        elif isinstance(raw_profile, Mapping):
            profile = profile_from_dict(raw_profile)
        else:
            raise SchemaError(
                f"queries[{i}].profile must be a path or an inline profile")
        weight = coerce(entry.get("weight", 1.0), float,
                        f"workload document: queries[{i}].weight")
        queries.append((profile, weight))
    return WorkloadSpec(
        queries=tuple(queries),
        doc=coerce(doc["doc"], int, "workload document: doc"),
        dispatch_count=coerce(doc.get("dispatch_count", 1000), int,
                              "workload document: dispatch_count"),
        seed=coerce(doc.get("seed", 0), int, "workload document: seed"),
    )


def load_workload(path: str | Path,
                  opener: Callable[[Path], IO[bytes]] = open_input
                  ) -> WorkloadSpec:
    """Load a workload document and the profile files it names, each file
    opened with opener."""
    path = Path(path)
    with opener(path) as stream:
        data = stream.read()
    doc = parse_json(utf8_text(data, path), path, "workload JSON")
    return workload_from_dict(doc, base_dir=path.parent, opener=opener)
