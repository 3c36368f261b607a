import io
import json
import random
import tracemalloc

import pytest

from roofcast.concurrency import (
    WorkloadSpec,
    equal_split_config,
    estimate_qps,
    instance_times,
    load_workload,
    simulate_dispatch,
    warm_query_time,
    workload_from_dict,
)
from roofcast.core import (
    ResourceAllocation,
    default_hardware_spec,
    full_allocation,
)
from roofcast.errors import SchemaError, ValidationError
from roofcast.ingest import profile_to_dict

from conftest import profile_from_utils

HW = default_hardware_spec()

UNDER_UTILIZED = dict(util_compute=0.1, util_dram=0.3, util_l2=0.2)
COMPUTE_BOUND = dict(util_compute=0.6, util_dram=0.25, util_l2=0.3)
SATURATED = dict(util_compute=0.1, util_dram=1.0, util_l2=0.4)


def test_warm_query_time_halved_compute_scales_only_gpu_term():
    profile = profile_from_utils(HW, **COMPUTE_BOUND, t0=0.05, cpu_overhead=0.01)
    half = ResourceAllocation(0.5, 1.0, 1.0, 1.0)
    assert warm_query_time(profile, HW, half) == \
        pytest.approx(0.05 * 2 + 0.01, rel=1e-9)


# ---------------------------------------------------------------------------
# Throughput
# ---------------------------------------------------------------------------


def make_workload(profiles_weights, doc=1, dispatch_count=840, seed=1):
    return WorkloadSpec(queries=tuple(profiles_weights), doc=doc,
                        dispatch_count=dispatch_count, seed=seed)


def test_qps_doc1_full_gpu_is_reciprocal_mean():
    profile = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.09, cpu_overhead=0.01)
    w = make_workload([(profile, 1.0)], doc=1)
    qps = estimate_qps(w, instance_times(w, HW, equal_split_config(1)))
    assert qps == 1.0 / warm_query_time(profile, HW, full_allocation())
    assert qps == pytest.approx(10.0, rel=1e-9)


def test_qps_under_utilized_doubles_with_two_slices():
    profile = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.05, cpu_overhead=0.005)
    w1 = make_workload([(profile, 1.0)], doc=1)
    base = estimate_qps(w1, instance_times(w1, HW, equal_split_config(1)))
    w2 = make_workload([(profile, 1.0)], doc=2)
    two = estimate_qps(w2, instance_times(w2, HW, equal_split_config(2)))
    # 30% DRAM utilization is untouched by a half slice: rates add exactly
    assert two == pytest.approx(2 * base, rel=1e-12)


def test_qps_saturated_memory_bound_flat_in_doc():
    profile = profile_from_utils(HW, **SATURATED, t0=0.05, cpu_overhead=0.0)
    w1 = make_workload([(profile, 1.0)], doc=1)
    base = estimate_qps(w1, instance_times(w1, HW, equal_split_config(1)))
    for doc in (2, 3, 7):
        w = make_workload([(profile, 1.0)], doc=doc)
        qps = estimate_qps(w, instance_times(w, HW, equal_split_config(doc)))
        assert qps == pytest.approx(base, rel=1e-9)


def test_qps_mismatched_doc_is_error():
    profile = profile_from_utils(HW, **UNDER_UTILIZED)
    w = make_workload([(profile, 1.0)], doc=3)
    with pytest.raises(ValidationError, match="instances"):
        instance_times(w, HW, equal_split_config(2))


def test_simulator_matches_estimate_on_homogeneous_workload():
    profile = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.03, cpu_overhead=0.004)
    for doc in (1, 2, 3, 7):
        w = make_workload([(profile, 1.0)], doc=doc, dispatch_count=840)
        config = equal_split_config(doc)
        table = instance_times(w, HW, config)
        est = estimate_qps(w, table)
        sim = simulate_dispatch(w, table)
        assert abs(sim - est) / est < 1e-9


def test_simulator_deterministic_and_traces():
    fast = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.02, cpu_overhead=0.002,
                              query_id="fast")
    slow = profile_from_utils(HW, **SATURATED, t0=0.08, cpu_overhead=0.004,
                              query_id="slow")
    w = make_workload([(fast, 2.0), (slow, 1.0)], doc=3, dispatch_count=300,
                      seed=42)
    table = instance_times(w, HW, equal_split_config(3))
    sink1, sink2 = io.BytesIO(), io.BytesIO()
    qps1 = simulate_dispatch(w, table, trace_sink=sink1)
    qps2 = simulate_dispatch(w, table, trace_sink=sink2)
    assert qps1 == qps2
    assert sink1.getvalue() == sink2.getvalue()
    lines = sink1.getvalue().decode().splitlines()
    assert lines[0] == "instance,query_id,start,end"
    assert len(lines) == 301
    instances = {line.split(",")[0] for line in lines[1:]}
    assert instances == {"0", "1", "2"}


def test_simulator_least_loaded_never_slower_on_heterogeneous_mix():
    fast = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.01, query_id="fast")
    slow = profile_from_utils(HW, **SATURATED, t0=0.2, query_id="slow")
    w = make_workload([(fast, 3.0), (slow, 1.0)], doc=4, dispatch_count=400,
                      seed=9)
    table = instance_times(w, HW, equal_split_config(4))
    rr = simulate_dispatch(w, table)
    ll = simulate_dispatch(w, table, least_loaded=True)
    assert ll >= rr


def test_workload_validation():
    profile = profile_from_utils(HW, **UNDER_UTILIZED)
    with pytest.raises(ValidationError):
        make_workload([], doc=1)
    with pytest.raises(ValidationError):
        make_workload([(profile, 0.0)])
    with pytest.raises(ValidationError):
        make_workload([(profile, 1.0)], dispatch_count=0)
    with pytest.raises(ValidationError):
        make_workload([(profile, 1.0)], doc=0)
    w = make_workload([(profile, 2.0), (profile, 6.0)])
    assert [weight for _, weight in w.queries] == [0.25, 0.75]


def test_equal_split_config_variants():
    mig = equal_split_config(4)
    assert len(mig.instances) == 4
    assert mig.instances[0].allocation.dram_bw_fraction == 0.25

    mps = equal_split_config(4, mps=True)
    assert mps.instances[0].allocation.compute_fraction == 0.25
    assert mps.instances[0].allocation.dram_bw_fraction == 1.0
    assert mps.instances[0].allocation.l2_bw_fraction == 1.0


def test_workload_json_loading(tmp_path):
    profile = profile_from_utils(HW, **UNDER_UTILIZED, query_id="inline-q")
    ref = profile_from_utils(HW, **SATURATED, query_id="file-q")
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps(profile_to_dict(ref)))
    doc = {
        "schema_version": 1,
        "doc": 2,
        "dispatch_count": 10,
        "seed": 5,
        "queries": [
            {"profile": profile_to_dict(profile), "weight": 1.0},
            {"profile": "ref.json", "weight": 3.0},
        ],
    }
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(doc))
    w = load_workload(path)
    assert [p.query_id for p, _ in w.queries] == ["inline-q", "file-q"]
    assert [weight for _, weight in w.queries] == [0.25, 0.75]
    assert w.doc == 2

    with pytest.raises(SchemaError, match="mystery"):
        workload_from_dict(dict(doc, mystery=1))


# ---------------------------------------------------------------------------
# The simulator against its per-dispatch reference
# ---------------------------------------------------------------------------


def reference_simulate_dispatch(w, hw, config, least_loaded=False,
                                trace_sink=None):
    """The original per-dispatch loop: bit-for-bit what simulate_dispatch
    must return and write."""
    per_instance_times = instance_times(w, hw, config)
    rng = random.Random(w.seed)
    weights = [weight for _, weight in w.queries]
    choices = rng.choices(range(len(w.queries)), weights=weights,
                          k=w.dispatch_count)
    busy_until = [0.0] * w.doc
    trace_rows = []
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


def mixed_queries():
    return [
        (profile_from_utils(HW, **UNDER_UTILIZED, t0=0.02, cpu_overhead=0.002,
                            query_id="fast"), 3.0),
        (profile_from_utils(HW, **COMPUTE_BOUND, t0=0.05, query_id="mid"), 2.0),
        (profile_from_utils(HW, **SATURATED, t0=0.125, cpu_overhead=0.004,
                            query_id="slow"), 1.0),
    ]


def catalog_config(name):
    return next(c for c in HW.mig_catalog if c.name == name)


# (queries, config, dispatch_count). One query on an equal split makes
# every instance tie; "4g.20gb+1g.5gb*3" has unequal instances; doc=1 has
# one instance; two dispatches on four instances leave two idle.
SIMULATOR_CASES = {
    "equal-3-mix": (mixed_queries, lambda: equal_split_config(3), 1000),
    "equal-4-ties": (lambda: mixed_queries()[:1], lambda: equal_split_config(4),
                     1000),
    "catalog-4g-1g*3": (mixed_queries,
                        lambda: catalog_config("4g.20gb+1g.5gb*3"), 1000),
    "doc-1": (mixed_queries, lambda: equal_split_config(1), 500),
    "idle-instances": (mixed_queries, lambda: equal_split_config(4), 2),
}


@pytest.mark.parametrize("least_loaded", [False, True],
                         ids=["round-robin", "least-loaded"])
@pytest.mark.parametrize("case", sorted(SIMULATOR_CASES))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_simulator_matches_reference_exactly(case, least_loaded, seed):
    queries, config, dispatch_count = SIMULATOR_CASES[case]
    config = config()
    w = make_workload(queries(), doc=len(config.instances),
                      dispatch_count=dispatch_count, seed=seed)
    expected_sink, sink = io.BytesIO(), io.BytesIO()
    expected = reference_simulate_dispatch(w, HW, config, least_loaded,
                                           expected_sink)
    table = instance_times(w, HW, config)
    assert simulate_dispatch(w, table, least_loaded) == expected
    assert simulate_dispatch(w, table, least_loaded, sink) == expected
    assert sink.getvalue() == expected_sink.getvalue()


# Dispatches the simulator draws, simulates and traces at a time; on doc
# instances the chunk is rounded down to a multiple of doc.
CHUNK = 1 << 13


def chunk_for(doc):
    return doc * (CHUNK // doc)


@pytest.mark.parametrize("least_loaded", [False, True],
                         ids=["round-robin", "least-loaded"])
@pytest.mark.parametrize("doc", [1, 3, 7])
@pytest.mark.parametrize("chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1),
                                           (3, 5)],
                         ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+5"])
def test_simulator_matches_reference_at_chunk_boundaries(chunks, extra, doc,
                                                         least_loaded):
    config = equal_split_config(doc)
    w = make_workload(mixed_queries(), doc=doc,
                      dispatch_count=chunks * chunk_for(doc) + extra, seed=11)
    expected_sink, sink = io.BytesIO(), io.BytesIO()
    expected = reference_simulate_dispatch(w, HW, config, least_loaded,
                                           expected_sink)
    table = instance_times(w, HW, config)
    assert simulate_dispatch(w, table, least_loaded) == expected
    assert simulate_dispatch(w, table, least_loaded, sink) == expected
    assert sink.getvalue() == expected_sink.getvalue()


class RecordingSink(io.BytesIO):
    """A byte sink that remembers how many rows each write carried."""

    def __init__(self):
        super().__init__()
        self.rows_per_write = []

    def write(self, data):
        self.rows_per_write.append(data.count(b"\n"))
        return super().write(data)


@pytest.mark.parametrize("least_loaded", [False, True],
                         ids=["round-robin", "least-loaded"])
def test_trace_streams_in_bounded_chunks(least_loaded):
    w = make_workload(mixed_queries(), doc=7, dispatch_count=150_000, seed=3)
    config = equal_split_config(7)
    expected_sink, sink = io.BytesIO(), RecordingSink()
    expected = reference_simulate_dispatch(w, HW, config, least_loaded,
                                           expected_sink)
    table = instance_times(w, HW, config)
    assert simulate_dispatch(w, table, least_loaded, sink) == expected
    assert sink.getvalue() == expected_sink.getvalue()
    assert len(sink.rows_per_write) > 2
    # Exactly one chunk per write, so the boundary cases above sit on the
    # simulator's chunk boundaries.
    assert max(sink.rows_per_write) == chunk_for(7) <= CHUNK


class DiscardingSink:
    """A byte sink that keeps nothing."""

    def write(self, data):
        return len(data)


def simulation_peak(n, least_loaded, sink):
    """tracemalloc's peak while simulate_dispatch runs n dispatches."""
    w = make_workload(mixed_queries(), doc=7, dispatch_count=n, seed=5)
    table = instance_times(w, HW, equal_split_config(7))
    tracemalloc.start()
    try:
        simulate_dispatch(w, table, least_loaded, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# N dispatches span several chunks already, so 4 * N may peak no higher.
N = 30_000


@pytest.mark.parametrize("least_loaded", [False, True],
                         ids=["round-robin", "least-loaded"])
def test_simulator_without_trace_keeps_no_per_dispatch_state(least_loaded):
    assert simulation_peak(4 * N, least_loaded, None) <= \
        1.1 * simulation_peak(N, least_loaded, None)


@pytest.mark.parametrize("least_loaded", [False, True],
                         ids=["round-robin", "least-loaded"])
def test_simulator_with_trace_keeps_no_per_dispatch_state(least_loaded):
    assert simulation_peak(4 * N, least_loaded, DiscardingSink()) <= \
        1.1 * simulation_peak(N, least_loaded, DiscardingSink())


# ---------------------------------------------------------------------------
# The warm-time table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [*HW.mig_catalog, equal_split_config(7), equal_split_config(4, mps=True)],
    ids=lambda c: c.name)
def test_instance_times_rows_are_warm_query_times(config):
    w = make_workload(mixed_queries(), doc=len(config.instances))
    table = instance_times(w, HW, config)
    assert len(table) == len(config.instances)
    for inst, row in zip(config.instances, table):
        assert row == [warm_query_time(p, HW, inst.allocation)
                       for p, _ in w.queries]
