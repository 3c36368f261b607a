from collections import Counter
from dataclasses import replace

import pytest

from roofcast import concurrency
from roofcast.advisor import Objective, advise, enumerate_configs
from roofcast.concurrency import WorkloadSpec, estimate_qps, instance_times
from roofcast.core import (
    HardwareSpec,
    PartitionConfig,
    PartitionInstance,
    ResourceAllocation,
    default_hardware_spec,
)
from roofcast.errors import ConfigError, ValidationError
from roofcast.ingest import aggregate
from roofcast.scaling import scaling_curve

from conftest import profile_from_utils

HW = default_hardware_spec()

UNDER_UTILIZED = dict(util_compute=0.1, util_dram=0.3, util_l2=0.2)
SATURATED = dict(util_compute=0.1, util_dram=0.999, util_l2=0.4)


def workload(profiles_weights, doc=1):
    return WorkloadSpec(queries=tuple(profiles_weights), doc=doc,
                        dispatch_count=100, seed=0)


def test_enumerate_configs_catalog_verbatim():
    configs = enumerate_configs(HW)
    assert len(configs) == 18
    assert max(len(c.instances) for c in configs) == 7
    assert [c.name for c in configs] == [c.name for c in enumerate_configs(HW)]


def test_enumerate_configs_empty_catalog_errors():
    bare = HardwareSpec("bare", 108, 18247e9, 1555e9, 7050e9, 40e9)
    with pytest.raises(ConfigError):
        enumerate_configs(bare)


def test_advise_min_latency_prefers_full_gpu_for_saturated_mix():
    profile = profile_from_utils(HW, **SATURATED, t0=0.05, cpu_overhead=0.002)
    report = advise(workload([(profile, 1.0)]), HW, Objective.MIN_LATENCY)
    assert len(report.rows) == 18
    assert report.rows[0].config.name == "7g.40gb"
    assert report.ranked_by is Objective.MIN_LATENCY
    # every slice shrinks the saturated query's bandwidth, so latency rises
    assert all(row.predicted_mean_latency >=
               report.rows[0].predicted_mean_latency for row in report.rows)


def test_advise_max_throughput_prefers_seven_instances_when_overhead_dominates():
    profile = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.002,
                                 cpu_overhead=0.1)
    report = advise(workload([(profile, 1.0)]), HW, Objective.MAX_THROUGHPUT)
    assert report.rows[0].config.name == "1g.5gb*7"
    assert len(report.rows[0].config.instances) == 7


def test_advise_tiebreak_prefers_smaller_footprint_then_name():
    def single(name, fraction):
        inst = PartitionInstance(
            name, ResourceAllocation(fraction, fraction, fraction, fraction))
        return PartitionConfig(name, (inst,))

    profile = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.01, cpu_overhead=0.01)
    # 30% utilization: both fractions leave the query untouched -> equal QPS
    configs = [single("b-half", 0.5), single("a-half", 0.5),
               single("quarter", 0.4)]
    hw = replace(HW, mig_catalog=configs)
    report = advise(workload([(profile, 1.0)]), hw, Objective.MAX_THROUGHPUT)
    assert [r.config.name for r in report.rows] == ["quarter", "a-half", "b-half"]


def test_advise_rows_count_matches_catalog_and_is_deterministic():
    profile = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.01)
    first = advise(workload([(profile, 1.0)]), HW, Objective.MAX_THROUGHPUT)
    second = advise(workload([(profile, 1.0)]), HW, Objective.MAX_THROUGHPUT)
    assert first == second
    assert len(first.rows) == len(HW.mig_catalog)


def test_advise_throughput_per_resource_divides_by_footprint():
    profile = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.01, cpu_overhead=0.01)
    report = advise(workload([(profile, 1.0)]), HW,
                    Objective.MAX_THROUGHPUT_PER_RESOURCE)
    scores = [row.predicted_qps / row.resource_fraction_used
              for row in report.rows]
    assert scores == sorted(scores, reverse=True)


def test_whatif_report_serializes():
    profile = profile_from_utils(HW, **UNDER_UTILIZED, t0=0.01)
    report = advise(workload([(profile, 1.0)]), HW, Objective.MIN_LATENCY)
    doc = report.to_dict()
    assert doc["ranked_by"] == "min-latency"
    assert len(doc["rows"]) == 18
    assert set(doc["rows"][0]) == {"config", "instances", "predicted_qps",
                                   "predicted_mean_latency_s",
                                   "resource_fraction_used",
                                   "confidence_flags"}



def test_advise_rows_come_from_the_estimator_table():
    w = workload([
        (profile_from_utils(HW, **UNDER_UTILIZED, query_id="a",
                            cpu_overhead=0.003), 3.0),
        (profile_from_utils(HW, **SATURATED, query_id="b", t0=0.02), 1.0),
    ])
    weights = [weight for _, weight in w.queries]
    report = advise(w, HW, Objective.MAX_THROUGHPUT)
    assert len(report.rows) == len(enumerate_configs(HW))
    for row in report.rows:
        scoped = replace(w, doc=len(row.config.instances))
        table = instance_times(scoped, HW, row.config)
        means = [sum(wt * t for wt, t in zip(weights, times))
                 for times in table]
        assert row.predicted_qps == estimate_qps(scoped, table)
        assert row.predicted_mean_latency == sum(means) / len(means)
        assert row.to_dict()["confidence_flags"] == []

# ---------------------------------------------------------------------------
# Scaling curve
# ---------------------------------------------------------------------------


def test_scaling_curve_baseline_at_full_fraction():
    m = aggregate(profile_from_utils(HW, **UNDER_UTILIZED, t0=0.04), HW)
    curve = scaling_curve(m, HW, [0.5, 1.0])
    assert curve[-1][0] == 1.0
    assert curve[-1][1] == pytest.approx(0.04, rel=1e-9)


def test_scaling_curve_flat_until_attained_bandwidth_then_rising():
    # 30% DRAM utilization: the knee sits at fraction 0.3
    m = aggregate(profile_from_utils(HW, **UNDER_UTILIZED, t0=0.04), HW)
    fractions = [0.1, 0.15, 0.3, 0.5, 1.0]
    curve = dict(scaling_curve(m, HW, fractions))
    assert curve[1.0] == curve[0.5] == curve[0.3]
    assert curve[0.15] == pytest.approx(2 * curve[0.3], rel=1e-6)
    assert curve[0.1] == pytest.approx(3 * curve[0.3], rel=1e-6)


def test_scaling_curve_nonincreasing_in_fraction():
    m = aggregate(profile_from_utils(HW, **SATURATED, t0=0.04), HW)
    fractions = [i / 16 for i in range(1, 17)]
    curve = scaling_curve(m, HW, fractions)
    times = [t for _, t in curve]
    assert all(later <= earlier for earlier, later in zip(times, times[1:]))


def test_scaling_curve_validates_fractions():
    m = aggregate(profile_from_utils(HW, **UNDER_UTILIZED), HW)
    with pytest.raises(ValidationError):
        scaling_curve(m, HW, [])
    with pytest.raises(ValidationError):
        scaling_curve(m, HW, [0.5, 0.25])
    with pytest.raises(ValidationError):
        scaling_curve(m, HW, [0.5, 1.5])


def test_advise_uses_the_weights_estimate_qps_sees():
    # These weights move by an ulp when a spec is rebuilt and normalizes
    # them a second time; each row must still match estimate_qps.
    w = workload([
        (profile_from_utils(HW, **UNDER_UTILIZED, query_id="a",
                            cpu_overhead=0.003), 2.3),
        (profile_from_utils(HW, **SATURATED, query_id="b", t0=0.02), 0.7),
        (profile_from_utils(HW, util_compute=0.6, util_dram=0.25,
                            util_l2=0.3, query_id="c", t0=0.05), 0.35),
    ])
    assert [wt for _, wt in replace(w).queries] != \
        [wt for _, wt in w.queries]
    for row in advise(w, HW, Objective.MIN_LATENCY).rows:
        scoped = replace(w, doc=len(row.config.instances))
        assert row.predicted_qps == estimate_qps(
            scoped, instance_times(scoped, HW, row.config))


def test_advise_aggregates_each_profile_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("aggregate", "slowdown_unified"):
        monkeypatch.setattr(
            concurrency, name, counted(name, getattr(concurrency, name)))
    n = 6
    w = workload([(profile_from_utils(HW, **UNDER_UTILIZED, query_id=f"q{i}",
                                      t0=0.01 * (i + 1)), 1.0)
                  for i in range(n)])
    advise(w, HW, Objective.MAX_THROUGHPUT)
    distinct = {inst.allocation for config in HW.mig_catalog
                for inst in config.instances}
    assert len(distinct) == 5
    assert calls == {"aggregate": n, "slowdown_unified": 5 * n}
