import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from roofcast.core import HardwareSpec, default_hardware_spec
from roofcast.errors import SchemaError, ValidationError
from roofcast.ingest import KernelRecord, QueryProfile
from roofcast.opcost import (
    ProbeOp,
    ScanOp,
    crystal_probe_time,
    crystal_scan_time,
    crystalopt_probe_time,
    crystalopt_scan_time,
    extrapolate_sf,
    op_from_dict,
    op_to_dict,
    probe_miss_fraction,
)

HW = default_hardware_spec()


def make_hw(dram=1555e9, l2=7050e9, l2_cap=40e6) -> HardwareSpec:
    return HardwareSpec("toy", 108, 18247e9, dram, l2, l2_cap, 40e9, 32e9)


def probe_op(rows=10**9, ht=60 * 10**6, **kw) -> ProbeOp:
    return ProbeOp(rows=rows, hashtable_bytes=ht, **kw)


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------


def test_scan_zero_rows_is_free():
    assert crystal_scan_time(ScanOp(rows=0), HW) == 0.0


def test_scan_unit_construction():
    rows = int(HW.peak_dram_bw / 4)
    assert crystal_scan_time(ScanOp(rows=rows), HW) == pytest.approx(1.0)


def test_scan_hand_value():
    # 4 B x 1e9 rows / 1555 GB/s, computed by hand
    t = crystal_scan_time(ScanOp(rows=10**9, width_bytes=4), HW)
    assert t == pytest.approx(0.002572347266881029, rel=1e-12)


# ---------------------------------------------------------------------------
# Probe
# ---------------------------------------------------------------------------


def test_probe_miss_fraction_60mb_table_40mb_cache():
    # 1 - 40/60 = 1/3 of probes spill past L2
    assert probe_miss_fraction(60e6, 40e6) == pytest.approx(1 / 3, rel=1e-12)


def test_probe_miss_fraction_clamps_at_zero():
    assert probe_miss_fraction(10e6, 40e6) == 0.0
    op = probe_op(ht=10 * 10**6)
    assert crystal_probe_time(op, HW) == crystal_scan_time(
        ScanOp(rows=op.rows, width_bytes=op.key_width_bytes), HW)


def test_probe_hand_value():
    # column load 2.5723e-3 s times (1 + 1/3) miss re-read
    t = crystal_probe_time(probe_op(), HW)
    assert t == pytest.approx(0.003429796355841372, rel=1e-12)


# ---------------------------------------------------------------------------
# Counter-corrected variants
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**12),
       st.integers(min_value=1, max_value=64))
def test_opt_scan_at_full_utilization_reduces_to_plain(rows, width):
    op = ScanOp(rows=rows, width_bytes=width)
    assert crystalopt_scan_time(op, 1.0, HW) == crystal_scan_time(op, HW)


def test_opt_scan_inverse_proportional_and_hand_value():
    op = ScanOp(rows=10**9, width_bytes=4)
    assert crystalopt_scan_time(op, 0.5, HW) == pytest.approx(
        2 * crystal_scan_time(op, HW), rel=1e-12)
    assert crystalopt_scan_time(op, 0.8, HW) == pytest.approx(
        0.003215434083601286, rel=1e-12)
    with pytest.raises(ValidationError):
        crystalopt_scan_time(op, 0.0, HW)


def test_opt_probe_perfect_caches_cost_only_column_load():
    op = probe_op(rows=10**6, l1_hit_rate=1.0, l2_hit_rate=1.0)
    column = crystalopt_scan_time(ScanOp(rows=10**6, width_bytes=4), 0.7, HW)
    assert crystalopt_probe_time(op, 0.7, HW) == pytest.approx(column, rel=1e-12)


def test_opt_probe_hand_value_all_misses():
    # miss terms: 128e6/7.05e12 + 128e6/1.555e12 = 1.0047114090898726e-4 s
    op = probe_op(rows=10**6, l1_hit_rate=0.0, l2_hit_rate=0.0)
    column = crystalopt_scan_time(ScanOp(rows=10**6, width_bytes=4), 1.0, HW)
    t = crystalopt_probe_time(op, 1.0, HW)
    assert t - column == pytest.approx(0.00010047114090898726, rel=1e-12)


@given(st.integers(min_value=1, max_value=10**10))
def test_opt_probe_linear_in_rows(rows):
    small = probe_op(rows=rows, l1_hit_rate=0.5, l2_hit_rate=0.25)
    big = replace(small, rows=2 * rows)
    assert crystalopt_probe_time(big, 0.6, HW) == pytest.approx(
        2 * crystalopt_probe_time(small, 0.6, HW), rel=1e-12)


def test_opt_probe_with_capacity_miss_model_reproduces_plain_probe():
    # Substituting utilization 1, a perfect L1, an L2 hit rate of
    # 1 - capacity miss fraction, and key-width line granularity collapses
    # the counter-corrected probe back to the capacity-ratio estimate.
    for cap, ht in ((30e6, 60 * 10**6), (40e6, 60 * 10**6), (10e6, 80 * 10**6)):
        hw = make_hw(l2_cap=cap)
        miss = probe_miss_fraction(ht, cap)
        op = probe_op(ht=ht, l1_hit_rate=1.0, l2_hit_rate=1.0 - miss,
                      l2_line_bytes=4)
        assert crystalopt_probe_time(op, 1.0, hw) == pytest.approx(
            crystal_probe_time(probe_op(ht=ht), hw), rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_opt_probe_nonincreasing_in_hit_rates(h1, h2):
    base = probe_op(rows=10**8, l1_hit_rate=h1, l2_hit_rate=h2)
    t = crystalopt_probe_time(base, 0.8, HW)
    better_l1 = replace(base, l1_hit_rate=min(1.0, h1 + 0.1))
    better_l2 = replace(base, l2_hit_rate=min(1.0, h2 + 0.1))
    assert crystalopt_probe_time(better_l1, 0.8, HW) <= t
    assert crystalopt_probe_time(better_l2, 0.8, HW) <= t


@given(st.integers(min_value=0, max_value=10**11))
def test_times_nondecreasing_in_rows_nonincreasing_in_bandwidth(rows):
    op = ScanOp(rows=rows)
    more = ScanOp(rows=rows + 1000)
    assert crystal_scan_time(more, HW) >= crystal_scan_time(op, HW)
    fast = make_hw(dram=2 * 1555e9)
    assert crystal_scan_time(op, fast) <= crystal_scan_time(op, HW)
    probe = probe_op(rows=max(rows, 1))
    assert crystal_probe_time(probe, fast) <= crystal_probe_time(probe, HW)


def test_all_times_nonnegative():
    ops = [ScanOp(rows=0), ScanOp(rows=10**10)]
    probes = [probe_op(rows=0), probe_op(rows=10**10, l1_hit_rate=1.0,
                                         l2_hit_rate=1.0)]
    for op in ops:
        assert crystal_scan_time(op, HW) >= 0
        assert crystalopt_scan_time(op, 0.5, HW) >= 0
    for op in probes:
        assert crystal_probe_time(op, HW) >= 0
        assert crystalopt_probe_time(op, 0.5, HW) >= 0


# ---------------------------------------------------------------------------
# Scale-factor extrapolation
# ---------------------------------------------------------------------------


def profiled_query(sf=16.0, util=0.8, h1=0.9, h2=0.85) -> QueryProfile:
    return QueryProfile(
        query_id="q41", system="test", scale_factor=sf,
        kernels=(KernelRecord("k", 0.01, 10**9, 10**6, 10**9),),
        dram_utilization=util, l1_hit_rate=h1, l2_hit_rate=h2)


PLAN = [ScanOp(rows=10**9, width_bytes=4),
        ProbeOp(rows=5 * 10**8, hashtable_bytes=60 * 10**6)]


def test_extrapolate_identity_at_profiled_sf():
    profile = profiled_query()
    expected = crystalopt_scan_time(PLAN[0], 0.8, HW) + crystalopt_probe_time(
        replace(PLAN[1], l1_hit_rate=0.9, l2_hit_rate=0.85), 0.8, HW)
    assert extrapolate_sf(profile, PLAN, 16.0, HW) == pytest.approx(
        expected, rel=1e-12)


def test_extrapolate_doubles_with_sf():
    profile = profiled_query()
    base = extrapolate_sf(profile, PLAN, 16.0, HW)
    assert extrapolate_sf(profile, PLAN, 32.0, HW) == pytest.approx(
        2 * base, rel=1e-12)


def test_extrapolate_hashtable_held_unless_flagged():
    profile = profiled_query()
    held = extrapolate_sf(profile, PLAN, 32.0, HW)
    grown = extrapolate_sf(profile, PLAN, 32.0, HW, scale_hashtable=True)
    # a grown table spills more of its probes out of L2
    assert grown > held


def test_extrapolate_requires_counters():
    bare = QueryProfile(
        query_id="q", system="test", scale_factor=16.0,
        kernels=(KernelRecord("k", 0.01, 10**9, 10**6, 10**9),))
    with pytest.raises(ValidationError, match="crystal"):
        extrapolate_sf(bare, PLAN, 8.0, HW)


def test_extrapolate_error_grows_away_from_profiled_sf():
    # Synthetic truth: DRAM utilization drifts with data size, while the
    # projection holds the profiled value fixed. The further the target is
    # from the profiled point, the larger the relative gap.
    def true_util(sf: float) -> float:
        return 0.6 + 0.02 * math.log2(sf)

    plan = [ScanOp(rows=10**9)]
    profile = profiled_query(sf=16.0, util=true_util(16.0))

    def truth(sf: float) -> float:
        scaled = ScanOp(rows=int(10**9 * sf / 16.0))
        return crystalopt_scan_time(scaled, true_util(sf), HW)

    errors = {}
    for sf in (2.0, 4.0, 8.0, 16.0):
        predicted = extrapolate_sf(profile, plan, sf, HW)
        actual = truth(sf)
        errors[sf] = abs(predicted - actual) / actual
    assert errors[16.0] == pytest.approx(0.0, abs=1e-12)
    assert errors[2.0] > errors[4.0] > errors[8.0] > errors[16.0]


# ---------------------------------------------------------------------------
# Plan (de)serialization
# ---------------------------------------------------------------------------


def test_op_dict_roundtrip():
    for op in (ScanOp(rows=10, width_bytes=8), probe_op(rows=42, l1_hit_rate=0.5)):
        assert op_from_dict(op_to_dict(op)) == op


def test_plan_travels_through_profile_json():
    from roofcast.ingest import read_profile_json, write_profile_json
    from roofcast.opcost import plan_from_profile

    profile = QueryProfile(
        query_id="q21", system="test", scale_factor=16.0,
        kernels=(KernelRecord("k", 0.01, 10**9, 10**6, 10**9),),
        dram_utilization=0.8, l1_hit_rate=0.9, l2_hit_rate=0.85,
        plan=tuple(op_to_dict(op) for op in PLAN))
    loaded = read_profile_json(write_profile_json(profile))
    ops = plan_from_profile(loaded)
    assert ops == PLAN
    assert extrapolate_sf(loaded, ops, 32.0, HW) == pytest.approx(
        2 * extrapolate_sf(loaded, ops, 16.0, HW), rel=1e-12)


def test_op_from_dict_rejects_unknown():
    with pytest.raises(SchemaError):
        op_from_dict({"op": "sort", "rows": 10})
    with pytest.raises(SchemaError):
        op_from_dict({"op": "scan", "rows": 10, "mystery": 1})


def test_op_from_dict_names_missing_keys():
    with pytest.raises(SchemaError,
                       match=r"probe op: missing keys \['hashtable_bytes'\]"):
        op_from_dict({"op": "probe", "rows": 10})
    with pytest.raises(SchemaError, match=r"scan op: missing keys \['rows'\]"):
        op_from_dict({"op": "scan"})
