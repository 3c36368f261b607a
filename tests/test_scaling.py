import random

import pytest
from hypothesis import given, strategies as st

from roofcast.core import ResourceAllocation, default_hardware_spec, full_allocation
from roofcast.roofline import BoundKind, MemLevel
from roofcast.scaling import (
    Confidence,
    Direction,
    linear_baseline,
    predict_time_mem,
    slowdown_mem,
    slowdown_unified,
)

from conftest import metrics_from_utils

HW = default_hardware_spec()

MEMORY_BOUND = dict(util_compute=0.2, util_dram=0.9, util_l2=0.5)
COMPUTE_BOUND = dict(util_compute=0.6, util_dram=0.25, util_l2=0.3)


def test_predict_time_mem_under_utilized_is_flat():
    m = metrics_from_utils(HW, 0.2, 0.5, 0.3, t0=0.2)
    # 50% DRAM utilization: anything above the attained bandwidth is free
    assert predict_time_mem(m, 0.2, MemLevel.DRAM, HW.peak_dram_bw) == 0.2
    assert predict_time_mem(m, 0.2, MemLevel.DRAM, 0.6 * HW.peak_dram_bw) == 0.2


def test_predict_time_mem_saturated_halving_doubles():
    m = metrics_from_utils(HW, 0.2, 1.0, 0.5, t0=0.2)
    t = predict_time_mem(m, 0.2, MemLevel.DRAM, HW.peak_dram_bw / 2)
    assert t == pytest.approx(0.4, rel=1e-12)


def test_predict_time_mem_hand_value():
    # 100 Gop at 0.5 op/B is 200 GB; 200 GB / 777.5 GB/s = 0.25723 s > t
    m = metrics_from_utils(HW, 100e9 / (HW.peak_compute_bw * 0.2),
                           200e9 / (HW.peak_dram_bw * 0.2), 0.5, t0=0.2)
    assert m.total_int_ops == pytest.approx(100e9)
    assert m.total_dram_bytes == pytest.approx(200e9)
    t = predict_time_mem(m, 0.2, MemLevel.DRAM, 777.5e9)
    assert t == pytest.approx(0.25723472668810286, rel=1e-12)


@given(st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.05, max_value=1.0))
def test_predict_time_mem_never_beats_the_new_roof(util, fraction):
    m = metrics_from_utils(HW, 0.1, util, 0.3)
    new_bw = HW.peak_dram_bw * fraction
    t = predict_time_mem(m, m.total_duration, MemLevel.DRAM, new_bw)
    assert t >= m.total_dram_bytes / new_bw


def test_slowdown_mem_values():
    saturated = metrics_from_utils(HW, 0.2, 1.0, 0.5, t0=0.2)
    assert slowdown_mem(saturated, 0.2, MemLevel.DRAM, HW.peak_dram_bw) == 1.0
    assert slowdown_mem(saturated, 0.2, MemLevel.DRAM,
                        HW.peak_dram_bw / 2) == pytest.approx(2.0, rel=1e-12)

    half_util = metrics_from_utils(HW, 0.2, 0.5, 0.25, t0=0.2)
    # quartered bandwidth on a 50%-utilized query: 2x, not 4x
    assert slowdown_mem(half_util, 0.2, MemLevel.DRAM,
                        HW.peak_dram_bw / 4) == pytest.approx(2.0, rel=1e-12)


def test_linear_baseline():
    assert linear_baseline(3.0, 1.0) == 3.0
    assert linear_baseline(3.0, 0.5) == 6.0
    assert linear_baseline(7.0, 1 / 7) == pytest.approx(49.0, rel=1e-12)


def test_unified_identity_at_full_allocation():
    for utils in (MEMORY_BOUND, COMPUTE_BOUND):
        m = metrics_from_utils(HW, **utils)
        pred = slowdown_unified(m, m.total_duration, HW, full_allocation())
        assert pred.slowdown == 1.0
        assert pred.predicted_time == m.total_duration
        assert pred.direction is Direction.UNCHANGED
        assert pred.confidence is Confidence.NORMAL


def test_unified_compute_branch_ignores_memory_fractions():
    m = metrics_from_utils(HW, **COMPUTE_BOUND)
    base = slowdown_unified(m, m.total_duration, HW,
                            ResourceAllocation(0.5, 1.0, 1.0, 1.0))
    assert base.bound is BoundKind.COMPUTE_BOUND
    assert base.slowdown == 2.0
    squeezed = slowdown_unified(m, m.total_duration, HW,
                                ResourceAllocation(0.5, 0.1, 0.1, 0.1))
    assert squeezed.slowdown == base.slowdown == 2.0
    assert squeezed.predicted_time == base.predicted_time


def test_unified_memory_branch_is_max_of_components():
    m = metrics_from_utils(HW, 0.1, 0.3, 0.9)  # L2 near saturation
    alloc = ResourceAllocation(1.0, 0.5, 0.5, 1.0)
    pred = slowdown_unified(m, m.total_duration, HW, alloc)
    sd_dram = slowdown_mem(m, m.total_duration, MemLevel.DRAM,
                           HW.peak_dram_bw * 0.5)
    sd_l2 = slowdown_mem(m, m.total_duration, MemLevel.L2,
                         HW.peak_l2_bw * 0.5)
    assert pred.slowdown == max(sd_dram, sd_l2)
    # DRAM at 30% utilization is untouched by a half slice: that term is 1
    assert sd_dram == 1.0
    assert pred.slowdown == sd_l2 == pytest.approx(1.8, rel=1e-12)
    assert pred.bound is BoundKind.L2_BOUND
    assert pred.direction is Direction.DOWNSIZE


def test_unified_memory_upsize_flat_and_flagged():
    m = metrics_from_utils(HW, **MEMORY_BOUND)
    alloc = ResourceAllocation(1.0, 1.5, 1.0, 1.0)
    pred = slowdown_unified(m, m.total_duration, HW, alloc)
    assert pred.slowdown == 1.0
    assert pred.confidence is Confidence.LOW_UPSIZE_MEMORY
    assert pred.direction is Direction.UPSIZE


def test_unified_compute_upsize_predicts_speedup():
    m = metrics_from_utils(HW, **COMPUTE_BOUND)
    pred = slowdown_unified(m, m.total_duration, HW,
                            ResourceAllocation(2.0, 1.0, 1.0, 1.0))
    assert pred.slowdown == pytest.approx(0.5, rel=1e-12)
    assert pred.direction is Direction.UPSIZE
    assert pred.confidence is Confidence.NORMAL


def test_unified_does_not_mutate_metrics():
    m = metrics_from_utils(HW, **MEMORY_BOUND)
    before = (m.ai_dram, m.ai_l2)
    slowdown_unified(m, m.total_duration, HW, ResourceAllocation(0.3, 0.3, 0.3, 0.3))
    slowdown_unified(m, m.total_duration, HW, full_allocation())
    assert (m.ai_dram, m.ai_l2) == before


def test_prediction_serializes_six_fields():
    m = metrics_from_utils(HW, **MEMORY_BOUND)
    pred = slowdown_unified(m, m.total_duration, HW, full_allocation())
    doc = pred.to_dict()
    assert set(doc) == {"baseline_time_s", "predicted_time_s", "slowdown",
                        "bound", "direction", "confidence"}


coordinate_chain = st.lists(st.floats(min_value=0.05, max_value=1.0),
                            min_size=3, max_size=3).map(sorted)


@given(st.floats(min_value=0.02, max_value=0.98),
       st.floats(min_value=0.02, max_value=0.98),
       st.floats(min_value=0.02, max_value=0.98),
       coordinate_chain, coordinate_chain, coordinate_chain, coordinate_chain)
def test_predicted_time_monotone_on_increasing_chains(uc, ud, ul2,
                                                      cs, ds, ls, ms):
    # Each coordinate ascends independently, so the allocation chain is
    # coordinatewise increasing; predicted time must not increase along it.
    m = metrics_from_utils(HW, uc, ud, ul2)
    times = [
        slowdown_unified(m, m.total_duration, HW,
                         ResourceAllocation(c, d, l, cap)).predicted_time
        for c, d, l, cap in zip(cs, ds, ls, ms)]
    for earlier, later in zip(times, times[1:]):
        assert later <= earlier


def test_slowdown_at_least_one_on_downsize_random():
    rng = random.Random(7)
    for _ in range(500):
        m = metrics_from_utils(HW, rng.uniform(0.02, 0.98),
                               rng.uniform(0.02, 0.98),
                               rng.uniform(0.02, 0.98))
        alloc = ResourceAllocation(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                                   rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
        pred = slowdown_unified(m, m.total_duration, HW, alloc)
        if pred.direction is Direction.DOWNSIZE:
            assert pred.slowdown >= 1.0
        assert pred.slowdown == pred.predicted_time / pred.baseline_time
