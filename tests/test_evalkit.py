import io

import pytest
from hypothesis import given, strategies as st

from roofcast.core import ResourceAllocation, default_hardware_spec, full_allocation
from roofcast.errors import SchemaError, ValidationError
from roofcast.evalkit import (
    ErrorSample,
    error_cdf,
    generate_synthetic,
    nearest_rank,
    oracle_actual_time,
    read_samples_csv,
    relative_error,
    write_samples_csv,
)
from roofcast.ingest import aggregate, validate_against_roofs
from roofcast.roofline import BoundKind, classify

HW = default_hardware_spec()


def test_relative_error_values():
    assert relative_error(2.0, 2.0) == 0.0
    assert relative_error(3.0, 2.0) == 50.0
    assert relative_error(1.0, 2.0) == 50.0
    with pytest.raises(ValidationError):
        relative_error(1.0, 0.0)


def test_nearest_rank_definition():
    values = [10.0, 20.0, 30.0, 40.0]
    assert nearest_rank(values, 50) == 20.0   # rank ceil(0.5*4) = 2
    assert nearest_rank(values, 51) == 30.0
    assert nearest_rank(values, 100) == 40.0
    assert nearest_rank(values, 1) == 10.0
    with pytest.raises(ValidationError):
        nearest_rank([], 50)


def test_error_cdf_single_sample():
    cdf = error_cdf([ErrorSample("q", 1.1, 1.0)])
    assert cdf.median_pct == pytest.approx(10.0, rel=1e-9)
    assert cdf.p95_pct == pytest.approx(10.0, rel=1e-9)
    assert len(cdf.points) == 100


def test_error_cdf_median_of_two_is_lower_under_nearest_rank():
    samples = [ErrorSample("a", 1.0, 1.0), ErrorSample("b", 2.0, 1.0)]
    cdf = error_cdf(samples)
    assert cdf.median_pct == 0.0
    assert cdf.p95_pct == 100.0
    with pytest.raises(ValidationError):
        error_cdf([])


@given(st.lists(st.tuples(st.floats(0, 1e6), st.floats(1e-6, 1e6)),
                min_size=1, max_size=300))
def test_error_cdf_points_are_nearest_ranks(pairs):
    samples = [ErrorSample(str(i), est, act)
               for i, (est, act) in enumerate(pairs)]
    errors = [s.relative_error_pct for s in samples]
    cdf = error_cdf(samples)
    assert cdf.points == tuple((p, nearest_rank(errors, p))
                               for p in range(1, 101))
    assert (cdf.median_pct, cdf.p95_pct) == (nearest_rank(errors, 50),
                                             nearest_rank(errors, 95))


def test_samples_csv_roundtrip():
    samples = [ErrorSample("q1", 1.25, 1.0), ErrorSample("q2", 0.5, 0.75)]
    sink = io.BytesIO()
    write_samples_csv(samples, sink)
    loaded = read_samples_csv(io.BytesIO(sink.getvalue()))
    assert loaded == samples
    with pytest.raises(SchemaError):
        read_samples_csv(io.BytesIO(b"wrong,header,here\n1,2,3\n"))


# ---------------------------------------------------------------------------
# Synthetic device
# ---------------------------------------------------------------------------


def test_generator_determinism():
    dev1, profiles1 = generate_synthetic(123, 12, HW)
    dev2, profiles2 = generate_synthetic(123, 12, HW)
    assert profiles1 == profiles2
    assert dev1.responses == dev2.responses
    _, other = generate_synthetic(124, 12, HW)
    assert other != profiles1


def test_generator_rejects_zero_queries():
    with pytest.raises(ValidationError):
        generate_synthetic(1, 0, HW)


def test_generator_spans_all_bound_kinds():
    _, profiles = generate_synthetic(7, 12, HW)
    kinds = {classify(aggregate(p, HW), HW) for p in profiles}
    assert kinds == {BoundKind.COMPUTE_BOUND, BoundKind.DRAM_BOUND,
                     BoundKind.L2_BOUND}


def test_generated_profiles_sit_under_the_roofs():
    _, profiles = generate_synthetic(99, 24, HW)
    for profile in profiles:
        assert validate_against_roofs(aggregate(profile, HW), HW) == []


def test_oracle_full_allocation_reproduces_baseline_exactly():
    dev, profiles = generate_synthetic(5, 12, HW)
    for profile in profiles:
        t0 = aggregate(profile, HW).total_duration
        assert oracle_actual_time(dev, profile, full_allocation()) == t0


def test_oracle_unknown_query_rejected():
    dev, profiles = generate_synthetic(5, 3, HW)
    _, strangers = generate_synthetic(6, 3, HW)
    with pytest.raises(ValidationError):
        oracle_actual_time(dev, strangers[0], full_allocation())


def test_oracle_flat_then_reciprocal_below_the_knee():
    # Generator cycles archetypes; index 1 is a latency-bound query whose
    # hidden DRAM knee sits below 1. Above the knee time is flat; below it
    # time follows 1/fraction exactly.
    dev, profiles = generate_synthetic(11, 12, HW)
    profile = profiles[1]
    curve = dev.responses[profile.query_id]
    assert curve.latency_floor == 1.0
    knee = curve.sat_dram
    assert 0 < knee < 1

    t0 = curve.baseline_time

    def at(f):
        return oracle_actual_time(
            dev, profile, ResourceAllocation(1.0, f, 1.0, 1.0))

    assert at(1.0) == t0
    assert at(knee * 1.05) == t0
    f1, f2 = knee / 2, knee / 4
    assert at(f1) == pytest.approx(t0 * knee / f1, rel=1e-12)
    assert at(f2) / at(f1) == pytest.approx(f1 / f2, rel=1e-12)


def test_oracle_compute_bound_scales_reciprocally_for_all_fractions():
    dev, profiles = generate_synthetic(13, 12, HW)
    profile = profiles[0]  # compute-saturated archetype
    assert classify(aggregate(profile, HW), HW) is BoundKind.COMPUTE_BOUND
    t0 = dev.responses[profile.query_id].baseline_time
    for f in (0.05, 0.125, 0.25, 0.5, 0.75, 1.0):
        t = oracle_actual_time(dev, profile, ResourceAllocation(f, 1.0, 1.0, 1.0))
        assert t == pytest.approx(t0 / f, rel=1e-12)


def test_oracle_actuals_respect_scaled_ceilings():
    dev, profiles = generate_synthetic(17, 18, HW)
    fractions = (0.125, 0.25, 0.5, 1.0)
    for profile in profiles:
        m = aggregate(profile, HW)
        for f in fractions:
            alloc = ResourceAllocation(f, f, f, f)
            t = oracle_actual_time(dev, profile, alloc)
            assert m.total_int_ops / t <= f * HW.peak_compute_bw * (1 + 1e-9)
            assert m.total_dram_bytes / t <= f * HW.peak_dram_bw * (1 + 1e-9)
            assert m.total_l2_bytes / t <= f * HW.peak_l2_bw * (1 + 1e-9)
