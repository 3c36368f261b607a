import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from roofcast.errors import (
    DegenerateProfileError,
    ParseError,
    SchemaError,
    ValidationError,
)
from roofcast import ingest
from roofcast.ingest import (
    NS_PER_S,
    KernelRecord,
    QueryProfile,
    aggregate,
    parse_counter_file,
    profile_from_dict,
    profile_to_dict,
    read_profile_json,
    serialize_kernels_csv,
    validate_against_roofs,
    write_profile_json,
)

from conftest import metrics_from_utils
from roofcast.core import default_hardware_spec

GOLDEN = Path(__file__).parent / "data" / "golden_kernels.csv"
HW = default_hardware_spec()


def parse_csv(text: str):
    return parse_counter_file(io.BytesIO(text.encode()), "csv")


def make_profile(kernels, **kwargs) -> QueryProfile:
    defaults = dict(query_id="q", system="test", scale_factor=1.0)
    defaults.update(kwargs)
    return QueryProfile(kernels=tuple(kernels), **defaults)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_golden_csv_row_count():
    with open(GOLDEN, "rb") as stream:
        records = parse_counter_file(stream, "csv")
    assert len(records) == 3
    assert records[0].kernel_name == "scan_filter"
    # duration 1.5e6 ns -> 1.5e-3 s; byte counters pass through unscaled
    assert records[0].duration == pytest.approx(1.5e-3, rel=1e-12)
    assert records[0].dram_bytes == 2**30


def test_parse_raw_metric_names():
    text = (
        "Kernel Name,gpu__time_duration.sum,dram__bytes.sum,"
        "lts__t_requests_srcunit_tex_op_read.sum,"
        "smsp__sass_thread_inst_executed_op_integer_pred_on.sum\n"
        "k0,1000000,1000,10,500\n")
    records = parse_csv(text)
    assert records == [KernelRecord("k0", 1e-3, 1000, 10, 500)]


def test_parse_per_cycle_ops_requires_cycles():
    header = ("kernel_name,duration_ns,dram_bytes,l2_requests,"
              "smsp__sass_thread_inst_executed_op_integer_pred_on.sum"
              ".per_cycle_elapsed")
    with pytest.raises(SchemaError, match="cycles"):
        parse_csv(header + "\nk0,1000,1,1,2.5\n")
    records = parse_csv(header + ",cycles\nk0,1000,1,1,2.5,1000\n")
    assert records[0].int_ops == 2500


def test_parse_ignores_extra_columns():
    text = ("kernel_name,duration_ns,dram_bytes,l2_requests,int_ops,launch_id\n"
            "k0,1000,1,1,2,99\n")
    assert parse_csv(text)[0].int_ops == 2


def test_parse_missing_column_is_schema_error():
    with pytest.raises(SchemaError, match="dram_bytes"):
        parse_csv("kernel_name,duration_ns,l2_requests,int_ops\nk0,1,1,1\n")


def test_parse_malformed_row_names_row_and_column():
    text = ("kernel_name,duration_ns,dram_bytes,l2_requests,int_ops\n"
            "k0,1000,1,1,2\n"
            "k1,1000,oops,1,2\n")
    with pytest.raises(ParseError, match=r"row 3.*dram_bytes"):
        parse_csv(text)


def test_parse_negative_counter_is_validation_error():
    text = ("kernel_name,duration_ns,dram_bytes,l2_requests,int_ops\n"
            "k0,1000,-5,1,2\n")
    with pytest.raises(ValidationError, match="dram_bytes"):
        parse_csv(text)


def test_parse_json_array():
    rows = [{"kernel_name": "k0", "duration_ns": 1000, "dram_bytes": 1,
             "l2_requests": 2, "int_ops": 3}]
    records = parse_counter_file(io.BytesIO(json.dumps(rows).encode()), "json")
    assert records == [KernelRecord("k0", 1e-6, 1, 2, 3)]


ROW = {"kernel_name": "k0", "duration_ns": 1000, "dram_bytes": 1,
       "l2_requests": 2, "int_ops": 3}
# The same columns under their raw profiler names, in another order.
RAW_ROW = {"smsp__sass_thread_inst_executed_op_integer_pred_on.sum": 3,
           "Kernel Name": "k0", "dram__bytes.sum": 1,
           "lts__t_requests_srcunit_tex_op_read.sum": 2,
           "gpu__time_duration.sum": 1000}


def test_columns_resolved_once_per_key_layout(monkeypatch):
    calls = []
    resolve = ingest._canonical_columns

    def counting(names, context):
        calls.append(context)
        return resolve(names, context)

    monkeypatch.setattr(ingest, "_canonical_columns", counting)
    rows = [ROW, RAW_ROW] * 50 + [dict(ROW, launch_id=7)]
    records = parse_counter_file(io.BytesIO(json.dumps(rows).encode()), "json")
    assert records == [KernelRecord("k0", 1e-6, 1, 2, 3)] * 101
    assert calls == ["row 1", "row 2", "row 101"]

    calls.clear()
    doc = profile_to_dict(make_profile(records))
    assert profile_from_dict(doc).kernels == tuple(records)
    assert calls == ["kernels[1]"]


def test_kernel_with_its_own_incomplete_layout_is_named():
    doc = profile_to_dict(make_profile([KernelRecord("k", 1e-3, 1, 1, 1)] * 20))
    del doc["kernels"][16]["dram_bytes"]
    with pytest.raises(SchemaError, match=r"kernels\[17\].*dram_bytes"):
        profile_from_dict(doc)


@pytest.mark.parametrize("duration", [0.0, -1e-3, math.inf, math.nan, 1e300])
def test_kernel_duration_must_be_finite_and_positive(duration):
    # 1e300 s overflows to inf in the nanoseconds a profile stores.
    with pytest.raises(ValidationError, match="duration must be finite and > 0"):
        KernelRecord("k", duration, 1, 1, 1)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_aggregate_direct_arithmetic(a100):
    profile = make_profile([KernelRecord("k", 1.0, 100 * 10**9, 10**6, 50 * 10**9)])
    m = aggregate(profile, a100)
    assert m.ai_dram == pytest.approx(0.5)
    assert m.attained_dram_bw == pytest.approx(100e9)


def test_aggregate_l2_bytes_from_requests(a100):
    # 10^9 requests * 128 B = 128 GB; 64e9 ops / 128e9 B = 0.5 op/B
    profile = make_profile([KernelRecord("k", 1.0, 10**9, 10**9, 64 * 10**9)])
    m = aggregate(profile, a100)
    assert m.total_l2_bytes == 128e9
    assert m.ai_l2 == pytest.approx(0.5, rel=1e-12)


def test_aggregate_duplicate_kernels_double_totals_keep_ai(a100):
    k = KernelRecord("k", 0.5, 3 * 10**9, 10**7, 7 * 10**9)
    one = aggregate(make_profile([k]), a100)
    two = aggregate(make_profile([k, k]), a100)
    assert two.total_dram_bytes == 2 * one.total_dram_bytes
    assert two.total_int_ops == 2 * one.total_int_ops
    assert two.ai_dram == one.ai_dram
    assert two.ai_l2 == one.ai_l2


def test_aggregate_rejects_empty_and_degenerate(a100):
    with pytest.raises(ValidationError):
        aggregate(make_profile([]), a100)
    with pytest.raises(DegenerateProfileError):
        aggregate(make_profile([KernelRecord("k", 1.0, 0, 10, 10)]), a100)
    with pytest.raises(DegenerateProfileError):
        aggregate(make_profile([KernelRecord("k", 1.0, 10, 0, 10)]), a100)


kernel_strategy = st.builds(
    KernelRecord,
    kernel_name=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1, max_size=8),
    duration=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    dram_bytes=st.integers(min_value=1, max_value=10**12),
    l2_requests=st.integers(min_value=1, max_value=10**10),
    int_ops=st.integers(min_value=1, max_value=10**13),
)


@given(st.lists(kernel_strategy, min_size=1, max_size=6), st.randoms())
def test_aggregate_permutation_invariant(kernels, rng):
    hw = HW
    base = aggregate(make_profile(kernels), hw)
    shuffled = list(kernels)
    rng.shuffle(shuffled)
    perm = aggregate(make_profile(shuffled), hw)
    assert perm == base


@given(st.lists(kernel_strategy, min_size=1, max_size=4),
       st.lists(kernel_strategy, min_size=1, max_size=4))
def test_aggregate_additive_on_disjoint_lists(left, right):
    hw = HW
    both = aggregate(make_profile(left + right), hw)
    a = aggregate(make_profile(left), hw)
    b = aggregate(make_profile(right), hw)
    assert both.total_dram_bytes == a.total_dram_bytes + b.total_dram_bytes
    assert both.total_l2_bytes == a.total_l2_bytes + b.total_l2_bytes
    assert both.total_int_ops == a.total_int_ops + b.total_int_ops
    assert both.total_duration == pytest.approx(
        a.total_duration + b.total_duration, rel=1e-12)


@given(st.lists(kernel_strategy, min_size=1, max_size=6))
def test_ai_roundtrip_identity(kernels):
    hw = HW
    m = aggregate(make_profile(kernels), hw)
    assert m.ai_dram * m.total_dram_bytes == pytest.approx(
        m.total_int_ops, rel=1e-12)


# ---------------------------------------------------------------------------
# Roof validation
# ---------------------------------------------------------------------------


def test_validate_against_roofs_counts(a100):
    clean = metrics_from_utils(a100, 0.5, 0.9, 0.5)
    assert validate_against_roofs(clean, a100) == []

    l2_hot = metrics_from_utils(a100, 0.5, 0.5, 1.1)
    warnings = validate_against_roofs(l2_hot, a100)
    assert len(warnings) == 1
    assert "L2" in warnings[0]

    all_hot = metrics_from_utils(a100, 1.2, 1.3, 1.1)
    assert len(validate_against_roofs(all_hot, a100)) == 3


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_csv_serialize_parse_fixed_point_on_golden():
    original = GOLDEN.read_text()
    records = parse_csv(original)
    emitted = serialize_kernels_csv(records)
    assert emitted == original
    assert parse_csv(emitted) == records


@given(st.lists(kernel_strategy, min_size=1, max_size=6))
def test_csv_fixed_point_after_one_canonicalization(kernels):
    first = serialize_kernels_csv(kernels)
    reparsed = parse_csv(first)
    assert serialize_kernels_csv(reparsed) == first


def test_profile_json_roundtrip():
    records = parse_csv(GOLDEN.read_text())
    profile = make_profile(
        records, query_id="q21", system="heavydb", scale_factor=16.0,
        cpu_overhead=0.012, transfer_in_bytes=7 * 10**9,
        dram_utilization=0.8, l1_hit_rate=0.9, l2_hit_rate=0.95)
    text = write_profile_json(profile)
    loaded = read_profile_json(text)
    assert loaded == profile


# Every reader makes a duration as duration_ns / NS_PER_S, and those survive
# the trip through nanoseconds exactly; an arbitrary number of seconds need
# not (30474099328243.617 s comes back as 30474099328243.613 s).
durations = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) \
    .map(lambda ns: ns / NS_PER_S).filter(lambda s: s > 0)
json_text = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\xe9\u6f22\U0001f600'),
    st.characters()))
counts = st.integers(min_value=0, max_value=2**70)
any_kernel = st.builds(KernelRecord, kernel_name=json_text, duration=durations,
                       dram_bytes=counts, l2_requests=counts, int_ops=counts)
plan_value = st.one_of(st.none(), st.booleans(), counts, json_text,
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.lists(counts, max_size=2))
any_profile = st.builds(
    make_profile, st.lists(any_kernel, max_size=4), query_id=json_text,
    system=json_text, scale_factor=st.floats(min_value=1e-3, max_value=1e3),
    cpu_overhead=st.floats(min_value=0, max_value=10), transfer_in_bytes=counts,
    dram_utilization=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1)),
    plan=st.lists(st.dictionaries(json_text, plan_value, max_size=3), max_size=3))


@given(any_profile)
def test_write_profile_json_is_indented_json_dumps(profile):
    text = write_profile_json(profile)
    assert text == json.dumps(profile_to_dict(profile), indent=2) + "\n"
    assert read_profile_json(text) == profile


def test_profile_json_rejects_unknown_and_wrong_version():
    doc = profile_to_dict(make_profile([KernelRecord("k", 1e-3, 1, 1, 1)]))
    bad = dict(doc, mystery=1)
    with pytest.raises(SchemaError, match="mystery"):
        profile_from_dict(bad)
    bad = dict(doc, schema_version=42)
    with pytest.raises(SchemaError, match="schema_version"):
        profile_from_dict(bad)


def test_profile_optional_ratios_validated():
    k = [KernelRecord("k", 1e-3, 1, 1, 1)]
    with pytest.raises(ValidationError):
        make_profile(k, dram_utilization=0.0)
    with pytest.raises(ValidationError):
        make_profile(k, l1_hit_rate=1.5)
    with pytest.raises(ValidationError):
        make_profile(k, scale_factor=0)

