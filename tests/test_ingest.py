import csv
import io
import json
import math
import random
import tracemalloc
from collections.abc import Mapping
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from roofcast.errors import (
    CSV_CHUNK_ROWS,
    DegenerateProfileError,
    ParseError,
    SchemaError,
    ValidationError,
    parse_json,
    utf8_text,
)
from roofcast import ingest
from roofcast.ingest import (
    CANONICAL_HEADER,
    NS_PER_S,
    KernelRecord,
    QueryProfile,
    aggregate,
    load_profile,
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


CANONICAL_HEADER_LINE = ",".join(CANONICAL_HEADER) + "\n"


def parse_csv(text: str):
    return parse_counter_file(io.BytesIO(text.encode()), "csv")


def make_profile(kernels, **kwargs) -> QueryProfile:
    defaults = dict(query_id="q", system="test", scale_factor=1.0)
    defaults.update(kwargs)
    return QueryProfile(kernels=tuple(kernels), **defaults)


def reread(profile: QueryProfile) -> QueryProfile:
    """profile written as JSON and read back."""
    return read_profile_json(io.BytesIO(write_profile_json(profile).encode()))


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
    rows.append(dict(rows[0], kernel_name=7))    # a name is read as text
    records = parse_counter_file(io.BytesIO(json.dumps(rows).encode()), "json")
    assert records[1].kernel_name == "7"


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


@pytest.mark.parametrize("duration", [0.0, -1e-3, math.inf, math.nan, 1e300,
                                      -1])
def test_kernel_duration_must_be_finite_and_positive(duration):
    # 1e300 s overflows to inf in the nanoseconds a profile stores. The
    # constructor, _make and _replace all check, a negative count too.
    record = KernelRecord("k", 1e-3, 1, 1, 1)
    bad = [({"duration": duration}, "duration must be finite and > 0")]
    bad += [({name: -1}, f"{name} must be >= 0")
            for name in ("dram_bytes", "l2_requests", "int_ops")]
    for fields, message in bad:
        values = {**record._asdict(), **fields}
        for make in (lambda: KernelRecord(**values),
                     lambda: KernelRecord._make(values.values()),
                     lambda: record._replace(**fields)):
            with pytest.raises(ValidationError, match=message):
                make()
    with pytest.raises(AttributeError):
        record.duration = 1.0


# ---------------------------------------------------------------------------
# The column reader against the row-by-row reference
# ---------------------------------------------------------------------------

CHUNK = ingest._CHUNK_ROWS
PER_CYCLE_HEADER = ("kernel_name", "duration_ns", "dram_bytes", "l2_requests",
                    "int_ops_per_cycle", "cycles")


def reference_objects(objects, label, not_mapping):
    """Each kernel object converted alone, as the reader did before it read
    columns; _record_from_values is still its one row conversion."""
    records = []
    for i, obj in enumerate(objects, start=1):
        if not isinstance(obj, Mapping):
            raise SchemaError(not_mapping.format(i))
        layout = tuple(obj)
        positions = ingest._canonical_columns(layout, label.format(i))
        getter = itemgetter(*(layout[j] for j in positions))
        records.append(ingest._record_from_values(getter(obj), i))
    return records


def reference_csv(text):
    """Each CSV row converted alone, as the reader did before it read
    columns."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    getter = itemgetter(*ingest._canonical_columns(header, "header"))
    records = []
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise ParseError(
                f"row {row_no}: expected {len(header)} fields, got {len(row)}")
        records.append(ingest._record_from_values(getter(row), row_no))
    return records


def outcome(read):
    """repr of the records (so 1 and 1.0 differ), or the error raised."""
    try:
        return repr(list(read()))
    except Exception as exc:
        return type(exc), str(exc)


# Cells a reader must convert exactly or refuse by name; the listed ones
# are drawn about half the time.
special_cell = st.sampled_from([
    True, False, math.inf, -math.inf, math.nan, -1, -2.0, 7, 2.5, 0, 10**400,
    "Infinity", "-inf", "nan", "NaN", "1" * 400, "1e6", " 12 ", "1_000", "2.5",
    "-4", "0x10", "", "  "])
wild_cell = st.one_of(
    special_cell, special_cell, special_cell,
    st.integers(min_value=-3, max_value=2**64),
    st.floats(),
    st.integers(min_value=0, max_value=10**6).map(float),
    st.text(max_size=3),
)


@st.composite
def kernel_rows(draw):
    """A header, and rows around a chunk boundary: every column valid and in
    one representation (int, float or text), then a few cells replaced by
    wild ones and a few rows cut short or blanked. Sizes and positions come
    from rng, as draws would crowd them at their first choices."""
    rng = draw(st.randoms(use_true_random=True))
    header = rng.choice([CANONICAL_HEADER, PER_CYCLE_HEADER])
    if rng.random() < 0.5:
        header = (*header, "launch_id")     # a column no record reads
    n = rng.choice([1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    kinds = [rng.choice([int, float, str]) for _ in header]

    def valid(column, kind):
        if column in ("duration_ns", "int_ops_per_cycle"):
            value = rng.choice([rng.randint(1, 10**9), rng.uniform(1, 1e6)])
        else:
            value = rng.randint(0, 2**62)
        if kind is str:
            return repr(value)
        return kind(value) if kind is float or column == "cycles" else \
            int(value)

    def row_index():
        edges = [0, n - 1, min(CHUNK - 1, n - 1), min(CHUNK, n - 1)]
        return rng.choice([*edges, rng.randrange(n)])

    rows = [[f"k{rng.randrange(4)}"]
            + [valid(column, kind) for column, kind in zip(header[1:], kinds)]
            for _ in range(n)]
    for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
        column = rng.choice([rng.randrange(len(header)), 1])  # often duration
        rows[row_index()][column] = draw(wild_cell)
    if rng.random() < 0.2:
        i = row_index()
        rows[i] = rng.choice([rows[i][:rng.randrange(len(header))],
                              ["  "] * len(header)])
    return header, rows


@settings(max_examples=150, deadline=None)
@given(kernel_rows())
def test_column_reader_matches_row_by_row_reference(case):
    header, rows = case
    sink = io.StringIO()
    csv.writer(sink).writerows([header, *rows])
    text = sink.getvalue()
    assert outcome(lambda: parse_csv(text)) == \
        outcome(lambda: reference_csv(text))

    objects = [dict(zip(header, row)) for row in rows]
    data = json.dumps(objects).encode()
    assert outcome(lambda: parse_counter_file(io.BytesIO(data), "json")) == \
        outcome(lambda: reference_objects(json.loads(data), "row {}",
                                          "row {}: expected an object"))

    doc = {"schema_version": 1, "query_id": "q", "system": "s",
           "scale_factor": 1.0, "kernels": objects}
    assert outcome(lambda: profile_from_dict(doc).kernels) == \
        outcome(lambda: reference_objects(
            objects, "kernels[{}]",
            "profile document: kernels[{}] must be a mapping"))


def test_clean_columns_are_never_read_row_by_row(monkeypatch):
    def row_by_row(values, row):
        raise AssertionError(f"row {row} read alone")

    monkeypatch.setattr(ingest, "_record_from_values", row_by_row)
    n = 2 * CHUNK + 1
    csv_text = CANONICAL_HEADER_LINE + "k,1000,1,2,3\n" * n
    per_cycle = ",".join(PER_CYCLE_HEADER) + "\n" + "k,1e3,1,2,0.5,6\n" * n
    assert parse_csv(csv_text) == [KernelRecord("k", 1e-6, 1, 2, 3)] * n
    assert parse_csv(per_cycle) == [KernelRecord("k", 1e-6, 1, 2, 3)] * n
    records = parse_counter_file(
        io.BytesIO(json.dumps([RAW_ROW] * n).encode()), "json")
    assert records == [KernelRecord("k0", 1e-6, 1, 2, 3)] * n
    profile = make_profile(records)
    assert reread(profile) == profile


def test_wide_csv_parse_keeps_no_copy_of_the_text(tmp_path):
    # 4,000 kernels with 30 number columns and one long text column the
    # reader ignores, about 2.6 MB: the records and a chunk of rows cost
    # less than the file, a copy of its bytes or its text would not.
    rng = random.Random(4)
    header = [*CANONICAL_HEADER, *(f"extra_{j}" for j in range(30)), "args"]
    rows = [[f"kernel_{i % 8}", rng.randint(10**3, 10**6),
             *(rng.randint(0, 10**9) for _ in range(3)),
             *(rng.randint(0, 1 << 20) for _ in range(30)), "(int*) " * 57]
            for i in range(4000)]
    path = tmp_path / "wide.csv"
    with path.open("w", newline="") as sink:
        csv.writer(sink).writerows([header, *rows])
    del rows
    tracemalloc.start()
    try:
        with path.open("rb") as stream:
            records = parse_counter_file(stream, "csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 4000
    assert peak < path.stat().st_size


def test_csv_parse_holds_one_chunk_of_rows_at_a_time():
    # 4,000 kernels with 60 extra columns. Over the records it returns, the
    # parse peaks at the chunk of rows it is reading: the chunk before it
    # must be freed first, or the peak holds two.
    rng = random.Random(5)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([*CANONICAL_HEADER, *(f"extra_{j}" for j in range(60))])
    writer.writerows([f"k{i}", 1000 + i, 4096, 64, 10**6,
                      *(rng.randint(0, 1 << 20) for _ in range(60))]
                     for i in range(4000))
    data = text.getvalue().encode()
    del text, writer
    first_chunk = data.splitlines(keepends=True)[1:1 + CSV_CHUNK_ROWS]
    stream = io.BytesIO(data)
    tracemalloc.start()
    try:
        rows = list(csv.reader(map(bytes.decode, first_chunk)))
        one_chunk, _ = tracemalloc.get_traced_memory()
        del rows
        tracemalloc.reset_peak()
        records = parse_counter_file(stream, "csv")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 4000
    assert peak - held < 1.5 * one_chunk


# Blocks of the UTF-8 check are 64 KiB: a character split across the first
# boundary, a bad byte just after it, a character cut short at the end, and
# a bad byte after a row error, which is still named first.
BLOCK = 1 << 16
HEAD = CANONICAL_HEADER_LINE.encode()
UTF8_CASES = {
    "split_character": (
        HEAD + b"k" * (BLOCK - 1 - len(HEAD)) + "\u20ac,1,2,3,4\n".encode(),
        None),
    "bad_byte_after_the_boundary": (
        HEAD + b"k" * (BLOCK - len(HEAD)) + b"\xff,1,2,3,4\n",
        rf"invalid start byte at byte {BLOCK}\)"),
    "cut_short_at_the_end": (
        HEAD + b"k,1,2,3,4\n" + "\u20ac".encode()[:2],
        rf"unexpected end of data at byte {len(HEAD) + 10}\)"),
    "bad_byte_after_a_row_error": (
        HEAD + b"k,x,2,3,4\n" + b"k,1,2,3,4\n" * BLOCK + b"\xff\n",
        rf"invalid start byte at byte {len(HEAD) + 10 * (BLOCK + 1)}\)"),
}


@pytest.mark.parametrize("data, message", UTF8_CASES.values(), ids=UTF8_CASES)
def test_utf8_check_across_64_kib_blocks(data, message):
    stream = io.BytesIO(data)
    stream.name = "f"
    if message is None:
        records = parse_counter_file(stream, "csv")
        assert records[0] == KernelRecord("k" * (BLOCK - 1 - len(HEAD))
                                          + "\u20ac", 1e-9, 2, 3, 4)
        assert not stream.closed        # the caller's to close
        return
    with pytest.raises(ValidationError, match=rf"^f: not UTF-8 text \(" + message):
        parse_counter_file(stream, "csv")


def random_profile(n: int, seed: int) -> QueryProfile:
    rng = random.Random(seed)
    return make_profile(
        KernelRecord(f"kernel_{i % 8}", rng.randint(10**3, 10**6) / NS_PER_S,
                     *(rng.randint(0, 10**9) for _ in range(3)))
        for i in range(n))


def json_peaks(data: bytes, what: str, read) -> tuple[int, int, list]:
    """The tracemalloc peaks of parse_json on data and of read(stream),
    and the kernels read returns."""
    tracemalloc.start()
    try:
        parse_json(utf8_text(data, "p"), "p", what)
        _, parse_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kernels = read(io.BytesIO(data))
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return parse_peak, read_peak, kernels


def test_load_profile_peaks_below_its_json_parse():
    # The kernels are read 128 at a time from 64 KiB of text into columns,
    # so the peak is mostly the columns, not the text or a dict per kernel.
    data = write_profile_json(random_profile(4000, 5)).encode()
    parse_peak, load_peak, kernels = json_peaks(
        data, "profile JSON",
        lambda stream: load_profile("p", lambda path: stream).kernels)
    assert len(kernels) == 4000
    assert load_peak < 0.35 * parse_peak


def test_a_loaded_profile_holds_at_most_64_bytes_a_kernel():
    # Five columns, not a tuple per kernel: about 44 bytes a kernel.
    data = write_profile_json(random_profile(20_000, 5)).encode()
    load_profile("p", lambda path: io.BytesIO(data))   # fills lazy caches
    tracemalloc.start()
    try:
        profile = load_profile("p", lambda path: io.BytesIO(data))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(profile.kernels) == 20_000
    assert held <= 64 * 20_000


def test_json_counter_parse_peaks_below_its_json_parse():
    rng = random.Random(7)
    rows = [{**RAW_ROW, "Kernel Name": f"kernel_{i % 8}",
             **{f"extra_{j}": rng.randint(0, 1 << 20) for j in range(20)}}
            for i in range(4000)]
    data = json.dumps(rows).encode()
    del rows
    parse_peak, read_peak, kernels = json_peaks(
        data, "JSON counter file",
        lambda stream: parse_counter_file(stream, "json"))
    assert len(kernels) == 4000
    assert read_peak < 0.6 * parse_peak


class Discard(io.TextIOBase):
    """A text sink that keeps nothing written to it."""

    def write(self, text: str) -> int:
        return len(text)


def test_write_profile_json_streams_in_bounded_memory():
    peaks = []
    for n in (1000, 4000):
        profile = random_profile(n, 6)
        tracemalloc.start()
        try:
            write_profile_json(profile, Discard())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sink = io.StringIO()
        assert write_profile_json(profile, sink) is None
        assert sink.getvalue() == write_profile_json(profile) == \
            json.dumps(profile_to_dict(profile), indent=2) + "\n"
    assert peaks[1] <= 1.1 * peaks[0]


# ---------------------------------------------------------------------------
# Kernel columns
# ---------------------------------------------------------------------------

# Counts an array('q') holds and counts past it, up to what a float holds.
column_count = st.one_of(st.just(0), st.integers(0, 2**63 - 1),
                         st.integers(2**63 - 2, 2**63 + 2),
                         st.integers(0, 10**300))
column_record = st.builds(
    KernelRecord,
    kernel_name=st.text(max_size=4).map(lambda s: "k€" + s),
    duration=st.one_of(st.floats(1e-12, 1e3), st.integers(1, 10**6)),
    dram_bytes=column_count, l2_requests=column_count, int_ops=column_count)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(column_record, max_size=2 * CHUNK + 2))
def test_kernel_columns_read_back_as_the_records(rs):
    profile = make_profile(rs)
    kernels = profile.kernels
    assert kernels == tuple(rs) and kernels == rs and tuple(rs) == kernels
    assert repr(kernels) == repr(tuple(rs))
    assert hash(kernels) == hash(tuple(rs))
    assert repr(kernels[1:-1]) == repr(tuple(rs)[1:-1])
    if rs:
        assert repr(kernels[-1]) == repr(rs[-1])

    totals = (math.fsum(r.duration for r in rs),
              float(sum(r.dram_bytes for r in rs)),
              float(sum(r.l2_requests for r in rs) * HW.l2_request_bytes),
              float(sum(r.int_ops for r in rs)))
    try:
        m = aggregate(profile, HW)
    except ValidationError:
        # No kernels, no bytes at a level, or rates past a float.
        assert not rs or 0 in totals[1:3] or \
            not max(totals[1:]) / totals[0] < math.inf
    else:
        assert (m.total_duration, m.total_dram_bytes, m.total_l2_bytes,
                m.total_int_ops) == totals

    assert write_profile_json(profile) == \
        json.dumps(profile_to_dict(profile), indent=2) + "\n"


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
    assert reread(profile) == profile


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
any_profile = st.builds(
    make_profile, st.lists(any_kernel, max_size=4), query_id=json_text,
    system=json_text, scale_factor=st.floats(min_value=1e-3, max_value=1e3),
    cpu_overhead=st.floats(min_value=0, max_value=10), transfer_in_bytes=counts,
    dram_utilization=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1)))


@given(any_profile)
def test_write_profile_json_is_indented_json_dumps(profile):
    text = write_profile_json(profile)
    assert text == json.dumps(profile_to_dict(profile), indent=2) + "\n"
    assert reread(profile) == profile


def test_profile_plan_is_checked_then_ignored():
    # "plan" is a reserved key: a list of mappings loads and is dropped, so
    # the profile is written back with it empty.
    doc = profile_to_dict(make_profile([KernelRecord("k", 1e-3, 1, 1, 1)]))
    assert doc["plan"] == []
    profile = profile_from_dict(dict(doc, plan=[{"op": "scan", "rows": 4}]))
    assert profile == profile_from_dict(doc)
    assert json.loads(write_profile_json(profile))["plan"] == []


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

