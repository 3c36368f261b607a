"""Parse exported profiler counters and aggregate them per query.

Counter files are CSV (header required, UTF-8) or JSON (array of kernel
objects). Column names are either the canonical ones below or the raw
profiler metric names they alias. Extra columns are ignored: profiler
exports are wide, and we only consume the counters the models need.

Canonical columns:
    kernel_name   launch identifier
    duration_ns   kernel wall time in nanoseconds
    dram_bytes    bytes moved to/from DRAM
    l2_requests   read requests that reached L2
    int_ops       executed integer instructions (predicated-on only; the
                  per-cycle alias below is converted via the cycles column)
    cycles        elapsed cycles, required only with per-cycle int ops

Durations are stored as seconds internally; everything downstream is
seconds, bytes, and ops.
"""

from __future__ import annotations

import io
import json
import math
import sys
from array import array
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter, mul
from pathlib import Path
from typing import IO, NamedTuple

from .core import HardwareSpec
from .errors import (
    DegenerateProfileError,
    JsonChunks,
    ParseError,
    SchemaError,
    ValidationError,
    check_keys,
    coerce,
    csv_chunks,
    in_chunks,
    integral,
    read_json,
)

PROFILE_SCHEMA_VERSION = 1

NS_PER_S = 1e9

# Raw profiler metric names accepted as aliases for canonical columns.
COLUMN_ALIASES = {
    "kernel_name": "kernel_name",
    "Kernel Name": "kernel_name",
    "duration_ns": "duration_ns",
    "gpu__time_duration.sum": "duration_ns",
    "dram_bytes": "dram_bytes",
    "dram__bytes.sum": "dram_bytes",
    "l2_requests": "l2_requests",
    "lts__t_requests_srcunit_tex_op_read.sum": "l2_requests",
    "int_ops": "int_ops",
    "smsp__sass_thread_inst_executed_op_integer_pred_on.sum": "int_ops",
    "int_ops_per_cycle": "int_ops_per_cycle",
    "smsp__sass_thread_inst_executed_op_integer_pred_on.sum.per_cycle_elapsed":
        "int_ops_per_cycle",
    "cycles": "cycles",
    "gpc__cycles_elapsed.max": "cycles",
}

_COUNTER_COLUMNS = ("duration_ns", "dram_bytes", "l2_requests")

CANONICAL_HEADER = ("kernel_name", "duration_ns", "dram_bytes", "l2_requests",
                    "int_ops")

# The columns _record_from_values takes, in order, when a row gives its int
# ops per cycle; otherwise it takes CANONICAL_HEADER.
_PER_CYCLE_COLUMNS = (*CANONICAL_HEADER[:-1], "int_ops_per_cycle", "cycles")
_CANONICAL_POSITIONS = tuple(range(len(CANONICAL_HEADER)))


# typing.NamedTuple may not define __new__, so KernelRecord's checks live in
# a subclass.
class _KernelFields(NamedTuple):
    kernel_name: str
    duration: float     # seconds
    dram_bytes: int
    l2_requests: int
    int_ops: int


class KernelRecord(_KernelFields):
    """Counters for one kernel launch, an immutable named tuple.

    The constructor, _make and _replace all check the counters. The column
    reader checks whole columns and then builds records with tuple.__new__.
    """

    __slots__ = ()

    def __new__(cls, kernel_name: str, duration: float, dram_bytes: int,
                l2_requests: int, int_ops: int):
        # Profiles store nanoseconds, so those must be finite too.
        if not (duration > 0 and math.isfinite(duration * NS_PER_S)):
            raise ValidationError(
                f"kernel {kernel_name!r}: duration must be finite and > 0, "
                f"got {duration}")
        for fname, value in (("dram_bytes", dram_bytes),
                             ("l2_requests", l2_requests), ("int_ops", int_ops)):
            if value < 0:
                raise ValidationError(
                    f"kernel {kernel_name!r}: {fname} must be >= 0")
        return tuple.__new__(cls, (kernel_name, duration, dram_bytes,
                                   l2_requests, int_ops))

    @classmethod
    def _make(cls, iterable) -> KernelRecord:
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)


# A record from one row of values already checked, as a KernelColumns holds.
_checked_record = partial(tuple.__new__, KernelRecord)


class KernelColumns(Sequence):
    """The kernels of a profile, an immutable sequence of KernelRecords held
    as five columns, about 44 bytes a kernel: the names, the durations in an
    array('d') and the counts in arrays('q'). A column with a value an array
    would change (an int duration, a count past int64) stays a list, so each
    value reads back as it went in. ==, hash and repr are the tuple's.
    """

    __slots__ = ("_columns",)

    def __init__(self, records: Iterable[KernelRecord] = ()):
        self._columns = [[], array("d"), array("q"), array("q"), array("q")]
        if records:
            self._extend(zip(*map(KernelRecord._make, records)), checked=False)

    def _extend(self, columns: Iterable[Sequence], checked: bool = True) -> None:
        """Append rows given as their five columns. checked: the durations
        are floats and the counts ints, as the readers make them; otherwise
        each column's types are looked at first."""
        for i, values in enumerate(columns):
            column = self._columns[i]
            if type(column) is array:
                kind = float if column.typecode == "d" else int
                if checked or set(map(type, values)) <= {kind}:
                    size = len(column)
                    try:
                        column.extend(values)
                        continue
                    except OverflowError:   # a count past int64
                        del column[size:]
                column = self._columns[i] = column.tolist()
            column.extend(values)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        row = (column[index] for column in self._columns)
        if isinstance(index, slice):
            return tuple(map(_checked_record, zip(*row)))
        return _checked_record(row)

    def __iter__(self):
        return map(_checked_record, zip(*self._columns))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class QueryProfile:
    """One profiled query execution: kernel counters plus host-side costs.

    The cache hit rates and DRAM utilization are optional query-level
    counters from a single profiling run. They are checked and carried
    through the profile file, but no model reads them.
    """

    query_id: str
    system: str
    scale_factor: float
    kernels: Sequence[KernelRecord]     # held as KernelColumns
    cpu_overhead: float = 0.0       # planning + compile + per-invocation CPU cost
    setup_overhead: float = 0.0     # context init + allocations, paid once
    transfer_in_bytes: int = 0
    transfer_out_bytes: int = 0
    dram_utilization: float | None = None
    l1_hit_rate: float | None = None
    l2_hit_rate: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.scale_factor) and self.scale_factor > 0):
            raise ValidationError(
                f"scale_factor must be finite and > 0, got {self.scale_factor}")
        for fname in ("cpu_overhead", "setup_overhead", "transfer_in_bytes",
                      "transfer_out_bytes"):
            value = getattr(self, fname)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(
                    f"{fname} must be finite and >= 0, got {value}")
        if self.dram_utilization is not None and not 0 < self.dram_utilization <= 1:
            raise ValidationError(
                f"dram_utilization must be in (0, 1], got {self.dram_utilization}")
        for fname in ("l1_hit_rate", "l2_hit_rate"):
            value = getattr(self, fname)
            if value is not None and not 0 <= value <= 1:
                raise ValidationError(f"{fname} must be in [0, 1], got {value}")
        if type(self.kernels) is not KernelColumns:
            object.__setattr__(self, "kernels", KernelColumns(self.kernels))


@dataclass(frozen=True)
class AggregateMetrics:
    """Per-query scalar totals and the rates derived from them."""

    total_duration: float       # seconds
    total_dram_bytes: float
    total_l2_bytes: float
    total_int_ops: float
    ai_dram: float              # ops / byte
    ai_l2: float                # ops / byte
    attained_compute_bw: float  # ops / second
    attained_dram_bw: float     # bytes / second
    attained_l2_bw: float       # bytes / second


# ---------------------------------------------------------------------------
# Counter file parsing
# ---------------------------------------------------------------------------


def _canonical_columns(names: Sequence[str], context: str) -> tuple[int, ...]:
    """Positions in names of the columns a record reads, in record order.

    The order is CANONICAL_HEADER, or _PER_CYCLE_COLUMNS when there is no
    int_ops column. Unknown columns are ignored.
    """
    if tuple(names) == CANONICAL_HEADER:    # every profile roofcast writes
        return _CANONICAL_POSITIONS
    positions = {}
    for i, name in enumerate(names):
        canon = COLUMN_ALIASES.get(name)
        if canon is None:
            continue
        if canon in positions:
            raise SchemaError(f"{context}: duplicate column for {canon!r}")
        positions[canon] = i
    missing = [c for c in ("kernel_name", *_COUNTER_COLUMNS) if c not in positions]
    if "int_ops" not in positions and "int_ops_per_cycle" not in positions:
        missing.append("int_ops")
    if "int_ops_per_cycle" in positions and "int_ops" not in positions \
            and "cycles" not in positions:
        raise SchemaError(
            f"{context}: per-cycle int ops require a 'cycles' column")
    if missing:
        raise SchemaError(f"{context}: missing required column(s) {missing}")
    order = CANONICAL_HEADER if "int_ops" in positions else _PER_CYCLE_COLUMNS
    return tuple(map(positions.__getitem__, order))


def _finite(raw: object) -> float:
    """raw as a finite float, or TypeError, ValueError or OverflowError."""
    value = float(raw)
    if raw.__class__ is bool or not math.isfinite(value):
        raise ValueError(raw)
    return value


def _why_not(raw: object) -> str:
    """Why _finite or integral rejected raw."""
    if isinstance(raw, bool):
        return f"not a number: {raw!r}"
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return f"not a number: {raw!r}"
    except OverflowError:
        return "too large for a float"
    if not math.isfinite(value):
        return "non-finite value"
    return f"not an integer: {raw!r}"


def _conversion_error(values: tuple, row: int) -> ParseError:
    """The ParseError naming the first column of values that fails to convert."""
    per_cycle = len(values) == len(_PER_CYCLE_COLUMNS)
    columns = _PER_CYCLE_COLUMNS if per_cycle else CANONICAL_HEADER
    for column, raw in zip(columns[1:], values[1:]):
        is_count = column not in ("duration_ns", "int_ops_per_cycle")
        try:
            (integral if is_count else _finite)(raw)
        except (TypeError, ValueError, OverflowError):
            return ParseError(f"row {row}: column {column!r}: {_why_not(raw)}")
    rate, cycles = values[-2:]
    return ParseError(
        f"row {row}: column 'int_ops_per_cycle': {rate!r} per cycle over "
        f"{cycles!r} cycles is too large for a float")


def _record_from_values(values: tuple, row: int) -> KernelRecord:
    """values: one row's CANONICAL_HEADER or _PER_CYCLE_COLUMNS, in order."""
    try:
        if len(values) == len(CANONICAL_HEADER):
            name, duration_ns, dram, l2, ops = values
            ops = integral(ops)
        else:
            name, duration_ns, dram, l2, per_cycle, cycles = values
            ops = integral(round(_finite(per_cycle) * integral(cycles)))
        return KernelRecord(str(name), _finite(duration_ns) / NS_PER_S,
                            integral(dram), integral(l2), ops)
    except ValidationError as exc:
        raise ValidationError(f"row {row}: {exc}") from None
    except (TypeError, ValueError, OverflowError):
        raise _conversion_error(values, row) from None


def _finite_column(column: tuple) -> Sequence[float]:
    """Each cell as _finite converts it; an exception if any cell fails."""
    kind, = set(map(type, column))      # ValueError for a mixed column
    if kind is not float:
        if kind is not int and kind is not str:
            raise TypeError(kind)
        column = list(map(float, column))
    # A sum is finite only if every term is (and may overflow: a refusal).
    if not math.isfinite(sum(column)):
        raise ValueError("non-finite value")
    return column


def _integral_columns(*columns: tuple) -> Sequence[Sequence[int]]:
    """Each cell of columns as errors.integral converts it; an exception if
    any cell fails. Int columns stay exact."""
    kind, = set(map(type, chain(*columns)))    # ValueError for mixed cells
    if kind is int:
        # integral rejects an int too large for a float; the extremes decide.
        float(min(map(min, columns)))
        float(max(map(max, columns)))
        return columns
    if kind is str:
        columns = [list(map(float, column)) for column in columns]
    elif kind is not float:
        raise TypeError(kind)
    if not all(map(float.is_integer, chain(*columns))):
        raise ValueError("not an integer")
    return [list(map(int, column)) for column in columns]


def _column_records(values: list[tuple]) -> tuple[Sequence, ...] | None:
    """The five columns of what _record_from_values makes of each row of
    values, converted and checked a column at a time; None when a cell needs
    that row-by-row path, which raises the error naming its row and column."""
    try:
        if len(values[0]) == len(CANONICAL_HEADER):
            names, durations, dram, l2, ops = zip(*values)
            dram, l2, ops = _integral_columns(dram, l2, ops)
        else:
            names, durations, dram, l2, rates, cycles = zip(*values)
            dram, l2, cycles = _integral_columns(dram, l2, cycles)
            # round of an infinite product raises OverflowError.
            ops = list(map(round, map(mul, _finite_column(rates), cycles)))
        durations = [ns / NS_PER_S for ns in _finite_column(durations)]
    except (TypeError, ValueError, OverflowError):
        return None
    # str(name) of another type, and KernelRecord's checks, on whole columns.
    if not (set(map(type, names)) == {str}
            and min(durations) > 0 and math.isfinite(max(durations) * NS_PER_S)
            and min(dram) >= 0 and min(l2) >= 0 and min(ops) >= 0):
        return None
    # An export repeats a few kernel names many times: keep one copy of each.
    return list(map(sys.intern, names)), durations, dram, l2, ops


def _records_from_objects(chunks: Iterable[list], label: str,
                          not_mapping: str) -> KernelColumns:
    """One record per kernel object in chunks (lists of at most
    CSV_CHUNK_ROWS), its columns resolved once per key layout.

    A chunk of dicts that share one key layout is read a column at a time.
    label ("row {}") names the 1-based position in a layout error and
    not_mapping is the message for an entry that is not a mapping.
    """
    getters = {}

    def getter_of(layout: tuple, i: int) -> itemgetter:
        getter = getters.get(layout)
        if getter is None:
            positions = _canonical_columns(layout, label.format(i))
            getter = getters[layout] = itemgetter(
                *map(layout.__getitem__, positions))
        return getter

    kernels = KernelColumns()
    start = 0
    for chunk in chunks:
        columns = None
        if set(map(type, chunk)) == {dict}:
            layout = tuple(chunk[0])
            if all(map(layout.__eq__, map(tuple, chunk))):
                getter = getter_of(layout, start + 1)
                columns = _column_records(list(map(getter, chunk)))
        if columns is None:
            records = []
            for i, obj in enumerate(chunk, start=start + 1):
                if not isinstance(obj, Mapping):
                    raise SchemaError(not_mapping.format(i))
                values = getter_of(tuple(obj), i)(obj)
                records.append(_record_from_values(values, i))
            columns = zip(*records)
        kernels._extend(columns)
        start += len(chunk)
    return kernels


def parse_counter_file(stream: IO[bytes], format: str = "csv") -> KernelColumns:
    """Parse a profiler counter export into one record per kernel launch,
    held as columns.

    The stream must be seekable: csv_chunks reads a CSV file twice, and a
    JSON file is read again whole when JsonChunks cannot read it.
    """
    if format not in ("csv", "json"):
        raise ValidationError(f"unsupported counter format {format!r}")
    source = getattr(stream, "name", "counter file")
    if format == "json":
        try:
            return _records_from_objects(JsonChunks(stream, source), "row {}",
                                         "row {}: expected an object")
        except ValidationError:
            stream.seek(0)
        # Read whole, the document names its first fault.
        rows = read_json(stream, source, "JSON counter file")
        if not isinstance(rows, list):
            raise SchemaError("JSON counter file must be an array of kernel objects")
        return _records_from_objects(in_chunks(rows), "row {}",
                                     "row {}: expected an object")

    chunks = csv_chunks(stream, source, "counter file")
    _, [header] = next(chunks)
    getter = itemgetter(*_canonical_columns(header, "header"))
    kernels = KernelColumns()
    for row_no, rows in chunks:
        # Rows that are empty or short go row by row, which skips or names them.
        full = list(filter(None, rows))
        columns = None
        if full and min(map(len, full)) >= len(header):
            columns = _column_records(list(map(getter, full)))
        if columns is None:
            records = []
            for i, row in enumerate(rows, start=row_no):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < len(header):
                    raise ParseError(
                        f"row {i}: expected {len(header)} fields, got {len(row)}")
                records.append(_record_from_values(getter(row), i))
            columns = zip(*records)
        kernels._extend(columns)
        # Free this chunk's cells before csv_chunks reads the next one.
        del rows, full, columns
    return kernels


def _format_ns(duration_s: float) -> str:
    ns = duration_s * NS_PER_S
    if math.isclose(ns, round(ns), rel_tol=0.0, abs_tol=1e-6):
        return str(int(round(ns)))
    return repr(ns)


def serialize_kernels_csv(records: Iterable[KernelRecord]) -> str:
    """Emit kernels in the canonical CSV layout (the parse fixed point)."""
    lines = [",".join(CANONICAL_HEADER)]
    for rec in records:
        lines.append(",".join((
            rec.kernel_name,
            _format_ns(rec.duration),
            str(rec.dram_bytes),
            str(rec.l2_requests),
            str(rec.int_ops),
        )))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def aggregate(profile: QueryProfile, hw: HardwareSpec) -> AggregateMetrics:
    """Sum kernel counters and derive intensities and attained bandwidths.

    L2 traffic is request-based: total bytes read from L2 are the summed
    request count times the per-request cacheline size of the hardware.
    """
    if not profile.kernels:
        raise ValidationError(
            f"profile {profile.query_id!r}: no kernels; GPU-time predictions "
            "need at least one kernel record")
    _, durations, dram, requests, ops = profile.kernels._columns
    try:
        # fsum keeps aggregation exactly permutation-invariant.
        total_duration = math.fsum(durations)
        total_dram = float(sum(dram))
        total_l2 = float(sum(requests) * hw.l2_request_bytes)
        total_ops = float(sum(ops))
    except OverflowError:
        raise ValidationError(
            f"profile {profile.query_id!r}: a kernel total is too large for "
            "a float") from None
    if total_dram == 0 or total_l2 == 0:
        raise DegenerateProfileError(
            f"profile {profile.query_id!r}: zero bytes at "
            f"{'DRAM' if total_dram == 0 else 'L2'} level; "
            "arithmetic intensity undefined")
    # A kernel duration can be positive and finite yet so short that the
    # attained rates overflow; the largest total over it is the largest rate.
    if not max(total_ops, total_dram, total_l2) / total_duration < math.inf:
        raise ValidationError(
            f"profile {profile.query_id!r}: attained rates are not finite; "
            f"total duration {total_duration} s is too short for its counters")
    return AggregateMetrics(
        total_duration=total_duration,
        total_dram_bytes=total_dram,
        total_l2_bytes=total_l2,
        total_int_ops=total_ops,
        ai_dram=total_ops / total_dram,
        ai_l2=total_ops / total_l2,
        attained_compute_bw=total_ops / total_duration,
        attained_dram_bw=total_dram / total_duration,
        attained_l2_bw=total_l2 / total_duration,
    )


def validate_against_roofs(m: AggregateMetrics, hw: HardwareSpec) -> list[str]:
    """Warn for every attained bandwidth that exceeds its hardware ceiling."""
    warnings = []
    if m.attained_compute_bw > hw.peak_compute_bw:
        warnings.append(
            f"attained compute bandwidth {m.attained_compute_bw:.4g} ops/s "
            f"exceeds peak {hw.peak_compute_bw:.4g} ops/s")
    if m.attained_dram_bw > hw.peak_dram_bw:
        warnings.append(
            f"attained DRAM bandwidth {m.attained_dram_bw:.4g} B/s "
            f"exceeds peak {hw.peak_dram_bw:.4g} B/s")
    if m.attained_l2_bw > hw.peak_l2_bw:
        warnings.append(
            f"attained L2 bandwidth {m.attained_l2_bw:.4g} B/s "
            f"exceeds peak {hw.peak_l2_bw:.4g} B/s")
    return warnings


# ---------------------------------------------------------------------------
# Profile JSON document
# ---------------------------------------------------------------------------

_PROFILE_REQUIRED = {
    "schema_version", "query_id", "system", "scale_factor", "kernels"}
_PROFILE_OPTIONAL = {
    "cpu_overhead_s", "setup_overhead_s", "transfer_in_bytes",
    "transfer_out_bytes", "dram_utilization", "l1_hit_rate", "l2_hit_rate",
    "plan"}


def _header_dict(profile: QueryProfile) -> dict:
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "query_id": profile.query_id,
        "system": profile.system,
        "scale_factor": profile.scale_factor,
        "cpu_overhead_s": profile.cpu_overhead,
        "setup_overhead_s": profile.setup_overhead,
        "transfer_in_bytes": profile.transfer_in_bytes,
        "transfer_out_bytes": profile.transfer_out_bytes,
        "dram_utilization": profile.dram_utilization,
        "l1_hit_rate": profile.l1_hit_rate,
        "l2_hit_rate": profile.l2_hit_rate,
    }


def profile_to_dict(profile: QueryProfile) -> dict:
    return {
        **_header_dict(profile),
        "kernels": [
            {
                "kernel_name": k.kernel_name,
                "duration_ns": k.duration * NS_PER_S,
                "dram_bytes": k.dram_bytes,
                "l2_requests": k.l2_requests,
                "int_ops": k.int_ops,
            }
            for k in profile.kernels
        ],
        "plan": [],     # a reserved key, always written empty
    }


_PROFILE_KEYS = ("profile document", _PROFILE_REQUIRED, _PROFILE_OPTIONAL,
                 PROFILE_SCHEMA_VERSION)
_KERNEL_NOT_MAPPING = "profile document: kernels[{}] must be a mapping"


def profile_from_dict(doc: Mapping) -> QueryProfile:
    check_keys(doc, *_PROFILE_KEYS)
    if not isinstance(doc["kernels"], list):
        raise SchemaError("profile document: kernels must be a list")
    return _profile(doc, _records_from_objects(
        in_chunks(doc["kernels"]), "kernels[{}]", _KERNEL_NOT_MAPPING))


def _profile(doc: Mapping, kernels: KernelColumns) -> QueryProfile:
    """The profile of kernels and of the other members of doc, a profile
    document whose keys were checked."""
    # "plan" is a reserved key: checked, then ignored.
    plan = doc.get("plan") or []
    if not (isinstance(plan, list) and all(isinstance(op, Mapping) for op in plan)):
        raise SchemaError("profile document: plan must be a list of mappings")

    def number(key, cast=float, default=0.0):
        return coerce(doc.get(key, default), cast, f"profile document: {key}")

    def optional(key):
        return None if doc.get(key) is None else number(key)

    return QueryProfile(
        query_id=str(doc["query_id"]),
        system=str(doc["system"]),
        scale_factor=number("scale_factor"),
        kernels=kernels,
        cpu_overhead=number("cpu_overhead_s"),
        setup_overhead=number("setup_overhead_s"),
        transfer_in_bytes=number("transfer_in_bytes", int, 0),
        transfer_out_bytes=number("transfer_out_bytes", int, 0),
        dram_utilization=optional("dram_utilization"),
        l1_hit_rate=optional("l1_hit_rate"),
        l2_hit_rate=optional("l2_hit_rate"),
    )


# One kernel object as json.dumps(..., indent=2) lays it out in "kernels".
_KERNEL_JSON = (
    '    {{\n'
    '      "kernel_name": {},\n'
    '      "duration_ns": {},\n'
    '      "dram_bytes": {},\n'
    '      "l2_requests": {},\n'
    '      "int_ops": {}\n'
    '    }}').format


def write_profile_json(profile: QueryProfile,
                       sink: IO[str] | None = None) -> str | None:
    """json.dumps(profile_to_dict(profile), indent=2) + "\\n", byte for byte,
    written to the text sink CSV_CHUNK_ROWS kernels at a time; with no sink,
    returned as a str.

    json.dumps with indent encodes in pure Python, so the kernels, most of a
    wide profile, go through one fixed template instead. KernelRecord keeps
    durations finite in nanoseconds, and for a finite float json.dumps
    writes float.__repr__.
    """
    out = io.StringIO() if sink is None else sink
    head = json.dumps(_header_dict(profile), indent=2)[:-2]   # drop "\n}"
    out.write(f'{head},\n  "kernels": ')
    for i, chunk in enumerate(zip(*map(in_chunks, profile.kernels._columns))):
        out.write(",\n" if i else "[\n")
        out.write(",\n".join([
            _KERNEL_JSON(encode_basestring_ascii(name),
                         float.__repr__(duration * NS_PER_S), int.__repr__(dram),
                         int.__repr__(l2), int.__repr__(ops))
            for name, duration, dram, l2, ops in zip(*chunk)]))
    out.write("\n  ]" if profile.kernels else "[]")
    out.write(',\n  "plan": []\n}\n')
    return out.getvalue() if sink is None else None


def read_profile_json(stream: IO[bytes],
                      source: object = "profile") -> QueryProfile:
    """The profile in the JSON document in a seekable binary stream; errors
    name source, its file.

    The kernels are read and checked CSV_CHUNK_ROWS at a time, then the other
    members as profile_from_dict checks them. On any fault the stream is
    read again whole, so the error is the one profile_from_dict raises for
    the whole document.
    """
    chunks = JsonChunks(stream, source, "kernels")
    try:
        kernels = _records_from_objects(chunks, "kernels[{}]",
                                        _KERNEL_NOT_MAPPING)
        doc = {**chunks.members, "kernels": kernels}
        check_keys(doc, *_PROFILE_KEYS)
        return _profile(doc, kernels)
    except ValidationError:
        stream.seek(0)
    return profile_from_dict(read_json(stream, source, "profile JSON"))


def load_profile(path: str | Path,
                 opener: Callable[[str | Path], IO[bytes]]) -> QueryProfile:
    """The profile in a JSON file opened with opener; errors name path."""
    with opener(path) as stream:
        return read_profile_json(stream, path)

