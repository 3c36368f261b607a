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

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

from .core import HardwareSpec
from .errors import (
    DegenerateProfileError,
    ParseError,
    SchemaError,
    ValidationError,
    coerce,
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


@dataclass(frozen=True)
class KernelRecord:
    """Counters for one kernel launch."""

    kernel_name: str
    duration: float     # seconds
    dram_bytes: int
    l2_requests: int
    int_ops: int

    def __post_init__(self):
        if not self.duration > 0:
            raise ValidationError(
                f"kernel {self.kernel_name!r}: duration must be > 0, "
                f"got {self.duration}")
        for fname in ("dram_bytes", "l2_requests", "int_ops"):
            if getattr(self, fname) < 0:
                raise ValidationError(
                    f"kernel {self.kernel_name!r}: {fname} must be >= 0")


@dataclass(frozen=True)
class QueryProfile:
    """One profiled query execution: kernel counters plus host-side costs.

    The cache hit rates and DRAM utilization are query-level counters taken
    from a single profiling run; they are optional and only needed by the
    operator cost models and scale-factor extrapolation.
    """

    query_id: str
    system: str
    scale_factor: float
    kernels: tuple[KernelRecord, ...]
    cpu_overhead: float = 0.0       # planning + compile + per-invocation CPU cost
    setup_overhead: float = 0.0     # context init + allocations, paid once
    transfer_in_bytes: int = 0
    transfer_out_bytes: int = 0
    dram_utilization: float | None = None
    l1_hit_rate: float | None = None
    l2_hit_rate: float | None = None
    plan: tuple = ()                # operator descriptions, see opcost module

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
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "plan", tuple(self.plan))


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


def _canonical_columns(names: Iterable[str], context: str) -> dict[str, str]:
    """Map input column names to canonical ones, ignoring unknown columns."""
    mapping = {}
    for name in names:
        canon = COLUMN_ALIASES.get(name)
        if canon is None:
            continue
        if canon in mapping.values():
            raise SchemaError(f"{context}: duplicate column for {canon!r}")
        mapping[name] = canon
    present = set(mapping.values())
    missing = [c for c in ("kernel_name", *_COUNTER_COLUMNS) if c not in present]
    if "int_ops" not in present and "int_ops_per_cycle" not in present:
        missing.append("int_ops")
    if "int_ops_per_cycle" in present and "int_ops" not in present \
            and "cycles" not in present:
        raise SchemaError(
            f"{context}: per-cycle int ops require a 'cycles' column")
    if missing:
        raise SchemaError(f"{context}: missing required column(s) {missing}")
    return mapping


def _to_count(raw: object, row: int, column: str) -> int:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row}: column {column!r}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: column {column!r}: non-finite value")
    return int(round(value))


def _record_from_values(values: Mapping[str, object], row: int) -> KernelRecord:
    name = str(values["kernel_name"])
    duration_ns = values["duration_ns"]
    try:
        duration = float(duration_ns) / NS_PER_S
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row}: column 'duration_ns': not a number: {duration_ns!r}") from None
    dram = _to_count(values["dram_bytes"], row, "dram_bytes")
    l2 = _to_count(values["l2_requests"], row, "l2_requests")
    if "int_ops" in values:
        ops = _to_count(values["int_ops"], row, "int_ops")
    else:
        per_cycle = values["int_ops_per_cycle"]
        cycles = _to_count(values["cycles"], row, "cycles")
        try:
            ops = int(round(float(per_cycle) * cycles))
        except (TypeError, ValueError):
            raise ParseError(
                f"row {row}: column 'int_ops_per_cycle': not a number: "
                f"{per_cycle!r}") from None
    try:
        return KernelRecord(name, duration, dram, l2, ops)
    except ValidationError as exc:
        raise ValidationError(f"row {row}: {exc}") from None


def parse_counter_file(stream: IO[bytes], format: str = "csv") -> list[KernelRecord]:
    """Parse a profiler counter export into one record per kernel launch."""
    if format not in ("csv", "json"):
        raise ValidationError(f"unsupported counter format {format!r}")
    data = stream.read()
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
    if format == "json":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON counter file: {exc}") from exc
        if not isinstance(rows, list):
            raise SchemaError("JSON counter file must be an array of kernel objects")
        records = []
        for i, obj in enumerate(rows, start=1):
            if not isinstance(obj, dict):
                raise SchemaError(f"row {i}: expected an object")
            mapping = _canonical_columns(obj.keys(), f"row {i}")
            values = {canon: obj[name] for name, canon in mapping.items()}
            records.append(_record_from_values(values, i))
        return records

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty counter file: header row required") from None
    mapping = _canonical_columns(header, "header")
    indices = {mapping[name]: i for i, name in enumerate(header) if name in mapping}
    records = []
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise ParseError(
                f"row {row_no}: expected {len(header)} fields, got {len(row)}")
        values = {canon: row[i] for canon, i in indices.items()}
        records.append(_record_from_values(values, row_no))
    return records


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
    # fsum keeps aggregation exactly permutation-invariant.
    total_duration = math.fsum(k.duration for k in profile.kernels)
    total_dram = float(sum(k.dram_bytes for k in profile.kernels))
    total_requests = sum(k.l2_requests for k in profile.kernels)
    total_l2 = float(total_requests * hw.l2_request_bytes)
    total_ops = float(sum(k.int_ops for k in profile.kernels))
    if total_duration <= 0:
        raise ValidationError(
            f"profile {profile.query_id!r}: total duration must be > 0")
    if total_dram == 0 or total_l2 == 0:
        raise DegenerateProfileError(
            f"profile {profile.query_id!r}: zero bytes at "
            f"{'DRAM' if total_dram == 0 else 'L2'} level; "
            "arithmetic intensity undefined")
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

_PROFILE_KEYS = {
    "schema_version", "query_id", "system", "scale_factor", "kernels",
    "cpu_overhead_s", "setup_overhead_s", "transfer_in_bytes",
    "transfer_out_bytes", "dram_utilization", "l1_hit_rate", "l2_hit_rate",
    "plan",
}


def profile_to_dict(profile: QueryProfile) -> dict:
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
        "plan": [dict(op) for op in profile.plan],
    }


def profile_from_dict(doc: Mapping) -> QueryProfile:
    if not isinstance(doc, Mapping):
        raise SchemaError("profile document must be a mapping")
    unknown = set(doc) - _PROFILE_KEYS
    if unknown:
        raise SchemaError(f"profile document: unknown keys {sorted(unknown)}")
    missing = {"schema_version", "query_id", "system", "scale_factor",
               "kernels"} - set(doc)
    if missing:
        raise SchemaError(f"profile document: missing keys {sorted(missing)}")
    if doc["schema_version"] != PROFILE_SCHEMA_VERSION:
        raise SchemaError(
            f"profile document: unsupported schema_version "
            f"{doc['schema_version']!r}")
    if not isinstance(doc["kernels"], list):
        raise SchemaError("profile document: kernels must be a list")
    kernels = []
    for i, k in enumerate(doc["kernels"], start=1):
        if not isinstance(k, Mapping):
            raise SchemaError(f"profile document: kernels[{i}] must be a mapping")
        mapping = _canonical_columns(k.keys(), f"kernels[{i}]")
        values = {canon: k[name] for name, canon in mapping.items()}
        kernels.append(_record_from_values(values, i))
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
        kernels=tuple(kernels),
        cpu_overhead=number("cpu_overhead_s"),
        setup_overhead=number("setup_overhead_s"),
        transfer_in_bytes=number("transfer_in_bytes", int, 0),
        transfer_out_bytes=number("transfer_out_bytes", int, 0),
        dram_utilization=optional("dram_utilization"),
        l1_hit_rate=optional("l1_hit_rate"),
        l2_hit_rate=optional("l2_hit_rate"),
        plan=tuple(dict(op) for op in plan),
    )


def write_profile_json(profile: QueryProfile) -> str:
    return json.dumps(profile_to_dict(profile), indent=2) + "\n"


def read_profile_json(text: str) -> QueryProfile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid profile JSON: {exc}") from exc
    return profile_from_dict(doc)

