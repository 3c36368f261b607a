"""Analytical operator cost models for scan and hash-probe kernels.

Two variants:

  * crystal_*: bandwidth-only estimates that need no profiling. A column
    scan is column bytes over peak DRAM bandwidth; a hash probe adds a
    re-read of the probe column weighted by the fraction of the hash table
    that spills out of L2.
  * crystalopt_*: counter-corrected estimates for recurring queries. The
    scan term is divided by the measured DRAM utilization, and the probe
    term charges L1 misses against L2 bandwidth and L2 misses against DRAM
    bandwidth using measured hit rates (L1 hits are treated as free).

Only scan and probe are modeled; other operators are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .core import HardwareSpec
from .errors import SchemaError, ValidationError, check_keys
from .ingest import QueryProfile

DEFAULT_CACHELINE_BYTES = 128


@dataclass(frozen=True)
class ScanOp:
    """Sequential read of one column (projection / filter input)."""

    rows: int
    width_bytes: int = 4

    def __post_init__(self):
        if self.rows < 0:
            raise ValidationError(f"rows must be >= 0, got {self.rows}")
        if self.width_bytes <= 0:
            raise ValidationError(f"width_bytes must be > 0, got {self.width_bytes}")


@dataclass(frozen=True)
class ProbeOp:
    """Hash-table probe of one key column (one memory request per key)."""

    rows: int
    key_width_bytes: int = 4
    hashtable_bytes: int = 0
    l1_hit_rate: float = 0.0
    l2_hit_rate: float = 0.0
    l1_line_bytes: int = DEFAULT_CACHELINE_BYTES
    l2_line_bytes: int = DEFAULT_CACHELINE_BYTES

    def __post_init__(self):
        if self.rows < 0:
            raise ValidationError(f"rows must be >= 0, got {self.rows}")
        if self.key_width_bytes <= 0:
            raise ValidationError("key_width_bytes must be > 0")
        if self.hashtable_bytes <= 0:
            raise ValidationError("hashtable_bytes must be > 0")
        for fname in ("l1_hit_rate", "l2_hit_rate"):
            value = getattr(self, fname)
            if not 0 <= value <= 1:
                raise ValidationError(f"{fname} must be in [0, 1], got {value}")
        if self.l1_line_bytes <= 0 or self.l2_line_bytes <= 0:
            raise ValidationError("cacheline sizes must be > 0")


def probe_miss_fraction(hashtable_bytes: float, l2_capacity_bytes: float) -> float:
    """Fraction of probe accesses expected to miss L2, by capacity ratio.

    Clamped at zero: a table that fits entirely in L2 never spills.
    """
    if hashtable_bytes <= 0:
        raise ValidationError("hashtable_bytes must be > 0")
    return max(0.0, 1.0 - l2_capacity_bytes / hashtable_bytes)


def crystal_scan_time(op: ScanOp, hw: HardwareSpec) -> float:
    """Column scan at peak DRAM bandwidth."""
    return (op.width_bytes * op.rows) / hw.peak_dram_bw


def crystal_probe_time(op: ProbeOp, hw: HardwareSpec) -> float:
    """Probe-column load plus capacity-miss re-read, both at peak DRAM bw."""
    column = (op.key_width_bytes * op.rows) / hw.peak_dram_bw
    miss = probe_miss_fraction(op.hashtable_bytes, hw.l2_capacity_bytes)
    return column + miss * column


def crystalopt_scan_time(op: ScanOp, utilization: float, hw: HardwareSpec) -> float:
    """Column scan at the measured fraction of peak DRAM bandwidth."""
    if not 0 < utilization <= 1:
        raise ValidationError(
            f"utilization must be in (0, 1], got {utilization}")
    return (op.width_bytes * op.rows) / (hw.peak_dram_bw * utilization)


def crystalopt_probe_time(op: ProbeOp, utilization: float,
                          hw: HardwareSpec) -> float:
    """Counter-corrected probe: column load plus per-cache miss traffic.

    L1 misses pull one L1 line from L2, L2 misses pull one L2 line from
    DRAM; L1 hits cost nothing.
    """
    column = crystalopt_scan_time(
        ScanOp(rows=op.rows, width_bytes=op.key_width_bytes), utilization, hw)
    l2_traffic = (1.0 - op.l1_hit_rate) * op.l1_line_bytes * op.rows / hw.peak_l2_bw
    dram_traffic = (1.0 - op.l2_hit_rate) * op.l2_line_bytes * op.rows / hw.peak_dram_bw
    return column + l2_traffic + dram_traffic


# ---------------------------------------------------------------------------
# Scale-factor extrapolation
# ---------------------------------------------------------------------------


def extrapolate_sf(profile: QueryProfile, op_plan: Sequence[ScanOp | ProbeOp],
                   target_sf: float, hw: HardwareSpec,
                   scale_hashtable: bool = False) -> float:
    """Project a profiled query's GPU time to a different scale factor.

    Row counts scale linearly with the scale-factor ratio; the profile's
    measured DRAM utilization and cache hit rates are held fixed and
    substituted into every operator. Hash-table sizes stay constant unless
    scale_hashtable is set (dimension tables often grow far slower than the
    fact table); a scaled table also rescales the measured L2 hit rate by
    the change in its capacity-fit fraction, since uniformly accessed hits
    track the resident share of the table.
    """
    if target_sf <= 0:
        raise ValidationError(f"target_sf must be > 0, got {target_sf}")
    missing = [name for name in ("dram_utilization", "l1_hit_rate", "l2_hit_rate")
               if getattr(profile, name) is None]
    if missing:
        raise ValidationError(
            f"profile {profile.query_id!r} lacks counters {missing}; run the "
            "plain crystal_* estimators instead, which need no profiling")
    ratio = target_sf / profile.scale_factor
    total = 0.0
    for op in op_plan:
        if isinstance(op, ScanOp):
            scaled = replace(op, rows=int(round(op.rows * ratio)))
            total += crystalopt_scan_time(scaled, profile.dram_utilization, hw)
        elif isinstance(op, ProbeOp):
            l2_hit = profile.l2_hit_rate
            hashtable = op.hashtable_bytes
            if scale_hashtable:
                hashtable = max(1, int(round(op.hashtable_bytes * ratio)))
                fit_before = min(1.0, hw.l2_capacity_bytes / op.hashtable_bytes)
                fit_after = min(1.0, hw.l2_capacity_bytes / hashtable)
                l2_hit = min(1.0, l2_hit * (fit_after / fit_before))
            scaled = replace(
                op,
                rows=int(round(op.rows * ratio)),
                hashtable_bytes=hashtable,
                l1_hit_rate=profile.l1_hit_rate,
                l2_hit_rate=l2_hit,
            )
            total += crystalopt_probe_time(scaled, profile.dram_utilization, hw)
        else:
            raise ValidationError(f"unsupported operator {type(op).__name__}")
    return total


# ---------------------------------------------------------------------------
# Plan encoding in profile JSON ("plan" array of operator objects)
# ---------------------------------------------------------------------------

_PROBE_REQUIRED = {"op", "rows", "hashtable_bytes"}
_PROBE_OPTIONAL = {"key_width_bytes", "l1_hit_rate", "l2_hit_rate",
                   "l1_line_bytes", "l2_line_bytes"}


def op_from_dict(obj: Mapping) -> ScanOp | ProbeOp:
    kind = obj.get("op")
    if kind == "scan":
        check_keys(obj, "scan op", {"op", "rows"}, {"width_bytes"})
        return ScanOp(rows=int(obj["rows"]),
                      width_bytes=int(obj.get("width_bytes", 4)))
    if kind == "probe":
        check_keys(obj, "probe op", _PROBE_REQUIRED, _PROBE_OPTIONAL)
        return ProbeOp(
            rows=int(obj["rows"]),
            key_width_bytes=int(obj.get("key_width_bytes", 4)),
            hashtable_bytes=int(obj["hashtable_bytes"]),
            l1_hit_rate=float(obj.get("l1_hit_rate", 0.0)),
            l2_hit_rate=float(obj.get("l2_hit_rate", 0.0)),
            l1_line_bytes=int(obj.get("l1_line_bytes", DEFAULT_CACHELINE_BYTES)),
            l2_line_bytes=int(obj.get("l2_line_bytes", DEFAULT_CACHELINE_BYTES)),
        )
    raise SchemaError(f"plan operator must be 'scan' or 'probe', got {kind!r}")


def plan_from_profile(profile: QueryProfile) -> list[ScanOp | ProbeOp]:
    return [op_from_dict(obj) for obj in profile.plan]


def op_to_dict(op: ScanOp | ProbeOp) -> dict:
    if isinstance(op, ScanOp):
        return {"op": "scan", "rows": op.rows, "width_bytes": op.width_bytes}
    return {
        "op": "probe",
        "rows": op.rows,
        "key_width_bytes": op.key_width_bytes,
        "hashtable_bytes": op.hashtable_bytes,
        "l1_hit_rate": op.l1_hit_rate,
        "l2_hit_rate": op.l2_hit_rate,
        "l1_line_bytes": op.l1_line_bytes,
        "l2_line_bytes": op.l2_line_bytes,
    }
