"""Two-level roofline construction, query placement, and bound classification.

The chart has a memory slope (throughput = AI x memory bandwidth) and a flat
compute ceiling; one chart per memory level (DRAM and L2), since a query's
arithmetic intensity differs per level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .core import HardwareSpec, ResourceAllocation
from .errors import DegenerateProfileError, ValidationError
from .ingest import AggregateMetrics


class MemLevel(enum.Enum):
    DRAM = "dram"
    L2 = "l2"


class BoundKind(enum.Enum):
    COMPUTE_BOUND = "compute"
    DRAM_BOUND = "dram"
    L2_BOUND = "l2"


@dataclass(frozen=True)
class RooflineCeilings:
    """Memory and compute ceilings for one level at one allocation."""

    level: MemLevel
    mem_bw: float       # bytes / second
    compute_bw: float   # ops / second
    knee_ai: float      # ops / byte, where the slope meets the ceiling

    def roof_at(self, ai: float) -> float:
        """Maximum attainable throughput at a given arithmetic intensity."""
        return min(self.compute_bw, ai * self.mem_bw)


@dataclass(frozen=True)
class RooflinePoint:
    label: str
    ai: float           # ops / byte
    throughput: float   # ops / second
    level: MemLevel

    def __post_init__(self):
        if not self.ai > 0 or not self.throughput > 0:
            raise ValidationError(
                f"roofline point {self.label!r}: ai and throughput must be > 0")


def peak_mem_bw(hw: HardwareSpec, level: MemLevel) -> float:
    return hw.peak_dram_bw if level is MemLevel.DRAM else hw.peak_l2_bw


def mem_fraction(alloc: ResourceAllocation, level: MemLevel) -> float:
    return (alloc.dram_bw_fraction if level is MemLevel.DRAM
            else alloc.l2_bw_fraction)


def build_ceilings(hw: HardwareSpec, alloc: ResourceAllocation,
                   level: MemLevel) -> RooflineCeilings:
    """Ceilings for the given level scaled by the allocated fractions."""
    mem_bw = peak_mem_bw(hw, level) * mem_fraction(alloc, level)
    compute_bw = hw.peak_compute_bw * alloc.compute_fraction
    return RooflineCeilings(level=level, mem_bw=mem_bw, compute_bw=compute_bw,
                            knee_ai=compute_bw / mem_bw)


def ai_at(m: AggregateMetrics, level: MemLevel) -> float:
    return m.ai_dram if level is MemLevel.DRAM else m.ai_l2


def bytes_at(m: AggregateMetrics, level: MemLevel) -> float:
    return m.total_dram_bytes if level is MemLevel.DRAM else m.total_l2_bytes


def place_point(m: AggregateMetrics, level: MemLevel, label: str) -> RooflinePoint:
    """Locate a query on the chart for one memory level."""
    if bytes_at(m, level) <= 0:
        raise DegenerateProfileError(
            f"point {label!r}: zero bytes at {level.value} level")
    return RooflinePoint(label=label, ai=ai_at(m, level),
                         throughput=m.attained_compute_bw, level=level)


def classify(m: AggregateMetrics, hw: HardwareSpec) -> BoundKind:
    """Decide which resource bounds the query.

    Compute-bound when the AI at either level lies strictly beyond that
    level's knee; a knee-exact AI still counts as memory-bound. Between the
    two memory levels, the one running closer to its peak bandwidth wins,
    with ties going to L2 (the smaller, faster resource saturates first).
    """
    if m.ai_dram > hw.peak_compute_bw / hw.peak_dram_bw:
        return BoundKind.COMPUTE_BOUND
    if m.ai_l2 > hw.peak_compute_bw / hw.peak_l2_bw:
        return BoundKind.COMPUTE_BOUND
    dram_util = m.attained_dram_bw / hw.peak_dram_bw
    l2_util = m.attained_l2_bw / hw.peak_l2_bw
    if dram_util > l2_util:
        return BoundKind.DRAM_BOUND
    return BoundKind.L2_BOUND


# Plot CSV: 64 log-spaced AI samples from 1e-2 to 1e4 ops/byte.
PLOT_AI_MIN = 1e-2
PLOT_AI_MAX = 1e4
PLOT_AI_SAMPLES = 64

_ABOVE_ROOF_RTOL = 1e-12


def ai_grid() -> list[float]:
    lo, hi = math.log10(PLOT_AI_MIN), math.log10(PLOT_AI_MAX)
    step = (hi - lo) / (PLOT_AI_SAMPLES - 1)
    return [10.0 ** (lo + i * step) for i in range(PLOT_AI_SAMPLES)]


def emit_plot_data(points: Sequence[RooflinePoint], ceilings: RooflineCeilings,
                   sink: IO[bytes]) -> None:
    """Write chart data as CSV: the ceiling polyline, then one row per point.

    Columns: series, ai, throughput, above_roof. Output is deterministic for
    identical inputs; points above the roof are still emitted, flagged true.
    """
    for p in points:
        if p.level is not ceilings.level:
            raise ValidationError(
                f"point {p.label!r} is at level {p.level.value}, ceilings are "
                f"for {ceilings.level.value}")
    series = f"ceiling:{ceilings.level.value}"
    rows = [(series, ai, ceilings.roof_at(ai), False) for ai in ai_grid()]
    rows.extend(
        (p.label, p.ai, p.throughput,
         p.throughput > ceilings.roof_at(p.ai) * (1.0 + _ABOVE_ROOF_RTOL))
        for p in points)
    write_series_csv(rows, sink)


def write_series_csv(rows: Iterable[tuple[str, float, float, bool]],
                     sink: IO[bytes],
                     header: str = "series,ai,throughput,above_roof") -> None:
    """The one CSV writer: the header, then a `series,x,y,flag` line per row."""
    lines = [header]
    for series, x, y, flag in rows:
        lines.append(f"{series},{x:.12g},{y:.12g},{'true' if flag else 'false'}")
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))
