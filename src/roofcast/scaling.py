"""Predict query time and slowdown under changed GPU resource allocations.

The key modeling assumption: a query's arithmetic intensity is fixed by its
implementation and does not move when the allocation changes, so only the
ceilings move. A query below the new ceiling keeps its time; a query above
it is pinned to the new roof.

The unified predictor picks exactly one model per query: compute-bound
queries slow down by the reciprocal of the compute allocation ratio
(per-SM throughput cannot improve, so fewer SMs means proportionally less);
memory-bound queries take the worse of the DRAM and L2 slowdowns, which in
practice rarely both exceed one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import HardwareSpec, ResourceAllocation
from .errors import ValidationError
from .ingest import AggregateMetrics
from .roofline import BoundKind, MemLevel, bytes_at, classify, peak_mem_bw


class Direction(enum.Enum):
    DOWNSIZE = "downsize"
    UPSIZE = "upsize"
    UNCHANGED = "unchanged"


class Confidence(enum.Enum):
    NORMAL = "normal"
    # Upsized memory bandwidth cannot be modeled as a speedup here; the
    # prediction is pinned at the baseline and flagged.
    LOW_UPSIZE_MEMORY = "low_upsize_memory"


@dataclass(frozen=True)
class Prediction:
    baseline_time: float
    predicted_time: float
    slowdown: float
    bound: BoundKind
    direction: Direction
    confidence: Confidence

    def to_dict(self) -> dict:
        return {
            "baseline_time_s": self.baseline_time,
            "predicted_time_s": self.predicted_time,
            "slowdown": self.slowdown,
            "bound": self.bound.value,
            "direction": self.direction.value,
            "confidence": self.confidence.value,
        }


def predict_time_mem(m: AggregateMetrics, t: float, level: MemLevel,
                     new_bw: float) -> float:
    """Time under a new bandwidth at one memory level.

    The second term is the time to move this level's bytes at the new
    bandwidth (equivalently, ops / (AI x bandwidth)); below saturation the
    baseline time wins.
    """
    if not new_bw > 0:
        raise ValidationError(f"new_bw must be > 0, got {new_bw}")
    return max(t, bytes_at(m, level) / new_bw)


def slowdown_mem(m: AggregateMetrics, t: float, level: MemLevel,
                 new_bw: float) -> float:
    if not t > 0:
        raise ValidationError(f"baseline time must be > 0, got {t}")
    return predict_time_mem(m, t, level, new_bw) / t


def linear_baseline(t: float, ratio: float) -> float:
    """Naive all-resources-linear reference model: t over the compute ratio."""
    if not ratio > 0:
        raise ValidationError(f"ratio must be > 0, got {ratio}")
    predicted = t / ratio
    if not predicted < math.inf:
        raise ValidationError(
            f"linear baseline time overflows at compute ratio {ratio}")
    return predicted


def _direction(fractions: list[float]) -> Direction:
    if any(f < 1.0 for f in fractions):
        return Direction.DOWNSIZE
    if any(f > 1.0 for f in fractions):
        return Direction.UPSIZE
    return Direction.UNCHANGED


def slowdown_unified(m: AggregateMetrics, t: float, hw: HardwareSpec,
                     alloc: ResourceAllocation) -> Prediction:
    """One prediction per query: compute model or memory model, never both.

    Direction reflects only the fractions the chosen branch actually reads,
    so a downsize verdict always carries slowdown >= 1. On the memory branch
    the predicted time is the max of the two per-level predictions, which
    makes the reported slowdown exactly the max of the component slowdowns.
    """
    if not t > 0:
        raise ValidationError(f"baseline time must be > 0, got {t}")
    bound = classify(m, hw)
    if bound is BoundKind.COMPUTE_BOUND:
        read = ("compute_fraction",)
        predicted = t / alloc.compute_fraction
        direction = _direction([alloc.compute_fraction])
        confidence = Confidence.NORMAL
    else:
        read = ("dram_bw_fraction", "l2_bw_fraction")
        predicted = max(
            predict_time_mem(
                m, t, MemLevel.DRAM,
                peak_mem_bw(hw, MemLevel.DRAM) * alloc.dram_bw_fraction),
            predict_time_mem(
                m, t, MemLevel.L2,
                peak_mem_bw(hw, MemLevel.L2) * alloc.l2_bw_fraction),
        )
        direction = _direction([alloc.dram_bw_fraction, alloc.l2_bw_fraction])
        if alloc.dram_bw_fraction > 1.0 or alloc.l2_bw_fraction > 1.0:
            confidence = Confidence.LOW_UPSIZE_MEMORY
        else:
            confidence = Confidence.NORMAL
    slowdown = predicted / t
    # Not a floor on fractions: any fraction > 0 is valid until the time it
    # implies (or that time over t) no longer fits a float.
    if not slowdown < math.inf:
        raise ValidationError(
            "predicted slowdown overflows at "
            + " and ".join(f"{f} {getattr(alloc, f)}" for f in read))
    return Prediction(
        baseline_time=t,
        predicted_time=predicted,
        slowdown=slowdown,
        bound=bound,
        direction=direction,
        confidence=confidence,
    )


def scaling_curve(metrics: AggregateMetrics, hw: HardwareSpec,
                  fractions: list[float]) -> list[tuple[float, float]]:
    """Predicted time at uniform allocations, one point per fraction.

    Fractions must be ascending and in (0, 1]; all four resources are set
    to the same value, mirroring how physical slices couple them.
    """
    if not fractions:
        raise ValidationError("fractions must be non-empty")
    if any(not 0 < f <= 1 for f in fractions):
        raise ValidationError("every fraction must be in (0, 1]")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValidationError("fractions must be strictly ascending")
    curve = []
    for f in fractions:
        alloc = ResourceAllocation(f, f, f, f)
        pred = slowdown_unified(metrics, metrics.total_duration, hw, alloc)
        curve.append((f, pred.predicted_time))
    return curve
