"""Accuracy-evaluation helpers and a synthetic analytical GPU for validation.

The synthetic device stands in for real hardware at desk scale: its
generator emits deterministic query profiles spanning all bound kinds, and
its oracle produces "actual" times from hidden per-query response curves.
The oracle deliberately models more than the predictors do (a latency floor
and per-resource efficiency knees), so prediction error is nonzero and
baseline comparisons mean something. This module never imports the scaling
predictors; oracle and predictor share no slowdown code path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import IO, Mapping, Sequence

from .core import HardwareSpec, ResourceAllocation, default_hardware_spec
from .errors import SchemaError, ValidationError, csv_chunks
from .ingest import KernelRecord, QueryProfile, aggregate


def relative_error(estimated: float, actual: float) -> float:
    """Percentage error magnitude relative to the actual value."""
    if not actual > 0:
        raise ValidationError(f"actual must be > 0, got {actual}")
    return abs(estimated - actual) / actual * 100.0


@dataclass(frozen=True)
class ErrorSample:
    label: str
    estimated: float
    actual: float

    @property
    def relative_error_pct(self) -> float:
        return relative_error(self.estimated, self.actual)


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n)."""
    if not values:
        raise ValidationError("percentile of empty sample set")
    if not 0 < p <= 100:
        raise ValidationError(f"percentile must be in (0, 100], got {p}")
    return _at_rank(sorted(values), p)


def _at_rank(ordered: Sequence[float], p: float) -> float:
    """nearest_rank of values already sorted."""
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


@dataclass(frozen=True)
class ErrorCdf:
    """Empirical error distribution on a 1% grid, with named summary points."""

    points: tuple[tuple[int, float], ...]   # (percentile, error_pct)
    median_pct: float
    p95_pct: float

    def to_dict(self) -> dict:
        return {
            "median_pct": self.median_pct,
            "p95_pct": self.p95_pct,
            "points": [{"percentile": p, "error_pct": e} for p, e in self.points],
        }


def error_cdf(samples: Sequence[ErrorSample]) -> ErrorCdf:
    if not samples:
        raise ValidationError("error_cdf needs at least one sample")
    errors = sorted(s.relative_error_pct for s in samples)
    points = tuple((p, _at_rank(errors, p)) for p in range(1, 101))
    return ErrorCdf(points=points, median_pct=points[49][1],
                    p95_pct=points[94][1])


# ---------------------------------------------------------------------------
# Error sample CSV (label, estimated, actual)
# ---------------------------------------------------------------------------


def write_samples_csv(samples: Sequence[ErrorSample], sink: IO[bytes]) -> None:
    lines = ["label,estimated,actual"]
    lines.extend(f"{s.label},{s.estimated!r},{s.actual!r}" for s in samples)
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_samples_csv(stream: IO[bytes]) -> list[ErrorSample]:
    chunks = csv_chunks(stream, getattr(stream, "name", "samples file"),
                        "samples file")
    _, [header] = next(chunks)
    if [h.strip() for h in header] != ["label", "estimated", "actual"]:
        raise SchemaError(
            "samples CSV header must be exactly 'label,estimated,actual'")
    samples = []
    for start, rows in chunks:
        for row_no, row in enumerate(rows, start=start):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise SchemaError(
                    f"row {row_no}: expected 3 fields, got {len(row)}")
            try:
                samples.append(ErrorSample(row[0], float(row[1]), float(row[2])))
            except ValueError as exc:
                raise SchemaError(f"row {row_no}: {exc}") from None
    return samples


# ---------------------------------------------------------------------------
# Synthetic device
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResponseCurve:
    """Hidden per-query truth: baseline time plus saturation knees.

    Under an allocation, each resource contributes time proportional to its
    saturation level divided by its fraction; the latency floor covers
    stall-bound execution that no resource explains. At full allocation the
    largest of these factors is exactly one, reproducing the baseline.
    """

    baseline_time: float
    latency_floor: float
    sat_compute: float
    sat_dram: float
    sat_l2: float


@dataclass(frozen=True)
class SyntheticDevice:
    hw: HardwareSpec
    responses: Mapping[str, ResponseCurve]


def oracle_actual_time(dev: SyntheticDevice, profile: QueryProfile,
                       allocation: ResourceAllocation) -> float:
    """Ground-truth time under an allocation, from the hidden response curve.

    Attained bandwidth on each resource is capped at fraction x peak x
    hidden efficiency; the slowest resource (or the latency floor) decides.
    """
    curve = dev.responses.get(profile.query_id)
    if curve is None:
        raise ValidationError(
            f"synthetic device has no response curve for {profile.query_id!r}")
    factor = max(
        curve.latency_floor,
        curve.sat_compute / allocation.compute_fraction,
        curve.sat_dram / allocation.dram_bw_fraction,
        curve.sat_l2 / allocation.l2_bw_fraction,
    )
    return curve.baseline_time * factor


def _split_int(total: int, parts: int, rng: random.Random) -> list[int]:
    """Split a count into `parts` nonnegative integers summing exactly."""
    if parts == 1:
        return [total]
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


# Archetypes cycled by the generator. The first three cover the bound kinds;
# under-utilized (latency-bound) queries dominate the mix, as they do in
# real OLAP workloads. Compute-classified queries always saturate their
# per-SM throughput: fewer SMs cannot be offset by better per-SM efficiency.
_ARCHETYPES = ("compute_saturated", "dram_underutilized", "l2_underutilized",
               "dram_saturated", "deep_underutilized", "l2_saturated",
               "dram_underutilized", "deep_underutilized")


def generate_synthetic(device_seed: int, n_queries: int,
                       hw: HardwareSpec | None = None,
                       ) -> tuple[SyntheticDevice, list[QueryProfile]]:
    """Deterministic profiles plus the hidden device that produced them.

    Cycles through saturated and under-utilized archetypes; with
    n_queries >= 3 the set spans all three bound kinds. Every profile sits
    under the hardware roofs by construction.
    """
    if n_queries < 1:
        raise ValidationError(f"n_queries must be >= 1, got {n_queries}")
    if hw is None:
        hw = default_hardware_spec()
    rng = random.Random(device_seed)
    profiles = []
    responses = {}
    for i in range(n_queries):
        archetype = _ARCHETYPES[i % len(_ARCHETYPES)]
        query_id = f"synth-{device_seed}-{i:04d}"
        profile, curve = _generate_one(rng, archetype, query_id, hw)
        profiles.append(profile)
        responses[query_id] = curve
    return SyntheticDevice(hw=hw, responses=responses), profiles


def _target_utils(rng: random.Random, archetype: str) -> tuple[float, float, float]:
    """(util_compute, util_dram, util_l2) targets for one archetype."""
    if archetype == "compute_saturated":
        uc = rng.uniform(0.55, 0.95)
        return uc, uc * rng.uniform(0.15, 0.8), uc * rng.uniform(0.15, 0.8)
    if archetype == "dram_saturated":
        ud = rng.uniform(0.9, 0.99)
        ul2 = ud * rng.uniform(0.3, 0.9)
        return min(ud, ul2) * rng.uniform(0.2, 0.85), ud, ul2
    if archetype == "l2_saturated":
        ul2 = rng.uniform(0.9, 0.99)
        ud = ul2 * rng.uniform(0.3, 0.9)
        return min(ud, ul2) * rng.uniform(0.2, 0.85), ud, ul2
    if archetype == "dram_underutilized":
        ud = rng.uniform(0.25, 0.6)
        ul2 = ud * rng.uniform(0.4, 0.9)
        return min(ud, ul2) * rng.uniform(0.2, 0.85), ud, ul2
    if archetype == "l2_underutilized":
        ul2 = rng.uniform(0.25, 0.6)
        ud = ul2 * rng.uniform(0.4, 0.9)
        return min(ud, ul2) * rng.uniform(0.2, 0.85), ud, ul2
    # deep_underutilized
    ud = rng.uniform(0.08, 0.25)
    ul2 = ud * rng.uniform(0.4, 0.9)
    return min(ud, ul2) * rng.uniform(0.2, 0.85), ud, ul2


def _generate_one(rng: random.Random, archetype: str, query_id: str,
                  hw: HardwareSpec) -> tuple[QueryProfile, ResponseCurve]:
    util_c, util_d, util_l2 = _target_utils(rng, archetype)
    t0 = 10.0 ** rng.uniform(-3.0, -0.3)
    total_ops = max(1, int(util_c * hw.peak_compute_bw * t0))
    total_dram = max(1, int(util_d * hw.peak_dram_bw * t0))
    total_requests = max(1, int(util_l2 * hw.peak_l2_bw * t0 / hw.l2_request_bytes))

    n_kernels = rng.randint(1, 4)
    weights = [rng.uniform(0.2, 1.0) for _ in range(n_kernels)]
    wsum = sum(weights)
    durations = [t0 * w / wsum for w in weights]
    ops_split = _split_int(total_ops, n_kernels, rng)
    dram_split = _split_int(total_dram, n_kernels, rng)
    req_split = _split_int(total_requests, n_kernels, rng)
    kernels = tuple(
        KernelRecord(
            kernel_name=f"{query_id}-k{j}",
            duration=durations[j],
            dram_bytes=dram_split[j],
            l2_requests=req_split[j],
            int_ops=ops_split[j],
        )
        for j in range(n_kernels))
    profile = QueryProfile(
        query_id=query_id,
        system="synthetic",
        scale_factor=float(rng.choice((1, 2, 4, 8, 16))),
        kernels=kernels,
        cpu_overhead=rng.uniform(0.001, 0.02),
        setup_overhead=rng.uniform(0.05, 0.3),
        transfer_in_bytes=rng.randint(10**8, 2 * 10**9),
        transfer_out_bytes=rng.randint(10**4, 10**7),
        dram_utilization=None,  # filled below from the final aggregate
        l1_hit_rate=round(rng.uniform(0.6, 0.99), 4),
        l2_hit_rate=round(rng.uniform(0.6, 0.99), 4),
    )

    # Hidden truth is derived from the *final* aggregate so that the oracle's
    # full-allocation time reproduces the recorded duration exactly.
    metrics = aggregate(profile, hw)
    final_uc = metrics.attained_compute_bw / hw.peak_compute_bw
    final_ud = metrics.attained_dram_bw / hw.peak_dram_bw
    final_ul2 = metrics.attained_l2_bw / hw.peak_l2_bw
    if archetype == "compute_saturated":
        floor = rng.uniform(0.05, 0.3)
        sats = (1.0, final_ud, final_ul2)
    elif archetype == "dram_saturated":
        floor = rng.uniform(0.2, 0.6)
        sats = (final_uc, 1.0, _uplift(rng, final_ul2))
    elif archetype == "l2_saturated":
        floor = rng.uniform(0.2, 0.6)
        sats = (final_uc, _uplift(rng, final_ud), 1.0)
    else:
        floor = 1.0
        sats = (final_uc, _uplift(rng, final_ud), _uplift(rng, final_ul2))
    profile = replace(profile, dram_utilization=final_ud)
    curve = ResponseCurve(
        baseline_time=metrics.total_duration,
        latency_floor=floor,
        sat_compute=sats[0],
        sat_dram=sats[1],
        sat_l2=sats[2],
    )
    return profile, curve


def _uplift(rng: random.Random, util: float) -> float:
    """Hidden saturation knee somewhat above the observed utilization."""
    return min(0.97, util * rng.uniform(1.05, 1.5))
