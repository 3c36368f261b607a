"""Roofline-based performance modeling for GPU database query workloads.

Ingests per-kernel profiler counters, builds DRAM- and L2-level rooflines,
predicts query time under changed GPU resource allocations,
estimates throughput under concurrency, and ranks partition configurations
against user objectives.
"""

__version__ = "0.1.0"

from .core import (
    HardwareSpec,
    PartitionConfig,
    PartitionInstance,
    ResourceAllocation,
    default_hardware_spec,
    full_allocation,
    load_hardware_spec,
)
from .ingest import (
    AggregateMetrics,
    KernelRecord,
    QueryProfile,
    aggregate,
    load_profile,
    parse_counter_file,
    validate_against_roofs,
)
from .roofline import (
    BoundKind,
    MemLevel,
    RooflineCeilings,
    RooflinePoint,
    build_ceilings,
    classify,
    emit_plot_data,
    place_point,
)
from .scaling import (
    Confidence,
    Direction,
    Prediction,
    linear_baseline,
    predict_time_mem,
    scaling_curve,
    slowdown_mem,
    slowdown_unified,
)
from .concurrency import (
    WorkloadSpec,
    equal_split_config,
    estimate_qps,
    instance_times,
    simulate_dispatch,
)
from .advisor import Objective, WhatIfReport, advise, enumerate_configs
from .evalkit import (
    ErrorSample,
    SyntheticDevice,
    error_cdf,
    generate_synthetic,
    oracle_actual_time,
    relative_error,
)

__all__ = [name for name in dir() if not name.startswith("_")]
