import sys

import pytest

from roofcast.core import HardwareSpec, default_hardware_spec
from roofcast.ingest import AggregateMetrics, KernelRecord, QueryProfile


@pytest.fixture(scope="session")
def a100() -> HardwareSpec:
    return default_hardware_spec()


def metrics_from_utils(hw: HardwareSpec, util_compute: float, util_dram: float,
                       util_l2: float, t0: float = 0.1) -> AggregateMetrics:
    """Build metrics straight from target utilizations (no kernel rounding)."""
    ops = util_compute * hw.peak_compute_bw * t0
    dram = util_dram * hw.peak_dram_bw * t0
    l2 = util_l2 * hw.peak_l2_bw * t0
    return AggregateMetrics(
        total_duration=t0,
        total_dram_bytes=dram,
        total_l2_bytes=l2,
        total_int_ops=ops,
        ai_dram=ops / dram,
        ai_l2=ops / l2,
        attained_compute_bw=ops / t0,
        attained_dram_bw=dram / t0,
        attained_l2_bw=l2 / t0,
    )


def profile_from_utils(hw: HardwareSpec, util_compute: float, util_dram: float,
                       util_l2: float, t0: float = 0.1, query_id: str = "q",
                       cpu_overhead: float = 0.0) -> QueryProfile:
    """Single-kernel profile hitting the target utilizations (to int rounding)."""
    kernel = KernelRecord(
        kernel_name=f"{query_id}-k0",
        duration=t0,
        dram_bytes=int(util_dram * hw.peak_dram_bw * t0),
        l2_requests=int(util_l2 * hw.peak_l2_bw * t0 / hw.l2_request_bytes),
        int_ops=int(util_compute * hw.peak_compute_bw * t0),
    )
    return QueryProfile(
        query_id=query_id,
        system="test",
        scale_factor=1.0,
        kernels=(kernel,),
        cpu_overhead=cpu_overhead,
    )


def unlimited(dumps, *args, **kwargs) -> str:
    """dumps(*args, **kwargs), also of an int past the interpreter's
    4,300-digit limit on int-to-text conversion."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return dumps(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(limit)
