"""Hardware description and resource-allocation types shared by every model.

All bandwidths are bytes/second (or integer-ops/second for compute) and all
capacities are bytes internally. Config files carry human units (GB/s,
Gops/s, GB; decimal, 1 GB = 1e9 B) and are converted once at load time
so the model equations never touch unit conversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Callable, Mapping

from .errors import (
    ConfigError,
    SchemaError,
    ValidationError,
    check_keys,
    coerce,
    open_input,
    parse_json,
    utf8_text,
)

GB = 1e9
GOPS = 1e9

DEFAULT_HW_NAME = "a100_40gb"

_RESOURCE_FIELDS = ("compute_fraction", "dram_bw_fraction",
                    "l2_bw_fraction", "mem_capacity_fraction")


@dataclass(frozen=True)
class ResourceAllocation:
    """Fractional assignment of the four partitionable GPU resources.

    Fractions are relative to the full GPU. Values in (0, 1] describe
    downsized (MIG-style) allocations; values above 1 are hypothetical
    upsizing what-ifs and are flagged by the predictors that consume them.
    """

    compute_fraction: float
    dram_bw_fraction: float
    l2_bw_fraction: float
    mem_capacity_fraction: float

    def __post_init__(self):
        for field in _RESOURCE_FIELDS:
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(
                    f"{field} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class PartitionInstance:
    """One physical slice of a partitioned GPU and the resources it holds.

    Unlike a what-if ResourceAllocation, a physical slice can never exceed
    the GPU, so every fraction must lie in (0, 1].
    """

    name: str
    allocation: ResourceAllocation

    def __post_init__(self):
        for field in _RESOURCE_FIELDS:
            value = getattr(self.allocation, field)
            if value > 1.0:
                raise ValidationError(
                    f"partition instance {self.name!r}: {field} must be in "
                    f"(0, 1], got {value}")


# Float tolerance for "fractions sum to at most the whole GPU" checks;
# catalogs expressed as repeating decimals (e.g. 3 * 1/3) must not be rejected.
_SUM_EPS = 1e-9


@dataclass(frozen=True)
class PartitionConfig:
    """A named way of carving the GPU into concurrent instances.

    shared_memory marks MPS-style sharing: compute is split between
    instances but L2 and DRAM stay whole for everyone, so the sum budget
    applies to compute only.
    """

    name: str
    instances: tuple[PartitionInstance, ...]
    shared_memory: bool = False

    def __post_init__(self):
        if not self.instances:
            raise ValidationError(f"partition config {self.name!r} has no instances")
        object.__setattr__(self, "instances", tuple(self.instances))
        sums = self.resource_sums()
        checked = (("compute_fraction",) if self.shared_memory
                   else _RESOURCE_FIELDS)
        for field in checked:
            if sums[field] > 1.0 + _SUM_EPS:
                raise ValidationError(
                    f"partition config {self.name!r}: {field} sums to "
                    f"{sums[field]:.6f} > 1.0 across instances")

    def resource_sums(self) -> dict[str, float]:
        """Per-resource totals across instances, keyed by fraction field."""
        return {f: sum(getattr(inst.allocation, f) for inst in self.instances)
                for f in _RESOURCE_FIELDS}


@dataclass(frozen=True)
class HardwareSpec:
    """Peak bandwidths, cache geometry, and partition catalog of one GPU."""

    name: str
    sm_count: int
    peak_compute_bw: float      # integer ops / second
    peak_dram_bw: float         # bytes / second
    peak_l2_bw: float           # bytes / second
    dram_capacity_bytes: float
    l2_request_bytes: int = 128
    mig_catalog: tuple[PartitionConfig, ...] = ()

    def __post_init__(self):
        positive = {
            "sm_count": self.sm_count,
            "peak_compute_bw": self.peak_compute_bw,
            "peak_dram_bw": self.peak_dram_bw,
            "peak_l2_bw": self.peak_l2_bw,
            "dram_capacity_bytes": self.dram_capacity_bytes,
            "l2_request_bytes": self.l2_request_bytes,
        }
        for field, value in positive.items():
            # compared, not passed to math.isfinite, which raises
            # OverflowError on an integer too large for a float
            if not 0 < value < math.inf:
                raise ValidationError(
                    f"{field} must be finite and > 0, got {value}")
        if not self.peak_l2_bw > self.peak_dram_bw:
            raise ValidationError(
                "peak_l2_bw must exceed peak_dram_bw (cache sits above DRAM); "
                f"got L2 {self.peak_l2_bw} vs DRAM {self.peak_dram_bw}")
        if self.l2_request_bytes & (self.l2_request_bytes - 1):
            raise ValidationError(
                f"l2_request_bytes must be a power of two, got {self.l2_request_bytes}")
        object.__setattr__(self, "mig_catalog", tuple(self.mig_catalog))


def full_allocation() -> ResourceAllocation:
    """The identity allocation: the whole GPU."""
    return ResourceAllocation(1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Hardware spec config file
# ---------------------------------------------------------------------------
#
# Schema of the JSON document (all keys required unless noted, unknown keys
# rejected):
#
#   schema_version: 1
#   name: <text>
#   sm_count: <int>
#   peak_compute_gops: <Gops/s>
#   peak_dram_gbps: <GB/s>
#   peak_l2_gbps: <GB/s>
#   dram_capacity_gb: <GB>
#   l2_request_bytes: <int, optional, default 128>
#   mig_catalog:                    # optional
#     - name: <text>
#       instances:
#         - name: <text>
#           compute: <fraction>
#           dram_bw: <fraction>
#           l2_bw: <fraction>
#           mem_capacity: <fraction>

HW_SCHEMA_VERSION = 1

_HW_REQUIRED = {
    "schema_version", "name", "sm_count", "peak_compute_gops",
    "peak_dram_gbps", "peak_l2_gbps", "dram_capacity_gb",
}
# l2_capacity_mb and host_link_gbps are read by no model: accepted and
# ignored, so that older specs still load.
_HW_OPTIONAL = {"l2_request_bytes", "mig_catalog", "l2_capacity_mb",
                "host_link_gbps"}

# An instance's fraction keys, in ResourceAllocation's field order.
_INSTANCE_FRACTIONS = ("compute", "dram_bw", "l2_bw", "mem_capacity")
_INSTANCE_KEYS = {"name", *_INSTANCE_FRACTIONS}


def _parse_catalog(raw: object) -> tuple[PartitionConfig, ...]:
    if not isinstance(raw, list):
        raise SchemaError("mig_catalog must be a list of configs")
    configs = []
    for i, entry in enumerate(raw):
        check_keys(entry, f"mig_catalog[{i}]", {"name", "instances"},
                   {"shared_memory"})
        name = entry["name"]
        raw_instances = entry["instances"]
        if not isinstance(raw_instances, list):
            raise SchemaError(f"mig_catalog[{i}].instances must be a list, "
                              f"got {raw_instances!r}")
        shared_memory = entry.get("shared_memory", False)
        if not isinstance(shared_memory, bool):
            raise SchemaError(f"mig_catalog[{i}].shared_memory must be a "
                              f"boolean, got {shared_memory!r}")
        instances = []
        for j, inst in enumerate(raw_instances):
            context = f"mig_catalog[{i}].instances[{j}]"
            check_keys(inst, context, _INSTANCE_KEYS)
            inst_name = str(inst["name"])
            fractions = [coerce(inst[key], float, f"{context}.{key}")
                         for key in _INSTANCE_FRACTIONS]
            try:
                allocation = ResourceAllocation(*fractions)
            except ValidationError as exc:
                # The allocation's own check knows the field, not the slice.
                raise ConfigError(
                    f"partition instance {inst_name!r}: {exc}") from None
            instances.append(PartitionInstance(inst_name, allocation))
        configs.append(PartitionConfig(
            name=str(name), instances=tuple(instances),
            shared_memory=shared_memory))
    return tuple(configs)


def hardware_spec_from_dict(doc: Mapping) -> HardwareSpec:
    """Build a HardwareSpec from a parsed config document, converting units."""
    check_keys(doc, "hardware spec", _HW_REQUIRED, _HW_OPTIONAL,
               HW_SCHEMA_VERSION)

    def number(key: str, scale: float) -> float:
        # Checked here too, so the message names the key the user wrote;
        # HardwareSpec only knows the converted field.
        value = coerce(doc[key], float, key)
        if not 0 < value * scale < math.inf:
            raise ConfigError(f"{key} must be finite and > 0, got {value}")
        return value * scale

    fields = dict(
        name=str(doc["name"]),
        sm_count=coerce(doc["sm_count"], int, "sm_count"),
        peak_compute_bw=number("peak_compute_gops", GOPS),
        peak_dram_bw=number("peak_dram_gbps", GB),
        peak_l2_bw=number("peak_l2_gbps", GB),
        dram_capacity_bytes=number("dram_capacity_gb", GB),
        l2_request_bytes=coerce(doc.get("l2_request_bytes", 128), int,
                                "l2_request_bytes"),
        mig_catalog=_parse_catalog(doc.get("mig_catalog", [])),
    )
    if not fields["peak_l2_bw"] > fields["peak_dram_bw"]:
        raise ConfigError(
            "peak_l2_gbps must exceed peak_dram_gbps (cache sits above DRAM); "
            f"got {doc['peak_l2_gbps']} vs {doc['peak_dram_gbps']}")
    return HardwareSpec(**fields)


def load_hardware_spec(path: str | Path,
                       opener: Callable[[Path], IO[bytes]] = open_input
                       ) -> HardwareSpec:
    """Load a hardware spec (and its partition catalog) from a JSON file,
    whatever its name, opened with opener."""
    with opener(Path(path)) as stream:
        data = stream.read()
    return hardware_spec_from_dict(parse_json(
        utf8_text(data, path), path, "hardware spec JSON"))


def default_hardware_spec() -> HardwareSpec:
    """The bundled A100-40GB spec with its 18-entry partition catalog."""
    ref = resources.files("roofcast.data").joinpath(f"{DEFAULT_HW_NAME}.json")
    with resources.as_file(ref) as path:
        return load_hardware_spec(path)
