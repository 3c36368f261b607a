import json
from fnmatch import fnmatch
from pathlib import Path

import pytest

from roofcast.core import (
    GB,
    DEFAULT_HW_NAME,
    HardwareSpec,
    PartitionConfig,
    PartitionInstance,
    ResourceAllocation,
    default_hardware_spec,
    full_allocation,
    hardware_spec_from_dict,
    load_hardware_spec,
)
from roofcast.errors import SchemaError, ValidationError

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "roofcast" / "data"


def make_instance(fraction: float, name: str = "slice") -> PartitionInstance:
    return PartitionInstance(
        name, ResourceAllocation(fraction, fraction, fraction, fraction))


def test_full_allocation_is_identity():
    alloc = full_allocation()
    assert alloc.compute_fraction == 1.0
    assert alloc.dram_bw_fraction == 1.0
    assert alloc.l2_bw_fraction == 1.0
    assert alloc.mem_capacity_fraction == 1.0


def test_partition_instance_holds_its_allocation():
    half = make_instance(0.5, "half-gpu")
    assert half.allocation == ResourceAllocation(0.5, 0.5, 0.5, 0.5)

    full = make_instance(1.0, "whole-gpu")
    assert full.allocation == full_allocation()


def test_smallest_catalog_slice_is_about_one_eighth(a100):
    smallest = min(
        (inst for config in a100.mig_catalog for inst in config.instances),
        key=lambda i: i.allocation.compute_fraction)
    alloc = smallest.allocation
    for value in (alloc.compute_fraction, alloc.dram_bw_fraction,
                  alloc.l2_bw_fraction, alloc.mem_capacity_fraction):
        assert value == pytest.approx(1 / 8, rel=0.05)


def test_default_catalog_shape(a100):
    assert len(a100.mig_catalog) == 18
    assert max(len(c.instances) for c in a100.mig_catalog) == 7
    names = [c.name for c in a100.mig_catalog]
    assert len(set(names)) == 18


def test_every_catalog_config_sums_within_budget(a100):
    for config in a100.mig_catalog:
        for resource, total in config.resource_sums().items():
            assert total <= 1.0 + 1e-9, (config.name, resource, total)


def test_partition_instance_rejects_out_of_range():
    with pytest.raises(ValidationError):
        make_instance(0.0)
    with pytest.raises(ValidationError):
        make_instance(1.2)


def test_partition_config_rejects_oversubscription():
    with pytest.raises(ValidationError):
        PartitionConfig("too-much", (make_instance(0.7), make_instance(0.7)))
    with pytest.raises(ValidationError):
        PartitionConfig("empty", ())


def test_resource_allocation_allows_upsize_but_not_zero():
    ResourceAllocation(2.0, 1.0, 1.0, 1.0)  # upsizing what-if is legal
    with pytest.raises(ValidationError):
        ResourceAllocation(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        ResourceAllocation(1.0, -0.5, 1.0, 1.0)


def test_hardware_spec_invariants():
    with pytest.raises(ValidationError):
        HardwareSpec("bad", 108, 1e13, 2e12, 1e12, 4e10)
    with pytest.raises(ValidationError):
        HardwareSpec("bad", 108, 1e13, -1, 7e12, 4e10)
    with pytest.raises(ValidationError):
        HardwareSpec("bad", 108, 1e13, 1.5e12, 7e12, 4e10,
                     l2_request_bytes=100)


HW_JSON = {
    "schema_version": 1,
    "name": "toy",
    "sm_count": 10,
    "peak_compute_gops": 1000.0,
    "peak_dram_gbps": 100.0,
    "peak_l2_gbps": 500.0,
    "dram_capacity_gb": 8.0,
}


def write_spec(tmp_path, doc) -> Path:
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_hardware_spec_converts_units(tmp_path):
    hw = load_hardware_spec(write_spec(tmp_path, HW_JSON))
    assert hw.peak_dram_bw == 100.0 * GB
    assert hw.peak_compute_bw == 1000.0 * GB
    assert hw.dram_capacity_bytes == 8.0 * GB
    assert hw.l2_request_bytes == 128
    assert hw.mig_catalog == ()


def test_load_hardware_spec_rejects_unknown_keys(tmp_path):
    path = write_spec(tmp_path, {**HW_JSON, "mystery_knob": 3})
    with pytest.raises(SchemaError, match="mystery_knob"):
        load_hardware_spec(path)


def test_load_hardware_spec_rejects_missing_keys():
    with pytest.raises(SchemaError, match="peak_l2_gbps"):
        hardware_spec_from_dict({"schema_version": 1, "name": "x"})


def test_load_hardware_spec_rejects_wrong_version(tmp_path):
    path = write_spec(tmp_path, {**HW_JSON, "schema_version": 99})
    with pytest.raises(SchemaError, match="schema_version"):
        load_hardware_spec(path)


def test_default_spec_peaks(a100):
    assert a100.peak_l2_bw == 7050 * GB
    assert a100.peak_compute_bw == 18247 * GB
    assert a100.peak_dram_bw == 1555 * GB
    assert a100.sm_count == 108
    assert a100.dram_capacity_bytes == 40 * GB
    assert a100.l2_request_bytes == 128


def test_spec_keys_no_model_reads_are_accepted_and_ignored(tmp_path):
    doc = json.loads((DATA / f"{DEFAULT_HW_NAME}.json").read_text())
    path = write_spec(tmp_path, {**doc, "l2_capacity_mb": 40.0,
                                 "host_link_gbps": 32.0})
    assert load_hardware_spec(path) == default_hardware_spec()


def test_every_bundled_data_file_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as source:
        globs = tomllib.load(source)["tool"]["setuptools"]["package-data"][
            "roofcast.data"]
    files = [path.name for path in DATA.iterdir()
             if path.is_file() and path.name != "__init__.py"]
    assert files
    assert [name for name in files
            if not any(fnmatch(name, glob) for glob in globs)] == []
