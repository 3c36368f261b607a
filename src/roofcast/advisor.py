"""Rank GPU partition configurations against a workload and an objective.

For every cataloged configuration the advisor predicts workload throughput
and mean latency at the configuration's own degree of concurrency, then
sorts by the chosen objective. The query mix is dispatched identically to
every instance; per-instance specialization is out of scope.

The three objectives are artifact-defined (reports label them as such):
lowest mean latency, highest throughput, or highest throughput per unit of
GPU actually reserved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .core import HardwareSpec, PartitionConfig, ResourceAllocation
from .errors import ConfigError
from .concurrency import WorkloadSpec, allocation_times, instance_means


class Objective(enum.Enum):
    MIN_LATENCY = "min-latency"
    MAX_THROUGHPUT = "max-throughput"
    MAX_THROUGHPUT_PER_RESOURCE = "throughput-per-resource"


@dataclass(frozen=True)
class WhatIfRow:
    config: PartitionConfig
    predicted_qps: float
    predicted_mean_latency: float
    resource_fraction_used: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.name,
            "instances": len(self.config.instances),
            "predicted_qps": self.predicted_qps,
            "predicted_mean_latency_s": self.predicted_mean_latency,
            "resource_fraction_used": self.resource_fraction_used,
            # Always empty: PartitionConfig rules out oversubscribed or upsized slices.
            "confidence_flags": [],
        }


@dataclass(frozen=True)
class WhatIfReport:
    rows: tuple[WhatIfRow, ...]
    ranked_by: Objective

    def to_dict(self) -> dict:
        return {
            "ranked_by": self.ranked_by.value,
            "rows": [row.to_dict() for row in self.rows],
        }


def enumerate_configs(hw: HardwareSpec) -> list[PartitionConfig]:
    """The hardware's partition catalog, in its deterministic file order."""
    if not hw.mig_catalog:
        raise ConfigError(
            f"hardware spec {hw.name!r} carries no partition catalog")
    return list(hw.mig_catalog)


def _evaluate_config(config: PartitionConfig,
                     mean_of: dict[ResourceAllocation, float]) -> WhatIfRow:
    """One row from the weighted mean warm time of each allocation."""
    means = [mean_of[inst.allocation] for inst in config.instances]
    return WhatIfRow(
        config=config,
        predicted_qps=sum(1.0 / mean for mean in means),
        predicted_mean_latency=sum(means) / len(means),
        resource_fraction_used=max(config.resource_sums().values()),
    )


def _sort_key(objective: Objective):
    if objective is Objective.MIN_LATENCY:
        return lambda r: (r.predicted_mean_latency,
                          r.resource_fraction_used, r.config.name)
    if objective is Objective.MAX_THROUGHPUT:
        return lambda r: (-r.predicted_qps,
                          r.resource_fraction_used, r.config.name)
    return lambda r: (-r.predicted_qps / r.resource_fraction_used,
                      r.resource_fraction_used, r.config.name)


def advise(w: WorkloadSpec, hw: HardwareSpec,
           objective: Objective) -> WhatIfReport:
    """Evaluate every configuration of hw's catalog and rank by the
    objective.

    The workload's own degree of concurrency is ignored; each configuration
    is evaluated at its instance count.
    """
    configs = enumerate_configs(hw)
    # Rebuilding the spec normalizes its weights a second time, which can
    # move a weight by an ulp. Each row must equal estimate_qps on
    # replace(w, doc=<the config's instance count>), which sees these
    # weights; they do not depend on doc, so one rebuild serves every row.
    w = replace(w)
    table = allocation_times(
        w, hw, (inst.allocation
                for config in configs for inst in config.instances))
    mean_of = dict(zip(table, instance_means(w, list(table.values()))))
    rows = [_evaluate_config(config, mean_of) for config in configs]
    rows.sort(key=_sort_key(objective))
    return WhatIfReport(rows=tuple(rows), ranked_by=objective)

