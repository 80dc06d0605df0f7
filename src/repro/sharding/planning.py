"""Cluster sizing calculators.

Section 2.1.3.2 of the paper derives the number of shards from four factors
— disk storage, RAM (working set), disk throughput (IOPS), and operations per
second — and Section 3.3 applies the RAM rule to pick a 3-shard cluster for
the 9.94 GB dataset.  These helpers reproduce the published formulas (and the
worked examples) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "shards_for_disk_storage",
    "shards_for_ram",
    "shards_for_iops",
    "shards_for_ops",
    "ClusterSizingInputs",
    "recommend_shard_count",
    "SHARDING_OVERHEAD",
]

#: Per-shard efficiency factor used by the OPS formula (G = N * S * 0.7).
SHARDING_OVERHEAD = 0.7


def _ceil_ratio(required: float, per_shard: float) -> int:
    if per_shard <= 0:
        raise ValueError("per-shard capacity must be positive")
    if required <= 0:
        return 1
    count = max(1, math.ceil(required / per_shard))
    # float division can round the quotient down hard enough that the ceiling
    # no longer covers the requirement (e.g. required ~1e15, per_shard 1.49);
    # top up so count * per_shard >= required always holds.
    while count * per_shard < required:
        count += 1
    return count


def shards_for_disk_storage(storage_bytes: float, shard_disk_bytes: float) -> int:
    """Number of shards so that total disk across shards covers the data.

    Example from the paper: 1.5 TB of data on 256 GB disks needs ~6 shards.
    """
    return _ceil_ratio(storage_bytes, shard_disk_bytes)


def shards_for_ram(working_set_bytes: float, shard_ram_bytes: float, *, reserved_bytes: float = 0) -> int:
    """Number of shards so that the working set fits in aggregate RAM.

    ``reserved_bytes`` models the RAM consumed by the operating system and
    other processes (the paper reserves 2 GB per node in Section 3.3).
    Example from the paper: a 200 GB working set on 64 GB servers needs ~4.
    """
    usable = shard_ram_bytes - reserved_bytes
    return _ceil_ratio(working_set_bytes, usable)


def shards_for_iops(required_iops: float, shard_iops: float) -> int:
    """Number of shards so that aggregate IOPS covers the requirement.

    Example from the paper: 12,000 required IOPS on 5,000-IOPS disks needs 3.
    """
    return _ceil_ratio(required_iops, shard_iops)


def shards_for_ops(required_ops: float, single_server_ops: float) -> int:
    """Number of shards from the operations-per-second formula.

    The paper gives ``G = N * S * 0.7`` where 0.7 is the sharding overhead,
    hence ``N = G / (S * 0.7)``.
    """
    if single_server_ops <= 0:
        raise ValueError("single-server OPS must be positive")
    return _ceil_ratio(required_ops, single_server_ops * SHARDING_OVERHEAD)


@dataclass(frozen=True)
class ClusterSizingInputs:
    """Everything needed to recommend a shard count for a deployment."""

    data_size_bytes: float
    working_set_bytes: float
    shard_ram_bytes: float
    shard_disk_bytes: float
    reserved_ram_bytes: float = 2 * 1024 ** 3
    required_iops: float | None = None
    shard_iops: float | None = None
    required_ops: float | None = None
    single_server_ops: float | None = None


def recommend_shard_count(inputs: ClusterSizingInputs) -> dict[str, int]:
    """Apply every applicable sizing rule and return per-rule shard counts.

    The overall recommendation is the maximum across rules — a cluster must
    satisfy all its bottlenecks — which is how the thesis lands on 3 shards
    for the small dataset (RAM-driven with headroom for indexes and
    intermediate collections).
    """
    recommendations = {
        "disk": shards_for_disk_storage(inputs.data_size_bytes, inputs.shard_disk_bytes),
        "ram": shards_for_ram(
            inputs.working_set_bytes,
            inputs.shard_ram_bytes,
            reserved_bytes=inputs.reserved_ram_bytes,
        ),
    }
    if inputs.required_iops is not None and inputs.shard_iops is not None:
        recommendations["iops"] = shards_for_iops(inputs.required_iops, inputs.shard_iops)
    if inputs.required_ops is not None and inputs.single_server_ops is not None:
        recommendations["ops"] = shards_for_ops(inputs.required_ops, inputs.single_server_ops)
    recommendations["recommended"] = max(recommendations.values())
    return recommendations
