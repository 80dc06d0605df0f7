"""Sharded-cluster components.

Reproduces the deployment of Section 3.3: shards (``mongod``), a config
server holding chunk metadata, and a query router (``mongos``) that targets
or broadcasts operations, plus the chunk manager, balancer, simulated
network, and the cluster-sizing formulas of Section 2.1.3.2.
"""

from .balancer import Balancer, MigrationRecord
from .chunks import (
    DEFAULT_CHUNK_SIZE_BYTES,
    MAX_KEY,
    MIN_KEY,
    Chunk,
    ChunkManager,
    MaxKey,
    MinKey,
    ShardKeyPattern,
    decode_boundary,
    encode_boundary,
)
from .cluster import CLUSTER_METADATA_FILE, ShardedCluster
from .config_server import ConfigServer
from .executor import (
    ScatterPolicy,
    ScatterRunner,
    ShardTimeoutError,
)
from .network import NetworkModel, NetworkStats, SimulatedNetwork
from .planning import (
    ClusterSizingInputs,
    SHARDING_OVERHEAD,
    recommend_shard_count,
    shards_for_disk_storage,
    shards_for_iops,
    shards_for_ops,
    shards_for_ram,
)
from .router import QueryRouter, RoutedCollection, RoutedDatabase, RouterMetrics
from .shard import Shard

__all__ = [
    "Balancer",
    "CLUSTER_METADATA_FILE",
    "Chunk",
    "ChunkManager",
    "ClusterSizingInputs",
    "ConfigServer",
    "DEFAULT_CHUNK_SIZE_BYTES",
    "MAX_KEY",
    "MIN_KEY",
    "MaxKey",
    "MigrationRecord",
    "MinKey",
    "NetworkModel",
    "NetworkStats",
    "QueryRouter",
    "RoutedCollection",
    "RoutedDatabase",
    "RouterMetrics",
    "SHARDING_OVERHEAD",
    "ScatterPolicy",
    "ScatterRunner",
    "Shard",
    "ShardKeyPattern",
    "ShardTimeoutError",
    "ShardedCluster",
    "SimulatedNetwork",
    "decode_boundary",
    "encode_boundary",
    "recommend_shard_count",
    "shards_for_disk_storage",
    "shards_for_iops",
    "shards_for_ops",
    "shards_for_ram",
]
