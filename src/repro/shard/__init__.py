"""Sharded multi-controller control plane (DESIGN.md §11).

N independent CloudMonatt deployments ("shards") — each with its own
engine, controller and attestation server — fronted by a consistent-
hash ring that maps every vid to its owning shard, and a coordinator
that fans fleet attestations out per shard and merges the evidence
hierarchically (per arXiv:2304.00382). The shard set is fixed when the
plane is built. Per-VM reports stay byte-identical to the
single-controller path; ``benchmarks/bench_shard_scale.py`` measures
the scaling.
"""

from repro.shard.coordinator import (
    CrossShardFleetReport,
    ShardedCustomer,
)
from repro.shard.plane import (
    SHARD_SEED_STRIDE,
    Shard,
    ShardPlane,
)
from repro.shard.ring import DEFAULT_VNODES, ConsistentHashRing

__all__ = [
    "ConsistentHashRing",
    "CrossShardFleetReport",
    "DEFAULT_VNODES",
    "SHARD_SEED_STRIDE",
    "Shard",
    "ShardPlane",
    "ShardedCustomer",
]
