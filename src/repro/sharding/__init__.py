"""Sharded scatter-gather execution with mid-query node failover.

The scale-out tier of the reproduction: hash/range-sharded fragment
placement over the simulated shared-nothing cluster
(:mod:`repro.distributed`), a partition-pruning router whose planning
never charges a cycle, and a fault-tolerant scatter-gather executor
that keeps merged answers byte-identical to a single-node run while
workers crash mid-query, responses drop, and links go slow.  See
``docs/DISTRIBUTED.md`` for the design and the failover state machine.

``python -m repro.verify distributed`` runs the chaos verification
matrix and the nodes × shards × fault-rate sweep.
"""

from repro.sharding.detector import FailureDetector
from repro.sharding.executor import (
    SITE_NET_DROP_RESPONSE,
    SITE_NET_SLOW_LINK,
    SITE_SHARD_NODE_CRASH,
    ExecutorStats,
    ShardedExecutor,
    ShardedResult,
)
from repro.sharding.placement import Shard, ShardingScheme, ShardMap
from repro.sharding.router import QueryPlan, Router, ShardTask
from repro.sharding.verifier import (
    CHAOS_SITES,
    ShardedRunResult,
    SingleNodeOracle,
    run_chaos,
)

__all__ = [
    "ShardingScheme",
    "Shard",
    "ShardMap",
    "FailureDetector",
    "Router",
    "ShardTask",
    "QueryPlan",
    "ShardedExecutor",
    "ShardedResult",
    "ExecutorStats",
    "SITE_SHARD_NODE_CRASH",
    "SITE_NET_DROP_RESPONSE",
    "SITE_NET_SLOW_LINK",
    "CHAOS_SITES",
    "SingleNodeOracle",
    "ShardedRunResult",
    "run_chaos",
]
