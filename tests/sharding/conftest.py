"""Shared fixtures for the sharding tier: a small sharded cluster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.faults import FaultInjector
from repro.recovery import ReplicatedLog, WriteAheadLog
from repro.sharding import (
    Router,
    ShardedExecutor,
    ShardingScheme,
    ShardMap,
)


@pytest.fixture
def columns() -> dict[str, np.ndarray]:
    """128 rows of integer-valued float64 (exact, order-free sums)."""
    rows = np.arange(128)
    return {
        "k": ((rows * 13) % 101).astype(np.float64),
        "v": ((rows * 7) % 97).astype(np.float64),
    }


@pytest.fixture
def harness(platform, columns):
    """Factory: a fully wired sharded-execution stack.

    Returns a function building (executor, parts) for a given seed,
    cluster size, shard count, replication and scheme, so tests can
    shape the cluster they need while sharing the data and platform.
    """

    def build(
        seed: int = 0,
        node_count: int = 4,
        shard_count: int = 4,
        replication: int = 2,
        scheme: ShardingScheme = ShardingScheme.RANGE,
        durable: bool = True,
        **executor_kwargs,
    ):
        injector = FaultInjector(seed=seed)
        injector.install(platform)
        cluster = Cluster(node_count)
        dfs = BlockStore(
            cluster, replication=replication, block_size=4096, injector=injector
        )
        shard_map = ShardMap(
            "orders", columns, cluster, dfs, shard_count, scheme=scheme
        )
        wal = replicated = None
        if durable:
            replicated = ReplicatedLog(dfs, name="orders")
            wal = WriteAheadLog(
                platform, group_commit=1, replicator=replicated.on_flush
            )
        executor = ShardedExecutor(
            Router(shard_map),
            injector,
            wal=wal,
            replicated=replicated,
            **executor_kwargs,
        )
        return executor

    return build
