"""Shared fixtures for the rebalance tier: a migratable sharded stack."""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.faults import FaultInjector
from repro.hardware import Platform
from repro.obs.metrics import MetricsRegistry
from repro.rebalance import LiveMigrator, RebalancePlanner, SkewDetector
from repro.recovery import ReplicatedLog, WriteAheadLog
from repro.sharding import ShardingScheme, ShardMap


def build_stack(
    platform: Platform,
    seed: int = 0,
    node_count: int = 4,
    shard_count: int = 4,
    replication: int = 2,
    rows: int = 128,
) -> SimpleNamespace:
    """A fully wired live-migration stack on *platform*.

    A namespace of (cluster, dfs, columns, shard_map, wal, replicated,
    injector, metrics, migrator, skew, planner) for a given seed and
    cluster shape.
    """
    injector = FaultInjector(seed=seed)
    injector.install(platform)
    cluster = Cluster(node_count)
    dfs = BlockStore(
        cluster, replication=replication, block_size=4096, injector=injector
    )
    positions = np.arange(rows)
    columns = {
        "k": ((positions * 13) % 101).astype(np.float64),
        "v": ((positions * 7) % 97).astype(np.float64),
    }
    shard_map = ShardMap(
        "orders",
        columns,
        cluster,
        dfs,
        shard_count,
        scheme=ShardingScheme.RANGE,
    )
    replicated = ReplicatedLog(dfs, name="orders")
    wal = WriteAheadLog(
        platform, group_commit=1, replicator=replicated.on_flush
    )
    metrics = MetricsRegistry()
    migrator = LiveMigrator(
        shard_map, wal, injector, replicated=replicated
    )
    return SimpleNamespace(
        injector=injector,
        cluster=cluster,
        dfs=dfs,
        columns=columns,
        shard_map=shard_map,
        wal=wal,
        replicated=replicated,
        metrics=metrics,
        migrator=migrator,
        skew=SkewDetector(metrics, shard_map),
        planner=RebalancePlanner(shard_map),
    )


@pytest.fixture
def stack(platform):
    """Factory: :func:`build_stack` on the test's platform, so tests can
    shape the cluster they need while sharing the platform fixture."""
    return functools.partial(build_stack, platform)


def table_totals(shard_map) -> dict[str, float]:
    """Per-attribute sums over every live shard's serving state."""
    totals: dict[str, float] = {}
    for shard in shard_map.shards:
        if not shard.row_count:
            continue
        state = shard_map.state(shard.shard_id)
        assert state is not None, f"shard {shard.shard_id} has no serving state"
        for attr, values in state.items():
            totals[attr] = totals.get(attr, 0.0) + float(values.sum())
    return totals


def owned_positions(shard_map) -> np.ndarray:
    """Every live shard's owned row positions, sorted globally."""
    owned = [
        shard.positions
        for shard in shard_map.shards
        if shard.row_count
    ]
    return np.sort(np.concatenate(owned))
