"""The coordinator serves the shards it is primary for.

A shard primaried on the coordinator is served there, locally: a
fault-free query never rebuilds it on a worker, and it stays where it
lives — whether it was placed there at load, moved there by a
migration, or taken over while every worker was down.
"""

import pytest

from repro.rebalance import LiveMigrator, MoveOp
from repro.sharding import SITE_SHARD_NODE_CRASH
from repro.sharding.verifier import ChaosRun
from repro.workload.queries import QueryShape, QuerySpec


def local_queries(shard):
    """One query of each shape, touching *shard*'s first three rows."""
    rows = tuple(int(p) for p in shard.positions[:3])
    return (
        QuerySpec(QueryShape.FULL_SUM, "orders", ("v",)),
        QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), rows),
        QuerySpec(QueryShape.POINT_MATERIALIZE, "orders", ("k", "v"), rows),
        QuerySpec(QueryShape.POINT_UPDATE, "orders", ("v",), rows, 1),
    )


@pytest.mark.parametrize("shape_index", range(4))
def test_a_coordinator_shard_is_served_in_place(harness, ctx, shape_index):
    executor = harness(seed=3)
    shard = executor.shard_map.shards[0]
    assert shard.primary == executor.coordinator
    query = local_queries(shard)[shape_index]
    result = executor.run(query, ctx)
    assert executor.stats.rebuilds == 0
    assert result.served_by[0] == executor.coordinator
    assert shard.primary == executor.coordinator


def test_a_shard_moved_to_the_coordinator_stays_there(harness, ctx):
    executor = harness(seed=3)
    shard = next(
        shard
        for shard in executor.shard_map.shards
        if shard.primary != executor.coordinator
    )
    migrator = LiveMigrator(
        executor.shard_map,
        executor.wal,
        executor.injector,
        replicated=executor.replicated,
    )
    migrator.run(MoveOp(shard.shard_id, executor.coordinator), ctx)
    assert shard.primary == executor.coordinator
    for query in local_queries(shard):
        result = executor.run(query, ctx)
        assert result.served_by[shard.shard_id] == executor.coordinator
    assert executor.stats.rebuilds == 0
    assert shard.primary == executor.coordinator


def test_shards_taken_over_in_an_outage_stay_on_the_coordinator():
    chaos = ChaosRun(
        5, node_count=4, shard_count=4, replication=2, fault_rate=0.0,
        sites=(), row_count=512,
    )
    executor = chaos.executor
    full_sum = QuerySpec(QueryShape.FULL_SUM, "orders", ("v",))
    chaos.injector.arm(SITE_SHARD_NODE_CRASH, 1.0)
    chaos.run_verified(full_sum)
    assert executor.stats.crashes_observed == 3
    assert all(
        shard.primary == executor.coordinator
        for shard in chaos.shard_map.shards
    )
    chaos.injector.disarm(SITE_SHARD_NODE_CRASH)
    chaos.repair()
    rebuilt = executor.stats.rebuilds
    for _ in range(3):
        chaos.run_verified(full_sum)
    assert executor.stats.rebuilds == rebuilt
    assert chaos.mismatched == 0
    assert all(
        shard.primary == executor.coordinator
        for shard in chaos.shard_map.shards
    )
