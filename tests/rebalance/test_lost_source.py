"""A migration whose source shard lost its serving state aborts.

Rebuilding a lost shard on a live node and promoting that node is the
executor's failover alone.  The migrator has no live primary to copy
from, so it rolls the operation back like a stale plan; once a read has
rebuilt the shard, the same operation commits.
"""

from __future__ import annotations

import pytest

from repro.errors import RebalanceAborted
from repro.rebalance import LiveMigrator, MoveOp, SplitOp
from repro.recovery.wal import LogRecordKind
from repro.sharding.executor import SITE_SHARD_NODE_CRASH
from repro.sharding.verifier import ChaosRun
from repro.workload.queries import QueryShape, QuerySpec, random_positions

ROWS = 512


def shard_rows(shard, seed):
    """Sixteen of *shard*'s rows, as a query's sorted position tuple."""
    return tuple(
        int(shard.positions[local])
        for local in random_positions(shard.row_count, 16, seed=seed)
    )


def shard_paths(chaos):
    """The shard base files on the DFS (log segments left out)."""
    return sorted(
        path for path in chaos.executor.dfs.paths() if path.startswith("shards/")
    )


def abort_labels(chaos):
    return [
        record.payload
        for record in chaos.wal.durable_records()
        if record.kind is LogRecordKind.REBALANCE_ABORT
    ]


def serving_on_down_nodes(chaos):
    """Shards that hold a serving state on a node the DFS marks down."""
    down = chaos.executor.dfs.down_nodes
    return [
        shard.shard_id
        for shard in chaos.shard_map.shards
        if chaos.shard_map.state(shard.shard_id) is not None and shard.primary in down
    ]


@pytest.fixture(params=[5, 23, 101])
def lost(request):
    """A stack where a worker crashed mid-read, leaving one of its shards lost.

    The worker primaries two of the eight shards (every node does, with
    this placement).  Two committed updates rewrite rows
    of the second; a read of the first then crashes the worker through
    the plane's own crash site, and failover rebuilds only the shard it
    read, so the second stays lost, still primaried on the down worker.
    """
    seed = request.param
    chaos = ChaosRun(
        seed, node_count=4, shard_count=8, replication=2, fault_rate=0.0,
        sites=(), row_count=ROWS,
    )
    migrator = LiveMigrator(
        chaos.shard_map, chaos.wal, chaos.injector, replicated=chaos.replicated
    )
    worker = next(
        shard.primary
        for shard in chaos.shard_map.shards
        if shard.primary != chaos.executor.coordinator
    )
    read, written = [
        shard for shard in chaos.shard_map.shards if shard.primary == worker
    ][:2]
    rows = shard_rows(written, seed)
    for index in (0, 1):
        chaos.run_verified(
            QuerySpec(QueryShape.POINT_UPDATE, "orders", ("v",), rows, index)
        )
    chaos.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
    chaos.run_verified(
        QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), shard_rows(read, seed), 2)
    )
    assert worker in chaos.executor.dfs.down_nodes
    assert chaos.shard_map.state(written.shard_id) is None
    dest = next(
        node.name
        for node in chaos.cluster.nodes
        if node.name not in (worker, chaos.executor.coordinator)
    )
    ops = (
        SplitOp(written.shard_id, len(chaos.shard_map.shards)),
        MoveOp(written.shard_id, dest),
    )
    return chaos, migrator, written, rows, ops


def test_a_lost_source_rolls_back(lost):
    chaos, migrator, written, _, ops = lost
    for op in ops:
        epoch = chaos.shard_map.epoch
        paths = shard_paths(chaos)
        with pytest.raises(RebalanceAborted):
            migrator.run(op, chaos.ctx)
        assert chaos.shard_map.epoch == epoch
        assert shard_paths(chaos) == paths
        assert abort_labels(chaos)[-1] == f"{op.describe()}@e{epoch}"
        assert serving_on_down_nodes(chaos) == []
        assert chaos.shard_map.state(written.shard_id) is None
    assert migrator.stats.aborted == len(ops)
    assert chaos.injector.report.unaccounted == 0


def test_the_same_operations_commit_after_a_read_rebuilds_the_shard(lost):
    chaos, migrator, written, rows, ops = lost
    for op in ops:
        with pytest.raises(RebalanceAborted):
            migrator.run(op, chaos.ctx)
    rebuilds = chaos.executor.stats.rebuilds
    chaos.run_verified(QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), rows, 3))
    assert chaos.executor.stats.rebuilds == rebuilds + 1
    assert written.primary not in chaos.executor.dfs.down_nodes
    epoch = chaos.shard_map.epoch
    for op in ops:
        migrator.run(op, chaos.ctx)
    assert chaos.shard_map.epoch == epoch + len(ops)
    assert serving_on_down_nodes(chaos) == []
    every_row = tuple(range(ROWS))
    chaos.run_verified(
        QuerySpec(QueryShape.POINT_MATERIALIZE, "orders", ("k", "v"), every_row, 4)
    )
    assert chaos.mismatched == 0
    assert chaos.matched == 5
