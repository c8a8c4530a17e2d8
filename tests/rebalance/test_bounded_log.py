"""The bounded log: each round checkpoints the shard files and truncates
the log below them, and rebuilds and catch-ups read only the suffix.

Every stack here is a fault-free 4-node, 4-shard, 512-row ``ChaosRun``
whose answers are byte-compared against the single-node oracle.  Update
queries write one row of every shard, so shard loads stay level and a
round plans no operation: the round is its checkpoint.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import DistributedError, EngineCrashed
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.rebalance import (
    SITE_REBALANCE_CRASH_PRE_CUTOVER,
    LiveMigrator,
    RebalancePlanner,
    SkewDetector,
    SplitOp,
)
from repro.rebalance.driver import Rebalancer
from repro.sharding.executor import SITE_SHARD_NODE_CRASH
from repro.sharding.verifier import ChaosRun
from repro.workload.queries import QueryShape, QuerySpec

ROWS = 512
SHARDS = 4
#: Update queries per round.
UPDATES = 10


def bounded_stack(seed: int = 5) -> SimpleNamespace:
    """A verified sharded stack with its rebalancer."""
    metrics = MetricsRegistry()
    chaos = ChaosRun(
        seed, node_count=4, shard_count=SHARDS, replication=2, fault_rate=0.0,
        sites=(), row_count=ROWS, metrics=metrics,
    )
    migrator = LiveMigrator(
        chaos.shard_map, chaos.wal, chaos.injector, replicated=chaos.replicated
    )
    rebalancer = Rebalancer(
        SkewDetector(metrics, chaos.shard_map),
        RebalancePlanner(chaos.shard_map),
        migrator,
    )
    return SimpleNamespace(chaos=chaos, migrator=migrator, rebalancer=rebalancer)


def level_update(index: int) -> QuerySpec:
    """One row of each range shard, rewritten with stream index *index*."""
    offset = index % (ROWS // SHARDS)
    rows = tuple(range(offset, ROWS, ROWS // SHARDS))
    return QuerySpec(QueryShape.POINT_UPDATE, "orders", ("v",), rows, index)


def update_round(stack, first_index: int = 0) -> None:
    """:data:`UPDATES` level updates, then one rebalance round."""
    for index in range(first_index, first_index + UPDATES):
        stack.chaos.run_verified(level_update(index))
    outcome = stack.rebalancer.rebalance_once(stack.chaos.ctx)
    assert outcome.planned == []


def read_everything(chaos) -> None:
    chaos.run_verified(QuerySpec(QueryShape.FULL_SUM, "orders", ("k", "v")))
    chaos.run_verified(
        QuerySpec(QueryShape.POINT_MATERIALIZE, "orders", ("k", "v"), tuple(range(ROWS)))
    )


def log_paths(chaos) -> list[str]:
    return sorted(path for path in chaos.executor.dfs.paths() if path.startswith("wal/"))


def held(chaos) -> tuple[int, int, int]:
    """(durable WAL bytes, DFS log segments, DFS bytes on every disk)."""
    disks = sum(node.disk.used for node in chaos.cluster.nodes)
    return chaos.wal.durable_bytes, len(log_paths(chaos)), disks


def count_log_reads(chaos) -> list[str]:
    """Start recording the log segments the DFS reads; returns the list."""
    dfs = chaos.executor.dfs
    read, paths = dfs.read, []

    def recording(path, *args, **kwargs):
        if path.startswith("wal/"):
            paths.append(path)
        return read(path, *args, **kwargs)

    dfs.read = recording
    return paths


def worker_shard(chaos):
    return next(
        shard for shard in chaos.shard_map.shards
        if shard.primary != chaos.executor.coordinator
    )


def test_held_bytes_stop_growing():
    """After 2K rounds the log and the disks hold no more than after K.

    The rounds repeat the same queries, so the one segment a checkpoint
    keeps has the same bytes each time; LSNs and transaction ids have as
    many digits after K rounds as after 2K.
    """
    rounds = 3
    stack = bounded_stack()
    for _ in range(rounds):
        update_round(stack)
    after_k = held(stack.chaos)
    for _ in range(rounds):
        update_round(stack)
    after_2k = held(stack.chaos)
    assert all(late <= early for late, early in zip(after_2k, after_k)), (
        after_k, after_2k
    )
    assert after_2k[1] == 1
    read_everything(stack.chaos)
    assert stack.chaos.mismatched == 0


@pytest.mark.parametrize("seed", [5, 23])
def test_rebuild_reads_are_bounded(seed):
    """A failover rebuild after 2N updates reads no more log segments
    than one after N: each reads only the two segments that two more
    updates shipped past the last checkpoint."""

    def segments_read(rounds: int) -> int:
        stack = bounded_stack(seed)
        for round_index in range(rounds):
            update_round(stack, first_index=round_index * UPDATES)
        chaos = stack.chaos
        for index in range(rounds * UPDATES, rounds * UPDATES + 2):
            chaos.run_verified(level_update(index))
        lost = chaos.shard_map.drop_states_on(worker_shard(chaos).primary)
        reads = count_log_reads(chaos)
        read_everything(chaos)
        assert chaos.executor.stats.rebuilds == len(lost)
        assert chaos.mismatched == 0
        return len(reads) // len(lost)

    assert segments_read(2) <= segments_read(1) == 2


def test_a_lost_shard_holds_the_floor():
    """A shard whose serving state is lost keeps its file and base
    through a checkpoint, and the log past that base stays for its
    rebuild."""
    stack = bounded_stack()
    chaos, migrator = stack.chaos, stack.migrator
    for index in range(UPDATES):
        chaos.run_verified(level_update(index))
    lost = chaos.shard_map.drop_states_on(worker_shard(chaos).primary)
    assert migrator.checkpoint(chaos.ctx) == SHARDS - len(lost)
    assert {chaos.shard_map.shards[shard_id].base_lsn for shard_id in lost} == {0}
    assert len(log_paths(chaos)) == UPDATES
    read_everything(chaos)
    assert chaos.executor.stats.rebuilds == len(lost)
    assert chaos.mismatched == 0


def test_a_migrated_piece_is_based_at_its_copy_lsn():
    """A split's new half holds the copy snapshot, so its rebuild must
    replay the writes committed between copy and cutover."""
    stack = bounded_stack()
    chaos, migrator = stack.chaos, stack.migrator
    shard = worker_shard(chaos)
    migration = migrator.begin(
        SplitOp(shard.shard_id, len(chaos.shard_map.shards)), chaos.ctx
    )
    upper = migration.fragments[1]
    rows = tuple(int(position) for position in upper.positions[:16])
    for index in (0, 1):
        chaos.run_verified(
            QuerySpec(QueryShape.POINT_UPDATE, "orders", ("v",), rows, index)
        )
    migrator.finish(migration, chaos.ctx)
    new_half = chaos.shard_map.shards[upper.shard_id]
    assert new_half.base_lsn == migration.copy_lsn < chaos.wal.durable_lsn
    crashed = new_half.primary
    assert crashed != chaos.executor.coordinator
    chaos.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
    chaos.run_verified(
        QuerySpec(QueryShape.POINT_MATERIALIZE, "orders", ("k", "v"), rows, 2)
    )
    assert chaos.executor.stats.rebuilds == 1
    assert new_half.primary != crashed
    assert chaos.mismatched == 0


def test_an_interrupted_checkpoint_is_harmless(monkeypatch):
    """The replicated log's truncation fails once, after the map commit:
    answers and a failover rebuild still match, and the next round
    truncates."""
    stack = bounded_stack()
    chaos = stack.chaos
    for index in range(UPDATES):
        chaos.run_verified(level_update(index))
    truncate, failed = chaos.replicated.truncate, []

    def truncate_once(below: int) -> int:
        if not failed:
            failed.append(below)
            raise DistributedError("truncation interrupted")
        return truncate(below)

    monkeypatch.setattr(chaos.replicated, "truncate", truncate_once)
    durable = chaos.wal.durable_lsn
    with pytest.raises(DistributedError, match="truncation interrupted"):
        stack.rebalancer.rebalance_once(chaos.ctx)
    assert failed == [durable]
    assert {shard.base_lsn for shard in chaos.shard_map.shards} == {durable}
    assert len(log_paths(chaos)) == UPDATES
    for index in range(UPDATES, 2 * UPDATES):
        chaos.run_verified(level_update(index))
    chaos.shard_map.drop_states_on(worker_shard(chaos).primary)
    read_everything(chaos)
    assert chaos.executor.stats.rebuilds >= 1
    update_round(stack, first_index=2 * UPDATES)
    assert len(log_paths(chaos)) == 1
    read_everything(chaos)
    assert chaos.mismatched == 0


def test_no_checkpoint_while_a_migration_is_claimed():
    """A migration copied but not cut over holds the checkpoint off;
    its journal resume then still replays the writes since its copy."""
    stack = bounded_stack()
    chaos, migrator = stack.chaos, stack.migrator
    for index in range(UPDATES):
        chaos.run_verified(level_update(index))
    shard = worker_shard(chaos)
    migration = migrator.begin(
        SplitOp(shard.shard_id, len(chaos.shard_map.shards)), chaos.ctx
    )
    for index in range(UPDATES, 2 * UPDATES):
        chaos.run_verified(level_update(index))
    chaos.injector.arm(SITE_REBALANCE_CRASH_PRE_CUTOVER, 1.0, max_faults=1)
    with pytest.raises(EngineCrashed):
        migrator.complete(migration, chaos.ctx)

    def snapshot():
        return (
            [(s.path, s.base_lsn, s.primary) for s in chaos.shard_map.shards],
            chaos.shard_map.epoch,
            chaos.wal.durable_bytes,
            chaos.executor.dfs.paths(),
        )

    before = snapshot()
    assert migrator.checkpoint(chaos.ctx) == 0
    assert snapshot() == before
    assert migrator.recover(migration, chaos.ctx) == chaos.shard_map.epoch
    assert [s.base_lsn for s in chaos.shard_map.shards] == [
        migration.copy_lsn if s.shard_id in (shard.shard_id, SHARDS) else 0
        for s in chaos.shard_map.shards
    ]
    read_everything(chaos)
    assert chaos.mismatched == 0


def test_a_checkpoint_rewrites_every_live_shard_once():
    """Every live shard gets a file at the durable LSN under a
    ``shard-checkpoint`` span; a second checkpoint with no write between
    rewrites nothing."""
    stack = bounded_stack()
    chaos, migrator = stack.chaos, stack.migrator
    assert migrator.checkpoint(chaos.ctx) == 0  # nothing durable yet
    for index in range(UPDATES):
        chaos.run_verified(level_update(index))
    old = sorted(shard.path for shard in chaos.shard_map.shards)
    tracer = chaos.ctx.platform.tracer = Tracer()
    assert migrator.checkpoint(chaos.ctx) == SHARDS
    (span,) = [span for span in tracer.spans() if span.name == "shard-checkpoint"]
    assert span.category == "rebalance" and span.cycles > 0
    assert migrator.stats.checkpointed == SHARDS
    assert chaos.shard_map.epoch == 1
    new = sorted(shard.path for shard in chaos.shard_map.shards)
    shard_files = sorted(
        path for path in chaos.executor.dfs.paths() if path.startswith("shards/")
    )
    assert shard_files == new and not set(old) & set(new)
    assert migrator.checkpoint(chaos.ctx) == 0
    assert chaos.shard_map.epoch == 1
    read_everything(chaos)
    assert chaos.mismatched == 0
    assert np.array_equal(
        np.sort(np.concatenate([s.positions for s in chaos.shard_map.shards])),
        np.arange(ROWS),
    )
