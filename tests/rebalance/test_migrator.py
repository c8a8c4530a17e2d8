"""LiveMigrator happy paths: journaled split/merge/move cutover."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DistributedError, MigrationInProgress
from repro.rebalance import MergeOp, MigrationPhase, MoveOp, SplitOp
from tests.rebalance.conftest import owned_positions, table_totals


class TestSplit:
    def test_split_bumps_the_epoch_and_preserves_the_table(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        before = table_totals(built.shard_map)
        migration = built.migrator.run(
            SplitOp(0, len(built.shard_map.shards)), ctx
        )
        assert migration.phase is MigrationPhase.COMMITTED
        assert migration.epoch_committed == built.shard_map.epoch == 1
        assert built.shard_map.live_shard_count == 5
        assert table_totals(built.shard_map) == before
        assert np.array_equal(owned_positions(built.shard_map), np.arange(128))
        assert built.migrator.stats.splits == 1

    def test_split_replaces_the_base_files(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        old_path = built.shard_map.shards[0].path
        built.migrator.run(SplitOp(0, 4), ctx)
        paths = built.dfs.paths()
        assert old_path not in paths
        assert built.shard_map.shards[0].path in paths
        assert built.shard_map.shards[4].path in paths

    def test_stale_split_id_is_rejected_before_claiming(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        with pytest.raises(DistributedError, match="stale plan"):
            built.migrator.begin(SplitOp(0, 9), ctx)
        # Nothing was claimed: the shard migrates fine afterwards.
        built.migrator.run(SplitOp(0, 4), ctx)


class TestMerge:
    def test_merge_folds_the_loser_into_the_winner(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        before = table_totals(built.shard_map)
        migration = built.migrator.run(MergeOp(1, 2), ctx)
        assert migration.phase is MigrationPhase.COMMITTED
        assert built.shard_map.live_shard_count == 3
        assert built.shard_map.shards[2].row_count == 0
        assert built.shard_map.shards[1].row_count == 64
        assert table_totals(built.shard_map) == before
        assert np.array_equal(owned_positions(built.shard_map), np.arange(128))

    def test_merged_away_shard_is_a_stale_plan_target(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        built.migrator.run(MergeOp(1, 2), ctx)
        with pytest.raises(DistributedError, match="merged away"):
            built.migrator.begin(MoveOp(2, built.cluster.nodes[0].name), ctx)


class TestMove:
    def test_move_rehomes_the_primary(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        before = table_totals(built.shard_map)
        source = built.shard_map.shards[0].primary
        dest = next(
            node.name
            for node in built.cluster.nodes
            if node.name != source
        )
        built.migrator.run(MoveOp(0, dest), ctx)
        assert built.shard_map.shards[0].primary == dest
        assert table_totals(built.shard_map) == before
        assert built.migrator.stats.moves == 1

    def test_move_to_unknown_node_rolls_back(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        epoch = built.shard_map.epoch
        with pytest.raises(DistributedError):
            built.migrator.run(MoveOp(0, "node-99"), ctx)
        assert built.shard_map.epoch == epoch
        # The claim was released: the shard migrates fine afterwards.
        built.migrator.run(SplitOp(0, 4), ctx)


class TestProtocol:
    def test_concurrent_migration_of_one_shard_is_refused(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        migration = built.migrator.begin(SplitOp(0, 4), ctx)
        with pytest.raises(MigrationInProgress):
            built.migrator.begin(SplitOp(0, 4), ctx)
        built.migrator.finish(migration, ctx)
        assert built.shard_map.epoch == 1

    def test_complete_requires_a_copied_migration(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        migration = built.migrator.run(SplitOp(0, 4), ctx)
        with pytest.raises(DistributedError, match="cannot complete"):
            built.migrator.complete(migration, ctx)

    def test_catch_up_replays_updates_past_the_copy_snapshot(
        self, stack, ctx
    ):
        built = stack(shard_count=4, rows=128)
        migration = built.migrator.begin(SplitOp(0, 4), ctx)
        # A query commits an update on the source while the copy is
        # already durable — exactly the window catch-up exists for.
        built.wal.log_begin(1, ctx)
        built.wal.log_update(1, "orders", "v", 3, 21.0, 1000.0, ctx)
        built.wal.log_commit(1, ctx)
        built.migrator.finish(migration, ctx)
        assert migration.caught_up == 1
        state = built.shard_map.state(0)
        assert state is not None
        assert state["v"][3] == 1000.0

    def test_migration_cycles_are_charged_honestly(self, stack, ctx):
        built = stack(shard_count=4, rows=128)
        report = built.skew.snapshot()
        built.planner.plan(report)
        assert ctx.counters.cycles == 0.0  # planning is free
        migration = built.migrator.run(SplitOp(0, 4), ctx)
        assert ctx.counters.cycles > 0.0  # migrating is not
        assert built.migrator.stats.cycles == pytest.approx(
            ctx.counters.cycles
        )
        # Every destination file crosses the network once per replica.
        copied = sum(
            built.dfs.file(fragment.path).size for fragment in migration.fragments
        )
        assert copied > 0
        assert ctx.counters.bytes_transferred == built.dfs.replication * copied
