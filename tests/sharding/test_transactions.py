"""One transaction and one log force per sharded point-update query."""

import numpy as np
import pytest

from repro.errors import DeadlineExceeded, DistributedError, EngineCrashed
from repro.execution import ExecutionContext
from repro.faults.injector import SITE_WAL_TORN_WRITE
from repro.recovery import ReplicatedLog, WriteAheadLog
from repro.recovery.wal import LogRecordKind
from repro.sharding import Router, ShardedExecutor
from repro.sharding.verifier import ChaosRun
from repro.workload.queries import QueryShape, QuerySpec

#: 24 rows spread over all four shards of the 128-row harness relation.
POSITIONS = tuple(range(2, 128, 5))[:24]


def update(index=7):
    return QuerySpec(QueryShape.POINT_UPDATE, "orders", ("v",), POSITIONS, index)


def records(wal, kind, txn=None):
    """Durable records of *kind*, optionally of transaction *txn* only."""
    return [
        record
        for record in wal.durable_records()
        if record.kind is kind and (txn is None or record.txn_id == txn)
    ]


def states(executor):
    """A copy of every shard's serving columns."""
    return {
        shard.shard_id: {
            attr: array.copy()
            for attr, array in executor.shard_map.state(shard.shard_id).items()
        }
        for shard in executor.shard_map.shards
    }


class TestOneForcePerQuery:
    def test_one_commit_one_flush_one_segment(self, harness, ctx):
        executor = harness(seed=3)
        executor.run(QuerySpec(QueryShape.FULL_SUM, "orders", ("v",)), ctx)
        wal, replicated = executor.wal, executor.replicated
        commits, flushes = len(records(wal, LogRecordKind.COMMIT)), wal.flush_count
        segments = replicated.segments
        result = executor.run(update(), ctx)
        assert result.value == len(POSITIONS)
        assert len(executor.router.route(update()).tasks) > 1
        assert len(records(wal, LogRecordKind.COMMIT)) == commits + 1
        assert wal.flush_count == flushes + 1
        assert replicated.segments == segments + 1
        updates = records(wal, LogRecordKind.UPDATE)
        assert len(updates) == len(POSITIONS)
        assert {record.txn_id for record in updates} == {
            records(wal, LogRecordKind.COMMIT)[-1].txn_id
        }
        assert wal.tail_records == 0

    def test_a_larger_commit_group_still_forces_once(self, platform, harness):
        executor = harness(seed=3)
        replicated = ReplicatedLog(executor.dfs, name="grouped")
        wal = WriteAheadLog(platform, group_commit=4, replicator=replicated.on_flush)
        executor = ShardedExecutor(
            Router(executor.shard_map),
            executor.injector,
            wal=wal,
            replicated=replicated,
        )
        executor.run(update(), ExecutionContext(platform))
        assert wal.flush_count == 1 and wal.tail_records == 0
        assert len(records(wal, LogRecordKind.COMMIT)) == 1

    def test_a_wal_and_its_replicated_log_come_together(self, harness):
        executor = harness(seed=3)
        router, injector = executor.router, executor.injector
        with pytest.raises(DistributedError, match="both or neither"):
            ShardedExecutor(router, injector, wal=executor.wal)
        with pytest.raises(DistributedError, match="both or neither"):
            ShardedExecutor(router, injector, replicated=executor.replicated)

    def test_a_rebuild_reads_the_log_without_forcing_it(self):
        """Every ``COMMIT`` is forced before its writes apply, so the
        durable prefix a rebuild replays already holds every committed
        transaction: an update whose scatter rebuilds a shard still
        forces the log once, at its commit."""
        chaos = ChaosRun(
            5, node_count=4, shard_count=4, replication=2, fault_rate=0.0,
            sites=(), row_count=512,
        )
        shard_map, wal = chaos.shard_map, chaos.wal
        shard_map.drop_states_on(shard_map.shards[-1].primary)
        rows = tuple(int(shard.positions[0]) for shard in shard_map.shards)
        flushes = wal.flush_count
        chaos.run_verified(
            QuerySpec(QueryShape.POINT_UPDATE, "orders", ("v",), rows, 1)
        )
        assert chaos.executor.stats.rebuilds >= 1
        assert wal.flush_count == flushes + 1
        chaos.run_verified(QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), rows))
        assert (chaos.matched, chaos.mismatched) == (2, 0)


class TestAtomicity:
    @pytest.fixture
    def failing(self, harness, monkeypatch):
        """An executor whose update fails on its last shard task."""
        executor = harness(seed=3)
        last = executor.router.route(update()).tasks[-1].shard.shard_id
        original = ShardedExecutor._run_shard

        def run_shard(self, task, *args, **kwargs):
            if task.shard.shard_id == last:
                error = DeadlineExceeded(f"shard {last} missed its deadline")
                error.injected = True
                raise error
            return original(self, task, *args, **kwargs)

        monkeypatch.setattr(ShardedExecutor, "_run_shard", run_shard)
        return executor

    def test_a_surfaced_error_applies_nothing(self, failing, ctx):
        before = states(failing)
        with pytest.raises(DeadlineExceeded):
            failing.run(update(), ctx)
        after = states(failing)
        for shard_id, columns in before.items():
            for attr, array in columns.items():
                np.testing.assert_array_equal(after[shard_id][attr], array)

    def test_the_transaction_aborts_and_never_commits(self, failing, ctx):
        with pytest.raises(DeadlineExceeded):
            failing.run(update(), ctx)
        wal = failing.wal
        wal.flush(ctx)
        (txn,) = {record.txn_id for record in records(wal, LogRecordKind.UPDATE)}
        assert len(records(wal, LogRecordKind.ABORT, txn)) == 1
        assert records(wal, LogRecordKind.COMMIT, txn) == []

    def test_a_rebuild_from_the_log_matches_the_old_states(
        self, failing, columns, ctx, monkeypatch
    ):
        with pytest.raises(DeadlineExceeded):
            failing.run(update(), ctx)
        monkeypatch.undo()
        for node in failing.cluster.nodes:
            failing.shard_map.drop_states_on(node.name)
        rebuilds = failing.stats.rebuilds
        everything = tuple(range(128))
        rebuilt = failing.run(
            QuerySpec(QueryShape.POINT_MATERIALIZE, "orders", ("k", "v"), everything),
            ctx,
        )
        assert failing.stats.rebuilds - rebuilds == failing.shard_map.shard_count
        np.testing.assert_array_equal(
            rebuilt.value, np.column_stack([columns["k"], columns["v"]])
        )

    def test_a_torn_commit_after_a_rebuild_surfaces(self, harness, ctx):
        """A rebuild in the scatter reads the log without forcing it, so
        a torn force lands on the update's commit: the update ends with
        the injected crash, and its ``COMMIT`` never becomes durable."""
        executor = harness(seed=3)
        last = executor.router.route(update()).tasks[-1].shard
        executor.shard_map.drop_states_on(last.primary)
        executor.injector.arm(SITE_WAL_TORN_WRITE, 1.0)
        with pytest.raises(EngineCrashed) as raised:
            executor.run(update(), ctx)
        assert raised.value.injected
        assert executor.wal.crashed
        assert executor.stats.rebuilds >= 1
        assert records(executor.wal, LogRecordKind.COMMIT) == []
