"""Regression: the serving loop's rebalancer trigger cadence.

ROADMAP item: "wire a trigger loop" for the elastic rebalancer.  The
serving loop polls ``rebalance_once`` on a configurable cadence while
admitted queries keep flowing; this test pins down that (a) cadence
ticks actually commit migrations, (b) queries interleave *inside* the
migration window (between copy and cutover), and (c) every answer
served across the epoch bumps is byte-identical to the single-node
oracle.
"""

from __future__ import annotations

import pytest

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.execution.context import ExecutionContext
from repro.faults.injector import FaultInjector
from repro.hardware.platform import Platform
from repro.obs.metrics import MetricsRegistry
from repro.rebalance.driver import Rebalancer
from repro.rebalance.migrator import LiveMigrator
from repro.rebalance.planner import RebalancePlanner
from repro.rebalance.skew import SkewDetector
from repro.rebalance.verifier import build_skewed_stream
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.wal import WriteAheadLog
from repro.serving.admission import AdmissionQueue
from repro.serving.arrivals import QueryArrival
from repro.serving.server import ServingLoop, ShardedBackend
from repro.sharding.detector import FailureDetector
from repro.sharding.executor import ShardedExecutor
from repro.sharding.placement import ShardMap, ShardingScheme
from repro.sharding.router import Router
from repro.sharding.verifier import SingleNodeOracle, build_columns

ROWS = 2048
ARRIVAL_GAP = 200_000.0


@pytest.fixture
def sharded_env():
    """A healthy 4-node sharded deployment plus its rebalancer."""
    platform = Platform()
    injector = FaultInjector(seed=0)  # present but nothing armed
    injector.install(platform)
    cluster = Cluster(4)
    dfs = BlockStore(cluster, replication=2, block_size=64 * 1024, injector=injector)
    columns = build_columns(ROWS)
    shard_map = ShardMap(
        "orders", columns, cluster, dfs, 8, scheme=ShardingScheme.RANGE
    )
    metrics = MetricsRegistry()
    replicated = ReplicatedLog(dfs, name="orders")
    wal = WriteAheadLog(platform, group_commit=1, replicator=replicated.on_flush)
    executor = ShardedExecutor(
        Router(shard_map),
        injector,
        detector=FailureDetector(),
        wal=wal,
        replicated=replicated,
        metrics=metrics,
    )
    migrator = LiveMigrator(shard_map, wal, injector, replicated=replicated)
    rebalancer = Rebalancer(
        SkewDetector(metrics, shard_map, threshold=1.25),
        RebalancePlanner(shard_map, target_ratio=1.15),
        migrator,
    )
    oracle = SingleNodeOracle(columns, executor.update_value)
    ctx = ExecutionContext(platform)
    return platform, executor, rebalancer, oracle, ctx, shard_map, metrics


def _skewed_arrivals(count: int) -> list[QueryArrival]:
    """A hot-eighth point stream spaced evenly on the timeline."""
    stream = build_skewed_stream(ROWS, count, seed=3, hot_fraction=8 / 15)
    return [
        QueryArrival(seq, (seq + 1) * ARRIVAL_GAP, f"t{seq % 2}", 0, 1.0, spec)
        for seq, spec in enumerate(stream)
    ]


class TestRebalanceCadence:
    def test_migrations_interleave_with_admitted_queries(self, sharded_env):
        platform, executor, rebalancer, oracle, ctx, shard_map, metrics = (
            sharded_env
        )
        arrivals = _skewed_arrivals(48)
        loop = ServingLoop(
            backend=ShardedBackend(executor),
            ctx=ctx,
            queue=AdmissionQueue(),
            registry=metrics,
            rebalancer=rebalancer,
            rebalance_interval_cycles=12 * ARRIVAL_GAP,
            rebalance_interleave=2,
        )
        report = loop.run(arrivals)

        # (a) the cadence fired and committed real migrations.
        assert report.rebalances, "the trigger loop never polled"
        committed = sum(tick.committed for tick in report.rebalances)
        assert committed >= 1
        assert shard_map.epoch >= 1

        # (b) queries ran inside at least one migration window.
        assert any(
            tick.interleaved_queries >= 1
            for tick in report.rebalances
            if tick.committed
        ), [
            (tick.committed, tick.interleaved_queries)
            for tick in report.rebalances
        ]

        # (c) every answer across epoch bumps matches the oracle.
        assert len(report.executed) == len(arrivals)
        by_seq = sorted(report.executed, key=lambda record: record.seq)
        replayed = [
            oracle.answer(arrivals[record.seq].spec) for record in by_seq
        ]
        for record, expected in zip(by_seq, replayed):
            assert record.answer == oracle_encoded(expected)

        # Rebalance cycles are honestly charged into the shared totals.
        assert sum(tick.cycles for tick in report.rebalances) > 0
        assert metrics.verify_closure(ctx.counters) == []


def oracle_encoded(value) -> bytes:
    """The oracle answer in the executor's canonical byte encoding."""
    from repro.sharding.verifier import encode_answer

    return encode_answer(value)
