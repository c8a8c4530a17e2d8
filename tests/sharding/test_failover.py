"""Mid-query failover: crashes, drops, stragglers — and their accounting."""

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceeded,
    DistributedError,
    NodeUnavailable,
    ShardRetryExhausted,
)
from repro.execution import ExecutionContext
from repro.obs import Tracer
from repro.sharding import (
    SITE_NET_DROP_RESPONSE,
    SITE_NET_SLOW_LINK,
    SITE_SHARD_NODE_CRASH,
)
from repro.sharding.verifier import SingleNodeOracle, encode_answer
from repro.workload.queries import QueryShape, QuerySpec


def remote_shard(executor):
    """A shard whose primary is not the coordinator (crash-checkable)."""
    return next(
        shard
        for shard in executor.shard_map.shards
        if shard.primary != executor.coordinator
    )


def positions_of(shard, count=3):
    return tuple(int(p) for p in shard.positions[:count])


def traced_spans(executor, query, ctx):
    """Every span of one traced run of *query* on *executor*."""
    tracer = ctx.platform.tracer = Tracer()
    executor.run(query, ctx)
    return list(tracer.spans())


def subquery_cycles(executor, query, ctx):
    """The cycles of each ``shard-subquery`` span of one traced run."""
    return [
        span.cycles
        for span in traced_spans(executor, query, ctx)
        if span.name == "shard-subquery"
    ]


class TestCrashFailover:
    def test_crash_fails_over_and_the_answer_survives(
        self, harness, columns, ctx
    ):
        executor = harness(seed=1)
        executor.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
        shard = remote_shard(executor)
        victim = shard.primary
        positions = positions_of(shard)
        result = executor.run(
            QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), positions), ctx
        )
        assert result.value == {
            "v": float(columns["v"][list(positions)].sum())
        }
        assert executor.stats.failovers == 1
        assert executor.stats.crashes_observed == 1
        assert result.served_by[shard.shard_id] != victim
        assert not executor.detector.is_alive(victim)
        assert victim in executor.dfs.down_nodes

    def test_crash_outcome_is_attributed_exactly_once(self, harness, ctx):
        executor = harness(seed=1)
        executor.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
        shard = remote_shard(executor)
        executor.run(
            QuerySpec(
                QueryShape.POSITION_SUM, "orders", ("v",), positions_of(shard)
            ),
            ctx,
        )
        report = executor.injector.report
        assert report.injected == 1
        assert report.fallen_back == 1
        assert report.unaccounted == 0
        assert ctx.counters.fault_fallbacks == 1

    def test_detection_lag_and_backoff_are_charged(self, harness, ctx):
        def crash_once(zero_lease):
            executor = harness(seed=1)
            if zero_lease:
                executor.detector.lease_cycles = 0.0
            executor.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
            shard = remote_shard(executor)
            query = QuerySpec(
                QueryShape.POSITION_SUM, "orders", ("v",), positions_of(shard)
            )
            spans = traced_spans(executor, query, ctx.fork())
            failed = next(span for span in spans if span.attrs.get("attempt") == 0)
            (gather,) = [span for span in spans if span.name == "scatter-gather"]
            return executor, failed, gather

        executor, failed, gather = crash_once(zero_lease=False)
        __, unleased, __ = crash_once(zero_lease=True)
        assert executor.detector.total_lag_cycles > 0
        # The failed attempt pays the detection lag: it costs exactly
        # that much more than under a zero lease.
        assert failed.cycles - unleased.cycles == pytest.approx(
            executor.detector.total_lag_cycles
        )
        # The backoff before the next candidate sits between the two
        # attempts, in the scatter-gather's own time.
        assert gather.self_cycles == pytest.approx(executor.failover_backoff_cycles)

    def test_failed_shard_is_promoted_to_its_new_home(self, harness, ctx):
        executor = harness(seed=1)
        executor.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
        shard = remote_shard(executor)
        old_primary = shard.primary
        executor.run(
            QuerySpec(
                QueryShape.POSITION_SUM, "orders", ("v",), positions_of(shard)
            ),
            ctx,
        )
        assert shard.primary != old_primary
        assert executor.stats.rebuilds == 1

    def test_committed_updates_survive_the_crash(self, harness, ctx):
        """The WAL-failover claim: base + committed replay == live state."""
        executor = harness(seed=1)
        shard = remote_shard(executor)
        position = int(shard.positions[0])
        for index in (1, 2):
            executor.run(
                QuerySpec(
                    QueryShape.POINT_UPDATE, "orders", ("v",), (position,), index
                ),
                ctx,
            )
        executor.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
        read = executor.run(
            QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), (position,)),
            ctx,
        )
        assert executor.stats.failovers == 1
        # The replay applied both committed writes, the later one last.
        assert read.value == {"v": executor.update_value(2, position)}
        assert executor.update_value(2, position) != executor.update_value(
            1, position
        )
        assert executor.injector.report.replayed_txns == 2

    def test_non_durable_stack_loses_uncommitted_writes_gracefully(
        self, harness, columns, ctx
    ):
        """Without a WAL the rebuild serves the DFS base — reads still work."""
        executor = harness(seed=1, durable=False)
        shard = remote_shard(executor)
        positions = positions_of(shard)
        executor.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
        result = executor.run(
            QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), positions), ctx
        )
        assert result.value == {
            "v": float(columns["v"][list(positions)].sum())
        }


class TestDeadlines:
    def test_zero_deadline_surfaces_deadline_exceeded(self, harness, ctx):
        executor = harness(seed=1, failover_deadline_cycles=0.0)
        executor.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
        shard = remote_shard(executor)
        with pytest.raises(DeadlineExceeded) as excinfo:
            executor.run(
                QuerySpec(
                    QueryShape.POSITION_SUM, "orders", ("v",), positions_of(shard)
                ),
                ctx,
            )
        assert excinfo.value.injected
        assert isinstance(excinfo.value.__cause__, NodeUnavailable)
        # Un-tallied on raise: the harness records it as surfaced.
        assert executor.injector.report.unaccounted == 1

    def test_exhausting_every_candidate_raises_shard_retry_exhausted(
        self, harness, ctx
    ):
        executor = harness(seed=1, replication=1, durable=False)
        shard = remote_shard(executor)
        # Disk loss on the only replica holder: every candidate's
        # rebuild hits organic data unavailability.
        executor.dfs.fail_node(shard.primary)
        executor.detector.mark_crashed(shard.primary, 0.0)
        with pytest.raises(ShardRetryExhausted) as excinfo:
            executor.run(
                QuerySpec(
                    QueryShape.POSITION_SUM, "orders", ("v",), positions_of(shard)
                ),
                ctx,
            )
        assert not excinfo.value.injected  # organic, not injected
        assert isinstance(excinfo.value.__cause__, DistributedError)


class TestResponseFaults:
    def test_dropped_responses_are_retried_and_recharged(self, harness, ctx):
        executor = harness(seed=1)
        executor.injector.arm(SITE_NET_DROP_RESPONSE, 1.0, max_faults=2)
        shard = remote_shard(executor)
        positions = positions_of(shard)
        bytes_before = ctx.counters.bytes_transferred
        result = executor.run(
            QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), positions), ctx
        )
        report = executor.injector.report
        assert report.injected == 2
        assert report.retried == 2
        assert report.unaccounted == 0
        assert result.value is not None
        # Every re-send burned wire time: three transfers of the same
        # response (two dropped, one delivered).
        resent = ctx.counters.bytes_transferred - bytes_before
        assert resent >= 3 * executor.router.route(
            QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), positions)
        ).tasks[0].estimated_response_bytes

    def test_slow_link_hedges_to_a_spare_replica(self, harness, ctx):
        # Replication 3 over four nodes guarantees every shard a warm
        # replica holder besides its primary and the coordinator.
        executor = harness(seed=1, replication=3)
        executor.injector.arm(SITE_NET_SLOW_LINK, 1.0, max_faults=1)
        shard = remote_shard(executor)
        query = QuerySpec(
            QueryShape.POSITION_SUM, "orders", ("v",), positions_of(shard)
        )
        hedged = subquery_cycles(executor, query, ctx)
        healthy = subquery_cycles(harness(seed=1, replication=3), query, ctx.fork())
        report = executor.injector.report
        assert executor.stats.hedges == 1
        assert report.retried == 1
        assert report.unaccounted == 0
        # The hedge pays one duplicate compute and one more response.
        assert hedged == pytest.approx([2 * cycles for cycles in healthy])

    def test_slow_link_without_spares_is_waited_out(self, harness, ctx):
        # Two nodes, replication 1: the remote worker is the shard's
        # only replica holder, so there is no warm spare to hedge to
        # (the coordinator is the gather side, never a hedge target).
        shape = dict(seed=1, node_count=2, shard_count=2, replication=1)
        executor = harness(**shape)
        executor.injector.arm(SITE_NET_SLOW_LINK, 1.0, max_faults=1)
        shard = remote_shard(executor)
        query = QuerySpec(
            QueryShape.POSITION_SUM, "orders", ("v",), positions_of(shard)
        )
        (waited,) = subquery_cycles(executor, query, ctx)
        (healthy,) = subquery_cycles(harness(**shape), query, ctx.fork())
        report = executor.injector.report
        assert executor.stats.stragglers_waited == 1
        assert report.recovered == 1
        assert report.unaccounted == 0
        # The degraded link costs slow_factor times the healthy response.
        response = executor.cluster.network.peek_transfer_cost(
            executor.router.route(query).tasks[0].estimated_response_bytes
        )
        assert waited == pytest.approx(
            healthy + response * (executor.slow_factor - 1.0)
        )

    def test_injected_faults_never_change_the_answer(
        self, harness, columns, platform
    ):
        """Same stream, all sites armed: byte-identical to fault-free."""
        query = QuerySpec(
            QueryShape.POINT_MATERIALIZE, "orders", ("k", "v"), (3, 66, 120)
        )
        clean = harness(seed=11).run(query, ExecutionContext(platform))
        faulty_executor = harness(seed=11)
        faulty_executor.injector.arm(SITE_SHARD_NODE_CRASH, 0.3)
        faulty_executor.injector.arm(SITE_NET_DROP_RESPONSE, 0.3)
        faulty_executor.injector.arm(SITE_NET_SLOW_LINK, 0.3)
        faulty = faulty_executor.run(query, ExecutionContext(platform))
        assert faulty.encoded() == clean.encoded()
        assert faulty_executor.injector.report.unaccounted == 0
