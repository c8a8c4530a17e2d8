"""Fault-free scatter-gather: correct answers, honest costs."""

import numpy as np
import pytest

from repro.execution import ExecutionContext
from repro.obs import Tracer
from repro.sharding import ShardingScheme
from repro.sharding.verifier import SingleNodeOracle, encode_answer
from repro.workload.queries import QueryShape, QuerySpec


@pytest.fixture
def executor(harness):
    return harness(seed=3)


class TestAnswers:
    def test_full_sum_matches_numpy(self, executor, columns, ctx):
        result = executor.run(
            QuerySpec(QueryShape.FULL_SUM, "orders", ("v",)), ctx
        )
        assert result.value == {"v": float(columns["v"].sum())}
        assert result.fanout == executor.shard_map.shard_count

    def test_position_sum_matches_numpy(self, executor, columns, ctx):
        positions = (1, 17, 63, 99)
        result = executor.run(
            QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), positions), ctx
        )
        assert result.value == {
            "v": float(columns["v"][list(positions)].sum())
        }

    def test_materialize_preserves_request_order(self, executor, columns, ctx):
        positions = (99, 3, 42)
        result = executor.run(
            QuerySpec(
                QueryShape.POINT_MATERIALIZE, "orders", ("k", "v"), positions
            ),
            ctx,
        )
        expected = np.array(
            [[columns["k"][p], columns["v"][p]] for p in positions]
        )
        np.testing.assert_array_equal(result.value, expected)

    def test_point_update_is_visible_to_later_reads(self, executor, ctx):
        for index in (3, 4):
            executor.run(
                QuerySpec(
                    QueryShape.POINT_UPDATE, "orders", ("v",), (5, 80), index
                ),
                ctx,
            )
            read = executor.run(
                QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), (5, 80)),
                ctx,
            )
            expected = executor.update_value(index, 5) + executor.update_value(
                index, 80
            )
            assert read.value == {"v": expected}
        # The second query's values replaced the first's.
        assert executor.update_value(3, 5) != executor.update_value(4, 5)

    def test_hash_scheme_answers_match_range_scheme(self, harness, ctx):
        platform_ctx = ctx
        query = QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), (2, 70))
        by_scheme = {}
        for scheme in ShardingScheme:
            executor = harness(seed=9, scheme=scheme)
            by_scheme[scheme] = executor.run(
                query, ExecutionContext(platform_ctx.platform)
            ).value
        assert by_scheme[ShardingScheme.RANGE] == by_scheme[ShardingScheme.HASH]

    def test_matches_the_oracle_encoding(self, executor, columns, ctx):
        oracle = SingleNodeOracle(columns, executor.update_value)
        for query in (
            QuerySpec(QueryShape.FULL_SUM, "orders", ("k",)),
            QuerySpec(QueryShape.POINT_MATERIALIZE, "orders", ("k", "v"), (7, 8)),
            QuerySpec(QueryShape.POINT_UPDATE, "orders", ("v",), (7,)),
            QuerySpec(QueryShape.POSITION_SUM, "orders", ("v",), (7, 9)),
        ):
            expected = encode_answer(oracle.answer(query))
            assert executor.run(query, ctx).encoded() == expected


class TestCosts:
    def test_sub_queries_charge_compute_and_responses(self, executor, ctx):
        query = QuerySpec(QueryShape.FULL_SUM, "orders", ("v",))
        tracer = ctx.platform.tracer = Tracer()
        executor.run(query, ctx)
        assert ctx.counters.cycles > 0
        tasks = {task.shard.shard_id: task for task in executor.router.route(query).tasks}
        model = ctx.platform.memory_model
        network = executor.cluster.network
        subqueries = [span for span in tracer.spans() if span.name == "shard-subquery"]
        assert sorted(span.attrs["shard"] for span in subqueries) == sorted(tasks)
        for span in subqueries:
            task = tasks[span.attrs["shard"]]
            # The shard's column scan, then the response when the worker
            # is remote; a state rebuild is a child span, not self time.
            expected = model.sequential(task.row_count * 8)
            if span.attrs["node"] != executor.coordinator:
                expected += network.peek_transfer_cost(task.estimated_response_bytes)
            assert span.self_cycles == pytest.approx(expected)
        (merge,) = [span for span in tracer.spans() if span.name == "gather-merge"]
        assert merge.cycles > 0
        # At least one shard is remote from the coordinator, so the
        # gather moved bytes across the simulated network.
        assert ctx.counters.bytes_transferred > 0

    def test_served_by_reports_the_primaries_when_healthy(self, executor, ctx):
        result = executor.run(
            QuerySpec(QueryShape.FULL_SUM, "orders", ("v",)), ctx
        )
        for shard_id, node in result.served_by.items():
            assert executor.shard_map.shards[shard_id].primary == node
        assert executor.stats.failovers == 0

    def test_per_shard_metrics_and_cluster_latency(self, harness, platform):
        from repro.obs.metrics import MetricsRegistry
        from repro.sharding.executor import SHARD_LOAD_METRIC

        registry = MetricsRegistry()
        executor = harness(seed=3, metrics=registry)
        ctx = ExecutionContext(platform)
        executor.run(QuerySpec(QueryShape.FULL_SUM, "orders", ("v",)), ctx)
        shard_count = executor.shard_map.shard_count
        # One load counter per shard, summing to the rows served.
        names = [f"{SHARD_LOAD_METRIC}.{sid}" for sid in range(shard_count)]
        assert sorted(registry._counters) == sorted(names)
        assert sum(registry.counter(name).value for name in names) == 128.0

    def test_fault_free_runs_are_cycle_deterministic(self, harness, platform):
        query = QuerySpec(QueryShape.FULL_SUM, "orders", ("v",))
        totals = []
        for _ in range(2):
            executor = harness(seed=5)
            ctx = ExecutionContext(platform)
            executor.run(query, ctx)
            totals.append(ctx.counters.cycles)
        assert totals[0] == totals[1]
