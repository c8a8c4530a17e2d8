"""Cross-cutting invariants: classification stability, memory accounting,
failure injection at the engine level, cost monotonicity."""

import numpy as np
import pytest

from repro.core.classification import classify
from repro.core.survey import PAPER_TABLE_1, build_reference_instances
from repro.engines import CoGaDBEngine, ES2Engine, HyperEngine, PelotonEngine
from repro.execution import ExecutionContext
from repro.execution.operators import sum_column
from repro.hardware import Platform
from repro.workload import generate_items, item_schema


class TestClassificationStability:
    """Table 1 must keep matching after engines adapt: a responsive
    engine's re-organization changes its fragments, never its class."""

    def test_rows_match_after_reorganization(self):
        for engine, relation_name in build_reference_instances(row_count=400):
            if engine.is_responsive:
                engine.reorganize(
                    relation_name, ExecutionContext(engine.platform)
                )
            derived = classify(engine, relation_name)
            expected = PAPER_TABLE_1[engine.name]
            assert derived.adaptability == expected.adaptability, engine.name
            assert (
                derived.flexibility.table_label
                == expected.flexibility.table_label
            ), engine.name
            assert derived.scheme == expected.scheme, engine.name
            assert derived.location_label == expected.location_label, engine.name


class TestMemoryAccounting:
    def test_hyper_compaction_conserves_payload(self):
        platform = Platform.paper_testbed()
        engine = HyperEngine(platform, chunk_rows=64)
        engine.create("item", item_schema())
        engine.load("item", generate_items(500))
        used = platform.host_memory.used
        engine.reorganize("item", ExecutionContext(platform))
        assert platform.host_memory.used == used

    def test_peloton_reformat_conserves_payload(self):
        platform = Platform.paper_testbed()
        engine = PelotonEngine(platform, tile_group_rows=64)
        engine.create("item", item_schema())
        engine.load("item", generate_items(500))
        ctx = ExecutionContext(platform)
        for __ in range(10):
            engine.sum("item", "i_price", ctx)
        used = platform.host_memory.used
        engine.reorganize("item", ctx)
        assert platform.host_memory.used == used

    def test_device_memory_freed_on_reference_merge(self):
        from repro.core.reference_engine import ReferenceEngine

        platform = Platform.paper_testbed()
        engine = ReferenceEngine(platform, delta_tile_rows=64)
        engine.create("item", item_schema())
        engine.load("item", generate_items(500))
        placed_bytes = platform.device_memory.used
        assert placed_bytes > 0
        ctx = ExecutionContext(platform)
        for i in range(5):
            engine.insert("item", (500 + i, 1, "AA", "B", 1.0), ctx)
        engine.reorganize("item", ctx)
        # Replicas were rebuilt for the grown relation, not leaked.
        pins = platform.staging.cache.pins(engine.layouts("item")[0].fragments)
        assert [attribute for __, attribute in pins] == engine.placed_columns("item")
        assert all(fragment.filled == 505 for fragment, __ in pins)
        assert platform.device_memory.used == sum(
            platform.staging.payload_bytes(fragment, attribute)
            for fragment, attribute in pins
        )


class TestES2FailureInjection:
    def test_node_failure_keeps_engine_queryable(self):
        """Losing one node's DFS replicas must not lose data (the
        surviving memory fragments and DFS replicas still serve)."""
        platform = Platform.paper_testbed()
        engine = ES2Engine(platform, partition_rows=128, dfs_replication=3)
        engine.create("item", item_schema())
        columns = generate_items(400)
        engine.load("item", columns)
        expected = float(np.sum(columns["i_price"]))

        lost = engine.dfs.fail_node("node1")
        assert lost > 0
        assert engine.dfs.under_replicated()
        ctx = ExecutionContext(platform)
        assert engine.sum("item", "i_price", ctx) == pytest.approx(expected)

        repaired = engine.dfs.re_replicate(ctx.counters)
        assert repaired == lost
        assert engine.dfs.under_replicated() == []

    def test_dfs_pages_match_fragments_after_readaption(self):
        platform = Platform.paper_testbed()
        engine = ES2Engine(platform, partition_rows=128)
        engine.create("item", item_schema())
        engine.load("item", generate_items(400))
        ctx = ExecutionContext(platform)
        for __ in range(30):
            engine.sum("item", "i_price", ctx)
        engine.reorganize("item", ctx)
        for layout in engine.layouts("item"):
            for fragment in layout.fragments:
                assert engine.dfs.file(fragment.label).size == len(
                    fragment.serialize()
                )


class TestCoGaDBCapacityExhaustion:
    def test_placement_fills_device_then_falls_back(self):
        # Device fits exactly two 400-row columns: i_price raw (8 B a
        # row) and i_id frame-encoded (a 2 B offset a row, one 8 B base).
        platform = Platform.paper_testbed(device_capacity=400 * 8 + 400 * 2 + 8)
        engine = CoGaDBEngine(platform)
        engine.create("item", item_schema())
        engine.load("item", generate_items(400))
        ctx = ExecutionContext(platform)
        reports = engine.place_columns("item", ("i_price", "i_id", "i_im_id"), ctx)
        assert [report.placed for report in reports] == [True, True, False]
        assert "fallback" in reports[2].reason
        assert platform.device_memory.available == 0
        # Queries remain correct regardless of where columns ended up.
        assert engine.sum("item", "i_price", ctx) > 0
        assert engine.sum("item", "i_im_id", ctx) >= 0


class TestInsertHeavyPaths:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda p: HyperEngine(p, chunk_rows=64),
            lambda p: PelotonEngine(p, tile_group_rows=64),
        ],
        ids=["HyPer", "Peloton"],
    )
    def test_hundreds_of_inserts_across_chunks(self, factory):
        platform = Platform.paper_testbed()
        engine = factory(platform)
        engine.create("item", item_schema())
        columns = generate_items(100)
        engine.load("item", columns)
        ctx = ExecutionContext(platform)
        for i in range(300):
            engine.insert("item", (1000 + i, 1, "AA", "B", float(i % 7)), ctx)
        assert engine.relation("item").row_count == 400
        expected = float(np.sum(columns["i_price"])) + sum(
            float(i % 7) for i in range(300)
        )
        assert engine.sum("item", "i_price", ctx) == pytest.approx(expected)
        assert engine.point_query("item", 1299, ctx)[0] == 1299
        for layout in engine.layouts("item"):
            layout.validate()


class TestCostMonotonicity:
    def test_scan_cost_monotone_in_rows(self, platform):
        from repro.bench import build_column_store
        from repro.workload import item_relation

        costs = []
        for rows in (10_000, 100_000, 1_000_000):
            fresh = Platform.paper_testbed()
            store = build_column_store(fresh, item_relation(rows))
            ctx = ExecutionContext(fresh)
            sum_column(store, "i_price", ctx)
            costs.append(ctx.cycles)
        assert costs == sorted(costs)
        # And superlinearity is bounded: 10x data <= ~12x cost.
        assert costs[2] / costs[1] < 12

    def test_materialize_cost_monotone_in_positions(self, platform):
        from repro.bench import build_row_store
        from repro.execution.operators import materialize_rows
        from repro.workload import customer_relation, random_positions

        relation = customer_relation(1_000_000)
        store = build_row_store(platform, relation)
        costs = []
        for count in (10, 100, 1000):
            ctx = ExecutionContext(platform)
            materialize_rows(store, random_positions(1_000_000, count), ctx)
            costs.append(ctx.cycles)
        assert costs == sorted(costs)
