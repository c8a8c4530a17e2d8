"""Reference engine tests: the Section IV-C design, end to end."""

import numpy as np
import pytest

from repro.core.reference_engine import ReferenceEngine, RegionDelegation
from repro.execution import ExecutionContext
from repro.execution.operators import sum_column
from repro.hardware import Platform
from repro.hardware.memory import MemoryKind
from repro.workload import generate_items, item_schema


@pytest.fixture
def engine(loaded_item_engine_factory):
    return loaded_item_engine_factory(ReferenceEngine, delta_tile_rows=64)


class TestDeltaMain:
    def test_load_builds_main_columns(self, engine):
        reference, __ = engine
        unified = reference.layouts("item")[0]
        assert all(f.region.is_column for f in unified.fragments)

    def test_inserts_go_to_nsm_delta(self, engine):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        reference.insert("item", (500, 1, "AA", "B", 1.0), ctx)
        unified = reference.layouts("item")[0]
        delta = unified.fragment_for(500, "i_price")
        assert delta.region.arity == 5  # the whole record in one tile
        assert not delta.region.is_column

    def test_delegation_routes_rows(self, engine):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        reference.insert("item", (500, 1, "AA", "B", 1.0), ctx)
        policy = reference.delegation_policy("item")
        assert policy.owner_of(0, "i_price") == "main"
        assert policy.owner_of(500, "i_price") == "delta"

    def test_no_redundancy_between_delta_and_main(self, engine):
        """Delegation means a row lives in exactly one region."""
        reference, platform = engine
        ctx = ExecutionContext(platform)
        reference.insert("item", (500, 1, "AA", "B", 1.0), ctx)
        unified = reference.layouts("item")[0]
        owners = [
            fragment
            for fragment in unified.fragments
            if fragment.region.contains(500, "i_price")
        ]
        assert len(owners) == 1


class TestDevicePlacement:
    def test_auto_place_puts_numeric_columns_on_device(self, engine):
        reference, platform = engine
        assert reference.placed_columns("item")
        assert platform.device_memory.used > 0

    def test_sum_uses_device_replica(self, engine, small_items):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        total = reference.sum("item", "i_price", ctx)
        assert total == pytest.approx(float(np.sum(small_items["i_price"])))
        assert ctx.counters.kernel_launches > 0

    def test_auto_place_disabled(self, small_items):
        platform = Platform.paper_testbed()
        reference = ReferenceEngine(platform, auto_place=False)
        reference.create("item", item_schema())
        reference.load("item", small_items)
        assert reference.placed_columns("item") == []

    def test_capacity_fallback(self, small_items):
        platform = Platform.paper_testbed(device_capacity=100)
        reference = ReferenceEngine(platform)
        reference.create("item", item_schema())
        reference.load("item", small_items)
        assert reference.placed_columns("item") == []
        ctx = ExecutionContext(platform)
        # Queries still work from the host.
        assert reference.sum("item", "i_price", ctx) > 0

    def test_update_keeps_device_replica_coherent(self, engine, small_items):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        expected = float(np.sum(small_items["i_price"]))
        old = float(small_items["i_price"][3])
        reference.update("item", 3, "i_price", 42.0, ctx)
        assert reference.sum("item", "i_price", ctx) == pytest.approx(
            expected - old + 42.0
        )


class TestResponsiveness:
    def test_merge_absorbs_delta(self, engine):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        for i in range(10):
            reference.insert("item", (500 + i, 1, "AA", "B", 1.0), ctx)
        assert reference.reorganize("item", ctx)
        policy = reference.delegation_policy("item")
        assert policy.owner_of(505, "i_price") == "main"
        unified = reference.layouts("item")[0]
        assert all(f.region.is_column for f in unified.fragments)

    def test_values_survive_merge(self, engine, small_items):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        for i in range(10):
            reference.insert("item", (500 + i, 1, "AA", "B", 2.0), ctx)
        expected = float(np.sum(small_items["i_price"])) + 20.0
        reference.reorganize("item", ctx)
        assert reference.sum("item", "i_price", ctx) == pytest.approx(expected)
        assert reference.materialize("item", [505], ctx)[0][0] == 505

    def test_merge_replaces_device_replicas(self, engine):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        for i in range(5):
            reference.insert("item", (500 + i, 1, "AA", "B", 1.0), ctx)
        reference.reorganize("item", ctx)
        placed = reference.placed_columns("item")
        assert placed  # re-placed after the merge
        (unified,) = reference.layouts("item")
        main = unified.fragments_for_attribute(placed[0])[0]
        replica = platform.staging.cache.peek(main, placed[0])
        assert replica.allocation.space.kind is MemoryKind.DEVICE
        assert main.capacity == 505 and len(replica.values) == 505
        # The merge released the old main columns' replicas.
        assert len(platform.staging.cache) == len(placed)

    def test_empty_delta_merge_still_replaces_placements(self, engine):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        assert not reference.reorganize("item", ctx)  # nothing to do


def _empty_reference(platform):
    reference = ReferenceEngine(platform, delta_tile_rows=4)
    reference.create("item", item_schema())
    reference.load("item", generate_items(0))
    return reference


class TestEmptyRelation:
    """A relation loaded with zero rows has empty main columns."""

    def test_reorganize_on_an_empty_relation_is_a_no_op(self):
        platform = Platform.paper_testbed()
        reference = _empty_reference(platform)
        assert not reference.reorganize("item", ExecutionContext(platform))
        assert reference.placed_columns("item") == []

    @pytest.mark.parametrize("inserted", [1, 9])
    def test_inserts_into_an_empty_relation_merge(self, small_items, inserted):
        platform = Platform.paper_testbed()
        reference = _empty_reference(platform)
        ctx = ExecutionContext(platform)
        names = item_schema().names
        for position in range(inserted):
            reference.insert(
                "item", tuple(small_items[name][position] for name in names), ctx
            )
        assert reference.reorganize("item", ctx)
        assert reference.delegation_policy("item").main_rows == inserted
        assert reference.placed_columns("item")
        oracle = ReferenceEngine(Platform.paper_testbed(), auto_place=False)
        oracle.create("item", item_schema())
        oracle.load(
            "item", {name: small_items[name][:inserted] for name in names}
        )
        (oracle_layout,) = oracle.layouts("item")
        for attribute in ("i_im_id", "i_price"):
            assert reference.sum("item", attribute, ctx) == sum_column(
                oracle_layout, attribute, ExecutionContext(oracle.platform)
            )


class TestRegionDelegation:
    def test_describe(self):
        policy = RegionDelegation(100)
        assert "100" in policy.describe()
        assert policy.owner_of(99, "x") == "main"
        assert policy.owner_of(100, "x") == "delta"


class TestUnconstrainedVariant:
    def test_unconstrained_classification(self, small_items):
        from repro.core.classification import classify
        from repro.core.taxonomy import LayoutFlexibility
        from repro.workload import item_schema

        platform = Platform.paper_testbed()
        engine = ReferenceEngine(platform, constrained=False, delta_tile_rows=64)
        engine.create("item", item_schema())
        engine.load("item", small_items)
        ctx = ExecutionContext(platform)
        engine.insert("item", (500, 1, "AA", "B", 1.0), ctx)
        classification = classify(engine, "item")
        assert classification.flexibility is LayoutFlexibility.STRONG_UNCONSTRAINED
        # Still satisfies all six requirements ("at least constrained").
        from repro.core.requirements import satisfies_all

        assert satisfies_all(classification)
