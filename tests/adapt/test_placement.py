"""Device placement tests: all-or-nothing pins, hottest column first."""

import numpy as np

from repro.core.reference_engine import ReferenceEngine
from repro.execution.context import ExecutionContext
from repro.hardware.platform import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.partitioning import one_region_per_attribute
from repro.model.datatypes import FLOAT64, INT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.workload import generate_items, item_schema


def columnar(platform, rows=1000):
    relation = Relation("t", Schema.of(("a", INT64), ("p", FLOAT64)), rows)
    fragments = []
    for region in one_region_per_attribute(relation):
        fragment = Fragment(region, relation.schema, None, platform.host_memory)
        name = region.attributes[0]
        values = np.arange(rows, dtype=np.float64 if name == "p" else np.int64)
        fragment.append_columns({name: values})
        fragments.append(fragment)
    return relation, Layout("t", relation, fragments)


class TestAllOrNothing:
    def test_placement_succeeds_when_fits(self, platform, ctx):
        relation, layout = columnar(platform)
        price = layout.fragments[1]
        assert platform.staging.pin(price, "p", ctx)
        assert platform.staging.cache.pins(layout.fragments) == [(price, "p")]
        assert platform.device_memory.used == 8000
        assert ctx.counters.bytes_transferred == 8000

    def test_fallback_when_too_big(self, ctx):
        platform = Platform.paper_testbed(device_capacity=100)
        relation, layout = columnar(platform)
        local_ctx = ExecutionContext(platform)
        assert not platform.staging.pin(layout.fragments[1], "p", local_ctx)
        # All-or-nothing: nothing was transferred, allocated or pinned.
        assert local_ctx.counters.bytes_transferred == 0
        assert platform.device_memory.used == 0
        assert platform.staging.cache.pins(layout.fragments) == []

    def test_already_placed(self, platform, ctx):
        relation, layout = columnar(platform)
        platform.staging.pin(layout.fragments[1], "p", ctx)
        shipped = ctx.counters.bytes_transferred
        # The resident replica is pinned where it is: no second copy.
        assert platform.staging.pin(layout.fragments[1], "p", ctx)
        assert ctx.counters.bytes_transferred == shipped
        assert len(platform.staging.cache) == 1


class TestHotColumn:
    def test_hottest_placed_first(self):
        platform = Platform.paper_testbed()
        reference = ReferenceEngine(platform, auto_place=False)
        reference.create("item", item_schema())
        reference.load("item", generate_items(1000))
        ctx = ExecutionContext(platform)
        for __ in range(3):
            reference.sum("item", "i_im_id", ctx)
        reference.sum("item", "i_price", ctx)
        assert reference._place_hottest("item", ctx, limit=1) == ["i_im_id"]
        assert reference.placed_columns("item") == ["i_im_id"]
