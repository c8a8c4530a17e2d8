"""GPU selection + count: the fused filter→count kernel and its routing."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.execution import ExecutionContext
from repro.fusion import Pipeline, compile_pipeline
from repro.fusion.device import run_fused_device
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64
from repro.model.relation import Relation
from repro.model.schema import Schema


@pytest.fixture
def relation():
    return Relation("t", Schema.of(("v", FLOAT64)), 2000)


def column(relation, platform_or_space, values):
    space = getattr(platform_or_space, "host_memory", platform_or_space)
    fragment = Fragment(Region.full(relation), relation.schema, None, space)
    fragment.append_columns({"v": values})
    return fragment


def count_plan(attribute, predicate):
    """The selection + count plan: scan, filter, count."""
    return Pipeline.scan(attribute).filter(predicate).aggregate("count")


def device_count(layout, predicate, ctx):
    return run_fused_device(compile_pipeline(count_plan("v", predicate)), layout, ctx)


class TestCountWhere:
    def test_count_correct(self, relation, platform, ctx):
        values = np.arange(2000, dtype=np.float64)
        fragment = column(relation, platform, values)
        layout = Layout("t", relation, [fragment])
        assert device_count(layout, lambda v: v >= 1500, ctx) == 500

    def test_only_scalar_returns_when_resident(self, relation, platform):
        values = np.arange(2000, dtype=np.float64)
        fragment = column(relation, platform.device_memory, values)
        layout = Layout("t", relation, [fragment])
        ctx = ExecutionContext(platform)
        device_count(layout, lambda v: v > 0, ctx)
        assert ctx.counters.bytes_transferred == 8

    def test_host_column_staged(self, relation, platform, ctx):
        values = np.arange(2000, dtype=np.float64)
        fragment = column(relation, platform, values)
        layout = Layout("t", relation, [fragment])
        device_count(layout, lambda v: v > 0, ctx)
        assert ctx.counters.bytes_transferred >= 2000 * 8

    def test_bad_predicate_shape(self, relation, platform, ctx):
        fragment = column(relation, platform, np.ones(2000))
        layout = Layout("t", relation, [fragment])
        with pytest.raises(ExecutionError):
            device_count(layout, lambda v: np.array([True]), ctx)


class TestCoGaDBCountWhere:
    def test_routed_count(self):
        from repro.engines import CoGaDBEngine
        from repro.hardware import Platform
        from repro.workload import generate_items, item_schema

        platform = Platform.paper_testbed()
        engine = CoGaDBEngine(platform)
        engine.create("item", item_schema())
        columns = generate_items(3000)
        engine.load("item", columns)
        ctx = ExecutionContext(platform)
        expected = int(np.sum(columns["i_price"] > 50.0))
        plan = count_plan("i_price", lambda v: v > 50.0)
        # Host-routed (unplaced)...
        assert engine.run_pipeline("item", plan, ctx) == expected
        # ...and device-routed once placed (HyPE's call either way).
        engine.place_columns("item", ("i_price",), ctx)
        assert engine.run_pipeline("item", plan, ctx) == expected
