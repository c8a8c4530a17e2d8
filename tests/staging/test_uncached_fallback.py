"""The one memory-pressure policy, through every device operator.

With ``platform.staging.capacity_bytes = 0`` no operand set can be
cached, so :meth:`~repro.staging.StagingManager.stage` ships each
operator's misses uncached through a bounce buffer that free device
memory holds.  Each operator must return the cold run's answer and
charge exactly the cold run's costs, yet install no replica.

On a device too small to hold the operands at all, ``stage`` raises
:class:`~repro.errors.CapacityError` for every operator, leaving the
cache and device memory empty, so the caller's host fallback answers.

Either way, a set that no emptied cache could hold evicts nothing: the
replicas already cached stay and serve their next reads.
"""

import numpy as np
import pytest

from repro.errors import CapacityError
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column, run_device_batch
from repro.fusion import Pipeline, compile_pipeline
from repro.fusion.device import run_fused_device
from repro.fusion.oracle import run_unfused_device
from repro.hardware import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64
from repro.model.relation import Relation
from repro.model.schema import Schema

from tests.fusion.stores import STORE_BUILDERS, fusion_columns, fusion_relation

COUNTERS = (
    "cycles",
    "pcie_bytes",
    "bytes_transferred",
    "transfers",
    "staging_hits",
    "staging_misses",
    "kernel_launches",
    "device_cycles",
)


def probe(values):
    return values < 400


FILTERED_SUM = compile_pipeline(
    Pipeline.scan("key").filter(probe).aggregate("sum", on="price")
)
FILTERLESS_MAX = compile_pipeline(Pipeline.scan("price").aggregate("max"))

OPERATORS = {
    "device_sum_column": lambda store, ctx: device_sum_column(store, "price", ctx),
    "unfused_filtered_sum": lambda store, ctx: run_unfused_device(
        FILTERED_SUM, store, ctx
    ),
    "unfused_filterless_max": lambda store, ctx: run_unfused_device(
        FILTERLESS_MAX, store, ctx
    ),
    "run_device_batch": lambda store, ctx: run_device_batch(
        store, ["price", "key", "price"], ctx
    ),
    "run_fused_device": lambda store, ctx: run_fused_device(FILTERED_SUM, store, ctx),
}


def cold_platform(store_kind, capacity_bytes=None, **testbed):
    platform = Platform.paper_testbed(**testbed)
    platform.staging.capacity_bytes = capacity_bytes
    store = STORE_BUILDERS[store_kind](
        platform, fusion_relation(), fusion_columns()
    )
    return platform, store, ExecutionContext(platform)


@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("store_kind", sorted(STORE_BUILDERS))
def test_uncached_run_matches_the_cold_run(store_kind, operator):
    run = OPERATORS[operator]
    __, cold_store, cold = cold_platform(store_kind)
    expected = run(cold_store, cold)

    platform, store, capped = cold_platform(store_kind, capacity_bytes=0)
    assert run(store, capped) == expected
    for name in COUNTERS:
        assert getattr(capped.counters, name) == getattr(cold.counters, name), name
    assert len(platform.staging.cache) == 0
    assert platform.device_memory.used == 0


@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("store_kind", sorted(STORE_BUILDERS))
def test_a_device_too_small_for_the_operands_raises(store_kind, operator):
    platform, store, ctx = cold_platform(store_kind, device_capacity=256)
    with pytest.raises(CapacityError):
        OPERATORS[operator](store, ctx)
    assert len(platform.staging.cache) == 0
    assert platform.device_memory.used == 0


def price_layout(platform, label, rows):
    """A one-fragment host layout of *rows* float64 prices."""
    relation = Relation(label, Schema.of(("price", FLOAT64)), rows)
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory,
        label=label,
    )
    fragment.append_columns({"price": np.arange(rows, dtype=np.float64)})
    return Layout(label, relation, [fragment])


@pytest.mark.parametrize(
    "testbed, capacity_bytes, outcome",
    [
        ({}, 4096, None),  # the cap holds no 32 KB set: it ships uncached
        ({"device_capacity": 4096}, None, CapacityError),  # nor does the device
    ],
    ids=["capped-cache", "small-device"],
)
def test_a_set_no_cache_could_hold_evicts_nothing(testbed, capacity_bytes, outcome):
    platform = Platform.paper_testbed(**testbed)
    platform.staging.capacity_bytes = capacity_bytes
    small = price_layout(platform, "small", 64)  # 512 B
    large = price_layout(platform, "large", 4096)  # 32 KB
    ctx = ExecutionContext(platform)
    expected = device_sum_column(small, "price", ctx)
    if outcome is None:
        device_sum_column(large, "price", ctx)
    else:
        with pytest.raises(outcome):
            device_sum_column(large, "price", ctx)
    assert platform.staging.cache.evictions == 0
    assert platform.staging.cache.peek(small.fragments[0], "price") is not None
    hits = ctx.counters.staging_hits
    assert device_sum_column(small, "price", ctx) == expected
    assert ctx.counters.staging_hits == hits + 1
