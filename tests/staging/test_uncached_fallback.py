"""The uncached fallback: every device operator under a zero staging cap.

With ``platform.staging.capacity_bytes = 0`` no operand set can be
cached, so :meth:`~repro.staging.StagingManager.stage` hands each
operator a ``None`` from ``acquire_set`` and the operator gives its own
answer.  The sum streams through a bounce buffer; count-where, the
unfused oracle and the batch ship the same bytes uncached.  Each must
return the cold run's answer and charge exactly the cold run's costs,
yet install no replica.  The fused kernel, which needs every operand
resident at launch, refuses with :class:`~repro.errors.CapacityError`.
"""

import pytest

from repro.errors import CapacityError
from repro.execution.context import ExecutionContext
from repro.execution.device import device_count_where, device_sum_column
from repro.fusion import Pipeline, compile_pipeline
from repro.fusion.device import run_fused_device
from repro.fusion.oracle import run_unfused_device
from repro.hardware import Platform
from repro.serving.batch import run_device_batch

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
    "device_count_where": lambda store, ctx: device_count_where(
        store, "key", probe, ctx
    ),
    "unfused_filtered_sum": lambda store, ctx: run_unfused_device(
        FILTERED_SUM, store, ctx
    ),
    "unfused_filterless_max": lambda store, ctx: run_unfused_device(
        FILTERLESS_MAX, store, ctx
    ),
    "run_device_batch": lambda store, ctx: run_device_batch(
        store, ["price", "key", "price"], ctx
    ),
}


def cold_platform(store_kind, capacity_bytes=None):
    platform = Platform.paper_testbed()
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


@pytest.mark.parametrize("store_kind", sorted(STORE_BUILDERS))
def test_fused_kernel_refuses_an_uncachable_operand_set(store_kind):
    platform, store, ctx = cold_platform(store_kind, capacity_bytes=0)
    with pytest.raises(CapacityError):
        run_fused_device(FILTERED_SUM, store, ctx)
    assert len(platform.staging.cache) == 0
    assert platform.device_memory.used == 0
