"""Empty-relation contract: zero rows is a state, not an error."""

import pytest

from repro.core.reference_engine import ReferenceEngine
from repro.engines import (
    CoGaDBEngine,
    ES2Engine,
    FracturedMirrorsEngine,
    GpuTxEngine,
    H2OEngine,
    HyperEngine,
    HyriseEngine,
    LStoreEngine,
    PaxEngine,
    PelotonEngine,
)
from repro.errors import EngineError
from repro.execution import ExecutionContext, device_sum_column, run_device_batch
from repro.hardware import Platform
from repro.workload import generate_items, item_schema

from tests.fusion.stores import dsm_store, fusion_columns, fusion_relation

FACTORIES = {
    "PAX": PaxEngine,
    "Frac. Mirrors": FracturedMirrorsEngine,
    "HYRISE": HyriseEngine,
    "ES2": ES2Engine,
    "GPUTx": GpuTxEngine,
    "H2O": lambda p: H2OEngine(p, hot_columns=("i_price",)),
    "HyPer": HyperEngine,
    "CoGaDB": CoGaDBEngine,
    "L-Store": LStoreEngine,
    "Peloton": PelotonEngine,
    "Reference": ReferenceEngine,
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_empty_relation_contract(name):
    platform = Platform.paper_testbed()
    engine = FACTORIES[name](platform)
    engine.create("item", item_schema())
    engine.load("item", generate_items(0))
    ctx = ExecutionContext(platform)

    assert engine.sum("item", "i_price", ctx) == 0.0
    assert engine.materialize("item", [], ctx) == []
    assert engine.sum_at("item", "i_price", [], ctx) == 0.0
    with pytest.raises(EngineError):
        engine.point_query("item", 0, ctx)  # no index on empty relations


def test_device_sums_of_an_empty_relation_charge_nothing():
    platform = Platform.paper_testbed()
    store = dsm_store(platform, fusion_relation(0), fusion_columns(0))
    ctx = ExecutionContext(platform)

    assert device_sum_column(store, "price", ctx) == 0.0
    assert run_device_batch(store, ["price", "key"], ctx) == [0.0, 0.0]
    assert ctx.counters.cycles == 0.0
    assert ctx.counters.transfers == 0
    assert ctx.counters.kernel_launches == 0


def test_hyper_grows_from_empty():
    """An empty relation is the natural start of an insert-only life."""
    platform = Platform.paper_testbed()
    engine = HyperEngine(platform, chunk_rows=4)
    engine.create("item", item_schema())
    engine.load("item", generate_items(0))
    ctx = ExecutionContext(platform)
    for i in range(10):
        engine.insert("item", (i, 1, "AA", "B", 2.0), ctx)
    assert engine.sum("item", "i_price", ctx) == pytest.approx(20.0)
    assert engine.materialize("item", [7], ctx)[0][0] == 7
    engine.layouts("item")[0].validate()
