"""Relation lifecycle: drop() frees everything, everywhere."""

import pytest

from repro.core.reference_engine import ReferenceEngine
from repro.engines import (
    CoGaDBEngine,
    ES2Engine,
    FracturedMirrorsEngine,
    GpuTxEngine,
    HyperEngine,
    HyriseEngine,
    LStoreEngine,
    PaxEngine,
    PelotonEngine,
)
from repro.errors import EngineError
from repro.execution import ExecutionContext
from repro.execution.device import device_sum_column
from repro.hardware import Platform
from repro.workload import generate_items, item_schema

FACTORIES = {
    "PAX": lambda p: PaxEngine(p, buffer_pool_pages=16),
    "Frac. Mirrors": FracturedMirrorsEngine,
    "HYRISE": HyriseEngine,
    "ES2": lambda p: ES2Engine(p, partition_rows=128),
    "GPUTx": GpuTxEngine,
    "HyPer": lambda p: HyperEngine(p, chunk_rows=128),
    "CoGaDB": CoGaDBEngine,
    "L-Store": lambda p: LStoreEngine(p, tail_capacity=16),
    "Peloton": lambda p: PelotonEngine(p, tile_group_rows=128),
    "Reference": lambda p: ReferenceEngine(p, delta_tile_rows=128),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_drop_frees_all_simulated_memory(name):
    platform = Platform.paper_testbed()
    engine = FACTORIES[name](platform)
    spaces = [platform.host_memory, platform.device_memory, platform.disk]
    if name == "ES2":
        spaces = [node.memory for node in engine.cluster.nodes] + [
            node.disk for node in engine.cluster.nodes
        ]
    if name == "Frac. Mirrors":
        spaces = list(engine.disks) + [platform.host_memory]
    if platform.device_memory not in spaces:
        spaces.append(platform.device_memory)
    baseline = [space.used for space in spaces]

    engine.create("item", item_schema())
    engine.load("item", generate_items(300))
    ctx = ExecutionContext(platform)
    engine.sum("item", "i_price", ctx)
    # A device sum stages a replica of the primary layout's column.
    device_sum_column(engine.layouts("item")[0], "i_price", ctx)
    engine.update("item", 3, "i_price", 1.0, ctx)  # creates L-Store tails
    if name == "CoGaDB":
        engine.place_columns("item", ("i_im_id",), ctx)

    engine.drop("item")
    assert [space.used for space in spaces] == baseline, name
    # Every replica of the dropped fragments went with them, pins included.
    assert len(platform.staging.cache) == 0
    with pytest.raises(EngineError):
        engine.sum("item", "i_price", ctx)
    # The name is reusable after the drop.
    engine.create("item", item_schema())
    engine.load("item", generate_items(50))
    assert engine.relation("item").row_count == 50
