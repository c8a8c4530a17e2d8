"""Device execution tests: transfer accounting, panel 3 vs 4 semantics."""

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.execution.context import ExecutionContext
from repro.execution.device import (
    device_sum_column,
    is_device_resident,
    transfer_fragment,
)
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64
from repro.model.relation import Relation
from repro.model.schema import Schema


@pytest.fixture
def relation():
    return Relation("prices", Schema.of(("price", FLOAT64)), 1000)


def host_column(relation, platform, values):
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory
    )
    fragment.append_columns({"price": values})
    return fragment


class TestTransfer:
    def test_transfer_charges_pcie(self, relation, platform, ctx):
        values = np.ones(1000)
        fragment = host_column(relation, platform, values)
        clone = transfer_fragment(fragment, platform.device_memory, ctx)
        assert is_device_resident(clone)
        assert ctx.counters.bytes_transferred == fragment.nbytes
        assert ctx.cycles > 0

    def test_transfer_to_same_space_rejected(self, relation, platform, ctx):
        fragment = host_column(relation, platform, np.ones(1000))
        with pytest.raises(PlacementError):
            transfer_fragment(fragment, platform.host_memory, ctx)


class TestDeviceSum:
    def test_value_correct(self, relation, platform, ctx):
        values = np.arange(1000, dtype=np.float64)
        fragment = host_column(relation, platform, values)
        layout = Layout("c", relation, [fragment])
        total = device_sum_column(layout, "price", ctx)
        assert total == pytest.approx(float(np.sum(values)))

    def test_resident_skips_transfer(self, relation, platform):
        values = np.arange(1000, dtype=np.float64)
        host_fragment = host_column(relation, platform, values)
        staged = ExecutionContext(platform)
        resident_ctx = ExecutionContext(platform)
        device_fragment = host_fragment.copy_to(platform.device_memory)
        device_sum_column(Layout("h", relation, [host_fragment]), "price", staged)
        device_sum_column(Layout("d", relation, [device_fragment]), "price", resident_ctx)
        assert resident_ctx.cycles < staged.cycles
        # Only the scalar result crosses the bus for the resident case.
        assert resident_ctx.counters.bytes_transferred == 8

    def test_kernel_launches_counted(self, relation, platform, ctx):
        fragment = host_column(relation, platform, np.ones(1000))
        device_sum_column(Layout("c", relation, [fragment]), "price", ctx)
        assert ctx.counters.kernel_launches == 2


class TestMemoryPressure:
    """Robust staging under device-memory pressure (Bress et al. 2016)."""

    def test_small_device_stages_in_chunks(self, relation):
        from repro.hardware import Platform

        # Free device memory holds only a quarter of the column.
        platform = Platform.paper_testbed(device_capacity=2000)
        values = np.arange(1000, dtype=np.float64)
        fragment = host_column(relation, platform, values)
        layout = Layout("c", relation, [fragment])
        ctx = ExecutionContext(platform)
        total = device_sum_column(layout, "price", ctx)
        assert total == pytest.approx(float(np.sum(values)))
        # 8000 B through a 2000 B bounce buffer: 4 chunks, 8 launches.
        assert ctx.counters.kernel_launches == 8
        # The bounce buffer was released.
        assert platform.device_memory.used == 0

    def test_exhausted_device_raises_capacity(self, relation):
        from repro.errors import CapacityError
        from repro.hardware import Platform

        platform = Platform.paper_testbed(device_capacity=8)
        platform.device_memory.allocate(8, "hog")
        fragment = host_column(relation, platform, np.ones(1000))
        layout = Layout("c", relation, [fragment])
        with pytest.raises(CapacityError):
            device_sum_column(layout, "price", ExecutionContext(platform))

    def test_cogadb_falls_back_to_host(self):
        from repro.engines import CoGaDBEngine
        from repro.hardware import Platform
        from repro.workload import generate_items, item_schema

        platform = Platform.paper_testbed(device_capacity=8)
        platform.device_memory.allocate(8, "hog")
        engine = CoGaDBEngine(platform)
        engine.create("item", item_schema())
        columns = generate_items(200)
        engine.load("item", columns)
        # Force HyPE toward the GPU so the capacity error path fires.
        engine.scheduler.cpu_calibration = 1e9
        ctx = ExecutionContext(platform)
        total = engine.sum("item", "i_price", ctx)
        assert total == pytest.approx(float(np.sum(columns["i_price"])))
        assert engine.scheduler.decisions[-1] == "cpu-fallback"
