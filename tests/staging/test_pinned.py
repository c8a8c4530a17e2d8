"""Pinned replicas: engine placements live in the staging cache.

``StagingManager.pin`` stages a column once and pins its replica, which
is how CoGaDB's ``place_columns`` and the reference design's hottest
columns reach device memory.  These tests pin the contract: LRU
eviction, ``capacity_bytes`` pressure, injected ``device.alloc`` OOM and
``invalidate_all`` never drop a pinned replica; a write to placed data
is charged as one host write and patched on the next device read; a
write the replica cannot absorb re-stages it pinned; ``release`` drops
it; and a recovered reference design keeps its placed columns.
"""

import numpy as np
import pytest

from repro.core.reference_engine import ReferenceEngine
from repro.engines import CoGaDBEngine
from repro.errors import DeviceError
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.execution.operators import sum_column, update_field
from repro.faults.injector import SITE_DEVICE_ALLOC, FaultInjector
from repro.hardware import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.manager import RecoveryManager
from repro.recovery.wal import WriteAheadLog
from repro.workload import generate_items, item_schema

ROWS = 100


def column_store(platform, label, dtype=FLOAT64):
    """A one-column, ``ROWS``-row store of ``0..ROWS-1``: 800 raw bytes."""
    relation = Relation(label, Schema.of(("v", dtype)), ROWS)
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory,
        label=label,
    )
    fragment.append_columns({"v": np.arange(ROWS, dtype=dtype.numpy_dtype())})
    return Layout(label, relation, [fragment])


def pinned_store(platform, label="pinned", dtype=FLOAT64):
    store = column_store(platform, label, dtype)
    assert platform.staging.pin(store.fragments[0], "v", ExecutionContext(platform))
    return store


def resident(platform, store):
    return platform.staging.cache.peek(store.fragments[0], "v") is not None


class TestNeverDropped:
    def test_lru_eviction_passes_the_pin_by(self):
        platform = Platform.paper_testbed()
        platform.staging.capacity_bytes = 2 * ROWS * 8
        pinned = pinned_store(platform)
        first, second = (column_store(platform, name) for name in ("a", "b"))
        ctx = ExecutionContext(platform)
        device_sum_column(first, "v", ctx)
        device_sum_column(second, "v", ctx)
        # Room for two replicas: the pinned one stays, the LRU one went.
        assert platform.staging.cache.evictions == 1
        assert resident(platform, pinned)
        assert not resident(platform, first) and resident(platform, second)
        assert platform.staging.cache.evict_lru() is not None
        assert platform.staging.cache.evict_lru() is None
        assert resident(platform, pinned)

    def test_capacity_pressure_with_only_pins_streams_uncached(self):
        platform = Platform.paper_testbed()
        platform.staging.capacity_bytes = ROWS * 8
        pinned = pinned_store(platform)
        other = column_store(platform, "other")
        ctx = ExecutionContext(platform)
        total = device_sum_column(other, "v", ctx)
        assert total == float(np.sum(np.arange(ROWS)))
        # Nothing could be evicted: the miss streamed through a bounce buffer.
        assert ctx.counters.pcie_bytes == ROWS * 8 + 8
        assert resident(platform, pinned) and not resident(platform, other)
        assert platform.device_memory.used == ROWS * 8

    def test_injected_oom_evicts_only_unpinned_replicas(self):
        platform = Platform.paper_testbed()
        pinned = pinned_store(platform)
        staged = column_store(platform, "staged")
        device_sum_column(staged, "v", ExecutionContext(platform))
        injector = FaultInjector(seed=3).arm(SITE_DEVICE_ALLOC, 1.0)
        injector.install(platform)
        ctx = ExecutionContext(platform)
        device_sum_column(column_store(platform, "next"), "v", ctx)
        # The OOM was absorbed by the unpinned replica.
        assert ctx.counters.fault_recoveries == 1
        assert resident(platform, pinned) and not resident(platform, staged)

    def test_injected_oom_with_only_pins_surfaces(self):
        platform = Platform.paper_testbed()
        pinned = pinned_store(platform)
        FaultInjector(seed=3).arm(SITE_DEVICE_ALLOC, 1.0).install(platform)
        with pytest.raises(DeviceError):
            device_sum_column(
                column_store(platform, "next"), "v", ExecutionContext(platform)
            )
        assert resident(platform, pinned)
        assert platform.device_memory.used == ROWS * 8

    def test_invalidate_all_keeps_pins(self):
        platform = Platform.paper_testbed()
        pinned = pinned_store(platform)
        staged = column_store(platform, "staged")
        device_sum_column(staged, "v", ExecutionContext(platform))
        assert platform.staging.invalidate_all() == 1
        assert resident(platform, pinned) and not resident(platform, staged)


class TestWrites:
    def test_a_write_to_placed_data_pays_its_patch_on_the_next_read(self):
        platform = Platform.paper_testbed()
        engine = CoGaDBEngine(platform)
        engine.create("item", item_schema())
        engine.load("item", generate_items(50_000))
        engine.place_columns("item", ("i_price",), ExecutionContext(platform))
        (layout,) = engine.layouts("item")
        (fragment,) = layout.fragments_for_attribute("i_price")
        warm = ExecutionContext(platform)
        engine.sum("item", "i_price", warm)
        assert engine.scheduler.decisions[-1] == "gpu"
        assert platform.staging.predicted_transfer_cost(fragment, "i_price") == 0.0

        write = ExecutionContext(platform)
        engine.update("item", 7, "i_price", 3.5, write)
        # One host write, charged once; nothing crosses the link yet.
        assert write.counters.bytes_written == 8
        assert write.cycles == platform.memory_model.random(
            count=1, touched=8, footprint=fragment.nbytes
        )
        assert write.counters.pcie_bytes == write.counters.kernel_launches == 0
        patch = platform.staging.scheduler.predicted_cost(16)
        assert platform.staging.predicted_transfer_cost(fragment, "i_price") == patch

        read = ExecutionContext(platform)
        total = engine.sum("item", "i_price", read)
        assert engine.scheduler.decisions[-1] == "gpu"
        assert total == sum_column(layout, "i_price", ExecutionContext(platform))
        # One patch burst (an 8 B offset and an 8 B value) and one
        # scatter launch on top of the warm read.
        assert read.counters.transfers == warm.counters.transfers + 1
        assert read.counters.pcie_bytes == warm.counters.pcie_bytes + 16
        assert read.counters.kernel_launches == warm.counters.kernel_launches + 1
        assert read.cycles > warm.cycles

    def test_a_write_outside_the_frame_restages_the_replica_pinned(self):
        platform = Platform.paper_testbed()
        store = pinned_store(platform, dtype=INT64)
        ctx = ExecutionContext(platform)
        update_field(store, 3, "v", 10**12, ctx)
        assert platform.staging.cache.invalidations == 1
        assert not resident(platform, store)
        assert platform.staging.cache.pins(store.fragments) == [(store.fragments[0], "v")]
        total = device_sum_column(store, "v", ctx)
        assert total == float(np.sum(store.fragments[0].column("v")))
        assert resident(platform, store)
        assert platform.staging.cache.evict_lru() is None


class TestRelease:
    def test_release_drops_pinned_and_unpinned_replicas(self):
        platform = Platform.paper_testbed()
        pinned = pinned_store(platform)
        staged = column_store(platform, "staged")
        device_sum_column(staged, "v", ExecutionContext(platform))
        fragments = pinned.fragments + staged.fragments
        assert platform.staging.release(fragments) == 2
        assert platform.staging.cache.pins(fragments) == []
        assert len(platform.staging.cache) == 0
        assert platform.device_memory.used == 0


class TestRecovery:
    def test_recovered_reference_design_keeps_its_placed_columns(self):
        platform = Platform.paper_testbed()
        columns = generate_items(2_000)

        def build_engine():
            engine = ReferenceEngine(platform)
            engine.create("item", item_schema())
            return engine

        engine = build_engine()
        engine.load("item", {name: column.copy() for name, column in columns.items()})
        wal = WriteAheadLog(platform, group_commit=1)
        store = CheckpointStore(platform)
        ctx = ExecutionContext(platform)
        store.take(engine, "item", wal, ctx)
        wal.log_begin(1, ctx)
        wal.log_update(1, "item", "i_price", 3, columns["i_price"][3], 101.0, ctx)
        engine.update("item", 3, "i_price", 101.0, ctx)
        wal.log_commit(1, ctx)
        wal.crash()

        recovered, __ = RecoveryManager(wal, store).recover(
            build_engine, "item", ExecutionContext(platform)
        )
        placed = recovered.placed_columns("item")
        assert "i_price" in placed
        (unified,) = recovered.layouts("item")
        for attribute in placed:
            (main,) = unified.fragments_for_attribute(attribute)
            assert platform.staging.cache.peek(main, attribute) is not None
        probe = ExecutionContext(platform)
        for attribute in placed:
            assert recovered.sum("item", attribute, probe) == sum_column(
                unified, attribute, ExecutionContext(platform)
            )
        assert probe.counters.staging_hits == len(placed)
