"""PAX-specific tests: page geometry, minipages, buffer pool."""

import pytest

from repro.engines.pax import BufferPool, PaxEngine
from repro.errors import EngineError
from repro.execution import ExecutionContext
from repro.layout.linearization import LinearizationKind, dsm_serialize
from repro.model.datatypes import INT64
from repro.model.schema import Schema
from repro.workload import generate_items, item_schema


@pytest.fixture
def engine(loaded_item_engine_factory):
    engine, platform = loaded_item_engine_factory(PaxEngine, buffer_pool_pages=4)
    return engine, platform


class TestPageGeometry:
    def test_rows_per_page_from_page_size(self, engine):
        pax, __ = engine
        layout = pax.layouts("item")[0]
        rows_per_page = 8192 // 28
        assert layout.fragments[0].capacity == rows_per_page

    def test_pages_are_dsm_fixed(self, engine):
        pax, __ = engine
        for page in pax.layouts("item")[0].fragments:
            if page.region.is_fat:
                assert page.linearization is LinearizationKind.DSM

    def test_minipage_bytes_pinned(self, platform):
        """A page's payload is the DSM serialization of its rows."""
        pax = PaxEngine(platform, page_size=256)
        schema = item_schema()
        pax.create("item", schema)
        columns = generate_items(20)
        pax.load("item", columns)
        page = pax.layouts("item")[0].fragments[0]
        rows = [page.read_row(i) for i in range(page.filled)]
        assert page.serialize() == dsm_serialize(schema, rows)

    def test_record_wider_than_page_rejected(self, platform):
        pax = PaxEngine(platform, page_size=4)
        pax.create("t", Schema.of(("x", INT64)))
        with pytest.raises(EngineError):
            pax.load_phantom("t", 10)

    def test_pages_live_on_disk(self, engine):
        pax, platform = engine
        for page in pax.layouts("item")[0].fragments:
            assert page.space is platform.disk


class TestBufferPool:
    def test_cold_read_charges_disk(self, engine):
        pax, platform = engine
        ctx = ExecutionContext(platform)
        pax.sum("item", "i_price", ctx)
        assert pax.buffer_pool.misses > 0
        seek = platform.disk_model.random_read_cost(0)
        assert ctx.cycles >= pax.buffer_pool.misses * seek  # a disk read per miss

    def test_hot_pages_are_free(self, platform):
        pax = PaxEngine(platform, buffer_pool_pages=64)
        pax.create("item", item_schema())
        pax.load("item", generate_items(300))  # ~2 pages, fits the pool
        cold = ExecutionContext(platform)
        warm = ExecutionContext(platform)
        pax.sum("item", "i_price", cold)
        pax.sum("item", "i_price", warm)
        assert warm.cycles < cold.cycles
        assert pax.buffer_pool.hits > 0

    def test_lru_eviction_when_pool_too_small(self, platform):
        pax = PaxEngine(platform, buffer_pool_pages=1)
        pax.create("item", item_schema())
        pax.load("item", generate_items(600))  # > 2 pages, 1 frame
        ctx = ExecutionContext(platform)
        pax.sum("item", "i_price", ctx)
        pax.sum("item", "i_price", ctx)
        assert pax.buffer_pool.misses >= 4  # every page refaults
        assert pax.buffer_pool.resident_pages == 1

    def test_point_queries_pin_only_their_page(self, engine):
        pax, platform = engine
        ctx = ExecutionContext(platform)
        pax.materialize("item", [0], ctx)
        assert pax.buffer_pool.misses == 1

    def test_invalid_pool(self, platform):
        with pytest.raises(EngineError):
            BufferPool(platform.host_memory, 0, 8192)


class TestDirtyPages:
    def test_update_marks_page_dirty(self, engine):
        pax, platform = engine
        ctx = ExecutionContext(platform)
        pax.update("item", 3, "i_price", 1.0, ctx)
        assert pax.buffer_pool.dirty_pages == 1

    def test_evicting_dirty_page_writes_back(self, platform):
        pax = PaxEngine(platform, buffer_pool_pages=1)
        pax.create("item", item_schema())
        pax.load("item", generate_items(600))  # > 2 pages, 1 frame
        ctx = ExecutionContext(platform)
        pax.update("item", 0, "i_price", 1.0, ctx)     # page 0 dirty
        pax.update("item", 500, "i_price", 1.0, ctx)   # evicts page 0
        assert pax.buffer_pool.write_backs == 1
        assert ctx.counters.bytes_written >= pax.page_size
        # Two page reads and the write-back each pay a disk seek.
        seek = platform.disk_model.random_read_cost(0)
        assert ctx.cycles >= (pax.buffer_pool.misses + 1) * seek

    def test_clean_evictions_are_free(self, platform):
        pax = PaxEngine(platform, buffer_pool_pages=1)
        pax.create("item", item_schema())
        pax.load("item", generate_items(600))
        ctx = ExecutionContext(platform)
        pax.sum("item", "i_price", ctx)  # read-only scan evicts clean pages
        assert pax.buffer_pool.write_backs == 0

    def test_flush_writes_all_dirty(self, engine):
        pax, platform = engine
        ctx = ExecutionContext(platform)
        pax.update("item", 3, "i_price", 1.0, ctx)
        pax.update("item", 400, "i_price", 1.0, ctx)
        flushed = pax.buffer_pool.flush(ctx)
        assert flushed == 2
        assert pax.buffer_pool.dirty_pages == 0
        assert ctx.counters.bytes_written >= 2 * 8192

    def test_redundant_flush_noop(self, engine):
        pax, platform = engine
        ctx = ExecutionContext(platform)
        assert pax.buffer_pool.flush(ctx) == 0
