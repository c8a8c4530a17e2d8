"""Reference engine + snapshot isolation: challenge b.iii end to end."""

import pytest

from repro.core.reference_engine import ReferenceEngine
from repro.errors import EngineError
from repro.execution import ExecutionContext
from repro.hardware import Platform
from repro.mvcc import PAGE_BYTES
from repro.workload import generate_items, item_schema

ROWS = 2000


@pytest.fixture
def engine():
    platform = Platform.paper_testbed()
    engine = ReferenceEngine(platform, delta_tile_rows=256, auto_place=False)
    engine.create("item", item_schema())
    engine.load("item", generate_items(ROWS))
    return engine, platform


class TestAnalyticSnapshots:
    def test_snapshot_isolates_from_updates(self, engine):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        before = reference.sum("item", "i_price", ctx)
        snapshot = reference.analytic_snapshot("item", ctx)
        for position in range(0, 50):
            reference.update("item", position, "i_price", 0.0, ctx)
        # The long-running analytic view is unchanged; live data moved.
        assert snapshot.sum("i_price", ctx.fork()) == pytest.approx(before)
        assert reference.sum("item", "i_price", ctx.fork()) < before
        snapshot.release()

    def test_writers_pay_cow_only_under_live_snapshots(self, engine):
        reference, platform = engine
        setup = ExecutionContext(platform)
        snapshot = reference.analytic_snapshot("item", setup)
        guarded = ExecutionContext(platform)
        reference.update("item", 0, "i_price", 1.0, guarded)
        assert snapshot.pages_copied == 1
        snapshot.release()
        free = ExecutionContext(platform)
        reference.update("item", 1, "i_price", 1.0, free)
        # Only the guarded write copied a page for the snapshot.
        assert (
            guarded.counters.bytes_written - free.counters.bytes_written
            == PAGE_BYTES
        )
        assert free.cycles < guarded.cycles

    def test_reorganize_refused_under_live_snapshot(self, engine):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        reference.insert("item", (ROWS, 1, "AA", "B", 1.0), ctx)
        snapshot = reference.analytic_snapshot("item", ctx)
        with pytest.raises(EngineError):
            reference.reorganize("item", ctx)
        snapshot.release()
        assert reference.reorganize("item", ctx)

    def test_point_reads_from_snapshot(self, engine):
        reference, platform = engine
        ctx = ExecutionContext(platform)
        original = reference.materialize("item", [9], ctx)[0][4]
        snapshot = reference.analytic_snapshot("item", ctx)
        reference.update("item", 9, "i_price", -5.0, ctx)
        assert snapshot.read_field(9, "i_price") == pytest.approx(original)
        snapshot.release()
