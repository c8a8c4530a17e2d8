"""CheckpointStore tests: capture protocol, selection, torn-end invalidation."""

import numpy as np
import pytest

from repro.errors import EngineCrashed, RecoveryError
from repro.execution import ExecutionContext
from repro.faults import SITE_WAL_TORN_WRITE, FaultInjector
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.wal import LogRecordKind, WriteAheadLog

ROWS = 60


@pytest.fixture
def loaded_engine(platform):
    from repro.engines.h2o import H2OEngine
    from repro.workload.tpcc import generate_items, item_schema

    engine = H2OEngine(platform)
    engine.create("item", item_schema())
    engine.load("item", generate_items(ROWS))
    return engine


class TestTake:
    def test_take_brackets_image_with_log_markers(self, loaded_engine, platform, ctx):
        wal = WriteAheadLog(platform)
        store = CheckpointStore(platform)
        checkpoint = store.take(loaded_engine, "item", wal, ctx)
        assert checkpoint.begin_lsn < checkpoint.end_lsn
        kinds = [record.kind for record in wal.durable_records()]
        assert kinds == [
            LogRecordKind.CHECKPOINT_BEGIN,
            LogRecordKind.CHECKPOINT_END,
        ]
        assert store.checkpoints("item") == (checkpoint,)

    def test_image_matches_engine_contents(self, loaded_engine, platform, ctx):
        from repro.workload.tpcc import generate_items

        wal = WriteAheadLog(platform)
        checkpoint = CheckpointStore(platform).take(loaded_engine, "item", wal, ctx)
        expected = generate_items(ROWS)
        assert checkpoint.row_count == ROWS
        for name, column in expected.items():
            np.testing.assert_array_equal(checkpoint.columns[name], column)

    def test_take_charges_capture_and_disk_write(self, loaded_engine, platform, ctx):
        wal = WriteAheadLog(platform)
        before = ctx.counters.cycles
        checkpoint = CheckpointStore(platform).take(loaded_engine, "item", wal, ctx)
        assert ctx.counters.cycles > before
        assert checkpoint.nbytes > 0
        # The image and the flushed log markers are all the bytes written.
        assert ctx.counters.bytes_written == checkpoint.nbytes + wal.durable_bytes

    def test_take_records_live_mvcc_metadata(self, platform, ctx):
        # A live snapshot with copied pages must be visible in the image
        # metadata (fuzzy checkpoints coexist with MVCC readers).
        from repro.core.reference_engine import ReferenceEngine
        from repro.workload.tpcc import generate_items, item_schema

        engine = ReferenceEngine(platform, delta_tile_rows=128)
        engine.create("item", item_schema())
        engine.load("item", generate_items(ROWS))
        snapshot = engine.analytic_snapshot("item", ctx)
        engine.update("item", 0, "i_price", 9.5, ctx)
        wal = WriteAheadLog(platform)
        checkpoint = CheckpointStore(platform).take(engine, "item", wal, ctx)
        assert checkpoint.live_snapshots == 1
        assert checkpoint.preserved_pages >= 1
        snapshot.release()


class TestSelection:
    def test_latest_complete_prefers_newest_durable(
        self, loaded_engine, platform, ctx
    ):
        wal = WriteAheadLog(platform)
        store = CheckpointStore(platform)
        store.take(loaded_engine, "item", wal, ctx)
        second = store.take(loaded_engine, "item", wal, ctx)
        assert store.latest_complete("item", wal.durable_records()) is second

    def test_no_checkpoint_raises_recovery_error(self, platform):
        store = CheckpointStore(platform)
        with pytest.raises(RecoveryError):
            store.latest_complete("item", ())

    def test_torn_end_marker_invalidates_checkpoint(
        self, loaded_engine, platform, ctx
    ):
        wal = WriteAheadLog(platform)
        store = CheckpointStore(platform)
        first = store.take(loaded_engine, "item", wal, ctx)
        # The second checkpoint's flush tears its END marker: the image
        # is in the store but recovery must fall back to the first.
        FaultInjector(seed=1).arm(
            SITE_WAL_TORN_WRITE, 1.0, max_faults=1
        ).install(platform)
        with pytest.raises(EngineCrashed):
            store.take(loaded_engine, "item", wal, ctx)
        assert len(store.checkpoints("item")) == 2
        assert store.latest_complete("item", wal.durable_records()) is first
