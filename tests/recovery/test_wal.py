"""WriteAheadLog unit tests: charging, group commit, torn writes, crash."""

import pytest

from repro.errors import EngineCrashed, WalError
from repro.execution import ExecutionContext
from repro.faults import SITE_WAL_TORN_WRITE, FaultInjector
from repro.obs import Tracer
from repro.recovery.wal import LogRecordKind, WriteAheadLog


class TestAppend:
    def test_append_buffers_and_charges_memory_copy(self, platform, ctx):
        wal = WriteAheadLog(platform)
        tracer = platform.tracer = Tracer()
        record = wal.log_begin(1, ctx)
        assert record.lsn == 1
        assert wal.tail_records == 1
        assert wal.durable_records() == ()
        (span,) = tracer.roots
        assert span.name == "wal-append" and span.cycles > 0
        assert ctx.counters.cycles > 0

    def test_lsns_are_monotonic_across_kinds(self, platform, ctx):
        wal = WriteAheadLog(platform)
        lsns = [
            wal.log_begin(1, ctx).lsn,
            wal.log_update(1, "t", "price", 0, 1.0, 2.0, ctx).lsn,
            wal.log_abort(1, ctx).lsn,
            wal.log_checkpoint_begin(1, ctx).lsn,
            wal.log_checkpoint_end(1, ctx).lsn,
            wal.log_reorg(LogRecordKind.REORG_BEGIN, "t", ctx).lsn,
        ]
        assert lsns == [1, 2, 3, 4, 5, 6]
        assert wal.last_lsn == 6

    def test_update_record_carries_both_images(self, platform, ctx):
        wal = WriteAheadLog(platform)
        record = wal.log_update(7, "item", "i_price", 3, 10.0, 42.0, ctx)
        assert record.kind is LogRecordKind.UPDATE
        assert (record.before, record.after) == (10.0, 42.0)
        assert (record.relation, record.attribute, record.position) == (
            "item",
            "i_price",
            3,
        )

    def test_non_reorg_kind_rejected_by_log_reorg(self, platform, ctx):
        wal = WriteAheadLog(platform)
        with pytest.raises(WalError):
            wal.log_reorg(LogRecordKind.COMMIT, "t", ctx)

    def test_group_commit_must_be_positive(self, platform):
        with pytest.raises(WalError):
            WriteAheadLog(platform, group_commit=0)


class TestGroupCommit:
    def test_flush_every_nth_commit(self, platform, ctx):
        wal = WriteAheadLog(platform, group_commit=3)
        outcomes = []
        for txn in range(6):
            wal.log_begin(txn, ctx)
            outcomes.append(wal.log_commit(txn, ctx))
        # Only the 3rd and 6th commits trigger the group flush.
        assert outcomes == [False, False, True, False, False, True]
        assert wal.flush_count == 2
        assert wal.tail_records == 0
        assert len(wal.durable_records()) == 12

    def test_flush_charges_one_fsync_for_the_batch(self, platform, ctx):
        wal = WriteAheadLog(platform, group_commit=8)
        for txn in range(3):
            wal.log_begin(txn, ctx)
        before = ctx.counters.cycles
        tracer = platform.tracer = Tracer()
        flushed = wal.flush(ctx)
        assert flushed == 3
        assert ctx.counters.cycles > before
        (span,) = tracer.roots
        assert span.name == "wal-fsync" and span.cycles > 0
        assert wal.durable_bytes == sum(r.nbytes for r in wal.durable_records())

    def test_empty_flush_is_free(self, platform, ctx):
        wal = WriteAheadLog(platform)
        before = ctx.counters.cycles
        assert wal.flush(ctx) == 0
        assert ctx.counters.cycles == before
        assert wal.flush_count == 0

    def test_group_commit_one_is_force_at_commit(self, platform, ctx):
        wal = WriteAheadLog(platform, group_commit=1)
        wal.log_begin(0, ctx)
        assert wal.log_commit(0, ctx) is True
        assert wal.tail_records == 0


class TestTornWrite:
    def test_torn_flush_raises_and_terminates_durable_prefix(self, platform, ctx):
        FaultInjector(seed=1).arm(SITE_WAL_TORN_WRITE, 1.0).install(platform)
        wal = WriteAheadLog(platform, group_commit=8)
        wal.log_begin(0, ctx)
        wal.log_update(0, "t", "price", 0, 1.0, 2.0, ctx)
        wal.log_commit(0, ctx)
        with pytest.raises(EngineCrashed) as excinfo:
            wal.flush(ctx)
        assert excinfo.value.injected is True
        # The batch reached the platter but the trailing record is torn:
        # the checksum-valid prefix stops just before it.
        assert wal.torn_records == 1
        durable = wal.durable_records()
        assert len(durable) == 2
        assert durable[-1].kind is LogRecordKind.UPDATE
        assert wal.crashed

    def test_torn_flush_still_charges_the_fsync(self, platform, ctx):
        FaultInjector(seed=1).arm(SITE_WAL_TORN_WRITE, 1.0).install(platform)
        wal = WriteAheadLog(platform)
        wal.log_begin(0, ctx)
        before = ctx.counters.cycles
        with pytest.raises(EngineCrashed):
            wal.flush(ctx)
        assert ctx.counters.cycles > before  # the seek was burned anyway


class TestCrash:
    def test_crash_drops_tail_keeps_durable_prefix(self, platform, ctx):
        wal = WriteAheadLog(platform, group_commit=8)
        wal.log_begin(0, ctx)
        wal.flush(ctx)
        wal.log_begin(1, ctx)  # volatile: dies with the process
        wal.crash()
        assert wal.tail_records == 0
        assert [r.txn_id for r in wal.durable_records()] == [0]
        assert wal.crashed

    def test_crashed_log_rejects_appends_and_flushes(self, platform, ctx):
        wal = WriteAheadLog(platform)
        wal.crash()
        with pytest.raises(WalError):
            wal.log_begin(0, ctx)
        with pytest.raises(WalError):
            wal.flush(ctx)

    def test_crash_is_idempotent(self, platform, ctx):
        wal = WriteAheadLog(platform)
        wal.log_begin(0, ctx)
        wal.flush(ctx)
        wal.crash()
        wal.crash()
        assert len(wal.durable_records()) == 1


class TestTruncate:
    def test_truncate_drops_the_records_below_and_their_bytes(self, platform, ctx):
        wal = WriteAheadLog(platform, group_commit=1)
        for txn in range(4):
            wal.log_begin(txn, ctx)
            wal.log_commit(txn, ctx)
        assert wal.truncate(5) == 4
        assert [r.lsn for r in wal.durable_records()] == [5, 6, 7, 8]
        assert wal.durable_bytes == sum(r.nbytes for r in wal.durable_records())
        assert wal.truncate(5) == 0
        assert (wal.durable_lsn, wal.last_lsn) == (8, 8)
        wal.log_begin(4, ctx)
        assert wal.log_commit(4, ctx) and wal.durable_lsn == 10

    def test_truncate_keeps_the_durable_lsn(self, platform, ctx):
        wal = WriteAheadLog(platform, group_commit=1)
        wal.log_begin(0, ctx)
        wal.log_commit(0, ctx)
        with pytest.raises(WalError, match="durable only to 2"):
            wal.truncate(3)
        assert wal.truncate(2) == 1 and wal.durable_lsn == 2


class TestEncoding:
    def test_encode_roundtrips_payload_fields(self, platform, ctx):
        wal = WriteAheadLog(platform)
        record = wal.log_update(3, "item", "i_price", 9, 1.5, 2.5, ctx)
        decoded = eval(record.encode().decode())  # repr-encoded tuple
        assert decoded[0] == record.lsn
        assert decoded[1] == LogRecordKind.UPDATE.value
        assert decoded[5] == 9

    def test_encode_is_the_repr_of_entry_computed_once(self, platform, ctx):
        import ast

        wal = WriteAheadLog(platform)
        record = wal.log_update(3, "item", "i_price", 9, -0.0, 2.5, ctx)
        assert ast.literal_eval(record.encode().decode()) == record.entry
        assert record.entry == (
            record.lsn, "update", 3, "item", "i_price", 9, -0.0, 2.5, ""
        )
        assert record.encode() is record.encode()

    def test_nbytes_includes_header(self, platform, ctx):
        from repro.recovery.wal import RECORD_HEADER_BYTES

        wal = WriteAheadLog(platform)
        record = wal.log_begin(1, ctx)
        assert record.nbytes == RECORD_HEADER_BYTES + len(record.encode())
