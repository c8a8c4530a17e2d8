"""RecoveryManager tests: a hand-built ARIES-lite scenario, pinned pass by pass.

The scenario (group_commit=1 so every commit is individually durable):

* checkpoint 0 right after bulk load (the protocol's durability point);
* txn 1 commits an update at row 3;
* txn 2 commits an update at row 5;
* txn 3 updates row 7, its BEGIN/UPDATE are flushed — and then the
  process dies before the COMMIT ever reaches the log: txn 3 is the
  loser whose effects recovery must undo.
"""

import pytest

from repro.errors import RecoveryError
from repro.execution import ExecutionContext
from repro.faults.report import ResilienceReport
from repro.hardware import Platform
from repro.obs import Tracer
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.manager import RecoveryManager
from repro.recovery.wal import WriteAheadLog
from repro.workload.tpcc import generate_items, item_schema

ROWS = 50
LOSER_POSITION = 7


def build_engine(platform):
    from repro.engines.h2o import H2OEngine

    engine = H2OEngine(platform)
    engine.create("item", item_schema())
    return engine


def crashed_artifacts(platform):
    """Run the scenario above; return (wal, store, original_columns)."""
    columns = generate_items(ROWS)
    engine = build_engine(platform)
    engine.load("item", {name: column.copy() for name, column in columns.items()})
    wal = WriteAheadLog(platform, group_commit=1)
    store = CheckpointStore(platform)
    ctx = ExecutionContext(platform)
    store.take(engine, "item", wal, ctx)

    for txn_id, position in ((1, 3), (2, 5)):
        wal.log_begin(txn_id, ctx)
        before = engine.sum_at("item", "i_price", [position], ctx)
        wal.log_update(txn_id, "item", "i_price", position, before, 100.0 + txn_id, ctx)
        engine.update("item", position, "i_price", 100.0 + txn_id, ctx)
        wal.log_commit(txn_id, ctx)

    # The loser: durable BEGIN + UPDATE, no COMMIT.
    wal.log_begin(3, ctx)
    before = engine.sum_at("item", "i_price", [LOSER_POSITION], ctx)
    wal.log_update(3, "item", "i_price", LOSER_POSITION, before, -1.0, ctx)
    engine.update("item", LOSER_POSITION, "i_price", -1.0, ctx)
    wal.flush(ctx)
    wal.crash()
    return wal, store, columns


class TestRecover:
    def test_committed_prefix_restored_loser_undone(self, platform):
        wal, store, columns = crashed_artifacts(platform)
        rebooted = Platform.paper_testbed()
        ctx = ExecutionContext(rebooted)
        engine, result = RecoveryManager(wal, store).recover(
            lambda: build_engine(rebooted), "item", ctx
        )
        assert result.committed_txns == 2
        assert result.loser_txns == 1
        assert result.redo_updates == 3  # history repeated, loser included
        assert result.undo_updates == 1
        assert result.replayed_txns == 2
        probe = ExecutionContext(rebooted)
        assert engine.sum_at("item", "i_price", [3], probe) == pytest.approx(101.0)
        assert engine.sum_at("item", "i_price", [5], probe) == pytest.approx(102.0)
        # The loser's write is gone: row 7 is back to its loaded value.
        assert engine.sum_at("item", "i_price", [LOSER_POSITION], probe) == (
            pytest.approx(float(columns["i_price"][LOSER_POSITION]))
        )

    def test_recovery_is_cycle_charged_and_deterministic(self, platform):
        wal, store, _ = crashed_artifacts(platform)
        results = []
        for _ in range(2):
            rebooted = Platform.paper_testbed()
            tracer = rebooted.tracer = Tracer()
            ctx = ExecutionContext(rebooted)
            _, result = RecoveryManager(wal, store).recover(
                lambda: build_engine(rebooted), "item", ctx
            )
            assert result.cycles > 0
            spans = {span.name: span for span in tracer.spans()}
            assert spans["recovery-analysis"].cycles > 0  # the log scan
            assert spans["recovery-load"].cycles > 0  # the checkpoint image
            results.append(result)
        # Same durable artifacts -> identical replay, identical charge.
        assert results[0] == results[1]

    def test_recovery_tallies_into_resilience_report(self, platform):
        wal, store, _ = crashed_artifacts(platform)
        report = ResilienceReport()
        rebooted = Platform.paper_testbed()
        _, result = RecoveryManager(wal, store).recover(
            lambda: build_engine(rebooted),
            "item",
            ExecutionContext(rebooted),
            report=report,
        )
        assert report.replayed_txns == result.replayed_txns == 2
        assert report.recovery_cycles == pytest.approx(result.cycles)

    def test_build_engine_must_create_the_relation(self, platform):
        from repro.engines.h2o import H2OEngine

        wal, store, _ = crashed_artifacts(platform)
        rebooted = Platform.paper_testbed()
        with pytest.raises(RecoveryError, match="must create relation"):
            RecoveryManager(wal, store).recover(
                lambda: H2OEngine(rebooted),  # forgot create()
                "item",
                ExecutionContext(rebooted),
            )
