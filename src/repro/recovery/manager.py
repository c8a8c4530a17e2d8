"""ARIES-lite crash recovery: analysis, redo, undo.

Given a crashed run's durable artifacts — the WAL's checksum-valid
prefix and the :class:`~repro.recovery.checkpoint.CheckpointStore` —
:class:`RecoveryManager` rebuilds a fresh engine to the **committed
prefix**: every transaction whose ``COMMIT`` record is durable is fully
applied; every other transaction leaves no trace.  The three passes
are the textbook ones, scaled to this kit's physiological update
records:

1. **Analysis** — one sequential scan of the durable log classifies
   transactions (committed / aborted / loser = begun but unresolved)
   and finds reorganizations that began without ending (their partial
   fragments died with the process; nothing to do, the checkpoint
   image predates them).
2. **Redo (repeat history)** — starting from the newest *complete*
   checkpoint, every durable ``UPDATE`` with LSN past the checkpoint
   is re-applied through the engine's ordinary write path, losers
   included — exactly as ARIES repeats history before undoing.
3. **Undo** — losers' updates are rolled back in reverse-LSN order by
   writing their before-images.

Afterwards the engine's :meth:`~repro.engines.base.StorageEngine.on_recovered`
hook runs (L-Store merges replayed tails through its lineage, HyPer
compacts the redo-touched hot tail) and every unpinned staged device
replica is invalidated — a recovered layout must not serve reads from
replicas staged against pre-crash state.  Pinned replicas stay: the
fresh engine placed them while loading the checkpoint image, and redo
and undo reached them through the ordinary write path.

Everything is cycle-charged on the *recovering* machine's context:
log scan and checkpoint image as sequential disk reads, replay through
the normal (charged) engine write path.  Recovery is deterministic:
same durable artifacts, same replay, same cycle total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import RecoveryError
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.wal import LogRecordKind, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import StorageEngine
    from repro.execution.context import ExecutionContext
    from repro.faults.report import ResilienceReport

__all__ = ["RecoveryResult", "RecoveryManager"]


@dataclass(frozen=True)
class RecoveryResult:
    """What one recovery pass did (all fields deterministic per seed)."""

    relation: str
    checkpoint_id: int
    checkpoint_lsn: int
    records_scanned: int
    torn_records: int
    committed_txns: int
    loser_txns: int
    redo_updates: int
    undo_updates: int
    #: Committed transactions that needed log replay (not covered by
    #: the checkpoint image) — the figure reported in BENCH_recovery.
    replayed_txns: int
    incomplete_reorgs: int
    cycles: float


class RecoveryManager:
    """Restart logic binding one WAL to one checkpoint store."""

    def __init__(self, wal: WriteAheadLog, checkpoints: CheckpointStore) -> None:
        self.wal = wal
        self.checkpoints = checkpoints

    def recover(
        self,
        build_engine: "Callable[[], StorageEngine]",
        name: str,
        ctx: "ExecutionContext",
        report: "ResilienceReport | None" = None,
    ) -> "tuple[StorageEngine, RecoveryResult]":
        """Rebuild relation *name* on a fresh engine; return both.

        *build_engine* must return an engine with the relation created
        but not loaded (recovery owns the load).  When *report* is
        given, the replayed-transaction count and the whole pass's
        cycle charge are tallied there so the resilience accounting
        shows what absorbing the crash cost.
        """
        start_cycles = ctx.counters.cycles
        records = self.wal.durable_records()

        with ctx.span(f"recover({name})", "recovery", records=len(records)):
            # ---- analysis: one sequential scan of the durable log ---
            with ctx.span("recovery-analysis", "recovery") as span:
                scan_bytes = sum(record.nbytes for record in records)
                ctx.platform.disk_model.sequential_read_cost(scan_bytes, ctx.counters)

                begun: set[int] = set()
                committed: set[int] = set()
                aborted: set[int] = set()
                reorgs_begun: dict[str, int] = {}
                for record in records:
                    if record.kind is LogRecordKind.BEGIN:
                        begun.add(record.txn_id)
                    elif record.kind is LogRecordKind.COMMIT:
                        committed.add(record.txn_id)
                    elif record.kind is LogRecordKind.ABORT:
                        aborted.add(record.txn_id)
                    elif record.kind is LogRecordKind.REORG_BEGIN:
                        reorgs_begun[record.payload] = (
                            reorgs_begun.get(record.payload, 0) + 1
                        )
                    elif record.kind in (
                        LogRecordKind.REORG_END,
                        LogRecordKind.REORG_ABORT,
                    ):
                        if reorgs_begun.get(record.payload, 0) > 0:
                            reorgs_begun[record.payload] -= 1
                losers = begun - committed - aborted
                incomplete_reorgs = sum(reorgs_begun.values())
                if span is not None:
                    span.attrs["losers"] = len(losers)

            checkpoint = self.checkpoints.latest_complete(name, records)

            # ---- load the checkpoint image into a fresh engine ------
            with ctx.span(
                "recovery-load", "recovery", checkpoint=checkpoint.checkpoint_id
            ):
                ctx.platform.disk_model.sequential_read_cost(
                    checkpoint.nbytes, ctx.counters
                )
                engine = build_engine()
                try:
                    engine.managed(name)
                except Exception as exc:
                    raise RecoveryError(
                        f"build_engine() must create relation {name!r} "
                        "before recovery"
                    ) from exc
                engine.load(
                    name,
                    {
                        attribute: np.array(column, copy=True)
                        for attribute, column in checkpoint.columns.items()
                    },
                )

            # ---- redo: repeat history past the checkpoint ------------
            redo = [
                record
                for record in records
                if record.kind is LogRecordKind.UPDATE
                and record.lsn > checkpoint.end_lsn
                and record.relation == name
            ]
            with ctx.span("recovery-redo", "recovery", updates=len(redo)):
                for record in redo:
                    engine.update(
                        name, record.position, record.attribute, record.after, ctx
                    )

            # ---- undo: roll losers back in reverse-LSN order ---------
            undo = [
                record
                for record in records
                if record.kind is LogRecordKind.UPDATE
                and record.txn_id in losers
                and record.relation == name
                and record.lsn > checkpoint.end_lsn
            ]
            with ctx.span("recovery-undo", "recovery", updates=len(undo)):
                for record in reversed(undo):
                    engine.update(
                        name, record.position, record.attribute, record.before, ctx
                    )

            # ---- engine-specific epilogue + cache hygiene ------------
            engine.on_recovered(name, ctx)
            # Staged device replicas captured pre-crash state (including
            # loser-transaction writes that undo just rolled back): drop
            # them so post-restart reads re-stage from the recovered
            # columns.  Pins survive: they carry every replayed write.
            ctx.platform.staging.invalidate_all()

        replayed = len({record.txn_id for record in redo if record.txn_id in committed})
        cycles = ctx.counters.cycles - start_cycles
        if report is not None:
            report.record_replayed(replayed)
            report.record_recovery_cycles(cycles)
        result = RecoveryResult(
            relation=name,
            checkpoint_id=checkpoint.checkpoint_id,
            checkpoint_lsn=checkpoint.end_lsn,
            records_scanned=len(records),
            torn_records=self.wal.torn_records,
            committed_txns=len(committed),
            loser_txns=len(losers),
            redo_updates=len(redo),
            undo_updates=len(undo),
            replayed_txns=replayed,
            incomplete_reorgs=incomplete_reorgs,
            cycles=cycles,
        )
        return engine, result
