"""The durable migration journal: WAL markers → pending decisions.

Every live migration writes four marker kinds through
:meth:`~repro.recovery.wal.WriteAheadLog.log_rebalance` —
``rebalance-begin`` before the first destination byte is copied,
``rebalance-copied`` once every destination file is durably on the
DFS, and ``rebalance-commit`` / ``rebalance-abort`` as the terminal
resolution — each flushed before the protocol proceeds, so the durable
log always brackets the crash point between two phase boundaries.

:func:`pending_migrations` is the restart-side reader: it scans the
durable prefix and reports every migration that *began* without a
durable resolution, together with the resume-or-rollback decision the
marker sequence dictates:

* ``begin`` without ``copied`` — the destination copy may be partial;
  the only safe move is **rollback** (delete destination files, write
  ``rebalance-abort``).
* ``copied`` without ``commit`` — every destination byte is durable
  and catch-up is replayable from the log; the migration **resumes
  forward** (rebuild destination state from the DFS, replay, cut
  over).

The decisions here are what
:meth:`~repro.rebalance.migrator.LiveMigrator.recover` acts on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.recovery.wal import LogRecordKind, WriteAheadLog

__all__ = ["PendingMigration", "pending_migrations"]


@dataclass(frozen=True)
class PendingMigration:
    """One migration the durable journal left unresolved.

    Attributes
    ----------
    label:
        The migration's journal label (operation + begin epoch), the
        payload all four marker kinds share.
    copied:
        Whether the ``rebalance-copied`` marker is durable — True means
        resume forward, False means roll back.
    """

    label: str
    copied: bool


def pending_migrations(wal: WriteAheadLog) -> list[PendingMigration]:
    """Scan *wal*'s durable prefix for unresolved migrations.

    Replays the marker state machine per label in LSN order: ``begin``
    opens (or re-opens) the label, ``copied`` advances it, and
    ``commit``/``abort`` resolve it.  Returns the still-open labels in
    first-begun order.
    """
    state: dict[str, bool] = {}
    for record in wal.durable_records():
        if record.kind is LogRecordKind.REBALANCE_BEGIN:
            state[record.payload] = False
        elif record.kind is LogRecordKind.REBALANCE_COPIED:
            if record.payload in state:
                state[record.payload] = True
        elif record.kind in (
            LogRecordKind.REBALANCE_COMMIT,
            LogRecordKind.REBALANCE_ABORT,
        ):
            state.pop(record.payload, None)
    return [PendingMigration(label, copied) for label, copied in state.items()]
