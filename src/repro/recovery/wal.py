"""Cycle-charged write-ahead logging with group commit.

The survey's durable engines (L-Store's lineage-tracked tail records,
HyPer's redo stream) all share the textbook contract: *no change
becomes visible to recovery before its log record is on stable
storage*.  This module models that contract without modelling bytes on
a real disk — records live in Python lists, but every movement is
charged to the platform's cost models:

* appending buffers the record in the **volatile tail** and charges a
  memory-sequential copy;
* :meth:`WriteAheadLog.flush` moves the tail to the **durable prefix**
  and charges :meth:`~repro.hardware.disk.DiskModel.fsync_cost` — one
  seek amortized over the whole batch, which is why
  :meth:`WriteAheadLog.log_commit` only flushes every
  ``group_commit``-th transaction (group commit);
* :meth:`WriteAheadLog.crash` models process death: the volatile tail
  vanishes, the durable prefix survives for
  :class:`~repro.recovery.manager.RecoveryManager`.

Two crash fault sites live here.  ``wal.torn-append`` fires *inside* a
flush: the machine dies mid-fsync and the last record of the batch is
marked torn — :meth:`durable_records` stops just before it, exactly
like a checksum mismatch on a real log.  ``crash.post-commit`` fires
right after a successful group-commit flush, the window in which
commits are durable but the next checkpoint has not run — recovery must
replay them from the log.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import WalError
from repro.faults.injector import SITE_CRASH_POST_COMMIT, SITE_WAL_TORN_WRITE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext
    from repro.hardware.platform import Platform

__all__ = ["LogRecordKind", "LogRecord", "WriteAheadLog"]


class LogRecordKind(enum.Enum):
    """What a log record describes (see docs/RECOVERY.md for the format)."""

    BEGIN = "begin"
    UPDATE = "update"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT_BEGIN = "checkpoint-begin"
    CHECKPOINT_END = "checkpoint-end"
    REORG_BEGIN = "reorg-begin"
    REORG_END = "reorg-end"
    REORG_ABORT = "reorg-abort"
    REBALANCE_BEGIN = "rebalance-begin"
    REBALANCE_COPIED = "rebalance-copied"
    REBALANCE_COMMIT = "rebalance-commit"
    REBALANCE_ABORT = "rebalance-abort"


#: Fixed per-record header: LSN, kind, txn id, checksum (simulated).
RECORD_HEADER_BYTES = 32


@dataclass(frozen=True)
class LogRecord:
    """One immutable log entry.

    ``UPDATE`` records carry a physiological payload — (relation,
    attribute, position) plus before/after images — which is what makes
    both redo (write ``after``) and undo (write ``before``) a plain
    field write during recovery.  ``torn`` marks a record whose tail
    was being written when the machine died; it is *present* in the
    on-disk stream but fails checksum, so it terminates the durable
    prefix.
    """

    lsn: int
    kind: LogRecordKind
    txn_id: int = -1
    relation: str = ""
    attribute: str = ""
    position: int = -1
    before: float | None = None
    after: float | None = None
    payload: str = ""
    torn: bool = False

    @property
    def entry(self) -> tuple:
        """The record's wire tuple, the one place its layout is spelled out.

        ``(lsn, kind, txn_id, relation, attribute, position, before,
        after, payload)`` with ``kind`` as its string value.
        :meth:`encode` ships ``repr`` of exactly this tuple, so readers
        of the replicated log see these values without parsing the
        bytes.  ``torn`` is not part of it: a torn record never ships.
        """
        return (
            self.lsn,
            self.kind.value,
            self.txn_id,
            self.relation,
            self.attribute,
            self.position,
            self.before,
            self.after,
            self.payload,
        )

    @functools.cached_property
    def _encoded(self) -> bytes:
        return repr(self.entry).encode()

    def encode(self) -> bytes:
        """The record's serialized form (replication ships these bytes).

        Computed once per record: appending, flushing and shipping all
        ask for it.
        """
        return self._encoded

    @property
    def nbytes(self) -> int:
        """Serialized size including the fixed header."""
        return RECORD_HEADER_BYTES + len(self.encode())


class WriteAheadLog:
    """An append-only, group-committed, crash-survivable log.

    Parameters
    ----------
    platform:
        Supplies the memory model (append copies), the disk model
        (fsync pricing) and the fault injector (crash sites).
    group_commit:
        Commits per fsync.  ``1`` degenerates to force-at-commit;
        larger values batch the seek across transactions.
    replicator:
        Optional callable ``(segment_index, records, ctx)`` invoked
        after every successful flush — the hook
        :class:`~repro.recovery.replicated.ReplicatedLog` uses to ship
        segments into a DFS.
    """

    def __init__(
        self,
        platform: "Platform",
        group_commit: int = 4,
        replicator: "Callable[[int, tuple[LogRecord, ...], ExecutionContext], None] | None" = None,
    ) -> None:
        if group_commit < 1:
            raise WalError(f"group_commit must be >= 1, got {group_commit}")
        self.platform = platform
        self.group_commit = group_commit
        self.replicator = replicator
        self._durable: list[LogRecord] = []
        self._tail: list[LogRecord] = []
        self._next_lsn = 1
        self._pending_commits = 0
        self._crashed = False
        self.flush_count = 0
        self.durable_bytes = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """The most recently assigned LSN (0 before the first append)."""
        return self._next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        """LSN of the last durable (possibly torn) record; 0 if none."""
        return self._durable[-1].lsn if self._durable else 0

    @property
    def tail_records(self) -> int:
        """Records buffered in the volatile tail (lost on crash)."""
        return len(self._tail)

    @property
    def crashed(self) -> bool:
        """Whether :meth:`crash` has been called on this log."""
        return self._crashed

    def durable_records(self) -> tuple[LogRecord, ...]:
        """The checksum-valid durable prefix — what recovery may trust.

        Stops just *before* the first torn record: everything after a
        torn write is unreadable on a real log even if later bytes made
        it to the platter.
        """
        prefix: list[LogRecord] = []
        for record in self._durable:
            if record.torn:
                break
            prefix.append(record)
        return tuple(prefix)

    @property
    def torn_records(self) -> int:
        """Durable records invalidated by a torn write."""
        return len(self._durable) - len(self.durable_records())

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _append(self, ctx: "ExecutionContext", **fields) -> LogRecord:
        if self._crashed:
            raise WalError("write-ahead log owner has crashed; recover first")
        record = LogRecord(lsn=self._next_lsn, **fields)
        self._next_lsn += 1
        self._tail.append(record)
        cost = self.platform.memory_model.sequential(2 * record.nbytes)
        with ctx.span("wal-append", "wal", lsn=record.lsn, kind=record.kind.value):
            ctx.counters.cycles += cost
        return record

    def log_begin(self, txn_id: int, ctx: "ExecutionContext") -> LogRecord:
        """Append a transaction-begin record (buffered, not yet durable)."""
        return self._append(ctx, kind=LogRecordKind.BEGIN, txn_id=txn_id)

    def log_update(
        self,
        txn_id: int,
        relation: str,
        attribute: str,
        position: int,
        before: float,
        after: float,
        ctx: "ExecutionContext",
    ) -> LogRecord:
        """Append a physiological update record with both images.

        Must be called *before* the engine applies the write (the
        write-ahead rule); the runner in
        :mod:`repro.recovery.verifier` and the engines' durable paths
        respect this ordering.
        """
        return self._append(
            ctx,
            kind=LogRecordKind.UPDATE,
            txn_id=txn_id,
            relation=relation,
            attribute=attribute,
            position=position,
            before=float(before),
            after=float(after),
        )

    def log_abort(self, txn_id: int, ctx: "ExecutionContext") -> LogRecord:
        """Append a transaction-abort record."""
        return self._append(ctx, kind=LogRecordKind.ABORT, txn_id=txn_id)

    def log_commit(self, txn_id: int, ctx: "ExecutionContext") -> bool:
        """Append a commit record; flush every ``group_commit``-th one.

        Returns True when this commit triggered the group flush (the
        transaction is durable on return), False when it is parked in
        the volatile tail awaiting the batch.  After a triggering
        flush, the ``crash.post-commit`` fault site is checked — the
        canonical committed-but-not-checkpointed crash window.
        """
        self._append(ctx, kind=LogRecordKind.COMMIT, txn_id=txn_id)
        self._pending_commits += 1
        if self._pending_commits < self.group_commit:
            return False
        self.flush(ctx)
        injector = getattr(self.platform, "injector", None)
        if injector is not None:
            try:
                injector.check(SITE_CRASH_POST_COMMIT, ctx.counters)
            except Exception:
                self._crashed = True
                raise
        return True

    def log_reorg(
        self, kind: LogRecordKind, label: str, ctx: "ExecutionContext"
    ) -> LogRecord:
        """Append a reorganization marker (begin/end/abort)."""
        if kind not in (
            LogRecordKind.REORG_BEGIN,
            LogRecordKind.REORG_END,
            LogRecordKind.REORG_ABORT,
        ):
            raise WalError(f"not a reorganization marker: {kind}")
        return self._append(ctx, kind=kind, payload=label)

    def log_rebalance(
        self, kind: LogRecordKind, label: str, ctx: "ExecutionContext"
    ) -> LogRecord:
        """Append a shard-migration journal marker (begin/copied/commit/abort).

        The live-migration protocol (:mod:`repro.rebalance`) writes one
        marker at every phase boundary, with *label* carrying the
        operation's serialized description; the durable marker sequence
        is the migration journal recovery consults to decide resume vs.
        roll back.  Markers are forced out (:meth:`flush`) by the
        migrator at the boundaries that must be durable before the next
        phase may run.
        """
        if kind not in (
            LogRecordKind.REBALANCE_BEGIN,
            LogRecordKind.REBALANCE_COPIED,
            LogRecordKind.REBALANCE_COMMIT,
            LogRecordKind.REBALANCE_ABORT,
        ):
            raise WalError(f"not a rebalance marker: {kind}")
        return self._append(ctx, kind=kind, payload=label)

    def log_checkpoint_begin(
        self, checkpoint_id: int, ctx: "ExecutionContext"
    ) -> LogRecord:
        """Append the fuzzy checkpoint's begin marker."""
        return self._append(
            ctx, kind=LogRecordKind.CHECKPOINT_BEGIN, payload=str(checkpoint_id)
        )

    def log_checkpoint_end(
        self, checkpoint_id: int, ctx: "ExecutionContext"
    ) -> LogRecord:
        """Append the checkpoint's end marker (caller flushes after)."""
        return self._append(
            ctx, kind=LogRecordKind.CHECKPOINT_END, payload=str(checkpoint_id)
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def flush(self, ctx: "ExecutionContext") -> int:
        """Fsync the volatile tail; the group-commit durability point.

        Charges one :meth:`~repro.hardware.disk.DiskModel.fsync_cost`
        for the whole batch.  When the ``wal.torn-append`` site fires,
        the batch still reaches the platter but its *last* record is
        torn and the machine dies (:class:`~repro.errors.EngineCrashed`
        is raised after the durable state is updated — recovery sees a
        log ending in a checksum failure).  Returns the number of
        records made durable.
        """
        if self._crashed:
            raise WalError("write-ahead log owner has crashed; recover first")
        if not self._tail:
            return 0
        batch = self._tail
        self._tail = []
        self._pending_commits = 0
        injector = getattr(self.platform, "injector", None)
        crash = None
        with ctx.span("wal-fsync", "wal", records=len(batch)) as span:
            if injector is not None and injector.fires(
                SITE_WAL_TORN_WRITE, ctx.counters
            ):
                batch[-1] = dataclasses.replace(batch[-1], torn=True)
                from repro.errors import EngineCrashed
                from repro.faults.injector import FAULT_SITES

                description, _ = FAULT_SITES[SITE_WAL_TORN_WRITE]
                crash = EngineCrashed(
                    f"injected fault at {SITE_WAL_TORN_WRITE!r}: {description}"
                )
                crash.injected = True
                if span is not None:
                    span.attrs["torn"] = True
            nbytes = sum(record.nbytes for record in batch)
            if span is not None:
                span.attrs["bytes"] = nbytes
            self.platform.disk_model.fsync_cost(nbytes, ctx.counters)
        self._durable.extend(batch)
        self.flush_count += 1
        self.durable_bytes += nbytes
        if crash is not None:
            self._crashed = True
            raise crash
        if self.replicator is not None:
            self.replicator(self.flush_count - 1, tuple(batch), ctx)
        return len(batch)

    def truncate(self, below: int) -> int:
        """Drop the durable records with an LSN below *below*; returns how many.

        Their bytes leave :attr:`durable_bytes`.  The caller vouches that
        no reader needs them: the sharded stack truncates below the
        oldest shard file's ``base_lsn``
        (:meth:`~repro.rebalance.migrator.LiveMigrator.checkpoint`).
        The record at :attr:`durable_lsn` always stays, so LSNs keep
        counting from where they were.
        """
        if self._crashed:
            raise WalError("write-ahead log owner has crashed; recover first")
        if below > self.durable_lsn:
            raise WalError(
                f"cannot truncate below LSN {below}: the log is durable "
                f"only to {self.durable_lsn}"
            )
        dropped = 0
        while dropped < len(self._durable) and self._durable[dropped].lsn < below:
            self.durable_bytes -= self._durable[dropped].nbytes
            dropped += 1
        del self._durable[:dropped]
        return dropped

    def crash(self) -> None:
        """Simulate process death: the volatile tail is lost for good.

        The durable prefix (and any torn record terminating it) stays —
        that is the state :class:`~repro.recovery.RecoveryManager`
        reads.  Idempotent; further appends/flushes raise
        :class:`~repro.errors.WalError`.
        """
        self._tail = []
        self._pending_commits = 0
        self._crashed = True
