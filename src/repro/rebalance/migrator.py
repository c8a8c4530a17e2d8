"""Crash-safe live migration: copy → catch-up → epoch-bumped cutover.

:class:`LiveMigrator` executes one planned split/merge/move as a
journaled three-phase protocol over the shard map's DFS and WAL:

1. **Copy** (:meth:`LiveMigrator.begin`) — flush the WAL (so the
   serving snapshot is exactly the committed prefix), write the
   ``rebalance-begin`` marker, then serialize the destination files
   (epoch-suffixed, write-once) to the DFS, charging serialization and
   per-replica wire time.  Once every byte is durable the
   ``rebalance-copied`` marker commits the point of no *backward*
   return.
2. **Catch-up** (:meth:`LiveMigrator.complete`) — queries kept running
   on the source meanwhile; their committed updates (LSN past the copy
   snapshot) are replayed onto the destination copy from the
   replicated log's segments past that snapshot, under a bounded retry
   policy.
3. **Cutover** — one atomic
   :meth:`~repro.sharding.placement.ShardMap.commit` bumps the
   placement epoch and bases every destination file at the copy
   snapshot's LSN (catch-up wrote only the staged columns), the
   ``rebalance-commit`` marker lands, and the stale source files are
   deleted.  In-flight plans routed at the old epoch finish on the
   source (the executor tries the plan-time node first).

:meth:`LiveMigrator.checkpoint`, which opens every rebalance round,
rewrites the live shards' files at the durable LSN through the same
write and cutover, then truncates the log below the oldest shard
file's base, so the log the stack holds and reads is bounded.

Split, merge and move differ only in how the copy cuts the source
rows: the copy gathers the named shards' rows in position order and
cuts them at the median (a split), keeps them whole for the winner (a
merge) or whole for ``dest`` (a move).  Each cut is one
:class:`DestFragment`, and the cutover installs them all at once.

Three fault sites fire inside the protocol, each with exactly one
resilience-report outcome:

``rebalance.crash-mid-copy``
    The coordinator dies between destination writes.  The migrator
    rolls back — partial destination files deleted, ``rebalance-abort``
    journaled — tallies the fault *recovered*, and raises
    :class:`~repro.errors.RebalanceAborted` (already tallied; callers
    must not re-attribute).

``rebalance.crash-pre-cutover``
    The coordinator dies after ``rebalance-copied``, before commit.
    The staged destination state is volatile and dies with it;
    :meth:`LiveMigrator.recover` resumes *forward* from the journal —
    re-reads the durable destination files, replays catch-up, cuts
    over — and the fault tallies *recovered*.

``net.drop-catchup``
    A catch-up segment read is lost on the wire; the bounded retry
    policy re-reads (each absorbed drop tallies *retried*).  On
    exhaustion the migration rolls back and the final error surfaces
    un-tallied for the harness to record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    DeadlineExceeded,
    DistributedError,
    EngineCrashed,
    RebalanceAborted,
)
from repro.execution.context import ExecutionContext
from repro.faults.injector import FaultInjector, register_fault_site
from repro.faults.policy import RetryPolicy
from repro.rebalance.journal import pending_migrations
from repro.rebalance.planner import MergeOp, MoveOp, RebalanceOp, SplitOp
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.wal import LogRecordKind, WriteAheadLog
from repro.sharding.placement import Shard, ShardMap, serialize_columns
from repro.sharding.replay import read_file, replay

__all__ = [
    "SITE_REBALANCE_CRASH_MID_COPY",
    "SITE_REBALANCE_CRASH_PRE_CUTOVER",
    "SITE_NET_DROP_CATCHUP",
    "MigrationPhase",
    "DestFragment",
    "Migration",
    "MigratorStats",
    "LiveMigrator",
]

#: The migration coordinator dies between destination-file writes; the
#: protocol rolls the partial copy back.
SITE_REBALANCE_CRASH_MID_COPY = register_fault_site(
    "rebalance.crash-mid-copy",
    "migration coordinator dies while copying shard data",
    RebalanceAborted,
)
#: The coordinator dies after the copy is durable, before cutover; the
#: journal resumes the migration forward.
SITE_REBALANCE_CRASH_PRE_CUTOVER = register_fault_site(
    "rebalance.crash-pre-cutover",
    "migration coordinator dies after copy, before cutover",
    EngineCrashed,
)
#: A catch-up log segment read is lost on the wire; the bounded retry
#: policy re-reads it.
SITE_NET_DROP_CATCHUP = register_fault_site(
    "net.drop-catchup",
    "a catch-up log segment read is lost on the wire",
    DistributedError,
)

class MigrationPhase(enum.Enum):
    """Where one migration stands in the journaled protocol."""

    #: ``rebalance-begin`` durable; destination copy in progress.
    BEGUN = "begun"
    #: Every destination file durable; catch-up/cutover pending.
    COPIED = "copied"
    #: Cutover committed; the new epoch serves.
    COMMITTED = "committed"
    #: Rolled back; the pre-migration placement serves.
    ABORTED = "aborted"


@dataclass
class DestFragment:
    """One destination file staged by the copy phase.

    Attributes
    ----------
    shard_id:
        The shard the fragment becomes at cutover: a source shard, or
        the next dense id for a split's new half.
    path:
        Epoch-suffixed write-once DFS path of the destination base
        file.
    positions:
        Sorted global row positions the fragment owns.
    primary:
        Node that will serve the fragment after cutover.
    columns:
        The staged serving copy (volatile — ``None`` after a simulated
        coordinator crash; :meth:`LiveMigrator.recover` rebuilds it
        from *path* plus catch-up replay).
    """

    shard_id: int
    path: str
    positions: np.ndarray
    primary: str
    columns: dict[str, np.ndarray] | None


@dataclass
class Migration:
    """One in-flight (or finished) live migration's full state."""

    op: RebalanceOp
    label: str
    shard_ids: tuple[int, ...]
    phase: MigrationPhase
    copy_lsn: int = 0
    fragments: list[DestFragment] = field(default_factory=list)
    #: Committed cells replayed onto the destination by catch-up.
    caught_up: int = 0
    #: The epoch the cutover installed (None until committed).
    epoch_committed: int | None = None


@dataclass
class MigratorStats:
    """Cumulative protocol events across one migrator's lifetime."""

    #: Committed operations by kind.
    splits: int = 0
    merges: int = 0
    moves: int = 0
    #: Migrations rolled back (mid-copy crash or catch-up exhaustion).
    aborted: int = 0
    #: Migrations resumed forward from the journal after a crash.
    resumed: int = 0
    #: Committed cells replayed onto destinations by catch-up.
    caught_up_cells: int = 0
    #: Shard files rewritten by :meth:`LiveMigrator.checkpoint`.
    checkpointed: int = 0
    #: Simulated cycles spent inside the protocol (copy, catch-up,
    #: cutover, rollback, resume) and its checkpoints — the honest
    #: price of rebalancing.
    cycles: float = 0.0

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy (stable key order) for benchmark JSON."""
        return {
            "splits": self.splits,
            "merges": self.merges,
            "moves": self.moves,
            "aborted": self.aborted,
            "resumed": self.resumed,
            "caught_up_cells": self.caught_up_cells,
            "checkpointed": self.checkpointed,
            "cycles": self.cycles,
        }


class LiveMigrator:
    """Executes planned rebalance operations as journaled migrations.

    Parameters
    ----------
    shard_map:
        The versioned placement being migrated (supplies the cluster
        and DFS).
    wal:
        The write-ahead log carrying both the data updates catch-up
        replays and the four migration journal markers.
    injector:
        The shared fault source; its report receives every outcome.
    replicated:
        The log shipped into the DFS: catch-up and resume read its
        segments (``net.drop-catchup`` fires on those reads).

    Attributes
    ----------
    catchup_retry:
        Policy wrapping each catch-up log read: it retries
        :class:`~repro.errors.DistributedError` a bounded number of
        times under a total-backoff deadline.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        wal: WriteAheadLog,
        injector: FaultInjector,
        replicated: ReplicatedLog,
    ) -> None:
        self.shard_map = shard_map
        self.cluster = shard_map.cluster
        self.dfs = shard_map.dfs
        self.wal = wal
        self.injector = injector
        self.replicated = replicated
        self.catchup_retry = RetryPolicy(
            max_attempts=6,
            backoff_cycles=40_000.0,
            retry_on=(DistributedError,),
            report=injector.report,
            seed=injector.seed,
            max_total_cycles=6_000_000.0,
        )
        self.stats = MigratorStats()

    # ------------------------------------------------------------------
    # Phase 1: copy
    # ------------------------------------------------------------------
    def begin(self, op: RebalanceOp, ctx: ExecutionContext) -> Migration:
        """Journal and copy: returns a :data:`MigrationPhase.COPIED` migration.

        Claims the operation's shards (raising
        :class:`~repro.errors.MigrationInProgress` if any is already
        migrating), makes the ``rebalance-begin`` marker durable, and
        copies the destination files.  A ``rebalance.crash-mid-copy``
        fault rolls the partial copy back, tallies *recovered*, and
        raises :class:`~repro.errors.RebalanceAborted` (already
        tallied — do not re-attribute).  A source shard whose serving
        state was lost with its node rolls back and raises it too, with
        no fault to tally.
        """
        shard_ids = self._shard_ids(op)
        if isinstance(op, SplitOp) and op.new_shard_id != len(
            self.shard_map.shards
        ):
            raise DistributedError(
                f"stale plan: split predicted new shard {op.new_shard_id}, "
                f"map has {len(self.shard_map.shards)} shards"
            )
        for shard_id in shard_ids:
            if not self.shard_map.shards[shard_id].row_count:
                raise DistributedError(
                    f"stale plan: shard {shard_id} owns no rows "
                    "(merged away since the plan was made)"
                )
        self.shard_map.begin_migration(*shard_ids)
        label = f"{op.describe()}@e{self.shard_map.epoch}"
        migration = Migration(
            op=op, label=label, shard_ids=shard_ids, phase=MigrationPhase.BEGUN
        )
        start = ctx.counters.cycles
        try:
            with ctx.span(f"migrate-copy({label})", "rebalance"):
                self.wal.log_rebalance(LogRecordKind.REBALANCE_BEGIN, label, ctx)
                self.wal.flush(ctx)
                migration.copy_lsn = self.wal.durable_lsn
                for fragment in self._copy_specs(op):
                    self.injector.check(
                        SITE_REBALANCE_CRASH_MID_COPY, ctx.counters
                    )
                    self._write_fragment(migration, fragment, ctx)
                self.wal.log_rebalance(
                    LogRecordKind.REBALANCE_COPIED, label, ctx
                )
                self.wal.flush(ctx)
                migration.phase = MigrationPhase.COPIED
        except RebalanceAborted as error:
            self._rollback(migration, ctx)
            if getattr(error, "injected", False):
                self.injector.report.record_recovered()
                ctx.counters.fault_recoveries += 1
            self.stats.cycles += ctx.counters.cycles - start
            aborted = RebalanceAborted(
                f"migration {label} aborted mid-copy and rolled back"
            )
            raise aborted from error
        except Exception:
            # Any other copy-phase failure (e.g. a split of a one-row
            # shard, or a move to an unknown node) also rolls back, but
            # propagates unchanged — its attribution belongs to the
            # caller, exactly once.
            self._rollback(migration, ctx)
            self.stats.cycles += ctx.counters.cycles - start
            raise
        self.stats.cycles += ctx.counters.cycles - start
        return migration

    def _shard_ids(self, op: RebalanceOp) -> tuple[int, ...]:
        """The existing shard ids *op* touches (claims + old-path set)."""
        if isinstance(op, SplitOp):
            return (op.shard_id,)
        if isinstance(op, MergeOp):
            return (op.winner_id, op.loser_id)
        return (op.shard_id,)

    def _source_state(self, shard: Shard) -> dict[str, np.ndarray]:
        """The shard's serving columns; aborts the copy if they were lost.

        A source whose serving state died with its node has no live
        primary to copy from.  Rebuilding it on a survivor and promoting
        that node is the executor's failover, so the plan is stale: the
        copy phase rolls back, and the next round re-plans once a read
        has rebuilt the shard.
        """
        state = self.shard_map.state(shard.shard_id)
        if state is None:
            raise RebalanceAborted(
                f"stale plan: shard {shard.shard_id} lost its serving state "
                f"with node {shard.primary!r}"
            )
        return state

    def _copy_specs(self, op: RebalanceOp) -> list[DestFragment]:
        """The destination fragments *op* must stage, columns attached.

        The source shards' rows are gathered in position order, then
        cut: at the median for a split, whole into the winner for a
        merge, whole onto ``dest`` for a move.  An empty-string primary
        means "first DFS holder of the written file" (resolved by
        :meth:`_write_fragment`).
        """
        if isinstance(op, MoveOp):
            self.cluster.node(op.dest)  # validates the destination exists
        shard_ids = self._shard_ids(op)
        sources = [self.shard_map.shards[shard_id] for shard_id in shard_ids]
        states = [self._source_state(shard) for shard in sources]
        positions = np.concatenate([shard.positions for shard in sources])
        order = np.argsort(positions, kind="stable")
        rows = positions[order]
        columns = {
            attr: np.concatenate([state[attr] for state in states])[order]
            for attr in states[0]
        }
        if isinstance(op, SplitOp):
            at = rows.size // 2
            if not at:
                raise DistributedError(
                    f"shard {op.shard_id} has {rows.size} rows; "
                    "splitting needs at least 2"
                )
            cuts = [
                (op.shard_id, sources[0].primary, 0, at),
                (op.new_shard_id, "", at, rows.size),
            ]
        else:
            dest = op.dest if isinstance(op, MoveOp) else sources[0].primary
            cuts = [(shard_ids[0], dest, 0, rows.size)]
        return [
            DestFragment(
                shard_id=shard_id,
                path=self._next_path(shard_id),
                positions=rows[lo:hi],
                primary=primary,
                columns={attr: column[lo:hi] for attr, column in columns.items()},
            )
            for shard_id, primary, lo, hi in cuts
        ]

    def _next_path(self, shard_id: int) -> str:
        """The write-once DFS path of a *shard_id* file written for the
        next epoch."""
        epoch = self.shard_map.epoch + 1
        return f"shards/{self.shard_map.name}/{shard_id:04d}.e{epoch}"

    def _write_file(
        self, path: str, columns: dict[str, np.ndarray], ctx: ExecutionContext
    ) -> None:
        """Serialize and durably write one shard file (charged): a
        ``2 × len`` memory pass and one network transfer per replica."""
        payload = serialize_columns(columns)
        ctx.counters.cycles += ctx.platform.memory_model.sequential(2 * len(payload))
        self.dfs.write(path, payload)
        network = self.cluster.network
        for _ in range(self.dfs.replication):
            network.transfer_cost(len(payload), ctx.counters)

    def _write_fragment(
        self, migration: Migration, fragment: DestFragment, ctx: ExecutionContext
    ) -> None:
        """Write one destination file and stage the fragment."""
        assert fragment.columns is not None
        self._write_file(fragment.path, fragment.columns, ctx)
        if not fragment.primary:
            fragment.primary = self.dfs.file(fragment.path).blocks[0].replica_nodes[0]
        migration.fragments.append(fragment)

    # ------------------------------------------------------------------
    # Phases 2+3: catch-up and cutover
    # ------------------------------------------------------------------
    def complete(self, migration: Migration, ctx: ExecutionContext) -> int:
        """Catch up and cut over; returns the new placement epoch.

        Raises :class:`~repro.errors.EngineCrashed` (injected) when the
        ``rebalance.crash-pre-cutover`` site fires — the staged
        destination state dies with the coordinator; call
        :meth:`recover` (or use :meth:`finish`/:meth:`run`, which do)
        to resume the migration forward from the journal.
        """
        if migration.phase is not MigrationPhase.COPIED:
            raise DistributedError(
                f"cannot complete a migration in phase "
                f"{migration.phase.value!r}"
            )
        start = ctx.counters.cycles
        try:
            with ctx.span(f"migrate-cutover({migration.label})", "rebalance"):
                self._catch_up(migration, ctx)
                if self.injector.fires(
                    SITE_REBALANCE_CRASH_PRE_CUTOVER, ctx.counters
                ):
                    for fragment in migration.fragments:
                        fragment.columns = None
                    error = EngineCrashed(
                        f"injected fault at "
                        f"{SITE_REBALANCE_CRASH_PRE_CUTOVER!r}: coordinator "
                        f"died before cutover of {migration.label}"
                    )
                    error.injected = True
                    raise error
                return self._cutover(migration, ctx)
        finally:
            self.stats.cycles += ctx.counters.cycles - start

    def _catch_up(self, migration: Migration, ctx: ExecutionContext) -> None:
        """Replay committed updates past the copy snapshot onto the
        destination fragments, retrying dropped segment reads; on retry
        exhaustion the migration rolls back and the final error
        surfaces un-tallied."""
        reader = self.cluster.node(migration.fragments[0].primary)

        def read_log() -> list:
            self.injector.check(SITE_NET_DROP_CATCHUP, ctx.counters)
            return self.replicated.read_entries(
                reader, ctx.counters, migration.copy_lsn
            )

        try:
            entries = self.catchup_retry.run(
                f"catchup({migration.label})", read_log, ctx
            )
        except (DistributedError, DeadlineExceeded):
            self._rollback(migration, ctx)
            raise
        self._replay_onto(migration, migration.fragments, entries, ctx)

    def _replay_onto(
        self,
        migration: Migration,
        fragments: list[DestFragment],
        entries: list,
        ctx: ExecutionContext,
    ) -> None:
        """Replay the log *entries* past the copy snapshot onto the
        staged columns of *fragments*, counting the cells caught up."""
        for fragment in fragments:
            assert fragment.columns is not None
            applied, _ = replay(
                entries,
                self.shard_map.name,
                fragment.positions,
                fragment.columns,
                ctx,
                since=migration.copy_lsn,
            )
            migration.caught_up += applied
            self.stats.caught_up_cells += applied

    def _cutover(self, migration: Migration, ctx: ExecutionContext) -> int:
        """Atomically install the new placement; journal and clean up."""
        op = migration.op
        old_paths = [
            self.shard_map.shards[shard_id].path
            for shard_id in migration.shard_ids
        ]
        assert all(fragment.columns is not None for fragment in migration.fragments)
        epoch = self.shard_map.commit(
            migration.shard_ids,
            [
                (f.shard_id, f.positions, f.path, f.primary, f.columns,
                 migration.copy_lsn)
                for f in migration.fragments
            ],
        )
        if isinstance(op, SplitOp):
            self.stats.splits += 1
        elif isinstance(op, MergeOp):
            self.stats.merges += 1
        else:
            self.stats.moves += 1
        self.wal.log_rebalance(
            LogRecordKind.REBALANCE_COMMIT, migration.label, ctx
        )
        self.wal.flush(ctx)
        fresh = {fragment.path for fragment in migration.fragments}
        existing = set(self.dfs.paths())
        for path in old_paths:
            if path not in fresh and path in existing:
                self.dfs.delete(path)
        self.shard_map.end_migration(*migration.shard_ids)
        migration.phase = MigrationPhase.COMMITTED
        migration.epoch_committed = epoch
        ctx.instant("rebalance-commit", "rebalance", label=migration.label,
                    epoch=epoch)
        return epoch

    def _rollback(self, migration: Migration, ctx: ExecutionContext) -> None:
        """Undo a doomed migration: delete staged files, journal the abort."""
        existing = set(self.dfs.paths())
        for fragment in migration.fragments:
            if fragment.path in existing:
                self.dfs.delete(fragment.path)
        self.wal.log_rebalance(
            LogRecordKind.REBALANCE_ABORT, migration.label, ctx
        )
        self.wal.flush(ctx)
        self.shard_map.end_migration(*migration.shard_ids)
        migration.phase = MigrationPhase.ABORTED
        self.stats.aborted += 1
        ctx.instant("rebalance-abort", "rebalance", label=migration.label)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(
        self, migration: Migration, ctx: ExecutionContext
    ) -> int | None:
        """Resume or roll back *migration* after a coordinator crash.

        Consults the durable journal
        (:func:`~repro.rebalance.journal.pending_migrations`): a
        ``copied`` marker means resume forward — every destination file
        is durably on the DFS, so the staged state is rebuilt from it
        (plus catch-up replay past the copy snapshot) and the cutover
        re-runs.  ``begin`` without ``copied`` means roll back.
        Returns the committed epoch on resume, ``None`` on rollback or
        when the journal shows nothing pending (nothing durable
        happened, or the migration already resolved).
        """
        start = ctx.counters.cycles
        try:
            pending = {
                entry.label: entry for entry in pending_migrations(self.wal)
            }
            entry = pending.get(migration.label)
            if entry is None:
                self.shard_map.end_migration(*migration.shard_ids)
                return migration.epoch_committed
            if not entry.copied:
                self._rollback(migration, ctx)
                return None
            with ctx.span(f"migrate-resume({migration.label})", "rebalance"):
                lost = [f for f in migration.fragments if f.columns is None]
                if lost:
                    for fragment in lost:
                        fragment.columns = read_file(
                            self.shard_map, fragment.path, fragment.primary, ctx
                        )
                    entries = self.replicated.read_entries(
                        self.cluster.node(lost[0].primary),
                        ctx.counters,
                        migration.copy_lsn,
                    )
                    self._replay_onto(migration, lost, entries, ctx)
                epoch = self._cutover(migration, ctx)
            self.stats.resumed += 1
            return epoch
        finally:
            self.stats.cycles += ctx.counters.cycles - start

    # ------------------------------------------------------------------
    # Checkpoint: the bounded log
    # ------------------------------------------------------------------
    def checkpoint(self, ctx: ExecutionContext) -> int:
        """Rewrite the live shards' files at the durable LSN, then truncate.

        Every live shard with a serving state and a ``base_lsn`` below
        the log's durable LSN gets a new epoch-suffixed file, written
        from its serving state and charged as a copy's destination
        file is.  There is no per-shard dirty test: a shard is rewritten
        whenever the durable LSN has moved past its base, even if no
        write touched its rows.  A serving state holds exactly the
        transactions committed up to the durable LSN, because every
        ``COMMIT`` is forced before its writes apply and checkpoints
        run between queries.  One
        :meth:`~repro.sharding.placement.ShardMap.commit` then re-points
        the shards at their new files with ``base_lsn`` at the durable
        LSN (bumping the epoch), the old files are deleted, and the WAL
        and the replicated log are truncated below the oldest live
        shard's ``base_lsn``.  A shard whose state was lost with its
        node keeps its file and base, so it holds that floor.  Any
        prefix of write → commit → delete → truncate leaves every shard
        a file and the log past its base.

        Does nothing while a migration claims any shard: its copy
        snapshot needs the log past ``copy_lsn``, which the floor does
        not count.  Returns the number of shard files rewritten.
        """
        shard_map = self.shard_map
        if shard_map.migrating:
            return 0
        durable = self.wal.durable_lsn
        due = [
            shard
            for shard in shard_map.shards
            if shard.row_count
            and shard.base_lsn < durable
            and shard_map.state(shard.shard_id) is not None
        ]
        start = ctx.counters.cycles
        try:
            with ctx.span("shard-checkpoint", "rebalance", shards=len(due)):
                stale = [shard.path for shard in due]
                pieces = []
                for shard in due:
                    state = shard_map.state(shard.shard_id)
                    path = self._next_path(shard.shard_id)
                    self._write_file(path, state, ctx)
                    pieces.append(
                        (shard.shard_id, shard.positions, path, shard.primary,
                         state, durable)
                    )
                if pieces:
                    shard_map.commit([shard.shard_id for shard in due], pieces)
                    self.stats.checkpointed += len(pieces)
                for path in stale:
                    self.dfs.delete(path)
                floor = min(
                    shard.base_lsn for shard in shard_map.shards if shard.row_count
                )
                self.wal.truncate(floor)
                self.replicated.truncate(floor)
        finally:
            self.stats.cycles += ctx.counters.cycles - start
        return len(due)

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def finish(self, migration: Migration, ctx: ExecutionContext) -> int:
        """Complete *migration*, absorbing an injected pre-cutover crash.

        The crash-resume path (journal says ``copied`` → resume
        forward) tallies the absorbed fault *recovered*.  Organic
        crashes and surfaced catch-up errors propagate unchanged.
        """
        try:
            return self.complete(migration, ctx)
        except EngineCrashed as error:
            if not getattr(error, "injected", False):
                raise
            epoch = self.recover(migration, ctx)
            assert epoch is not None  # copied marker was durable
            self.injector.report.record_recovered()
            ctx.counters.fault_recoveries += 1
            return epoch

    def run(self, op: RebalanceOp, ctx: ExecutionContext) -> Migration:
        """Execute *op* end to end (begin + finish); returns the migration."""
        migration = self.begin(op, ctx)
        self.finish(migration, ctx)
        return migration
