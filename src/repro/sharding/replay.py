"""Shard rebuilds and committed-prefix WAL replay, in one place.

Every path that turns a shard's DFS file and the committed log back
into columns goes through this module:

* the :class:`~repro.sharding.executor.ShardedExecutor` failover path
  calls :func:`rebuild` to restore a dead primary's serving state on a
  surviving node (past the shard file's ``base_lsn``) before promoting
  it;
* the :class:`~repro.rebalance.migrator.LiveMigrator` catch-up phase
  calls :func:`replay` to apply updates that committed *after* a
  migration's copy snapshot onto the destination copies, and its
  journal resume re-reads the destination files a coordinator crash
  lost with :func:`read_file` and replays the log past the same
  snapshot onto them.

All of them need exactly the same semantics — only updates belonging
to committed transactions are applied, in LSN order, restricted to the
positions the target columns actually hold — and the same charges, so
the logic lives here once.  The entries come from
:meth:`~repro.recovery.replicated.ReplicatedLog.read_entries`, the
shipped log's segments past the replay's start as the reading node
sees them, and :func:`replay_updates` applies them.  Nothing forces
the log first: every ``COMMIT`` is forced before its writes apply, so
the durable prefix already holds every committed transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.recovery.replicated import ReplicatedLog
from repro.sharding.placement import ShardMap, deserialize_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext

__all__ = ["LogEntry", "replay_updates", "replay", "read_file", "rebuild"]

#: One durable log record as a plain tuple, laid out by
#: :attr:`~repro.recovery.wal.LogRecord.entry` (the tuple the replicated
#: log ships the ``repr`` of).
LogEntry = tuple

_FLOAT = np.dtype(np.float64).itemsize


def replay_updates(
    entries: list[LogEntry],
    relation: str,
    positions: np.ndarray,
    columns: dict[str, np.ndarray],
    min_lsn: int = 0,
) -> tuple[int, set[int]]:
    """Apply committed updates onto *columns*; returns (applied, txns).

    Only ``update`` records of transactions whose ``commit`` is durable
    are applied, and only for *relation*'s rows listed in the sorted
    *positions* array (the rows *columns* holds, in that order).
    Records with ``lsn <= min_lsn`` are skipped — the migration
    catch-up path passes its copy-snapshot LSN there so the copy's own
    rows are not double-applied.  Returns the number of cell writes and
    the set of transaction ids replayed.
    """
    committed = {entry[2] for entry in entries if entry[1] == "commit"}
    owned = set(int(p) for p in positions)
    applied = 0
    replayed_txns: set[int] = set()
    for lsn, kind, txn, rel, attribute, position, _before, after, _ in entries:
        if (
            kind != "update"
            or lsn <= min_lsn
            or txn not in committed
            or rel != relation
            or position not in owned
            or attribute not in columns
        ):
            continue
        local = int(np.searchsorted(positions, position))
        columns[attribute][local] = after
        applied += 1
        replayed_txns.add(txn)
    return applied, replayed_txns


def replay(
    entries: list[LogEntry],
    relation: str,
    positions: np.ndarray,
    columns: dict[str, np.ndarray],
    ctx: "ExecutionContext",
    since: int,
) -> tuple[int, set[int]]:
    """:func:`replay_updates` past LSN *since*, charging the writes.

    Each applied cell is one random 8-byte write into the columns'
    footprint.  Returns (applied, txns) as :func:`replay_updates` does.
    """
    applied, txns = replay_updates(entries, relation, positions, columns, since)
    if applied:
        ctx.counters.cycles += ctx.platform.memory_model.random(
            applied, _FLOAT, _FLOAT * positions.size
        )
    return applied, txns


def read_file(
    shard_map: ShardMap, path: str, reader: str, ctx: "ExecutionContext"
) -> dict[str, np.ndarray]:
    """Columns of the shard file at *path*, read through the DFS as node
    *reader* (charging remote transfers) with its parse charged."""
    payload, _ = shard_map.dfs.read(path, shard_map.cluster.node(reader), ctx.counters)
    ctx.counters.cycles += ctx.platform.memory_model.sequential(2 * len(payload))
    return deserialize_columns(payload)


def rebuild(
    shard_map: ShardMap,
    path: str,
    positions: np.ndarray,
    reader: str,
    replicated: ReplicatedLog | None,
    ctx: "ExecutionContext",
    since: int,
) -> tuple[dict[str, np.ndarray], int, set[int]]:
    """Columns of the shard file at *path*, with the committed log replayed.

    Reads the file as node *reader* (:func:`read_file`), reads the
    shipped log's segments past LSN *since* as *reader* and replays
    the committed updates past *since* onto the rows *positions* lists
    (:func:`replay`).  *since* is the LSN the file is current to.
    Without a *replicated* log the file is the whole state.  Returns
    (columns, applied, txns).
    """
    columns = read_file(shard_map, path, reader, ctx)
    if replicated is None:
        return columns, 0, set()
    node = shard_map.cluster.node(reader)
    entries = replicated.read_entries(node, ctx.counters, since)
    applied, txns = replay(entries, shard_map.name, positions, columns, ctx, since)
    return columns, applied, txns
