"""Replicated logging: WAL segments shipped into the simulated DFS.

ES²-style cloud engines do not trust a single spindle: the log itself
is replicated, so losing the node that wrote it still leaves a
recoverable committed prefix.  :class:`ReplicatedLog` is the
:class:`~repro.recovery.wal.WriteAheadLog` replicator hook that models
this — after every successful fsync it writes the flushed batch's
encoded bytes as a write-once DFS file (``wal/<log>/<segment>``),
which the :class:`~repro.distributed.dfs.BlockStore` replicates across
the cluster and charges for (local write plus one network transfer per
remote replica, the store's usual pricing).

A torn flush never reaches the replicator: the crash happened mid-
fsync, before the shipping step — the replicated copy can lag the
local log by at most one segment, exactly the window primary-backup
log shipping has.

Recovery-side, :meth:`read_back` pulls every held segment through the
store's fault-aware read path (degrading across replicas under
``dfs.block-read`` faults) and verifies the shipped byte stream; after
:meth:`~repro.distributed.dfs.BlockStore.fail_node` plus
:meth:`~repro.distributed.dfs.BlockStore.re_replicate`, the stream
must still verify — the test suite pins that.  :meth:`read_entries`
does the same reads and checks for the segments past a given LSN only,
then returns the records' entry tuples kept at ship time instead of
parsing the verified bytes back.  :meth:`truncate` deletes the
segments every reader is past: the sharded stack calls it below the
oldest shard file's base LSN, so the log it holds is bounded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DistributedError
from repro.recovery.wal import LogRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.cluster import ClusterNode
    from repro.distributed.dfs import BlockStore
    from repro.execution.context import ExecutionContext
    from repro.hardware.event import PerfCounters

__all__ = ["ReplicatedLog"]


class ReplicatedLog:
    """Ships flushed WAL segments into a DFS; install as a replicator.

    Usage::

        replicated = ReplicatedLog(dfs, name="item")
        wal = WriteAheadLog(platform, group_commit=4,
                            replicator=replicated.on_flush)
    """

    def __init__(self, dfs: "BlockStore", name: str = "wal") -> None:
        self.dfs = dfs
        self.name = name
        #: Segments and payload bytes shipped so far, truncated ones too.
        self.segments = 0
        self.shipped_bytes = 0
        #: segment -> (last LSN, encoded bytes, entry tuples) of every
        #: segment still held: the bytes for read-back verification,
        #: the entries (each record's :attr:`LogRecord.entry`, in LSN
        #: order) for what the verified bytes decode to.
        self._held: dict[int, tuple[int, bytes, tuple[tuple, ...]]] = {}

    def _segment_path(self, segment: int) -> str:
        return f"wal/{self.name}/{segment:08d}"

    def on_flush(
        self,
        segment: int,
        records: tuple[LogRecord, ...],
        ctx: "ExecutionContext",
    ) -> None:
        """Replicator hook: persist one flushed batch as a DFS file."""
        payload = b"\n".join(record.encode() for record in records)
        self.dfs.write(self._segment_path(segment), payload)
        self.segments += 1
        self.shipped_bytes += len(payload)
        entries = tuple(record.entry for record in records)
        self._held[segment] = (records[-1].lsn, payload, entries)

    def truncate(self, below: int) -> int:
        """Delete the held segments whose last LSN is below *below*.

        Their DFS files go, with the bytes and entries kept for them.
        Returns how many segments were deleted.
        """
        dropped = [
            segment
            for segment, (last_lsn, _, _) in self._held.items()
            if last_lsn < below
        ]
        for segment in dropped:
            self.dfs.delete(self._segment_path(segment))
            del self._held[segment]
        return len(dropped)

    # ------------------------------------------------------------------
    def _fetch(
        self,
        reader: "ClusterNode",
        counters: "PerfCounters | None",
        since: int,
    ) -> list[tuple[bytes, tuple[tuple, ...]]]:
        """(bytes, entries) of each held segment whose last LSN is past
        *since*, fetched through the store's read path and verified.

        Raises :class:`~repro.errors.DistributedError` if any segment's
        bytes differ from what was shipped (a replication bug, not a
        fault — the store itself degrades across replicas on injected
        read errors before this check can fail).
        """
        fetched = []
        for segment, (last_lsn, expected, entries) in self._held.items():
            if last_lsn <= since:
                continue
            payload, _ = self.dfs.read(self._segment_path(segment), reader, counters)
            if payload != expected:
                raise DistributedError(
                    f"replicated log segment {segment} corrupt after read-back"
                )
            fetched.append((payload, entries))
        return fetched

    def read_back(
        self,
        reader: "ClusterNode",
        counters: "PerfCounters | None" = None,
    ) -> list[bytes]:
        """Every held segment's bytes, fetched and verified as *reader*."""
        return [payload for payload, _ in self._fetch(reader, counters, 0)]

    def read_entries(
        self,
        reader: "ClusterNode",
        counters: "PerfCounters | None",
        since: int,
    ) -> list[tuple]:
        """The entry tuples of the held segments past LSN *since*.

        Fetches, charges and byte-verifies exactly the segments whose
        last LSN is past *since*, as *reader* would, then returns the
        entries kept at ship time, which equal the ``ast.literal_eval``
        of each verified line.  A segment straddling *since* comes
        whole; replay skips its records at or below *since*.
        """
        return [
            entry
            for _, entries in self._fetch(reader, counters, since)
            for entry in entries
        ]
