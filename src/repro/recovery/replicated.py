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

Recovery-side, :meth:`read_back` pulls every segment through the
store's fault-aware read path (degrading across replicas under
``dfs.block-read`` faults) and verifies the shipped byte stream; after
:meth:`~repro.distributed.dfs.BlockStore.fail_node` plus
:meth:`~repro.distributed.dfs.BlockStore.re_replicate`, the stream
must still verify — the test suite pins that.  :meth:`read_entries`
does the same reads and checks, then returns the records' entry tuples
kept at ship time instead of parsing the verified bytes back.
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
        self.segments = 0
        self.shipped_bytes = 0
        #: Encoded bytes per segment, kept for read-back verification.
        self._expected: list[bytes] = []
        #: Every shipped record's :attr:`LogRecord.entry`, in LSN order —
        #: what the verified bytes decode to.
        self._entries: list[tuple] = []

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
        self._expected.append(payload)
        self._entries.extend(record.entry for record in records)

    # ------------------------------------------------------------------
    def read_back(
        self,
        reader: "ClusterNode",
        counters: "PerfCounters | None" = None,
    ) -> list[bytes]:
        """Fetch every shipped segment via the store's read path.

        Raises :class:`~repro.errors.DistributedError` if any segment's
        bytes differ from what was shipped (a replication bug, not a
        fault — the store itself degrades across replicas on injected
        read errors before this check can fail).
        """
        payloads: list[bytes] = []
        for segment in range(self.segments):
            payload, _ = self.dfs.read(self._segment_path(segment), reader, counters)
            if payload != self._expected[segment]:
                raise DistributedError(
                    f"replicated log segment {segment} corrupt after read-back"
                )
            payloads.append(payload)
        return payloads

    def read_entries(
        self,
        reader: "ClusterNode",
        counters: "PerfCounters | None" = None,
    ) -> list[tuple]:
        """Every shipped record's entry tuple, as *reader* would see it.

        Performs exactly :meth:`read_back` — every segment is fetched,
        charged and byte-verified — then returns the entries kept at
        ship time, which equal the ``ast.literal_eval`` of each verified
        line.
        """
        self.read_back(reader, counters)
        return list(self._entries)
