"""Fuzzy checkpoints: bounding how much log recovery must replay.

A checkpoint is a durable image of a relation's *logical* contents plus
the MVCC snapshot metadata active at capture time.  It is **fuzzy** in
the ARIES sense: taken while transactions run, bracketed by
``CHECKPOINT_BEGIN``/``CHECKPOINT_END`` log records, and allowed to
contain the effects of transactions that later turn out to be losers —
recovery's undo pass removes them.  A checkpoint only *counts* once its
end marker is in the durable log prefix; a crash mid-capture (torn
write on the end marker) silently invalidates it and recovery falls
back to the previous one.

The image is captured through the engine's own read path
(:meth:`~repro.engines.base.StorageEngine.materialize`), not by peeking
at fragments: for L-Store that resolves tail records through the page
dictionary, for ES² it pulls blocks over the simulated network — so
the checkpoint price honestly reflects each engine's architecture.
The capture cost plus one sequential disk write of the image is
charged to the calling context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import RecoveryError
from repro.recovery.wal import LogRecord, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import StorageEngine
    from repro.execution.context import ExecutionContext
    from repro.hardware.platform import Platform

__all__ = ["Checkpoint", "CheckpointStore"]


@dataclass(frozen=True)
class Checkpoint:
    """One durable relation image and the log position that brackets it."""

    checkpoint_id: int
    relation: str
    row_count: int
    begin_lsn: int
    end_lsn: int
    #: Logical column image keyed by attribute name (private copies).
    columns: Mapping[str, np.ndarray]
    nbytes: int
    #: MVCC metadata at capture: snapshots live and pre-image pages held.
    live_snapshots: int = 0
    preserved_pages: int = 0


class CheckpointStore:
    """Durable home of every checkpoint taken against one platform.

    Like the WAL's durable prefix, the store survives
    :meth:`~repro.recovery.wal.WriteAheadLog.crash` — it stands in for
    the checkpoint files a real engine writes next to its log.
    """

    def __init__(self, platform: "Platform") -> None:
        self.platform = platform
        self._checkpoints: dict[str, list[Checkpoint]] = {}
        self._next_id = 1

    def checkpoints(self, relation: str) -> tuple[Checkpoint, ...]:
        """Every checkpoint ever taken for *relation* (oldest first)."""
        return tuple(self._checkpoints.get(relation, ()))

    # ------------------------------------------------------------------
    def take(
        self,
        engine: "StorageEngine",
        name: str,
        wal: WriteAheadLog,
        ctx: "ExecutionContext",
    ) -> Checkpoint:
        """Capture and persist a fuzzy checkpoint of relation *name*.

        Protocol: log ``CHECKPOINT_BEGIN`` -> capture the logical image
        through the engine's read path -> charge one sequential disk
        write of the image -> log ``CHECKPOINT_END`` -> flush the log.
        The flush makes the end marker durable; if it is torn by an
        injected crash the checkpoint is present in the store but will
        never be selected by :meth:`latest_complete`.
        """
        checkpoint_id = self._next_id
        self._next_id += 1
        begin = wal.log_checkpoint_begin(checkpoint_id, ctx)

        managed = engine.managed(name)
        relation = managed.relation
        rows = engine.materialize(name, range(relation.row_count), ctx)
        columns: dict[str, np.ndarray] = {}
        for index, attribute in enumerate(relation.schema):
            columns[attribute.name] = np.array(
                [row[index] for row in rows], dtype=attribute.dtype.numpy_dtype()
            )
        nbytes = int(sum(column.nbytes for column in columns.values()))
        self.platform.disk_model.sequential_write_cost(nbytes, ctx.counters)

        live_snapshots = 0
        preserved_pages = 0
        managers = getattr(engine, "_snapshot_managers", None)
        if managers:
            manager = managers.get(name)
            if manager is not None:
                live = manager.live_snapshots
                live_snapshots = len(live)
                preserved_pages = sum(s.pages_copied for s in live)

        end = wal.log_checkpoint_end(checkpoint_id, ctx)
        checkpoint = Checkpoint(
            checkpoint_id=checkpoint_id,
            relation=name,
            row_count=relation.row_count,
            begin_lsn=begin.lsn,
            end_lsn=end.lsn,
            columns=columns,
            nbytes=nbytes,
            live_snapshots=live_snapshots,
            preserved_pages=preserved_pages,
        )
        self._checkpoints.setdefault(name, []).append(checkpoint)
        wal.flush(ctx)
        return checkpoint

    # ------------------------------------------------------------------
    def latest_complete(
        self, relation: str, durable: tuple[LogRecord, ...]
    ) -> Checkpoint:
        """The newest checkpoint whose end marker survived the crash.

        *durable* is the WAL's checksum-valid prefix; a checkpoint is
        usable exactly when its ``CHECKPOINT_END`` LSN appears there.
        Raises :class:`~repro.errors.RecoveryError` when none does —
        the protocol requires a checkpoint right after bulk load, so
        this means the log and store disagree.
        """
        durable_lsns = {record.lsn for record in durable}
        for checkpoint in reversed(self._checkpoints.get(relation, [])):
            if checkpoint.end_lsn in durable_lsns:
                return checkpoint
        raise RecoveryError(
            f"no durable checkpoint for relation {relation!r}; "
            "take() one immediately after bulk load"
        )
