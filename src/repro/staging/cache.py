"""The LRU fragment staging cache: device replicas of host columns.

A :class:`StagingCache` maps *(host fragment, attribute)* to a
:class:`StagedColumn` — a real device-memory allocation holding a copy
of the column's values.  Entries are validated on every lookup against
the source fragment's identity and mutation :attr:`~repro.layout.fragment.Fragment.version`,
so a stale replica can never serve a read even if a hook was missed.

A point write through ``update_field`` does not drop the replica:
:meth:`StagingCache.record_write` advances the replica's version and
records the written offset as *pending*, and the staging manager
ships only the pending cells before the replica next serves.  A
replica whose version skipped a write (one the hook never saw) is
dropped, and so is one whose pending cells would cost as many bytes
as re-staging it whole.  The re-organizer and recovery drop every
replica with :meth:`StagingCache.invalidate_all`.

The cache holds **no cost logic**: insertion and eviction charge zero
cycles (a discard is free; the re-transfer on the next miss is where
the cost lands), which keeps a cold-cache run byte-identical to the
pre-cache transfer path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.hardware.memory import Allocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.layout.fragment import Fragment

__all__ = ["OFFSET_WIDTH", "StagedColumn", "StagingCache"]

#: Bytes of one patched cell's offset on the wire (an int64).
OFFSET_WIDTH = 8


class StagedColumn:
    """One cached device replica of a host fragment's column.

    Attributes
    ----------
    source:
        The host fragment the replica was copied from (identity is part
        of the cache key; a freed or replaced fragment never matches).
    attribute:
        The staged column's attribute name.
    width:
        Bytes per value of the column.
    version:
        The source fragment's mutation version the replica tracks:
        set at staging time and advanced by :meth:`StagingCache.record_write`
        for each write it sees; any other write leaves it behind.
    allocation:
        The replica's live device-memory allocation.
    values:
        Copy of the column values (``None`` when the source fragment is
        a phantom — geometry-only staging for cost-plane sweeps).
    pending:
        Local offsets written since the values were last shipped; the
        staging manager patches them before the replica serves.
    """

    def __init__(
        self,
        source: "Fragment",
        attribute: str,
        width: int,
        version: int,
        allocation: Allocation,
        values: np.ndarray | None,
    ) -> None:
        self.source = source
        self.attribute = attribute
        self.width = width
        self.version = version
        self.allocation = allocation
        self.values = values
        self.pending: set[int] = set()

    @property
    def nbytes(self) -> int:
        """Device bytes the replica occupies."""
        return self.allocation.size

    @property
    def patch_bytes(self) -> int:
        """Bytes a patch ships: an int64 offset plus a value per cell."""
        return len(self.pending) * (OFFSET_WIDTH + self.width)

    def apply_patch(self) -> None:
        """Copy the source's current pending cells in; clear them.

        The cells are read now, so the last write to a cell wins.
        """
        offsets = np.fromiter(self.pending, dtype=np.int64, count=len(self.pending))
        self.values[offsets] = self.source.column(self.attribute)[offsets]
        self.pending.clear()

    def is_fresh(self) -> bool:
        """Whether the replica still mirrors its source fragment."""
        return self.source.version == self.version

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"StagedColumn({self.source.label}:{self.attribute}, {self.nbytes}B)"


class StagingCache:
    """LRU map from (fragment identity, attribute) to device replicas.

    All mutation paths free the replica's device allocation, so the
    cache's resident bytes always equal the device memory it holds —
    the chaos suite pins that residency invariant under injected
    faults.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple[int, str], StagedColumn]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        """Number of staged columns currently resident."""
        return len(self._entries)

    def __iter__(self) -> Iterator[StagedColumn]:
        """Iterate entries in LRU order (least recent first)."""
        return iter(self._entries.values())

    @property
    def resident_bytes(self) -> int:
        """Total device bytes held by live cache entries."""
        return sum(entry.nbytes for entry in self._entries.values())

    @staticmethod
    def _key(fragment: "Fragment", attribute: str) -> tuple[int, str]:
        return (id(fragment), attribute)

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def peek(self, fragment: "Fragment", attribute: str) -> StagedColumn | None:
        """Residency probe without stats or LRU movement.

        Used by cost *predictions* (HyPE), which must stay
        side-effect-free.  A stale entry reads as absent.
        """
        entry = self._entries.get(self._key(fragment, attribute))
        if entry is None or entry.source is not fragment or not entry.is_fresh():
            return None
        return entry

    def lookup(self, fragment: "Fragment", attribute: str) -> StagedColumn | None:
        """Return a fresh replica for the column, or None on a miss.

        A hit moves the entry to the MRU end.  An entry whose source
        was mutated (version mismatch) is dropped — its device memory
        freed — and counts as a miss: the column re-stages on demand.
        """
        key = self._key(fragment, attribute)
        entry = self._entries.get(key)
        if entry is not None and (
            entry.source is not fragment or not entry.is_fresh()
        ):
            self._drop(key)
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def insert(self, entry: StagedColumn) -> None:
        """Install a replica as the MRU entry (replacing any stale one)."""
        key = self._key(entry.source, entry.attribute)
        if key in self._entries:
            self._drop(key)
        self._entries[key] = entry
        self._entries.move_to_end(key)

    def record_write(
        self, fragment: "Fragment", attribute: str, offset: int
    ) -> None:
        """Carry *fragment*'s replicas across one written cell.

        Called after the write bumped ``fragment.version``.  A replica
        that tracked every earlier write advances to the new version,
        and the written column's replica records *offset* as pending.
        A replica with a version gap missed a write and is dropped, as
        is one whose pending bytes reach what re-staging it would ship.
        """
        for name in fragment.schema.names:
            key = self._key(fragment, name)
            entry = self._entries.get(key)
            if entry is None:
                continue
            if entry.source is fragment and entry.version + 1 == fragment.version:
                entry.version = fragment.version
                if name != attribute:
                    continue
                entry.pending.add(offset)
                if entry.patch_bytes < entry.nbytes:
                    continue
            self._drop(key)
            self.invalidations += 1

    # ------------------------------------------------------------------
    # Eviction / invalidation (all free device memory, all cost nothing)
    # ------------------------------------------------------------------
    def _drop(self, key: tuple[int, str]) -> None:
        entry = self._entries.pop(key)
        entry.allocation.space.free(entry.allocation)

    def evict_lru(self) -> StagedColumn | None:
        """Discard the least-recently-used replica; None when empty.

        The discard is free (replicas are clean copies); the cost of
        losing it is the re-transfer on the next miss.
        """
        if not self._entries:
            return None
        key = next(iter(self._entries))
        entry = self._entries[key]
        self._drop(key)
        self.evictions += 1
        return entry

    def invalidate_all(self) -> int:
        """Drop every replica (reorganization / recovery hook)."""
        count = len(self._entries)
        for key in list(self._entries):
            self._drop(key)
        self.invalidations += count
        return count

    def stats(self) -> dict[str, int]:
        """Counters snapshot: hits, misses, evictions, invalidations, entries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
            "resident_bytes": self.resident_bytes,
        }
