"""The LRU fragment staging cache: device replicas of host columns.

A :class:`StagingCache` maps *(host fragment, attribute)* to a
:class:`StagedColumn` — a real device-memory allocation holding a copy
of the column's values.  Entries are validated on every lookup against
the source fragment's identity and mutation :attr:`~repro.layout.fragment.Fragment.version`,
so a stale replica can never serve a read even if a hook was missed.

A replica of an integer column holds an encoded payload: each
:data:`FRAME_ROWS`-row frame is a frame-of-reference encoding (an int64
base plus offsets in the frame's narrowest unsigned width), built by
:func:`encode_frames` when that is smaller than the raw column.  The
replica's device allocation is the payload, and its ``values`` — what
the data plane reads — are decoded from the payload, so a codec or
patch bug is a wrong answer.  Floats, strings and phantoms stay raw.

A replica remembers the answers the data plane computed from it
(:meth:`StagedColumn.remembered_sum`, :meth:`StagedColumn.remembered_answer`)
until its contents change: :meth:`StagedColumn.apply_patch` forgets
them and takes a new content :attr:`StagedColumn.stamp`, and a dropped
replica takes its answers with it.  An answer read from several
replicas lives on one and is keyed on the others' stamps, which come
from one process-wide counter, so a re-staged replica never matches an
old answer.

A point write through ``update_field`` does not drop the replica:
:meth:`StagingCache.record_write` advances the replica's version and
records the written offset as *pending*, and the staging manager
ships only the pending cells before the replica next serves, each
re-encoded into its frame.  A replica whose version skipped a write
(one the hook never saw) is dropped, and so is one whose pending cells
would cost as many bytes as re-staging it whole, or whose new value
falls outside its frame.  The re-organizer and recovery drop every
unpinned replica with :meth:`StagingCache.invalidate_all`.

An engine's device placement is a *pin* on a column
(:meth:`StagingCache.pin`): its replica is never evicted and survives
:meth:`StagingCache.invalidate_all`, a replica a write dropped is
staged again pinned, and only :meth:`StagingCache.release` drops the
pin, with every replica of the fragments released.

The cache holds **no cost logic**: insertion and eviction charge zero
cycles (a discard is free; the re-transfer on the next miss is where
the cost lands), which keeps a cold-cache run byte-identical to the
pre-cache transfer path.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.hardware.memory import Allocation
from repro.layout.compression import CompressedColumn, FrameOfReferenceCodec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.layout.fragment import Fragment

__all__ = [
    "FRAME_ROWS",
    "OFFSET_WIDTH",
    "StagedColumn",
    "StagingCache",
    "decode_frames",
    "encode_frames",
]

#: Bytes of one patched cell's offset on the wire (an int64).
OFFSET_WIDTH = 8

#: Rows per frame of an encoded replica; every frame has its own base.
FRAME_ROWS = 65_536

#: An encoded payload: one frame-of-reference column per frame, in order.
Frames = tuple[CompressedColumn, ...]

#: Content stamps: every staged replica and every patch takes the next.
_STAMPS = itertools.count()


def encode_frames(values: np.ndarray) -> Frames:
    """The frame encoding of an integer column.

    Each :data:`FRAME_ROWS`-row frame is encoded alone by
    :class:`~repro.layout.compression.FrameOfReferenceCodec`, one frame
    at a time, so no temporary spans the whole column.
    """
    codec = FrameOfReferenceCodec()
    return tuple(
        codec.encode(values[start : start + FRAME_ROWS])
        for start in range(0, len(values), FRAME_ROWS)
    )


def decode_frames(frames: Frames) -> np.ndarray:
    """The column *frames* encode, decoded frame by frame."""
    values = np.empty(sum(frame.count for frame in frames), frames[0].original_dtype)
    for start, frame in zip(range(0, len(values), FRAME_ROWS), frames):
        values[start : start + frame.count] = frame.decode()
    return values


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
        The column values the data plane reads: decoded from *frames*
        when the replica is encoded, else a copy of the column (``None``
        when the source fragment is a phantom — geometry-only staging
        for cost-plane sweeps).
    frames:
        The encoded payload, or ``None`` for a raw replica.
    pending:
        Local offsets written since the values were last shipped; the
        staging manager patches them before the replica serves.
    stamp:
        The content stamp: unique to these contents of this replica,
        taken when it is staged and again at every patch.
    remembered:
        Answers computed from the current contents, by key: ``(weak
        references to the anchors, the other operands' stamps,
        answer)``.  Emptied by every patch.
    """

    def __init__(
        self,
        source: "Fragment",
        attribute: str,
        width: int,
        version: int,
        allocation: Allocation,
        values: np.ndarray | None,
        frames: Frames | None = None,
    ) -> None:
        self.source = source
        self.attribute = attribute
        self.width = width
        self.version = version
        self.allocation = allocation
        self.values = values
        self.frames = frames
        self.pending: set[int] = set()
        self.stamp = next(_STAMPS)
        self.remembered: dict[Hashable, tuple[tuple, tuple[int, ...], Any]] = {}

    @property
    def nbytes(self) -> int:
        """Device bytes the replica occupies: its payload."""
        return self.allocation.size

    @property
    def patch_bytes(self) -> int:
        """Bytes a patch ships: an int64 offset plus a payload cell per cell."""
        if self.frames is None:
            return len(self.pending) * (OFFSET_WIDTH + self.width)
        return sum(
            OFFSET_WIDTH + self.frames[offset // FRAME_ROWS].payload[1].itemsize
            for offset in self.pending
        )

    def fits(self, offset: int) -> bool:
        """Whether the source's value at *offset* can patch into its frame.

        Always true for a raw replica; an encoded cell must lie between
        its frame's base and the base plus the frame's widest offset.
        """
        if self.frames is None:
            return True
        base, codes = self.frames[offset // FRAME_ROWS].payload
        delta = int(self.source.column(self.attribute)[offset]) - int(base[0])
        return 0 <= delta <= np.iinfo(codes.dtype).max

    def apply_patch(self) -> None:
        """Copy the source's current pending cells in; clear them.

        The cells are read now, so the last write to a cell wins.  An
        encoded replica re-encodes each cell into its frame's payload
        and decodes ``values`` back from it.  The new contents take a
        new stamp and forget every remembered answer.
        """
        offsets = np.fromiter(self.pending, dtype=np.int64, count=len(self.pending))
        column = self.source.column(self.attribute)
        if self.frames is None:
            self.values[offsets] = column[offsets]
        else:
            frame_of = offsets // FRAME_ROWS
            for index in np.unique(frame_of).tolist():
                cells = offsets[frame_of == index]
                local = cells - index * FRAME_ROWS
                base, codes = self.frames[index].payload
                codes[local] = column[cells].astype(np.int64) - base[0]
                self.values[cells] = codes[local].astype(np.int64) + base[0]
        self.pending.clear()
        self.stamp = next(_STAMPS)
        self.remembered = {}

    def remembered_answer(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        anchors: tuple = (),
        stamps: tuple[int, ...] = (),
    ) -> Any:
        """What *compute* answers over these contents, computed once.

        *key* names the computation; *anchors* are the objects it
        closes over (a plan's stages), matched by identity and held
        weakly; *stamps* are the content stamps of the other replicas
        it reads.  The answer is reused while all three match and these
        contents are unchanged; otherwise *compute* runs and its answer
        replaces the one held under *key*.  Entries whose anchors have
        died are dropped then, so the answers held are bounded by the
        plans still alive.
        """
        slot = (key, *map(id, anchors))
        held = self.remembered.get(slot)
        if held is not None:
            refs, held_stamps, answer = held
            if held_stamps == stamps and all(
                ref() is anchor for ref, anchor in zip(refs, anchors)
            ):
                return answer
        answer = compute()
        for dead in [
            other
            for other, (refs, __, __) in self.remembered.items()
            if any(ref() is None for ref in refs)
        ]:
            del self.remembered[dead]
        self.remembered[slot] = (tuple(map(weakref.ref, anchors)), stamps, answer)
        return answer

    def remembered_sum(self) -> float:
        """``float(np.sum(values))``, computed once per contents."""
        return self.remembered_answer("sum", lambda: float(np.sum(self.values)))

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
        #: Pinned columns: fragment -> attributes whose replica stays.
        self._pins: "weakref.WeakKeyDictionary[Fragment, set[str]]" = (
            weakref.WeakKeyDictionary()
        )
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
    # Pins (engine placements)
    # ------------------------------------------------------------------
    def pin(self, fragment: "Fragment", attribute: str) -> None:
        """Pin *fragment*'s *attribute*: its replica is never evicted."""
        self._pins.setdefault(fragment, set()).add(attribute)

    def is_pinned(self, fragment: "Fragment", attribute: str) -> bool:
        """Whether *fragment*'s *attribute* is pinned."""
        return attribute in self._pins.get(fragment, ())

    def pins(self, fragments: "Iterable[Fragment]") -> list[tuple["Fragment", str]]:
        """The pinned ``(fragment, attribute)`` columns of *fragments*."""
        return [
            (fragment, attribute)
            for fragment in fragments
            for attribute in sorted(self._pins.get(fragment, ()))
        ]

    def release(self, fragments: "Iterable[Fragment]") -> int:
        """Drop every replica of *fragments*, pinned or not, and their pins.

        Returns the number of replicas dropped.  A release is neither
        an eviction nor an invalidation, so neither counter moves.
        """
        released = set()
        for fragment in fragments:
            self._pins.pop(fragment, None)
            released.add(id(fragment))
        keys = [key for key in self._entries if key[0] in released]
        for key in keys:
            self._drop(key)
        return len(keys)

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
        is one whose pending bytes reach what re-staging it would ship
        and one whose new value falls outside its frame.
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
                if entry.patch_bytes < entry.nbytes and entry.fits(offset):
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
        """Discard the least-recently-used unpinned replica.

        Returns ``None`` when every replica is pinned or none is
        staged.  The discard is free (replicas are clean copies); the
        cost of losing it is the re-transfer on the next miss.
        """
        for key, entry in self._entries.items():
            if not self.is_pinned(entry.source, entry.attribute):
                self._drop(key)
                self.evictions += 1
                return entry
        return None

    def invalidate_all(self) -> int:
        """Drop every unpinned replica (reorganization / recovery hook).

        Pinned replicas stay: every write reaches them through
        :meth:`record_write`, like any replica, so their contents track
        their sources.
        """
        keys = [
            key
            for key, entry in self._entries.items()
            if not self.is_pinned(entry.source, entry.attribute)
        ]
        for key in keys:
            self._drop(key)
        self.invalidations += len(keys)
        return len(keys)

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
