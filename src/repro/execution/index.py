"""Primary-key hash indexes for record-centric point queries.

The paper's Q1 ("SELECT * FROM R WHERE pk = c") assumes "the database
system can efficiently identify exactly one record without scanning the
entire relation".  :class:`HashIndex` provides that: an equality index
from key values to row positions, with a probe cost model (hash compute
plus the bucket's random memory access).
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.execution.operators import materialize_rows
from repro.hardware.event import Cycles
from repro.layout.layout import Layout

__all__ = ["HashIndex", "SecondaryIndex", "point_query"]

#: ALU cycles to hash one key and walk one bucket.
HASH_CYCLES: Cycles = 12.0
#: Bytes per index entry (key hash + position), sizing the probe footprint.
ENTRY_BYTES = 16


class HashIndex:
    """An equality index from key value to row position.

    Duplicate keys raise — this models a primary key, per Q1's
    non-compound-primary-key assumption.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._positions: dict[Hashable, int] = {}

    @classmethod
    def build(
        cls, layout: Layout, attribute: str, ctx: ExecutionContext | None = None
    ) -> "HashIndex":
        """Index every row of *layout* on *attribute*.

        Build cost (when a context is given): one column scan plus one
        hash insert per row.  Each fragment's keys go into the dict in
        one pass; a repeated key makes the build redo itself row by row
        with :meth:`insert`, which raises on the first repeat.
        """
        index = cls(attribute)
        fragments = layout.fragments_for_attribute(attribute)
        for fragment in fragments:
            start = fragment.region.rows.start
            keys = fragment.column(attribute).tolist()
            before = len(index._positions)
            index._positions.update(zip(keys, range(start, start + len(keys))))
            if len(index._positions) != before + len(keys):
                index = cls(attribute)
                for fragment in fragments:
                    start = fragment.region.rows.start
                    for offset, key in enumerate(fragment.column(attribute).tolist()):
                        index.insert(key, start + offset)
        if ctx is not None:
            count = layout.relation.row_count
            ctx.counters.cycles += count * HASH_CYCLES
        return index

    def insert(self, key: Hashable, position: int) -> None:
        """Register *key* at *position*; duplicate keys are an error."""
        if key in self._positions:
            raise ExecutionError(
                f"duplicate key {key!r} on indexed attribute {self.attribute!r}"
            )
        self._positions[key] = position

    def delete(self, key: Hashable) -> None:
        """Remove a key (missing keys are an error)."""
        if key not in self._positions:
            raise ExecutionError(f"key {key!r} not in index on {self.attribute!r}")
        del self._positions[key]

    def move(self, key: Hashable, position: int) -> None:
        """Repoint a key at a new position (for re-organizing engines)."""
        if key not in self._positions:
            raise ExecutionError(f"key {key!r} not in index on {self.attribute!r}")
        self._positions[key] = position

    def lookup(self, key: Hashable, ctx: ExecutionContext | None = None) -> int | None:
        """The position of *key*, or None; charges one probe when given a context."""
        if ctx is not None:
            footprint = max(len(self._positions), 1) * ENTRY_BYTES
            probe = ctx.platform.memory_model.random(
                count=1, touched=ENTRY_BYTES, footprint=footprint
            )
            ctx.counters.cycles += probe + HASH_CYCLES
        return self._positions.get(key)

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, key: object) -> bool:
        return key in self._positions


def point_query(
    layout: Layout,
    index: HashIndex,
    key: Any,
    ctx: ExecutionContext,
) -> tuple[Any, ...] | None:
    """Q1: probe the index, then materialize the full record.

    Returns None when the key does not exist.
    """
    position = index.lookup(key, ctx)
    if position is None:
        return None
    rows = materialize_rows(layout, [position], ctx)
    return rows[0]


class SecondaryIndex:
    """A non-unique equality index: key value -> sorted position list.

    The substrate behind ES2's "distributed secondary indexes" for
    record-centric access, and generally behind Q1-style predicates on
    non-key attributes.  Lookups return the *sorted position list* the
    paper's operators consume downstream.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._positions: dict[Hashable, list[int]] = {}

    @classmethod
    def build(
        cls, layout: Layout, attribute: str, ctx: ExecutionContext | None = None
    ) -> "SecondaryIndex":
        """Index every row of *layout* on *attribute*."""
        index = cls(attribute)
        for fragment in layout.fragments_for_attribute(attribute):
            start = fragment.region.rows.start
            values = fragment.column(attribute)
            for offset in range(fragment.filled):
                value = values[offset]
                index.insert(
                    value.item() if hasattr(value, "item") else value,
                    start + offset,
                )
        if ctx is not None:
            ctx.counters.cycles += layout.relation.row_count * HASH_CYCLES
        return index

    def insert(self, key: Hashable, position: int) -> None:
        """Register one (key, position) pair (duplicates allowed)."""
        bucket = self._positions.setdefault(key, [])
        index = 0
        while index < len(bucket) and bucket[index] < position:
            index += 1
        if index < len(bucket) and bucket[index] == position:
            raise ExecutionError(
                f"position {position} already indexed under key {key!r}"
            )
        bucket.insert(index, position)

    def remove(self, key: Hashable, position: int) -> None:
        """Drop one (key, position) pair."""
        bucket = self._positions.get(key)
        if not bucket or position not in bucket:
            raise ExecutionError(
                f"({key!r}, {position}) not in index on {self.attribute!r}"
            )
        bucket.remove(position)
        if not bucket:
            del self._positions[key]

    def lookup(
        self, key: Hashable, ctx: ExecutionContext | None = None
    ) -> tuple[int, ...]:
        """The sorted positions of *key* (empty tuple when absent)."""
        bucket = self._positions.get(key, ())
        if ctx is not None:
            footprint = max(self.entries, 1) * ENTRY_BYTES
            probe = ctx.platform.memory_model.random(
                count=1, touched=ENTRY_BYTES, footprint=footprint
            )
            walk = ctx.platform.memory_model.sequential(len(bucket) * ENTRY_BYTES)
            ctx.counters.cycles += probe + HASH_CYCLES + walk
        return tuple(bucket)

    @property
    def entries(self) -> int:
        """Total (key, position) pairs."""
        return sum(len(bucket) for bucket in self._positions.values())

    def __len__(self) -> int:
        return len(self._positions)
