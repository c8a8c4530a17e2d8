"""L-Store (Sadoghi et al., 2016): lineage-based base/tail storage.

"A relation is encoded by three components: a set of base pages, a set
of tail pages and a page dictionary. ... A pair of base and tail pages
form a single attribute column of a relation. ... the upper read-only
(and compressed) base page part and the lower append-only tail page
part. ... When the value of a field for a certain tuple (called base
record) is modified, a new tuple (called tail record) is appended ...
The book-keeping between pages and records is in the responsibility of
the page dictionary."

Classification targets (Table 1): single layout, strong flexible,
responsive, Host + Host centralized, DSM-emulated, delegation-based
scheme, CPU, HTAP.

Mechanisms: per-attribute thin base fragments; per-attribute append-only
thin tail fragments living in the *version row space* beyond the
relation's logical rows; a :class:`PageDictionary` (the delegation
policy) resolving every cell to its current page; reads dereference
through the dictionary (charging the extra cache miss the paper notes
for record-centric queries); :meth:`read_history` exposes the historic
querying the paper highlights; :meth:`reorganize` is the demand-driven
merge of tails back into a fresh read-optimized base.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engines.base import (
    DelegationPolicy,
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    StorageEngine,
    WorkloadSupport,
    fill_fragment,
)
from repro.errors import EngineError, TransactionError
from repro.execution.access import AccessKind
from repro.execution.context import ExecutionContext
from repro.execution.operators import sum_column
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.partitioning import PartitioningOrder
from repro.layout.region import Region
from repro.model.relation import Relation, RowRange

__all__ = ["PageDictionary", "LStoreEngine"]

DEFAULT_TAIL_CAPACITY = 4096


class PageDictionary(DelegationPolicy):
    """Position/attribute -> current page resolution (with lineage).

    For every updated cell the dictionary keeps the full version chain:
    a list of tail offsets, newest last.  Cells never updated resolve to
    the base page.  Clients cannot tell base from tail — exactly the
    paper's hiding property.
    """

    def __init__(self) -> None:
        self._versions: dict[tuple[int, str], list[int]] = {}

    def record_update(self, position: int, attribute: str, tail_offset: int) -> None:
        """Register a new tail version for one cell."""
        self._versions.setdefault((position, attribute), []).append(tail_offset)

    def resolve(self, position: int, attribute: str) -> int | None:
        """Latest tail offset for the cell, or None if base is current."""
        chain = self._versions.get((position, attribute))
        return chain[-1] if chain else None

    def lineage(self, position: int, attribute: str) -> list[int]:
        """All tail offsets for the cell, oldest first."""
        return list(self._versions.get((position, attribute), ()))

    def updated_cells(self) -> int:
        """Number of cells with at least one tail version."""
        return len(self._versions)

    def versions(self) -> dict[tuple[int, str], list[int]]:
        """A snapshot of every cell's version chain (for merges/scans)."""
        return {cell: list(chain) for cell, chain in self._versions.items()}

    def clear(self) -> None:
        """Forget all lineage (after a merge produced a fresh base)."""
        self._versions.clear()

    def owner_of(self, position: int, attribute: str) -> str:
        return "tail" if self.resolve(position, attribute) is not None else "base"

    def describe(self) -> str:
        return f"page dictionary with {len(self._versions)} versioned cells"


class LStoreEngine(StorageEngine):
    """Base/tail columns behind a page dictionary."""

    name = "L-Store"
    year = 2016

    def __init__(
        self,
        platform,
        tail_capacity: int = DEFAULT_TAIL_CAPACITY,
        compress_base: bool = False,
    ) -> None:
        super().__init__(platform)
        if tail_capacity < 1:
            raise EngineError(f"{self.name}: tail_capacity must be >= 1")
        self.tail_capacity = tail_capacity
        #: The paper: base pages are "read-only (and compressed)".  When
        #: enabled, every full base column is encoded with the best
        #: lightweight codec at load (and after merges); updates still
        #: flow to the tails, so read-only-ness is never violated.
        self.compress_base = compress_base
        self._dictionaries: dict[str, PageDictionary] = {}
        self._tails: dict[str, dict[str, list[Fragment]]] = {}

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            # Vertical columns, horizontally cut into base and tail parts.
            fragmentation_choice=FragmentationChoice.BOTH,
            constrained_order=PartitioningOrder.VERTICAL_THEN_HORIZONTAL,
            fat_formats=frozenset(),
            per_fragment_choice=False,
            multi_layout=MultiLayoutSupport.SINGLE,
            workload=WorkloadSupport.HTAP,
        )

    # ------------------------------------------------------------------
    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        fragments = []
        for attribute in relation.schema.names:
            fragment = Fragment(
                Region(relation.rows, (attribute,)),
                relation.schema,
                None,
                self.platform.host_memory,
                label=f"lstore:{relation.name}:{attribute}:base",
                materialize=columns is not None,
            )
            fill_fragment(fragment, columns)
            fragments.append(fragment)
        self._dictionaries[relation.name] = PageDictionary()
        self._tails[relation.name] = {name: [] for name in relation.schema.names}
        if self.compress_base and columns is not None and relation.row_count:
            for fragment in fragments:
                fragment.compress()
        return [Layout(f"{relation.name}/base", relation, fragments)]

    def delegation_policy(self, name: str) -> PageDictionary:
        return self._dictionaries[name]

    def _drop_extras(self, managed) -> None:
        name = managed.relation.name
        for tails in self._tails.pop(name, {}).values():
            for tail in tails:
                tail.free()
        self._dictionaries.pop(name, None)

    def fragment_population(self, name: str) -> list[Fragment]:
        population = super().fragment_population(name)
        for tails in self._tails[name].values():
            population.extend(tails)
        return population

    # ------------------------------------------------------------------
    # Tail management
    # ------------------------------------------------------------------
    def _tail_count(self, name: str, attribute: str) -> int:
        return sum(fragment.filled for fragment in self._tails[name][attribute])

    def _open_tail(self, name: str, attribute: str) -> Fragment:
        """The current append-target tail fragment (created on demand).

        Tail fragments live in the version row space: their regions sit
        beyond the relation's logical rows so they can coexist with the
        base layout without overlapping it.
        """
        managed = self.managed(name)
        tails = self._tails[name][attribute]
        if tails and not tails[-1].is_full:
            return tails[-1]
        start = managed.relation.row_count + len(tails) * self.tail_capacity
        fragment = Fragment(
            Region(RowRange(start, start + self.tail_capacity), (attribute,)),
            managed.relation.schema,
            None,
            self.platform.host_memory,
            label=f"lstore:{name}:{attribute}:tail{len(tails)}",
        )
        tails.append(fragment)
        return fragment

    def _tail_value(self, name: str, attribute: str, offset: int) -> Any:
        index, local = divmod(offset, self.tail_capacity)
        return self._tails[name][attribute][index].read_field(local, attribute)

    # ------------------------------------------------------------------
    # Lineage-based writes and reads
    # ------------------------------------------------------------------
    def update(self, name, position, attribute, value, ctx):
        """Append a tail record instead of writing in place."""
        managed = self.managed(name)
        if not 0 <= position < managed.relation.row_count:
            raise TransactionError(
                f"{self.name}: position {position} outside relation of "
                f"{managed.relation.row_count} rows"
            )
        managed.relation.schema.attribute(attribute)  # raises on unknown
        self._check_update_allowed(name, attribute)
        self.record_access(name, AccessKind.WRITE, (attribute,), 1)
        tail = self._open_tail(name, attribute)
        tail.append_rows([(value,)])
        offset = self._tail_count(name, attribute) - 1
        self._dictionaries[name].record_update(position, attribute, offset)
        width = managed.relation.schema.attribute(attribute).width
        cost = ctx.platform.memory_model.random(
            count=1, touched=width, footprint=max(tail.nbytes, 1)
        )
        ctx.counters.cycles += cost
        ctx.counters.bytes_written += width

    def read_field(self, name: str, position: int, attribute: str,
                   ctx: ExecutionContext) -> Any:
        """Read the *current* value of one cell through the dictionary."""
        managed = self.managed(name)
        dictionary = self._dictionaries[name]
        layout = managed.primary_layout
        base = layout.fragment_for(position, attribute)
        width = managed.relation.schema.attribute(attribute).width
        offset = dictionary.resolve(position, attribute)
        cost = ctx.platform.memory_model.random(
            count=1, touched=width, footprint=max(base.nbytes, 1)
        )
        if offset is None:
            ctx.counters.cycles += cost
            local = position - base.region.rows.start
            return base.read_field(local, attribute)
        # Dereferencing into the tail is the extra cache miss the paper
        # attributes to L-Store's record-centric path.
        cost += ctx.platform.memory_model.random(
            count=1, touched=width, footprint=max(self.tail_capacity * width, 1)
        )
        ctx.counters.cycles += cost
        return self._tail_value(name, attribute, offset)

    def materialize(self, name, positions, ctx):
        managed = self.managed(name)
        self.record_access(
            name, AccessKind.READ, managed.relation.schema.names, len(positions)
        )
        return [
            tuple(
                self.read_field(name, position, attribute, ctx)
                for attribute in managed.relation.schema.names
            )
            for position in positions
        ]

    def sum_at(self, name, attribute, positions, ctx):
        """Record-centric sum: every position resolves via the dictionary.

        Unlike the generic operator, L-Store cannot read the base column
        blindly — updated cells live in the tails, so each position goes
        through :meth:`read_field` (paying the dereference cost where
        lineage exists).
        """
        self.record_access(name, AccessKind.READ, (attribute,), len(positions))
        return float(
            sum(self.read_field(name, position, attribute, ctx) for position in positions)
        )

    def sum(self, name, attribute, ctx):
        """Attribute-centric scan of the base column, patched with tails."""
        managed = self.managed(name)
        self.record_access(name, AccessKind.READ, (attribute,), managed.relation.row_count)
        base_total = sum_column(managed.primary_layout, attribute, ctx)
        # Patch updated cells: subtract stale base values, add current.
        dictionary = self._dictionaries[name]
        correction = 0.0
        patched = 0
        layout = managed.primary_layout
        for (position, cell_attribute), chain in dictionary.versions().items():
            if cell_attribute != attribute:
                continue
            base = layout.fragment_for(position, attribute)
            if base.is_phantom:
                continue
            local = position - base.region.rows.start
            correction -= float(base.read_field(local, attribute))
            correction += float(self._tail_value(name, attribute, chain[-1]))
            patched += 1
        if patched:
            width = managed.relation.schema.attribute(attribute).width
            cost = ctx.platform.memory_model.random(
                count=patched, touched=width,
                footprint=max(self.tail_capacity * width, 1),
            )
            ctx.counters.cycles += cost
        return base_total + correction

    # ------------------------------------------------------------------
    # Historic querying
    # ------------------------------------------------------------------
    def read_history(
        self, name: str, position: int, attribute: str, ctx: ExecutionContext
    ) -> list[Any]:
        """All versions of one cell, oldest first (base value included)."""
        managed = self.managed(name)
        layout = managed.primary_layout
        base = layout.fragment_for(position, attribute)
        local = position - base.region.rows.start
        chain = self._dictionaries[name].lineage(position, attribute)
        width = managed.relation.schema.attribute(attribute).width
        cost = ctx.platform.memory_model.random(
            count=1 + len(chain), touched=width,
            footprint=max(base.nbytes, 1),
        )
        ctx.counters.cycles += cost
        history = [base.read_field(local, attribute)]
        history.extend(self._tail_value(name, attribute, offset) for offset in chain)
        return history

    # ------------------------------------------------------------------
    # Demand-driven merge (responsive adaptability)
    # ------------------------------------------------------------------
    def reorganize(self, name: str, ctx: ExecutionContext) -> bool:
        """Merge tails into a fresh read-optimized base.

        Returns False when no cell has been updated since the last
        merge.  History is truncated by the merge (the real system
        retains it on cold storage; DESIGN.md §6).
        """
        managed = self.managed(name)
        dictionary = self._dictionaries[name]
        if dictionary.updated_cells() == 0:
            return False
        layout = managed.primary_layout
        schema = managed.relation.schema
        new_fragments = []
        moved_bytes = 0
        for attribute in schema.names:
            base = layout.fragments_for_attribute(attribute)[0]
            fresh = Fragment(
                Region(managed.relation.rows, (attribute,)),
                schema,
                None,
                self.platform.host_memory,
                label=f"lstore:{name}:{attribute}:base*",
                materialize=not base.is_phantom,
            )
            if base.is_phantom:
                fresh.fill_phantom(base.filled)
            else:
                merged = np.copy(base.column(attribute))
                for (position, cell_attribute), chain in dictionary.versions().items():
                    if cell_attribute == attribute:
                        merged[position] = self._tail_value(name, attribute, chain[-1])
                fresh.append_columns({attribute: merged})
            moved_bytes += fresh.nbytes
            new_fragments.append(fresh)
        cost = 2 * ctx.platform.memory_model.sequential(moved_bytes)
        ctx.counters.cycles += cost
        for fragment in layout.fragments:
            fragment.free()
        for tails in self._tails[name].values():
            for tail in tails:
                tail.free()
            tails.clear()
        if self.compress_base:
            for fragment in new_fragments:
                if not fragment.is_phantom:
                    fragment.compress()
        layout.replace_fragments(new_fragments)
        layout.validate()
        dictionary.clear()
        return True

    def on_recovered(self, name: str, ctx: ExecutionContext) -> bool:
        """Lineage merge: fold replayed tail records into a fresh base.

        Recovery replays the durable log through :meth:`update`, which
        rebuilds tail chains exactly as the crashed run grew them.
        L-Store's durability story (Table 1) finishes with its lineage
        mechanism: the merge collapses those chains into a fresh
        read-optimized base, leaving the recovered engine in the same
        logical state with a clean dictionary.  A no-op (False) when
        the replay touched nothing.
        """
        return self.reorganize(name, ctx)
