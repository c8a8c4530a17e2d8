"""PAX (Ailamaki et al., 2002): page-level decomposition on disk.

"Conceptually, a relation has one layout that is horizontally split in
n fat fragments where n is determined by the page size.  Each fat
fragment is afterwards linearized using a DSM-fixed approach."  The
page-internal DSM blocks are PAX's *minipages*.

Classification targets (Table 1): single layout, inflexible, static,
Host + Disc centralized, fat DSM-fixed fragments, no fragment scheme,
CPU, HTAP.

The engine allocates its pages on the simulated disk (the primary
storage of a buffer-managed system) and runs queries through a small
LRU buffer pool: cold pages charge one random disk read, hot pages are
free — "the working set is kept in main-memory".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engines.base import (
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    StorageEngine,
    WorkloadSupport,
    fill_fragment,
)
from repro.errors import EngineError
from repro.execution.context import ExecutionContext
from repro.hardware.memory import MemorySpace
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.partitioning import horizontal_partition
from repro.model.relation import Relation

__all__ = ["BufferPool", "PaxEngine"]

DEFAULT_PAGE_SIZE = 8192


class BufferPool:
    """A page-granular LRU buffer pool over the simulated disk.

    ``pin`` charges one random disk read on a miss and nothing on a
    hit; eviction is LRU.  Capacity is in pages, so the pool models the
    "working set in main memory" without double-storing payloads.
    """

    def __init__(self, host: MemorySpace, capacity_pages: int, page_size: int) -> None:
        if capacity_pages < 1:
            raise EngineError(f"buffer pool needs >= 1 page, got {capacity_pages}")
        self.host = host
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self._frames = host.allocate(capacity_pages * page_size, "pax.buffer-pool")
        # page label -> dirty flag; dict order is the LRU order.
        self._resident: dict[str, bool] = {}
        self.hits = 0
        self.misses = 0
        self.write_backs = 0

    def pin(
        self, page_label: str, nbytes: int, ctx: ExecutionContext,
        dirty: bool = False,
    ) -> None:
        """Make a page resident, charging a disk read if it is cold.

        ``dirty`` marks the page as modified; evicting a dirty page
        later charges the disk write-back (the buffer-managed update
        path of a 2002-era system).
        """
        if page_label in self._resident:
            was_dirty = self._resident.pop(page_label)
            self._resident[page_label] = was_dirty or dirty  # move to MRU
            self.hits += 1
            return
        self.misses += 1
        ctx.platform.disk_model.random_read_cost(nbytes, ctx.counters)
        if len(self._resident) >= self.capacity_pages:
            victim, victim_dirty = next(iter(self._resident.items()))
            self._resident.pop(victim)  # evict LRU
            if victim_dirty:
                self.write_backs += 1
                ctx.platform.disk_model.random_read_cost(self.page_size, ctx.counters)
                ctx.counters.bytes_written += self.page_size
        self._resident[page_label] = dirty

    def flush(self, ctx: ExecutionContext) -> int:
        """Write every dirty page back to disk; returns pages flushed."""
        flushed = 0
        for label, dirty in self._resident.items():
            if dirty:
                flushed += 1
                self.write_backs += 1
                ctx.platform.disk_model.random_read_cost(self.page_size, ctx.counters)
                ctx.counters.bytes_written += self.page_size
                self._resident[label] = False
        return flushed

    @property
    def resident_pages(self) -> int:
        """Pages currently in the pool."""
        return len(self._resident)

    @property
    def dirty_pages(self) -> int:
        """Resident pages awaiting write-back."""
        return sum(1 for dirty in self._resident.values() if dirty)


class PaxEngine(StorageEngine):
    """The PAX storage model as a mini storage engine."""

    name = "PAX"
    year = 2002

    def __init__(
        self,
        platform,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool_pages: int = 1024,
    ) -> None:
        super().__init__(platform)
        self.page_size = page_size
        self.buffer_pool = BufferPool(
            platform.host_memory, buffer_pool_pages, page_size
        )

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            # Page boundaries are dictated by the page size: no choice.
            fragmentation_choice=FragmentationChoice.NONE,
            constrained_order=None,
            fat_formats=frozenset({LinearizationKind.DSM}),
            per_fragment_choice=False,
            multi_layout=MultiLayoutSupport.SINGLE,
            workload=WorkloadSupport.HTAP,
        )

    # ------------------------------------------------------------------
    def _rows_per_page(self, relation: Relation) -> int:
        rows = self.page_size // relation.schema.record_width
        if rows < 1:
            raise EngineError(
                f"{self.name}: record of {relation.schema.record_width} B "
                f"exceeds page size {self.page_size}"
            )
        return rows

    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        regions = horizontal_partition(relation, self._rows_per_page(relation))
        fragments = []
        for number, region in enumerate(regions):
            fragment = Fragment(
                region,
                relation.schema,
                LinearizationKind.DSM,  # minipages inside the page
                self.platform.disk,
                label=f"pax:{relation.name}:page{number}",
                materialize=columns is not None,
            )
            fill_fragment(fragment, columns)
            fragments.append(fragment)
        return [Layout(f"{relation.name}/pax", relation, fragments)]

    # ------------------------------------------------------------------
    # Buffer-managed query paths
    # ------------------------------------------------------------------
    def _pin_pages_for(
        self, name: str, positions: Sequence[int] | None, ctx: ExecutionContext
    ) -> None:
        """Pin the pages a query touches (all pages when positions is None)."""
        layout = self.managed(name).primary_layout
        if positions is None:
            targets = list(layout.fragments)
        else:
            targets = []
            seen: set[int] = set()
            for fragment in layout.fragments:
                if id(fragment) in seen:
                    continue
                if any(fragment.region.rows.contains(p) for p in positions):
                    seen.add(id(fragment))
                    targets.append(fragment)
        for fragment in targets:
            self.buffer_pool.pin(fragment.label, fragment.nbytes, ctx)

    def materialize(self, name, positions, ctx):
        self._pin_pages_for(name, list(positions), ctx)
        return super().materialize(name, positions, ctx)

    def sum(self, name, attribute, ctx):
        self._pin_pages_for(name, None, ctx)
        return super().sum(name, attribute, ctx)

    def sum_at(self, name, attribute, positions, ctx):
        self._pin_pages_for(name, list(positions), ctx)
        return super().sum_at(name, attribute, positions, ctx)

    def update(self, name, position, attribute, value, ctx):
        layout = self.managed(name).primary_layout
        for fragment in layout.fragments:
            if fragment.region.rows.contains(position):
                self.buffer_pool.pin(fragment.label, fragment.nbytes, ctx, dirty=True)
        super().update(name, position, attribute, value, ctx)
