"""Copy-on-write snapshots: detaching analytics from transactions.

Challenge (b.iii): HTAP systems must process "long-running ad-hoc
analytic queries and massive short-living write-intensive transactional
queries ... without interferences".  HyPer's answer — cited twice by
the survey ([1] virtual-memory snapshots, [20] MVCC) — is to give every
analytic query a consistent *snapshot* of the data that the OLTP stream
keeps mutating, paying only for the pages actually touched by writes.

:class:`SnapshotManager` models that mechanism at page granularity:

* :meth:`fork` creates a snapshot of a layout — cost is one page-table
  copy (cycles per page entry), NOT a data copy;
* writes must pass through :meth:`before_update`; the first write to a
  page under a live snapshot copies the page's **pre-image** into the
  snapshot (one page copy per (snapshot, page) — the copy-on-write
  fault), after which the writer proceeds at full speed;
* :class:`Snapshot` serves reads that are consistent as of the fork,
  overlaying preserved pre-images on the live fragments;
* :meth:`Snapshot.release` drops the pre-images and stops charging
  faults.

The interference ablation (A6) compares this against the naive
"detach by full copy" strategy the paper's challenge implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import TransactionError
from repro.execution.context import ExecutionContext
from repro.hardware.event import Cycles
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout

__all__ = ["Snapshot", "SnapshotManager", "PAGE_BYTES", "PTE_COPY_CYCLES"]

#: Virtual-memory page size the CoW mechanism works at.
PAGE_BYTES = 4096
#: Cycles to duplicate one page-table entry during fork().
PTE_COPY_CYCLES: Cycles = 130.0
#: Cycles of kernel fault-handling overhead per CoW page copy.
FAULT_OVERHEAD_CYCLES: Cycles = 2_500.0


@dataclass
class Snapshot:
    """One consistent read view of a layout, as of its fork instant.

    Pre-images are stored per (fragment, attribute, page index): the
    page's values at fork time.  Reads overlay them on the live data.
    """

    layout: Layout
    manager: "SnapshotManager"
    #: (fragment id, attribute, page index) -> pre-image value array.
    _preimages: dict[tuple[int, str, int], np.ndarray] = field(default_factory=dict)
    _released: bool = False
    pages_copied: int = 0

    # ------------------------------------------------------------------
    @property
    def is_live(self) -> bool:
        """Whether the snapshot still intercepts writes."""
        return not self._released

    def release(self) -> None:
        """Drop the snapshot: pre-images are freed, faults stop.

        Idempotent: releasing an already-released snapshot is a no-op —
        no error, no second cycle charge, no double-free.  Recovery
        teardown sweeps every snapshot it can reach
        (:meth:`SnapshotManager.release_all`) without knowing which
        ones the crashed run already dropped, so double releases are
        the *normal* case there, not a bug.
        """
        if self._released:
            return
        self._released = True
        self._preimages.clear()
        self.manager._forget(self)

    def _require_live(self) -> None:
        if self._released:
            raise TransactionError("snapshot has been released")

    # ------------------------------------------------------------------
    # Consistent reads
    # ------------------------------------------------------------------
    def column(self, attribute: str) -> np.ndarray:
        """The attribute's values as of the fork (across fragments)."""
        self._require_live()
        parts = []
        for fragment in self.layout.fragments_for_attribute(attribute):
            parts.append(self._fragment_column(fragment, attribute))
        return np.concatenate(parts) if parts else np.empty(0)

    def _fragment_column(self, fragment: Fragment, attribute: str) -> np.ndarray:
        live = np.array(fragment.column(attribute), copy=True)
        width = fragment.schema.attribute(attribute).width
        rows_per_page = max(PAGE_BYTES // width, 1)
        for (fragment_id, name, page), preimage in self._preimages.items():
            if fragment_id != id(fragment) or name != attribute:
                continue
            start = page * rows_per_page
            stop = min(start + len(preimage), len(live))
            if start < len(live):
                live[start:stop] = preimage[: stop - start]
        return live

    def read_field(self, position: int, attribute: str) -> Any:
        """One field as of the fork."""
        self._require_live()
        fragment = self.layout.fragment_for(position, attribute)
        local = position - fragment.region.rows.start
        width = fragment.schema.attribute(attribute).width
        rows_per_page = max(PAGE_BYTES // width, 1)
        page = local // rows_per_page
        key = (id(fragment), attribute, page)
        preimage = self._preimages.get(key)
        if preimage is not None:
            return preimage[local - page * rows_per_page]
        return fragment.read_field(local, attribute)

    def sum(self, attribute: str, ctx: ExecutionContext) -> float:
        """Attribute-centric aggregation over the snapshot.

        Costs the same column stream as a live scan (the snapshot's
        pages are ordinary memory) — that is the whole point: analytics
        run at full speed, isolated from the writers.
        """
        self._require_live()
        from repro.execution.operators import column_scan_cost

        total = 0.0
        memory: Cycles = 0.0
        compute: Cycles = 0.0
        for fragment in self.layout.fragments_for_attribute(attribute):
            values = self._fragment_column(fragment, attribute)
            total += float(np.sum(values)) if len(values) else 0.0
            fragment_memory, fragment_compute = column_scan_cost(
                fragment, attribute, ctx
            )
            memory += fragment_memory
            compute += fragment_compute
        cycles = ctx.platform.cpu.parallelize(
            compute_cycles=compute,
            memory_cycles=memory,
            threads=ctx.threading.threads,
        )
        ctx.counters.cycles += cycles
        return total


class SnapshotManager:
    """Fork/CoW coordination for one layout's writers and snapshots."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self._live: list[Snapshot] = []

    @property
    def live_snapshots(self) -> tuple[Snapshot, ...]:
        """Snapshots still intercepting writes."""
        return tuple(self._live)

    def _forget(self, snapshot: Snapshot) -> None:
        self._live = [s for s in self._live if s is not snapshot]

    def release_all(self) -> int:
        """Release every live snapshot (recovery teardown sweep).

        Returns the number of snapshots actually released.  Safe to
        call repeatedly and to interleave with individual
        :meth:`Snapshot.release` calls — release is idempotent.
        """
        released = 0
        for snapshot in list(self._live):
            snapshot.release()
            released += 1
        return released

    # ------------------------------------------------------------------
    def fork(self, ctx: ExecutionContext) -> Snapshot:
        """Create a snapshot: one page-table copy, no data copy."""
        payload = sum(fragment.nbytes for fragment in self.layout.fragments)
        pages = math.ceil(payload / PAGE_BYTES)
        cost = pages * PTE_COPY_CYCLES
        ctx.counters.cycles += cost
        snapshot = Snapshot(layout=self.layout, manager=self)
        self._live.append(snapshot)
        return snapshot

    def before_update(
        self, position: int, attribute: str, ctx: ExecutionContext
    ) -> None:
        """CoW hook: call before mutating cell ``(position, attribute)``.

        For every live snapshot that has not yet preserved the
        containing page, the page's pre-image is copied (one fault +
        one page copy each).  Writers NOT calling this before writing
        would corrupt snapshot consistency — engines integrating the
        manager route all updates through it.
        """
        for fragment in self.layout.fragments:
            if not fragment.region.contains(position, attribute):
                continue
            local = position - fragment.region.rows.start
            width = fragment.schema.attribute(attribute).width
            rows_per_page = max(PAGE_BYTES // width, 1)
            page = local // rows_per_page
            key = (id(fragment), attribute, page)
            for snapshot in self._live:
                if key in snapshot._preimages:
                    continue
                start = page * rows_per_page
                stop = min(start + rows_per_page, fragment.filled)
                snapshot._preimages[key] = np.array(
                    fragment.column(attribute)[start:stop], copy=True
                )
                snapshot.pages_copied += 1
                copy_cost = (
                    FAULT_OVERHEAD_CYCLES
                    + ctx.platform.memory_model.sequential(2 * PAGE_BYTES)
                )
                ctx.counters.cycles += copy_cost
                ctx.counters.bytes_written += PAGE_BYTES
