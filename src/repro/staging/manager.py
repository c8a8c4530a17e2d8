"""The staging manager: ``platform.staging``, the device memory façade.

One :class:`StagingManager` is created per
:class:`~repro.hardware.platform.Platform` (in ``__post_init__``), so a
fresh platform always starts with a cold cache.  Engines talk to it in
three ways:

* **residency** — :meth:`predicted_transfer_cost` lets HyPE's cost
  predictions see that a column already has a device replica
  (predicted transfer cost 0, or its patch burst when writes are
  pending) without perturbing cache state;
* **serving** — :meth:`stage`, the one path every device operator
  takes: it serves resident fragments in place, probes the rest with
  :meth:`lookup` (per-query hit/miss accounting into the query's
  counters), patches hits that have pending writes (one burst of
  offsets and values, one scatter kernel) and stages every miss with
  one :meth:`acquire_set` (a whole operand set in one coalesced burst,
  evicting LRU replicas under capacity pressure);
  :meth:`transfer_uncached` charges the same bytes when the set cannot
  be cached;
* **writes** — :meth:`record_write`, fired by ``update_field`` per
  touched fragment, keeps the fragment's replicas and records the
  written cell for the next :meth:`stage`; :meth:`invalidate_all`,
  fired by the re-organizer and the recovery manager, drops them all.

OOM resilience: an injected ``device.alloc`` fault during
:meth:`acquire_set` is absorbed by evicting the LRU replica (recorded as a
*recovered* fault — the discard itself is free, the cost resurfaces as
a re-transfer on that column's next miss); the fault only surfaces —
engaging the caller's fallback chain — when the cache has nothing left
to give back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import DeviceError
from repro.faults.injector import SITE_DEVICE_ALLOC
from repro.hardware.event import Cycles, PerfCounters
from repro.hardware.memory import MemoryKind
from repro.staging.cache import StagedColumn, StagingCache
from repro.staging.scheduler import TransferScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext
    from repro.hardware.platform import Platform
    from repro.layout.fragment import Fragment

    #: One operand an operator reads: ``(fragment, attribute, width)``.
    Request = tuple[Fragment, str, int]

__all__ = ["StagingManager"]


class StagingManager:
    """Per-platform staging cache + transfer scheduler bundle.

    Attributes
    ----------
    cache:
        The LRU :class:`~repro.staging.cache.StagingCache` of device
        column replicas.
    scheduler:
        The :class:`~repro.staging.scheduler.TransferScheduler` all
        fragment-payload transfers route through.
    capacity_bytes:
        Optional cap on the cache's resident bytes (on top of the
        device space's physical capacity) — the ablation knob the
        staging sweep turns.  ``None`` means device-capacity only.
    """

    def __init__(self, platform: "Platform") -> None:
        self.platform = platform
        self.cache = StagingCache()
        self.scheduler = TransferScheduler(platform)
        self.capacity_bytes: int | None = None

    # ------------------------------------------------------------------
    # Residency (pure: safe for cost predictions)
    # ------------------------------------------------------------------
    def predicted_transfer_cost(
        self,
        nbytes: int,
        fragment: "Fragment | None" = None,
        attribute: str | None = None,
    ) -> Cycles:
        """Cache-aware transfer-cost prediction, side-effect-free.

        Returns 0 when the column already has a clean device replica
        (a warm query pays no PCIe), the burst of its pending patch when
        writes are pending on it, else the plain link cost of *nbytes* —
        this is what makes HyPE's device/host decision cache-aware.
        """
        if fragment is not None and attribute is not None:
            entry = self.cache.peek(fragment, attribute)
            if entry is not None:
                if not entry.pending:
                    return 0.0
                return self.scheduler.predicted_cost(entry.patch_bytes)
        return self.scheduler.predicted_cost(nbytes)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def lookup(
        self, fragment: "Fragment", attribute: str, counters: PerfCounters
    ) -> StagedColumn | None:
        """Hit/miss probe for one query: returns the replica or None.

        Tallies ``staging_hits`` / ``staging_misses`` into *counters*
        and refreshes the entry's LRU position on a hit.
        """
        entry = self.cache.lookup(fragment, attribute)
        if entry is None:
            counters.staging_misses += 1
        else:
            counters.staging_hits += 1
        tracer = self.platform.tracer
        if tracer is not None:
            tracer.instant(
                "staging-miss" if entry is None else "staging-hit",
                "staging",
                counters,
                column=f"{fragment.label}.{attribute}",
            )
        return entry

    def stage(
        self, requests: Sequence["Request"], ctx: "ExecutionContext"
    ) -> "tuple[list[np.ndarray | None], list[Request], list[StagedColumn] | None]":
        """Serve one operator's operand set, staging its misses in one burst.

        *requests* are the ``(fragment, attribute, width)`` triples the
        operator reads, in its own order.  A device-resident fragment
        serves itself; every other one is probed with :meth:`lookup`.
        Hits with pending writes are patched in place by :meth:`_patch`,
        and all misses go to one :meth:`acquire_set` call.

        Returns ``(values, misses, entries)``: per request, the array
        the kernel reads (the replica on a hit, the fragment's own
        column otherwise, ``None`` for a phantom); the missed requests;
        and what :meth:`acquire_set` returned — ``None`` when the misses
        cannot be cached, in which case each operator gives its own
        answer (streaming, an uncached burst, or a refusal).
        """
        values: list[np.ndarray | None] = []
        misses: list[Request] = []
        dirty: list[StagedColumn] = []
        for fragment, attribute, width in requests:
            entry = None
            if fragment.space.kind is not MemoryKind.DEVICE:
                entry = self.lookup(fragment, attribute, ctx.counters)
                if entry is None:
                    misses.append((fragment, attribute, width))
                elif entry.pending and entry not in dirty:
                    dirty.append(entry)
            if entry is not None:
                # The replica serves the read (patched below when writes
                # are pending): a stale entry here would be a wrong
                # answer, which the invalidation and patch tests catch.
                values.append(entry.values)
            elif fragment.is_phantom:
                values.append(None)
            else:
                values.append(fragment.column(attribute))
        if dirty:
            self._patch(dirty, ctx)
        entries = self.acquire_set(misses, ctx) if misses else []
        return values, misses, entries

    def _patch(self, dirty: Sequence[StagedColumn], ctx: "ExecutionContext") -> None:
        """Ship *dirty* replicas' pending cells, then scatter them.

        One retry-wrapped burst carries every replica's offsets and
        values, and one scatter kernel writes them.  The replicas'
        arrays change only after both survived, so a surfaced fault
        leaves each replica unpatched with its offsets kept, and the
        next read patches again.
        """
        sizes = [entry.patch_bytes for entry in dirty]
        self._burst(
            [(entry.source, entry.attribute, entry.width) for entry in dirty],
            sizes,
            ctx,
        )
        cells = sum(len(entry.pending) for entry in dirty)
        with ctx.span("gpu-scatter", "kernel", cells=cells):
            cost = self.platform.gpu.scatter_cost(cells, sum(sizes), ctx.counters)
            ctx.note("gpu-scatter", cost)
        for entry in dirty:
            entry.apply_patch()

    def acquire_set(
        self, requests: Sequence["Request"], ctx: "ExecutionContext"
    ) -> list[StagedColumn] | None:
        """Stage a whole operand set — ``(fragment, attribute, width)``
        triples, possibly spanning several attributes — in **one**
        coalesced burst.

        This is the fused-pipeline entry point: a fused kernel needs
        every operand column resident before its single launch, so the
        manager reserves all replicas up front and ships their payloads
        in one DMA burst (one link latency for the entire set), instead
        of one burst per operator as the unfused plan pays.

        Charges one retry-wrapped DMA burst for all payloads, allocates
        device replicas and installs them in the cache — replicas are
        inserted only **after** the burst survived any injected faults,
        so a failed transfer never corrupts residency state.

        Returns the staged entries, or ``None`` when device memory
        cannot hold the columns even after evicting every cached
        replica — the caller then falls back (bounce-buffer streaming
        or :meth:`transfer_uncached` for the unfused operators, host
        execution for fused pipelines).  This method never raises
        :class:`~repro.errors.CapacityError` itself.

        An injected ``device.alloc`` fault is recovered in place by
        evicting the LRU replica (free discard); it is re-raised only
        when the cache is empty, handing the query to the engine's
        fallback chain exactly as the pre-cache path did.
        """
        staged = [
            (fragment, attribute, width)
            for fragment, attribute, width in requests
            if fragment.filled * width > 0
        ]
        if not staged:
            return []
        sizes = [fragment.filled * width for fragment, __, width in staged]
        total = sum(sizes)
        device = self.platform.device_memory

        injector = self.platform.injector
        if injector is not None:
            try:
                injector.check(SITE_DEVICE_ALLOC, ctx.counters)
            except DeviceError:
                if len(self.cache) == 0:
                    raise
                # Device OOM with replicas to give back: the discard is
                # free; the cost resurfaces as a re-transfer on the
                # evicted column's next miss.
                self.cache.evict_lru()
                self._trace_eviction(ctx.counters, reason="device-oom")
                injector.report.record_recovered()
                ctx.counters.fault_recoveries += 1

        if not self._make_room(total, device, ctx.counters):
            return None

        # Reserve the replica slots before charging the burst: if device
        # memory is shorter than the capacity model promised, the caller
        # streams instead of paying for a transfer it cannot land.
        allocations = []
        for (fragment, attribute, __), size in zip(staged, sizes):
            allocation = device.try_allocate(
                size, f"staged({fragment.label}.{attribute})"
            )
            if allocation is None:
                for reserved in allocations:
                    device.free(reserved)
                return None
            allocations.append(allocation)

        try:
            self._burst(staged, sizes, ctx)
        except BaseException:
            # A surfaced transfer fault must not leak device memory or
            # leave half-staged entries: residency state stays exactly
            # as it was before the burst.
            for reserved in allocations:
                device.free(reserved)
            raise

        entries: list[StagedColumn] = []
        for (fragment, attribute, width), allocation in zip(staged, allocations):
            values = (
                None
                if fragment.is_phantom
                else np.array(fragment.column(attribute), copy=True)
            )
            entry = StagedColumn(
                fragment, attribute, width, fragment.version, allocation, values
            )
            self.cache.insert(entry)
            entries.append(entry)
        return entries

    def transfer_uncached(
        self, misses: Sequence["Request"], ctx: "ExecutionContext"
    ) -> Cycles:
        """Charge *misses* as one transfer that installs no replica.

        The fallback when :meth:`acquire_set` returns ``None``: the same
        bytes cross the link with the same wire time and fault site as
        the burst that would have cached them, but the next query
        misses again.
        """
        total = sum(fragment.filled * width for fragment, __, width in misses)
        return self._burst(misses, (total,), ctx)

    def _burst(
        self,
        requests: Sequence["Request"],
        sizes: Sequence[int],
        ctx: "ExecutionContext",
    ) -> Cycles:
        """One retry-wrapped DMA burst of *sizes* for *requests*' columns."""
        label = ",".join(
            dict.fromkeys(attribute for __, attribute, __ in requests)
        )

        def attempt() -> Cycles:
            return self.scheduler.burst(sizes, ctx.counters)

        if ctx.retry is not None:
            cost = ctx.retry.run(f"pcie-transfer({label})", attempt, ctx)
        else:
            cost = attempt()
        ctx.note("pcie-transfer", cost)
        return cost

    def _make_room(self, nbytes: int, device, counters: PerfCounters) -> bool:
        """Evict LRU replicas until *nbytes* more fit; False if impossible."""
        cap = self.capacity_bytes

        def over_cap() -> bool:
            return cap is not None and self.cache.resident_bytes + nbytes > cap

        while len(self.cache) and (not device.fits(nbytes) or over_cap()):
            self.cache.evict_lru()
            self._trace_eviction(counters, reason="capacity")
        return device.fits(nbytes) and not over_cap()

    def _trace_eviction(self, counters: PerfCounters, reason: str) -> None:
        """Record one replica eviction as an instant trace event."""
        tracer = self.platform.tracer
        if tracer is not None:
            tracer.instant("staging-evict", "staging", counters, reason=reason)

    # ------------------------------------------------------------------
    # Write hooks
    # ------------------------------------------------------------------
    def record_write(self, fragment: "Fragment", attribute: str, offset: int) -> None:
        """Keep *fragment*'s replicas across one written cell.

        Fired by ``update_field`` per touched fragment; the next
        :meth:`stage` that reads the written column patches the cell.
        """
        self.cache.record_write(fragment, attribute, offset)

    def invalidate_all(self) -> int:
        """Drop every replica (fired by reorganization and recovery)."""
        return self.cache.invalidate_all()

    def stats(self) -> dict[str, int]:
        """The cache's counters snapshot (hits/misses/evictions/...)."""
        return self.cache.stats()
