"""The staging manager: ``platform.staging``, the device memory façade.

One :class:`StagingManager` is created per
:class:`~repro.hardware.platform.Platform` (in ``__post_init__``), so a
fresh platform always starts with a cold cache.  Engines talk to it in
three ways:

* **residency** — :meth:`is_staged` / :meth:`predicted_transfer_cost`
  let HyPE's cost predictions see that a column already has a device
  replica (predicted transfer cost 0) without perturbing cache state;
* **serving** — :meth:`lookup` (per-query hit/miss accounting into the
  query's counters), :meth:`acquire` (stage the missing columns of one
  attribute in one coalesced burst, evicting LRU replicas under
  capacity pressure) and :meth:`acquire_set` (the fused-pipeline form:
  a whole multi-attribute operand set in one burst);
* **invalidation** — :meth:`invalidate_fragment` / :meth:`invalidate_all`,
  fired by ``update_field``, the re-organizer and the recovery manager
  so a stale replica never serves a read.

OOM resilience: an injected ``device.alloc`` fault during
:meth:`acquire` is absorbed by evicting the LRU replica (recorded as a
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
from repro.staging.cache import StagedColumn, StagingCache
from repro.staging.scheduler import TransferScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext
    from repro.hardware.platform import Platform
    from repro.layout.fragment import Fragment

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
    overlap:
        When True, chunked staging in
        :func:`~repro.execution.device.device_sum_column` is charged
        with the double-buffered pipeline model instead of serially.
        Off by default so the cold path stays byte-identical to the
        historical costs.
    capacity_bytes:
        Optional cap on the cache's resident bytes (on top of the
        device space's physical capacity) — the ablation knob the
        staging sweep turns.  ``None`` means device-capacity only.
    """

    def __init__(self, platform: "Platform") -> None:
        self.platform = platform
        self.cache = StagingCache()
        self.scheduler = TransferScheduler(platform)
        self.overlap = False
        self.capacity_bytes: int | None = None

    # ------------------------------------------------------------------
    # Residency (pure: safe for cost predictions)
    # ------------------------------------------------------------------
    def is_staged(self, fragment: "Fragment", attribute: str) -> bool:
        """Whether a fresh device replica of the column exists (pure)."""
        return self.cache.peek(fragment, attribute) is not None

    def predicted_transfer_cost(
        self,
        nbytes: int,
        fragment: "Fragment | None" = None,
        attribute: str | None = None,
    ) -> Cycles:
        """Cache-aware transfer-cost prediction, side-effect-free.

        Returns 0 when the column already has a fresh device replica
        (a warm query pays no PCIe), else the plain link cost — this is
        what makes HyPE's device/host decision cache-aware.
        """
        if (
            fragment is not None
            and attribute is not None
            and self.is_staged(fragment, attribute)
        ):
            return 0.0
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

    def acquire(
        self,
        fragments: Sequence["Fragment"],
        attribute: str,
        width: int,
        ctx: "ExecutionContext",
    ) -> list[StagedColumn] | None:
        """Stage the missing columns of *fragments* in one coalesced burst.

        Single-attribute convenience over :meth:`acquire_set`; the
        charge sequence (one alloc-fault draw, one retry-wrapped burst,
        per-fragment replica installs) is exactly the historical one.
        """
        return self.acquire_set(
            [(fragment, attribute, width) for fragment in fragments], ctx
        )

    def acquire_set(
        self,
        requests: Sequence["tuple[Fragment, str, int]"],
        ctx: "ExecutionContext",
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
        for the unfused path, host execution for fused pipelines).
        This method never raises :class:`~repro.errors.CapacityError`
        itself.

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
        label = ",".join(
            dict.fromkeys(attribute for __, attribute, __ in staged)
        )

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

        def attempt() -> Cycles:
            return self.scheduler.burst(sizes, ctx.counters)

        try:
            if ctx.retry is not None:
                cost = ctx.retry.run(f"pcie-transfer({label})", attempt, ctx)
            else:
                cost = attempt()
        except BaseException:
            # A surfaced transfer fault must not leak device memory or
            # leave half-staged entries: residency state stays exactly
            # as it was before the burst.
            for reserved in allocations:
                device.free(reserved)
            raise
        ctx.note("pcie-transfer", cost)

        entries: list[StagedColumn] = []
        for (fragment, attribute, __), allocation in zip(staged, allocations):
            values = (
                None
                if fragment.is_phantom
                else np.array(fragment.column(attribute), copy=True)
            )
            entry = StagedColumn(
                fragment, attribute, fragment.version, allocation, values
            )
            self.cache.insert(entry)
            entries.append(entry)
        return entries

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
    # Invalidation hooks
    # ------------------------------------------------------------------
    def invalidate_fragment(self, fragment: "Fragment") -> int:
        """Drop every replica of *fragment* (fired by ``update_field``)."""
        return self.cache.invalidate_fragment(fragment)

    def invalidate_all(self) -> int:
        """Drop every replica (fired by reorganization and recovery)."""
        return self.cache.invalidate_all()

    def stats(self) -> dict[str, int]:
        """The cache's counters snapshot (hits/misses/evictions/...)."""
        return self.cache.stats()
