"""The staging manager: ``platform.staging``, the device memory façade.

One :class:`StagingManager` is created per
:class:`~repro.hardware.platform.Platform` (in ``__post_init__``), so a
fresh platform always starts with a cold cache.  Engines talk to it in
five ways:

* **residency** — :meth:`predicted_transfer_cost` lets HyPE's cost
  predictions see that a column already has a device replica
  (predicted transfer cost 0, or its patch burst when writes are
  pending) without perturbing cache state;
* **bytes** — :meth:`payload_bytes` is the one definition of what a
  column occupies on the device and ships over PCIe (an encoded
  replica's payload, see :mod:`repro.staging.cache`), and
  :meth:`stream` folds it into the :class:`Stream` a kernel charges;
  every staging charge, kernel charge and cost prediction reads it;
* **serving** — :meth:`stage`, the one path every device operator
  takes: it serves resident fragments in place, probes the rest with
  :meth:`lookup` (per-query hit/miss accounting into the query's
  counters), patches hits that have pending writes (one burst of
  offsets and values, one scatter kernel) and stages every miss with
  one :meth:`acquire_set` (a whole operand set in one coalesced burst,
  evicting LRU replicas under capacity pressure); it is also the one
  memory-pressure policy: a set that cannot be cached crosses uncached
  through a bounce buffer when free device memory holds it, and raises
  :class:`~repro.errors.CapacityError` when it does not;
* **writes** — :meth:`record_write`, fired by ``update_field`` per
  touched fragment, keeps the fragment's replicas and records the
  written cell for the next :meth:`stage`; :meth:`invalidate_all`,
  fired by the re-organizer and the recovery manager, drops every
  unpinned one;
* **placement** — :meth:`pin` stages a column as a pinned replica, all
  or nothing, which is how CoGaDB and the reference design put a
  column in device memory; :meth:`release`, fired when an engine
  frees fragments, drops their replicas and pins.

OOM resilience: an injected ``device.alloc`` fault during
:meth:`acquire_set` is absorbed by evicting the LRU unpinned replica
(recorded as a *recovered* fault — the discard itself is free, the
cost resurfaces as a re-transfer on that column's next miss); the
fault only surfaces — engaging the caller's fallback chain — when the
cache has no unpinned replica left to give back.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import DeviceError
from repro.faults.injector import SITE_DEVICE_ALLOC
from repro.hardware.event import Cycles, PerfCounters
from repro.hardware.memory import MemoryKind
from repro.staging.cache import (
    Frames,
    StagedColumn,
    StagingCache,
    decode_frames,
    encode_frames,
)
from repro.staging.scheduler import TransferScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext
    from repro.hardware.platform import Platform
    from repro.layout.fragment import Fragment

    #: One operand an operator reads: ``(fragment, attribute, width)``.
    Request = tuple[Fragment, str, int]

__all__ = ["Served", "StagingManager", "Stream"]


class Stream(NamedTuple):
    """One column as a device kernel streams it.

    ``count`` elements of ``width`` decoded bytes each; ``nbytes`` is
    what the column's device copies hold (and a kernel streams), and
    ``decoded`` the elements stored encoded, each costing one decode op.
    """

    count: int
    width: int
    nbytes: int
    decoded: int


class Served(NamedTuple):
    """What :meth:`StagingManager.stage` served one operator, per request.

    ``values`` is the array each kernel reads (the replica on a hit,
    the fragment's own column otherwise, ``None`` for a phantom), and
    ``replicas`` the replica that served each request on a hit,
    ``None`` otherwise.
    """

    values: list[np.ndarray | None]
    replicas: list[StagedColumn | None]


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
        #: Payload sizes of columns as staged now: fragment ->
        #: attribute -> (fragment version, bytes).
        self._sizes: "weakref.WeakKeyDictionary[Fragment, dict[str, tuple[int, int]]]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Residency and bytes (pure: safe for cost predictions)
    # ------------------------------------------------------------------
    def predicted_transfer_cost(self, fragment: "Fragment", attribute: str) -> Cycles:
        """Cache-aware transfer-cost prediction, side-effect-free.

        Returns 0 when the column already has a clean device replica
        (a warm query pays no PCIe), the burst of its pending patch when
        writes are pending on it, else the link cost of the column's
        :meth:`payload_bytes` — this is what makes HyPE's device/host
        decision cache-aware.
        """
        entry = self.cache.peek(fragment, attribute)
        if entry is not None:
            if not entry.pending:
                return 0.0
            return self.scheduler.predicted_cost(entry.patch_bytes)
        return self.scheduler.predicted_cost(self.payload_bytes(fragment, attribute))

    def payload_bytes(self, fragment: "Fragment", attribute: str) -> int:
        """Bytes *fragment*'s *attribute* occupies on the device and ships.

        A fresh replica's payload on a hit; on a miss, the size of the
        payload :meth:`acquire_set` would ship, memoised on the
        fragment's version; the raw column for device-resident
        fragments, which serve themselves.  Pure: no cache stats, no
        LRU movement.
        """
        entry = self.cache.peek(fragment, attribute)
        if entry is not None:
            return entry.nbytes
        if fragment.space.kind is MemoryKind.DEVICE:
            return fragment.filled * fragment.schema.attribute(attribute).width
        return self._staged_size(fragment, attribute)

    def _staged_size(self, fragment: "Fragment", attribute: str) -> int:
        """The payload bytes :meth:`_encode` gives, memoised on the version.

        So a column priced or shipped uncached again and again is
        encoded once per version; the frames are not kept.
        """
        sizes = self._sizes.setdefault(fragment, {})
        known = sizes.get(attribute)
        if known is None or known[0] != fragment.version:
            known = sizes[attribute] = (
                fragment.version,
                self._encode(fragment, attribute)[0],
            )
        return known[1]

    @staticmethod
    def _encode(fragment: "Fragment", attribute: str) -> "tuple[int, Frames | None]":
        """``(payload bytes, frames)`` of the column as staged now.

        An integer column is encoded when its frames are strictly
        smaller than the raw column, the usual lightweight-compression
        rule; every other column (phantoms included) stays raw, with
        ``frames`` ``None`` and the raw column as its payload.
        """
        raw = fragment.filled * fragment.schema.attribute(attribute).width
        if fragment.is_phantom or not raw:
            return raw, None
        column = fragment.column(attribute)
        if column.dtype.kind != "i":
            return raw, None
        frames = encode_frames(column)
        size = sum(frame.nbytes for frame in frames)
        return (size, frames) if size < raw else (raw, None)

    def stream(self, fragments: Sequence["Fragment"], attribute: str) -> Stream:
        """The :class:`Stream` of *attribute* over *fragments* (pure).

        Built from :meth:`payload_bytes`: a fragment whose payload is
        smaller than its raw column is encoded, so each of its elements
        costs a decode op.
        """
        width = fragments[0].schema.attribute(attribute).width if fragments else 0
        count = nbytes = decoded = 0
        for fragment in fragments:
            size = self.payload_bytes(fragment, attribute)
            count += fragment.filled
            nbytes += size
            if size < fragment.filled * width:
                decoded += fragment.filled
        return Stream(count, width, nbytes, decoded)

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

    def stage(self, requests: Sequence["Request"], ctx: "ExecutionContext") -> Served:
        """Serve one operator's operand set, staging its misses in one burst.

        *requests* are the ``(fragment, attribute, width)`` triples the
        operator reads, in its own order.  A device-resident fragment
        serves itself; every other one is probed with :meth:`lookup`.
        Hits with pending writes are patched in place by :meth:`_patch`,
        and all misses go to one :meth:`acquire_set` call.  Misses it
        cannot cache even after eviction cross uncached
        (:meth:`_ship_uncached`), or raise
        :class:`~repro.errors.CapacityError` when free device memory
        cannot hold them either: this is the one memory-pressure policy
        of every device operator, whose caller falls back to the host.

        Returns the :class:`Served` arrays and hit replicas; a hit
        replica's remembered answers are the operator's to reuse.  When
        the platform is traced, the counts of resident, hit, pinned,
        missed and uncached operands are added to the innermost open
        span, so an operator that stages twice reports both.
        """
        values: list[np.ndarray | None] = []
        misses: list[Request] = []
        dirty: list[StagedColumn] = []
        replicas: list[StagedColumn | None] = []
        for fragment, attribute, width in requests:
            entry = None
            if fragment.space.kind is not MemoryKind.DEVICE:
                entry = self.lookup(fragment, attribute, ctx.counters)
                if entry is None:
                    misses.append((fragment, attribute, width))
                elif entry.pending and entry not in dirty:
                    dirty.append(entry)
            replicas.append(entry)
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
        uncached = 0
        if misses and self.acquire_set(misses, ctx) is None:
            self._ship_uncached(misses, ctx)
            uncached = len(misses)
        # Where the operands came from, for explain(); counted only when
        # traced, so an untraced query pays one attribute read.
        tracer = self.platform.tracer
        if tracer is not None and tracer.current is not None:
            hits = [entry for entry in replicas if entry is not None]
            tally = {
                "resident": len(requests) - len(hits) - len(misses),
                "hits": len(hits),
                "pinned": sum(
                    self.cache.is_pinned(entry.source, entry.attribute)
                    for entry in hits
                ),
                "misses": len(misses),
                "uncached": uncached,
            }
            attrs = tracer.current.attrs
            tracer.annotate(
                **{key: attrs.get(key, 0) + count for key, count in tally.items() if count}
            )
        return Served(values, replicas)

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
            self.platform.gpu.scatter_cost(cells, sum(sizes), ctx.counters)
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

        Charges one retry-wrapped DMA burst for all payloads
        (:meth:`payload_bytes`), allocates device replicas of the
        payload size, encodes each integer column's frames
        (:meth:`_encode`) and installs the replicas in the cache —
        replicas are inserted only **after** the burst survived any
        injected faults, so a failed transfer never corrupts residency
        state.

        Returns the staged entries, or ``None`` when device memory
        cannot hold the columns even after evicting every unpinned
        replica (it then evicts none) — :meth:`stage` then ships them
        uncached or raises
        :class:`~repro.errors.CapacityError`, and :meth:`pin` pins
        nothing.  This method never raises
        :class:`~repro.errors.CapacityError` itself.

        An injected ``device.alloc`` fault is recovered in place by
        evicting the LRU unpinned replica (free discard); it is
        re-raised only when there is none, handing the query to the
        engine's fallback chain exactly as the pre-cache path did.
        """
        staged = [
            (fragment, attribute, width)
            for fragment, attribute, width in requests
            if fragment.filled * width > 0
        ]
        if not staged:
            return []
        sizes = [
            self._staged_size(fragment, attribute) for fragment, attribute, __ in staged
        ]
        total = sum(sizes)
        device = self.platform.device_memory

        injector = self.platform.injector
        if injector is not None:
            try:
                injector.check(SITE_DEVICE_ALLOC, ctx.counters)
            except DeviceError:
                # Device OOM with a replica to give back: the discard is
                # free; the cost resurfaces as a re-transfer on the
                # evicted column's next miss.
                if self.cache.evict_lru() is None:
                    raise
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
            # Encoded only now that the payload has room and crossed.
            frames = self._encode(fragment, attribute)[1]
            if frames is not None:
                values = decode_frames(frames)
            elif fragment.is_phantom:
                values = None
            else:
                values = np.array(fragment.column(attribute), copy=True)
            entry = StagedColumn(
                fragment, attribute, width, fragment.version, allocation, values,
                frames,
            )
            self.cache.insert(entry)
            entries.append(entry)
        return entries

    def _ship_uncached(self, misses: Sequence["Request"], ctx: "ExecutionContext") -> None:
        """Ship *misses* through a bounce buffer, installing no replica.

        The fallback when :meth:`acquire_set` returns ``None``.  When
        free device memory holds the misses' whole payload, it crosses
        in one burst (the wire time, counters and fault site of the
        burst that would have cached it) into a bounce buffer of that
        size, freed once the burst is done; the next query misses again.
        When it does not, the operands cannot all be on the device at
        launch: the buffer's allocation raises
        :class:`~repro.errors.CapacityError` before the burst is charged,
        and the caller's fallback answers from the host.
        """
        total = sum(
            self.payload_bytes(fragment, attribute) for fragment, attribute, __ in misses
        )
        device = self.platform.device_memory
        bounce = device.allocate(total, "bounce-buffer")  # CapacityError when short
        try:
            self._burst(misses, (total,), ctx)
        finally:
            device.free(bounce)

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
            return ctx.retry.run(f"pcie-transfer({label})", attempt, ctx)
        return attempt()

    def _make_room(self, nbytes: int, device, counters: PerfCounters) -> bool:
        """Evict LRU unpinned replicas until *nbytes* more fit; False if impossible.

        A set that would not fit even with every unpinned replica gone
        returns False before evicting any, so the cache keeps them.
        """
        cap = self.capacity_bytes

        def over_cap() -> bool:
            return cap is not None and self.cache.resident_bytes + nbytes > cap

        if not device.fits(nbytes) or over_cap():
            pinned = sum(
                entry.nbytes
                for entry in self.cache
                if self.cache.is_pinned(entry.source, entry.attribute)
            )
            free = device.available + self.cache.resident_bytes - pinned
            if nbytes > free or (cap is not None and pinned + nbytes > cap):
                return False
        while not device.fits(nbytes) or over_cap():
            if self.cache.evict_lru() is None:
                return False
            self._trace_eviction(counters, reason="capacity")
        return True

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
        """Drop every unpinned replica (fired by reorganization and recovery)."""
        return self.cache.invalidate_all()

    # ------------------------------------------------------------------
    # Placement: pinned replicas
    # ------------------------------------------------------------------
    def pin(self, fragment: "Fragment", attribute: str, ctx: "ExecutionContext") -> bool:
        """Place *fragment*'s *attribute* in device memory, all or nothing.

        A column with a fresh replica is pinned where it is; any other
        is staged by one :meth:`acquire_set` burst first.  Returns
        False, pinning nothing, when the column's payload cannot fit
        even after evicting every unpinned replica.  A pinned replica
        is served, patched and priced like any other; only eviction
        and :meth:`invalidate_all` pass it by.
        """
        if self.cache.peek(fragment, attribute) is None:
            width = fragment.schema.attribute(attribute).width
            if not self.acquire_set([(fragment, attribute, width)], ctx):
                return False
        self.cache.pin(fragment, attribute)
        return True

    def release(self, fragments: Iterable["Fragment"]) -> int:
        """Drop every replica of *fragments*, pinned or not, and unpin them.

        Fired before an engine frees the fragments (``drop``, the
        reference design's merge), so no replica outlives its source.
        """
        return self.cache.release(fragments)

    def stats(self) -> dict[str, int]:
        """The cache's counters snapshot (hits/misses/evictions/...)."""
        return self.cache.stats()
