"""Device-side execution: GPU kernels and host<->device staging.

Reproduces the paper's device configuration: an optimized two-pass
parallel reduction (>= 1024 blocks x 512 threads, final pass 1 block x
1024 threads) over a column, with the host<->device transfer charged —
or not — depending on whether the column is already device-resident
(Figure 2, panels 3 vs. 4).

Host-resident columns are served through the platform's
:class:`~repro.staging.StagingManager` (``platform.staging``): a repeat
query finds its device replica in the staging cache and pays no PCIe at
all, a miss stages the column in one coalesced burst, and a column that
cannot fit even after evicting every cached replica falls back to the
historical bounce-buffer streaming path — whose charges are
byte-identical to the pre-cache code, so a cold cache reproduces the
old cost sequence exactly.

Resilience: staging transfers are retried under the context's
:class:`~repro.faults.RetryPolicy`, injected device-OOM is absorbed by
evicting staged replicas (surfacing as
:class:`~repro.errors.DeviceError` only when the cache has nothing to
give back), and any fault that survives the retries propagates so the
calling engine's fallback chain can degrade to the host path (recording
which path actually served the query).
"""

from __future__ import annotations

import numpy as np

import math

from repro.errors import CapacityError, ExecutionError, PlacementError
from repro.execution.context import ExecutionContext
from repro.faults.injector import SITE_PCIE_TRANSFER
from repro.hardware.event import Cycles, PerfCounters
from repro.hardware.memory import MemoryKind, MemorySpace
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout

__all__ = [
    "device_sum_column",
    "device_count_where",
    "transfer_fragment",
    "ensure_resident",
    "is_device_resident",
]


def _staging_transfer(
    attribute: str, staged_bytes: int, ctx: ExecutionContext
) -> Cycles:
    """Charge the host->device staging copy, retrying injected faults.

    The retry policy comes from the context; without one, a
    :class:`~repro.errors.TransferError` propagates on first failure
    (callers degrade to the host path via their fallback chains).
    Every attempt — failed ones included — charges its wire time, so
    resilience is visible in the measured cycle count.
    """
    scheduler = ctx.platform.staging.scheduler

    def attempt() -> Cycles:
        return scheduler.transfer(staged_bytes, ctx.counters)

    if ctx.retry is not None:
        return ctx.retry.run(f"pcie-transfer({attribute})", attempt, ctx)
    return attempt()


def is_device_resident(fragment: Fragment) -> bool:
    """Whether a fragment's payload lives in device memory."""
    return fragment.space.kind is MemoryKind.DEVICE


def transfer_fragment(
    fragment: Fragment, space: MemorySpace, ctx: ExecutionContext, label: str = ""
) -> Fragment:
    """Copy a fragment into *space*, charging the PCIe transfer.

    Raises :class:`~repro.errors.CapacityError` when the target space
    cannot hold it — the trigger of CoGaDB's all-or-nothing fallback —
    and :class:`~repro.errors.PlacementError` when the fragment already
    lives there (use :func:`ensure_resident` for the idempotent form).
    """
    if fragment.space is space:
        raise PlacementError(
            f"{fragment.label}: already resident in {space.name}"
        )
    clone = fragment.copy_to(space, label)
    cost = ctx.platform.staging.scheduler.transfer(fragment.nbytes, ctx.counters)
    ctx.note(f"transfer({fragment.label})", cost)
    return clone


def ensure_resident(
    fragment: Fragment, space: MemorySpace, ctx: ExecutionContext, label: str = ""
) -> Fragment:
    """Idempotent placement: the fragment in *space*, transferring if needed.

    Returns *fragment* unchanged (and charges nothing) when it already
    lives in *space*; otherwise behaves exactly like
    :func:`transfer_fragment`.  This is the helper engines deduplicate
    their copy-then-charge sequences onto — re-placing an
    already-placed column is a no-op, not a
    :class:`~repro.errors.PlacementError`.
    """
    if fragment.space is space:
        return fragment
    return transfer_fragment(fragment, space, ctx, label)


def _chunked_reduction_cost(
    ctx: ExecutionContext, count: int, per_chunk: int, width: int
) -> Cycles:
    """Charge a chunked reduction without pricing every chunk separately.

    A chunked staging loop runs ``count // per_chunk`` full chunks plus
    at most one remainder chunk, so only two distinct kernel costs
    exist.  Each is priced once against a scratch counter, then the
    per-chunk charges are replayed with seeded ``np.cumsum`` (strict
    left-to-right accumulation) so cycles and device-cycles — and the
    integer launch counts — land byte-identical to the per-chunk loop.
    """
    gpu = ctx.platform.gpu
    n_full, remainder = divmod(count, per_chunk)
    costs: list[Cycles] = []
    device_cycles: list[float] = []
    launches = 0
    if n_full:
        probe = PerfCounters()
        full_cost = gpu.reduction_cost(per_chunk, width, probe)
        costs.extend([full_cost] * n_full)
        device_cycles.extend([probe.device_cycles] * n_full)
        launches += probe.kernel_launches * n_full
    if remainder:
        probe = PerfCounters()
        costs.append(gpu.reduction_cost(remainder, width, probe))
        device_cycles.append(probe.device_cycles)
        launches += probe.kernel_launches
    counters = ctx.counters
    kernel_cost = _seeded_sum(0.0, costs)
    counters.cycles = _seeded_sum(counters.cycles, costs)
    counters.device_cycles = _seeded_sum(counters.device_cycles, device_cycles)
    counters.kernel_launches += launches
    return kernel_cost


def _seeded_sum(seed: float, values: list[float]) -> float:
    """Strict left-to-right float sum of *values* starting from *seed*."""
    accumulator = np.empty(len(values) + 1, dtype=np.float64)
    accumulator[0] = seed
    accumulator[1:] = values
    np.cumsum(accumulator, out=accumulator)
    return float(accumulator[-1])


def _even_split(total: int, parts: int) -> list[int]:
    """Split *total* bytes into *parts* near-equal positive chunks."""
    base, extra = divmod(total, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def _overlapped_staging(
    ctx: ExecutionContext,
    attribute: str,
    staged_bytes: int,
    count: int,
    chunks: int,
    width: int,
) -> Cycles:
    """Charge a double-buffered chunked staging loop (overlap model).

    Chunk *i*'s kernel runs while chunk *i+1* is in flight, so the
    total is the pipelined critical path instead of transfer + kernel
    serially; the hidden cycles are tallied in ``overlapped_cycles``.
    Returns the kernel portion's serial cost for the breakdown (the
    transfer portion is reported under ``overlapped-staging``).
    """
    platform = ctx.platform
    scheduler = platform.staging.scheduler
    per_chunk = math.ceil(count / chunks)
    kernel_parts = platform.gpu.chunk_reduction_costs(count, per_chunk, width)
    n = len(kernel_parts)
    sizes = _even_split(staged_bytes, n)
    interconnect = platform.interconnect
    transfer_parts = [
        interconnect.transfer_seconds(size) * interconnect.host_frequency_hz
        for size in sizes
    ]
    kernel_costs = [cost for cost, _, _ in kernel_parts]
    total, savings = scheduler.pipeline_cost(transfer_parts, kernel_costs)

    def attempt() -> Cycles:
        # Wire time and kernel time are interleaved on the critical
        # path, so the whole pipelined charge lands per attempt — and
        # shows up as one span per attempt, like the burst path.
        with ctx.span(
            "overlapped-staging", "pcie", bytes=staged_bytes, chunks=n
        ):
            ctx.counters.cycles += total
            if platform.injector is not None:
                platform.injector.check(SITE_PCIE_TRANSFER, ctx.counters)
        return total

    if ctx.retry is not None:
        ctx.retry.run(f"pcie-transfer({attribute})", attempt, ctx)
    else:
        attempt()
    counters = ctx.counters
    counters.bytes_transferred += staged_bytes
    counters.pcie_bytes += staged_bytes
    counters.transfers += n
    counters.overlapped_cycles += savings
    counters.device_cycles += sum(part for _, part, _ in kernel_parts)
    counters.kernel_launches += sum(launches for _, _, launches in kernel_parts)
    ctx.note("overlapped-staging", total)
    return total


def device_sum_column(
    layout: Layout,
    attribute: str,
    ctx: ExecutionContext,
    charge_transfer: bool = True,
) -> float:
    """Sum one attribute on the GPU (the paper's reduction kernel).

    For every fragment covering *attribute*:

    * if it is device-resident, only the kernel cost is charged;
    * if the staging cache holds a fresh device replica, the replica
      serves the read and no PCIe is charged (a staging hit);
    * otherwise the column is staged through ``platform.staging`` — one
      coalesced burst installs a cached replica for the next query —
      unless ``charge_transfer`` is False, which reproduces panel 4's
      "transfer costs to device excluded" accounting (the data plane
      still computes the true sum either way).

    Staging adapts to device-memory pressure (Bress, Funke & Teubner's
    robustness strategies): when the column cannot be cached even after
    LRU eviction, it streams through a bounce buffer sized to the free
    device memory, processed in chunks — same total traffic, one extra
    kernel launch per chunk (and, with ``platform.staging.overlap``
    enabled, double-buffered so transfer hides behind compute).  A
    device with no free memory at all raises
    :class:`~repro.errors.CapacityError`, which callers (CoGaDB's HyPE)
    turn into a host fallback.
    """
    fragments = layout.fragments_for_attribute(attribute)
    if not fragments:
        return 0.0  # empty relation: nothing to reduce, no launch issued
    staging = ctx.platform.staging
    width = fragments[0].schema.attribute(attribute).width
    with ctx.span(
        f"device-sum({attribute})",
        "operator",
        on_device=all(is_device_resident(fragment) for fragment in fragments),
    ):
        total = 0.0
        count = 0
        misses: list[Fragment] = []
        for fragment in fragments:
            count += fragment.filled
            if is_device_resident(fragment):
                if not fragment.is_phantom:
                    values = fragment.column(attribute)
                    total += float(np.sum(values)) if len(values) else 0.0
                continue
            entry = (
                staging.lookup(fragment, attribute, ctx.counters)
                if charge_transfer
                else None
            )
            if entry is not None:
                # The replica serves the read: a stale entry here would be
                # a wrong answer, which is what the invalidation regression
                # tests check for.
                if entry.values is not None and len(entry.values):
                    total += float(np.sum(entry.values))
                continue
            if not fragment.is_phantom:
                values = fragment.column(attribute)
                total += float(np.sum(values)) if len(values) else 0.0
            misses.append(fragment)

        chunks = 1
        kernel_charged = False
        staged_bytes = sum(fragment.filled * width for fragment in misses)
        if staged_bytes and charge_transfer:
            entries = staging.acquire(misses, attribute, width, ctx)
            if entries is None:
                # The column cannot be cached: stream it through a bounce
                # buffer exactly as the pre-cache path did.
                device = ctx.platform.device_memory
                buffer_bytes = min(staged_bytes, device.available)
                if buffer_bytes < width:
                    raise CapacityError(
                        f"device memory exhausted: {device.available} B free, "
                        f"cannot stage even one {width} B element of "
                        f"{attribute!r}"
                    )
                bounce = device.allocate(buffer_bytes, f"stage({attribute})")
                try:
                    chunks = math.ceil(staged_bytes / buffer_bytes)
                    if staging.overlap and chunks > 1 and count:
                        _overlapped_staging(
                            ctx, attribute, staged_bytes, count, chunks, width
                        )
                        kernel_charged = True
                    else:
                        cost = _staging_transfer(attribute, staged_bytes, ctx)
                        ctx.note("pcie-transfer", cost)
                finally:
                    device.free(bounce)
        if count and not kernel_charged:
            with ctx.span(
                f"gpu-reduce({attribute})", "kernel", elements=count, chunks=chunks
            ):
                if chunks == 1:
                    kernel_cost = ctx.platform.gpu.reduction_cost(
                        count, width, ctx.counters
                    )
                else:
                    per_chunk = math.ceil(count / chunks)
                    kernel_cost = _chunked_reduction_cost(
                        ctx, count, per_chunk, width
                    )
                ctx.note(f"gpu-reduce({attribute})", kernel_cost)
        # Returning the scalar to the host is one tiny device->host copy.
        result_cost = ctx.platform.staging.scheduler.transfer(width, ctx.counters)
        ctx.note("result-copy", result_cost)
    return total


def device_count_where(
    layout: Layout,
    attribute: str,
    predicate,
    ctx: ExecutionContext,
    charge_transfer: bool = True,
) -> int:
    """Count rows matching a vectorized predicate, on the GPU.

    The selection kernel streams the column once (bandwidth-bound, like
    the reduction) and reduces the match bitmap on-device, so only the
    scalar count crosses the bus back — the classic GPU selection +
    count fusion.  Host-resident fragments are served from the staging
    cache when possible and staged (with replica installation) on a
    miss, unless ``charge_transfer`` is False.
    """
    fragments = layout.fragments_for_attribute(attribute)
    if not fragments:
        return 0  # empty relation
    staging = ctx.platform.staging
    width = fragments[0].schema.attribute(attribute).width
    with ctx.span(f"device-count-where({attribute})", "operator"):
        matches = 0
        count = 0
        misses: list[Fragment] = []
        for fragment in fragments:
            count += fragment.filled
            entry = None
            if not is_device_resident(fragment):
                entry = (
                    staging.lookup(fragment, attribute, ctx.counters)
                    if charge_transfer
                    else None
                )
                if entry is None:
                    misses.append(fragment)
            if not fragment.is_phantom:
                values = (
                    entry.values
                    if entry is not None and entry.values is not None
                    else fragment.column(attribute)
                )
                if len(values):
                    mask = np.asarray(predicate(values), dtype=bool)
                    if mask.shape != values.shape:
                        raise ExecutionError(
                            f"predicate returned shape {mask.shape} for "
                            f"{values.shape} values"
                        )
                    matches += int(np.sum(mask))
        staged_bytes = sum(fragment.filled * width for fragment in misses)
        if staged_bytes and charge_transfer:
            entries = staging.acquire(misses, attribute, width, ctx)
            if entries is None:
                # No room to cache the replicas: charge the same burst
                # uncached (this path never allocated a bounce buffer).
                cost = _staging_transfer(attribute, staged_bytes, ctx)
                ctx.note("pcie-transfer", cost)
        if count:
            with ctx.span(
                f"gpu-count-where({attribute})", "kernel", elements=count
            ):
                kernel_seconds = ctx.platform.gpu.streaming_kernel_seconds(
                    nbytes=count * width, ops=count * 2  # compare + ballot
                )
                kernel = (
                    ctx.platform.gpu.seconds_to_host_cycles(kernel_seconds)
                    + 2 * ctx.platform.gpu.launch_latency_cycles
                )
                ctx.charge(f"gpu-count-where({attribute})", kernel)
                ctx.counters.kernel_launches += 2
                ctx.counters.device_cycles += (
                    kernel_seconds * ctx.platform.gpu.clock_hz
                )
        result_cost = ctx.platform.staging.scheduler.transfer(8, ctx.counters)
        ctx.note("result-copy", result_cost)
    return matches
