"""Device-side execution: GPU kernels and host<->device staging.

Reproduces the paper's device configuration: an optimized two-pass
parallel reduction (>= 1024 blocks x 512 threads, final pass 1 block x
1024 threads) over a column, with the host<->device transfer charged —
or not — depending on whether the column is already device-resident
(Figure 2, panels 3 vs. 4).

Both operators here read their column through
:meth:`~repro.staging.StagingManager.stage` (``platform.staging``): a
repeat query finds its device replica in the staging cache and pays no
PCIe beyond a patch of the cells written since the last read, and the
misses are staged in one coalesced burst.  A column that cannot be
cached even after evicting every replica is still shipped, uncached —
through a bounce buffer for the sum — with charges byte-identical to
the pre-cache code, so a cold cache reproduces the old cost sequence
exactly.

Resilience: staging transfers are retried under the context's
:class:`~repro.faults.RetryPolicy`, injected device-OOM is absorbed by
evicting staged replicas (surfacing as
:class:`~repro.errors.DeviceError` only when the cache has nothing to
give back), and any fault that survives the retries propagates so the
calling engine's fallback chain can degrade to the host path (recording
which path actually served the query).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CapacityError, ExecutionError, PlacementError
from repro.execution.context import ExecutionContext
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


def device_sum_column(layout: Layout, attribute: str, ctx: ExecutionContext) -> float:
    """Sum one attribute on the GPU (the paper's reduction kernel).

    Every fragment covering *attribute* is served through
    ``platform.staging.stage``:

    * a device-resident fragment is charged only the kernel cost;
    * a fresh replica in the staging cache serves the read (a staging
      hit); PCIe is charged only for a patch of cells written since
      its last read;
    * the misses are staged in one coalesced burst, which installs
      cached replicas for the next query.

    Staging adapts to device-memory pressure (Bress, Funke & Teubner's
    robustness strategies): when the misses cannot be cached even after
    LRU eviction, they stream through a bounce buffer sized to the free
    device memory, processed in chunks — same total traffic, one extra
    kernel launch per chunk.  A device with no free memory at all raises
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
        columns, misses, entries = staging.stage(
            [(fragment, attribute, width) for fragment in fragments], ctx
        )
        total = 0.0
        for values in columns:
            if values is not None and len(values):
                total += float(np.sum(values))
        count = sum(fragment.filled for fragment in fragments)
        chunks = 1
        if entries is None:
            # The column cannot be cached: stream it through a bounce
            # buffer exactly as the pre-cache path did.
            staged_bytes = sum(fragment.filled * width for fragment, __, __ in misses)
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
                staging.transfer_uncached(misses, ctx)
            finally:
                device.free(bounce)
        if count:
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
        result_cost = staging.scheduler.transfer(width, ctx.counters)
        ctx.note("result-copy", result_cost)
    return total


def device_count_where(
    layout: Layout, attribute: str, predicate, ctx: ExecutionContext
) -> int:
    """Count rows matching a vectorized predicate, on the GPU.

    The selection kernel streams the column once (bandwidth-bound, like
    the reduction) and reduces the match bitmap on-device, so only the
    scalar count crosses the bus back — the classic GPU selection +
    count fusion.  Host-resident fragments are served from the staging
    cache when possible and staged (with replica installation) on a
    miss; misses that cannot be cached cross the link uncached.
    """
    fragments = layout.fragments_for_attribute(attribute)
    if not fragments:
        return 0  # empty relation
    staging = ctx.platform.staging
    width = fragments[0].schema.attribute(attribute).width
    with ctx.span(f"device-count-where({attribute})", "operator"):
        columns, misses, entries = staging.stage(
            [(fragment, attribute, width) for fragment in fragments], ctx
        )
        if entries is None:
            # No room to cache the replicas: charge the same burst
            # uncached (this path never allocated a bounce buffer).
            staging.transfer_uncached(misses, ctx)
        matches = 0
        for values in columns:
            if values is None or not len(values):
                continue
            mask = np.asarray(predicate(values), dtype=bool)
            if mask.shape != values.shape:
                raise ExecutionError(
                    f"predicate returned shape {mask.shape} for "
                    f"{values.shape} values"
                )
            matches += int(np.sum(mask))
        count = sum(fragment.filled for fragment in fragments)
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
        result_cost = staging.scheduler.transfer(8, ctx.counters)
        ctx.note("result-copy", result_cost)
    return matches
