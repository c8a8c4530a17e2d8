"""Device-side execution: GPU kernels and host<->device staging.

Reproduces the paper's device configuration: an optimized two-pass
parallel reduction (>= 1024 blocks x 512 threads, final pass 1 block x
1024 threads) over a column, with the host<->device transfer charged —
or not — depending on whether the column is already device-resident
(Figure 2, panels 3 vs. 4).

The sum reads its column through
:meth:`~repro.staging.StagingManager.stage` (``platform.staging``) and
adds up the arrays it returns: a repeat query finds its device replica
in the staging cache and pays no PCIe beyond a patch of the cells
written since the last read (and takes the replica's sum from the
replica while its contents are unchanged), and the misses are staged
in one coalesced burst.  A column that cannot be cached even after
evicting every replica is still shipped, uncached, through a bounce
buffer, with charges byte-identical to the pre-cache code, so a cold
cache reproduces the old cost sequence exactly.

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

from repro.errors import CapacityError
from repro.execution.context import ExecutionContext
from repro.hardware.event import Cycles, PerfCounters
from repro.hardware.memory import MemoryKind
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.staging.manager import Stream

__all__ = ["device_sum_column", "is_device_resident"]


def is_device_resident(fragment: Fragment) -> bool:
    """Whether a fragment's payload lives in device memory."""
    return fragment.space.kind is MemoryKind.DEVICE


def _charge_chunked_reduction(
    ctx: ExecutionContext, column: Stream, per_chunk: int
) -> None:
    """Charge a chunked reduction without pricing every chunk separately.

    A chunked staging loop runs full chunks of *per_chunk* elements and
    one last chunk of at most that many, so only two distinct kernel
    costs exist.  A full chunk streams its element share of the
    column's payload, rounded down, and the last chunk the rest.  Each
    cost is priced once against a scratch counter, then the per-chunk
    charges are replayed with seeded ``np.cumsum`` (strict
    left-to-right accumulation) so cycles and device-cycles — and the
    integer launch counts — land byte-identical to the per-chunk loop.
    """
    gpu = ctx.platform.gpu
    n_full, last = divmod(column.count - 1, per_chunk)
    last += 1
    full_bytes = column.nbytes * per_chunk // column.count
    full_decoded = column.decoded * per_chunk // column.count
    costs: list[Cycles] = []
    device_cycles: list[float] = []
    launches = 0
    if n_full:
        probe = PerfCounters()
        full_cost = gpu.reduction_cost(
            per_chunk, column.width, probe, nbytes=full_bytes, decoded=full_decoded
        )
        costs.extend([full_cost] * n_full)
        device_cycles.extend([probe.device_cycles] * n_full)
        launches += probe.kernel_launches * n_full
    probe = PerfCounters()
    costs.append(
        gpu.reduction_cost(
            last,
            column.width,
            probe,
            nbytes=column.nbytes - n_full * full_bytes,
            decoded=column.decoded - n_full * full_decoded,
        )
    )
    device_cycles.append(probe.device_cycles)
    launches += probe.kernel_launches
    counters = ctx.counters
    counters.cycles = _seeded_sum(counters.cycles, costs)
    counters.device_cycles = _seeded_sum(counters.device_cycles, device_cycles)
    counters.kernel_launches += launches


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
      its last read, and its sum is the one it remembers from its
      current contents
      (:meth:`~repro.staging.cache.StagedColumn.remembered_sum`);
    * the misses are staged in one coalesced burst, which installs
      cached replicas for the next query;
    * the kernel streams the column's payload
      (:meth:`~repro.staging.StagingManager.stream`), decoding encoded
      replicas as it reads them.

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
        columns, misses, entries, replicas = staging.stage(
            [(fragment, attribute, width) for fragment in fragments], ctx
        )
        total = 0.0
        for values, replica in zip(columns, replicas):
            if values is not None and len(values):
                total += (
                    float(np.sum(values)) if replica is None else replica.remembered_sum()
                )
        column = staging.stream(fragments, attribute)
        chunks = 1
        if entries is None:
            # The column cannot be cached: stream its payload through a
            # bounce buffer exactly as the pre-cache path did.
            staged_bytes = sum(
                staging.payload_bytes(fragment, attribute) for fragment, __, __ in misses
            )
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
        if column.count:
            with ctx.span(
                f"gpu-reduce({attribute})",
                "kernel",
                elements=column.count,
                chunks=chunks,
            ):
                if chunks == 1:
                    ctx.platform.gpu.reduction_cost(
                        column.count,
                        column.width,
                        ctx.counters,
                        nbytes=column.nbytes,
                        decoded=column.decoded,
                    )
                else:
                    per_chunk = math.ceil(column.count / chunks)
                    _charge_chunked_reduction(ctx, column, per_chunk)
        # Returning the scalar to the host is one tiny device->host copy.
        staging.scheduler.transfer(width, ctx.counters)
    return total
