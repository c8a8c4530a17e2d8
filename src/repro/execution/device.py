"""Device-side execution: the paper's reduction kernel, K sums at a time.

Reproduces the paper's device configuration: an optimized two-pass
parallel reduction (>= 1024 blocks x 512 threads, final pass 1 block x
1024 threads) over a column, with the host<->device transfer charged —
or not — depending on whether the column is already device-resident
(Figure 2, panels 3 vs. 4).

:func:`run_device_batch` is the one device dispatch for full-column
sums, and :func:`device_sum_column` is its one-query call.  A warm sum
is dominated by fixed costs — two kernel-launch latencies and one
result copy's PCIe latency dwarf the streaming time of a cached column
— so K sums share them:

* every distinct operand column is read through
  :meth:`~repro.staging.StagingManager.stage` (``platform.staging``)
  once: a repeat finds its device replica in the staging cache and pays
  no PCIe beyond a patch of the cells written since the last read, and
  all misses ship in ONE coalesced burst;
* the reductions launch as ONE two-pass grid
  (:meth:`~repro.hardware.gpu.GPUModel.batched_reduction_cost` — two
  launch latencies in all, streaming charged per distinct column on its
  payload, :meth:`~repro.staging.StagingManager.stream`);
* all K scalar answers return in ONE device→host copy.

Each distinct column's answer is summed from the arrays ``stage``
returned, ``float(np.sum(...))`` per fragment in fragment order — the
replica's remembered sum on a hit, while its contents are unchanged —
so a batched answer is byte-identical to the same query run alone, and
the serving verifier byte-compares every one against a serial replay
over the host columns.

Memory pressure is ``stage``'s to decide: an operand set that cannot
be cached crosses uncached through a bounce buffer, and one the device
cannot hold at all raises :class:`~repro.errors.CapacityError`.

Resilience: staging transfers are retried under the context's
:class:`~repro.faults.RetryPolicy`, injected device-OOM is absorbed by
evicting staged replicas (surfacing as
:class:`~repro.errors.DeviceError` only when the cache has nothing to
give back), and any fault that survives the retries propagates so the
calling engine's fallback chain can degrade to the host path (recording
which path actually served the query).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.execution.context import ExecutionContext
from repro.hardware.memory import MemoryKind
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout

__all__ = ["device_sum_column", "is_device_resident", "run_device_batch"]


def is_device_resident(fragment: Fragment) -> bool:
    """Whether a fragment's payload lives in device memory."""
    return fragment.space.kind is MemoryKind.DEVICE


def device_sum_column(layout: Layout, attribute: str, ctx: ExecutionContext) -> float:
    """Sum one attribute on the GPU: :func:`run_device_batch` of one query."""
    return run_device_batch(layout, (attribute,), ctx)[0]


def run_device_batch(
    layout: Layout, attributes: Sequence[str], ctx: ExecutionContext
) -> list[float]:
    """Run K full-column sums as one device dispatch.

    *attributes* names each query's target column (duplicates are the
    common case — repeated analytics on the hot column — and are what
    batching deduplicates).  Returns one answer per entry, in order.

    Cost plane: per **distinct** column, one staging lookup per
    fragment; the written cells of every hit patched with one burst and
    one scatter kernel; all misses staged in one coalesced burst; one
    two-pass reduction for the whole set; one result copy carrying all
    K scalars.  An empty batch or relation returns zeros and charges
    nothing — no burst, no launch, no copy (the zero-size contract).
    Faults that survive the burst's retries, and the
    :class:`~repro.errors.CapacityError` of an operand set the device
    cannot hold, propagate to the caller's fallback chain.
    """
    if not attributes or layout.relation.row_count == 0:
        return [0.0] * len(attributes)
    staging = ctx.platform.staging
    totals = dict.fromkeys(attributes, 0.0)
    label = ",".join(totals)
    requests: list[tuple[Fragment, str, int]] = []
    operands: list[tuple[list[Fragment], str]] = []
    result_width = 0
    for attribute in totals:
        fragments = layout.fragments_for_attribute(attribute)
        width = fragments[0].schema.attribute(attribute).width
        requests += [(fragment, attribute, width) for fragment in fragments]
        operands.append((fragments, attribute))
        result_width += width * attributes.count(attribute)
    with ctx.span(f"device-sum({label})", "operator"):
        columns, replicas = staging.stage(requests, ctx)
        for (__, attribute, __), values, replica in zip(requests, columns, replicas):
            if values is not None and len(values):
                totals[attribute] += (
                    float(np.sum(values)) if replica is None else replica.remembered_sum()
                )
        with ctx.span(f"gpu-reduce({label})", "kernel"):
            ctx.platform.gpu.batched_reduction_cost(
                [staging.stream(*operand) for operand in operands], ctx.counters
            )
        # All K scalars come home in one device->host copy.
        staging.scheduler.transfer(result_width, ctx.counters)
    return [totals[attribute] for attribute in attributes]
