"""The GPU batch path: K compatible device queries, one shared ride.

A warm full-column sum on the simulated device is dominated by fixed
costs: two kernel-launch latencies and one result copy's PCIe latency
dwarf the actual streaming time of a cached column.  Serial dispatch
pays those fixed costs **per query**; :func:`run_device_batch` pays
them **per batch**:

* every distinct operand column is probed in the staging cache once,
  and all misses ship in ONE coalesced PCIe burst
  (:meth:`~repro.staging.StagingManager.stage` — one link latency for
  the whole operand set; replicas with pending writes share one patch
  burst and one scatter kernel);
* the reductions launch as ONE batched two-pass grid
  (:meth:`~repro.hardware.gpu.GPUModel.batched_reduction_cost` — two
  launch latencies total, streaming charged per distinct column on its
  payload, :meth:`~repro.staging.StagingManager.stream`);
* all K scalar answers return in ONE device→host copy.

The data plane is deliberately identical to the serial path: each
distinct column's answer is summed from the arrays
:meth:`~repro.staging.StagingManager.stage` returned — the device
replica on a hit, whose sum the replica remembers while its contents
are unchanged — accumulating ``float(np.sum(...))`` per fragment in
fragment order, exactly as
:func:`~repro.execution.device.device_sum_column` does.  Batching is a
cost-plane optimization, never a semantics change, and the serving
verifier byte-compares every batched answer against a serial replay
over the host columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.layout.fragment import Fragment
from repro.layout.layout import Layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext

__all__ = ["run_device_batch"]


def run_device_batch(
    layout: Layout, attributes: Sequence[str], ctx: "ExecutionContext"
) -> list[float]:
    """Run K full-column sums as one batched device dispatch.

    *attributes* names each query's target column (duplicates are the
    common case — repeated analytics on the hot column — and are what
    batching deduplicates).  Returns one answer per entry, in order.

    Cost plane: per **distinct** column, one staging lookup per
    fragment; the written cells of every hit patched with one burst and
    one scatter kernel; all misses staged in one coalesced burst
    (falling back to one uncached burst of the same bytes when the
    replicas cannot be cached); one batched two-pass reduction for the
    whole set; one result copy carrying all K scalars.  Fault behaviour matches the
    serial path: the burst retries under ``ctx.retry`` and surviving
    faults propagate to the caller's fallback chain.
    """
    if not attributes:
        return []
    staging = ctx.platform.staging
    distinct = list(dict.fromkeys(attributes))
    with ctx.span(
        "device-batch-sum",
        "operator",
        queries=len(attributes),
        columns=len(distinct),
    ):
        requests: list[tuple[Fragment, str, int]] = []
        operands: list[tuple[list[Fragment], str]] = []
        result_width = 0
        for attribute in distinct:
            fragments = layout.fragments_for_attribute(attribute)
            if not fragments:
                continue
            width = fragments[0].schema.attribute(attribute).width
            requests += [(fragment, attribute, width) for fragment in fragments]
            operands.append((fragments, attribute))
            result_width += width * attributes.count(attribute)
        columns, misses, entries, replicas = staging.stage(requests, ctx)
        totals = dict.fromkeys(distinct, 0.0)
        for (__, attribute, __), values, replica in zip(requests, columns, replicas):
            if values is not None and len(values):
                totals[attribute] += (
                    float(np.sum(values)) if replica is None else replica.remembered_sum()
                )
        if entries is None:
            # The operand set cannot be cached even after eviction: ship
            # the same bytes uncached (same wire time, no replicas
            # installed for the next batch).
            staging.transfer_uncached(misses, ctx)
        if operands:
            with ctx.span(
                "gpu-batch-reduce", "kernel", columns=len(operands)
            ):
                ctx.platform.gpu.batched_reduction_cost(
                    [staging.stream(*operand) for operand in operands],
                    ctx.counters,
                )
        # All K scalars come home in one device->host copy.
        staging.scheduler.transfer(max(result_width, 1), ctx.counters)
    return [totals[attribute] for attribute in attributes]
