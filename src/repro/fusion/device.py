"""Fused device execution: one staged operand set, ONE kernel launch.

The unfused device plan pays, per operator: its own PCIe burst to
stage its input, two kernel launches (the two-pass reduction shape),
and a device↔host round trip for the intermediate position list.  The
fused plan makes the whole chain one cost event:

* the whole operand set is served through
  :meth:`~repro.staging.manager.StagingManager.stage`, which stages
  every missing column in one coalesced DMA burst (one link latency)
  and installs the replicas in the staging cache for the next query —
  or, when they cannot be cached, ships them uncached through a bounce
  buffer that holds every operand at launch;
* the chain runs as one grid-stride kernel
  (:meth:`~repro.hardware.gpu.GPUModel.fused_pipeline_cost`): one
  launch latency, intermediates in registers, no device buffers
  between stages, every operand streamed as its payload and decoded
  in registers when encoded;
* only the final scalar crosses the bus back.

When every operand was served by a staged replica, the answer is the
one those replicas remember for the plan
(:meth:`~repro.staging.cache.StagedColumn.remembered_answer`): the
first operand's replica holds it, keyed on the plan's stages (by
identity, so a stage function is taken to be pure) and on the other
replicas' content stamps, so any patch or re-staging of an operand
recomputes it.  Every charge above is made either way.

Fault sites keep firing inside the fused path with exactly-once
attribution: the PCIe site fires inside the (retry-wrapped) burst, the
``device.kernel`` site fires inside the single accounted launch, and
injected device-OOM is absorbed by the staging manager's LRU eviction
exactly as on the unfused path.  An operand set the device cannot hold
at all raises :class:`~repro.errors.CapacityError` from ``stage``, as
for every device operator, and degrades to the caller's fallback chain
(fused host execution, for CoGaDB).

Like :mod:`repro.fusion.host`, this module must not call the
materializing operators — the lint test holds it to that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.fusion.host import fused_reduce
from repro.obs.tracer import LAYER_FUSED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext
    from repro.fusion.compiler import FusedPipeline
    from repro.layout.fragment import Fragment
    from repro.layout.layout import Layout

__all__ = ["run_fused_device"]


def run_fused_device(
    plan: "FusedPipeline", layout: "Layout", ctx: "ExecutionContext"
) -> Any:
    """Execute *plan* on the device as one fused cost event.

    The operand set — every (attribute, fragment) the plan reads, in
    that order — goes through one
    :meth:`~repro.staging.manager.StagingManager.stage` call:
    device-resident fragments serve directly, fresh staging-cache
    replicas serve with a hit tally, and every miss across **all**
    attributes is staged in a single burst.

    An empty relation returns the aggregate's identity and charges
    nothing — no burst, no launch (the zero-size contract).
    """
    if layout.relation.row_count == 0:
        return plan.identity
    staging = ctx.platform.staging
    schema = layout.relation.schema
    widths = tuple(
        schema.attribute(attribute).width for attribute in plan.attributes
    )
    with ctx.span(
        f"fused({plan.describe()})",
        LAYER_FUSED,
        placement="device",
        rows=layout.relation.row_count,
        operands=len(plan.attributes),
    ):
        requests = [
            (fragment, attribute, width)
            for attribute, width in zip(plan.attributes, widths)
            for fragment in layout.fragments_for_attribute(attribute)
        ]
        columns, replicas = staging.stage(requests, ctx)
        served = {
            (id(fragment), attribute): values
            for (fragment, attribute, __), values in zip(requests, columns)
        }
        streams = [
            staging.stream(layout.fragments_for_attribute(attribute), attribute)
            for attribute in plan.attributes
        ]
        count = streams[0].count
        if count:
            with ctx.span(
                f"gpu-fused({plan.describe()})",
                "kernel",
                elements=count,
                operands=len(plan.attributes),
            ):
                ctx.platform.gpu.fused_pipeline_cost(
                    count,
                    [stream.width for stream in streams],
                    ops_per_element=plan.ops_per_element,
                    counters=ctx.counters,
                    nbytes=sum(stream.nbytes for stream in streams),
                    decoded=sum(stream.decoded for stream in streams),
                )
        # Returning the scalar to the host is one tiny device->host copy.
        staging.scheduler.transfer(8, ctx.counters)

        def values_of(fragment: "Fragment", attribute: str) -> np.ndarray | None:
            return served[(id(fragment), attribute)]

        def compute() -> Any:
            return fused_reduce(plan, layout, values_of)[0]

        if all(replica is not None and replica.values is not None for replica in replicas):
            # Every operand is a staged replica: the answer is the first
            # one's to remember, keyed on the plan's stages and the
            # other replicas' content stamps.
            result = replicas[0].remembered_answer(
                ("fused", plan.scan_attribute, plan.op, plan.aggregate_attribute),
                compute,
                anchors=plan.stages,
                stamps=tuple(replica.stamp for replica in replicas[1:]),
            )
        else:
            result = compute()
    return result
