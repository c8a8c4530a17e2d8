"""Fused device execution: one staged operand set, ONE kernel launch.

The unfused device plan pays, per operator: its own PCIe burst to
stage its input, two kernel launches (the two-pass reduction shape),
and a device↔host round trip for the intermediate position list.  The
fused plan makes the whole chain one cost event:

* the whole operand set is served through
  :meth:`~repro.staging.manager.StagingManager.stage`, which stages
  every missing column in one coalesced DMA burst (one link latency)
  and installs the replicas in the staging cache for the next query;
* the chain runs as one grid-stride kernel
  (:meth:`~repro.hardware.gpu.GPUModel.fused_pipeline_cost`): one
  launch latency, intermediates in registers, no device buffers
  between stages;
* only the final scalar crosses the bus back.

Fault sites keep firing inside the fused path with exactly-once
attribution: the PCIe site fires inside the (retry-wrapped) burst, the
``device.kernel`` site fires inside the single accounted launch, and
injected device-OOM is absorbed by the staging manager's LRU eviction
exactly as on the unfused path.  When the operand set cannot be staged
even after evicting everything, the fused path raises
:class:`~repro.errors.CapacityError` — there is no bounce-buffer
streaming for a fused kernel (its operands must all be resident at
launch), so capacity pressure degrades to the caller's fallback chain
(fused host execution, for CoGaDB).

Like :mod:`repro.fusion.host`, this module must not call the
materializing operators — the lint test holds it to that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CapacityError
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
        columns, misses, entries = staging.stage(requests, ctx)
        if entries is None:
            raise CapacityError(
                f"device memory cannot hold the fused operand set of "
                f"{plan.describe()} ({sum(f.filled * w for f, __, w in misses)}"
                " B); a fused kernel needs every operand resident at launch"
            )
        served = {
            (id(fragment), attribute): values
            for (fragment, attribute, __), values in zip(requests, columns)
        }
        count = sum(
            fragment.filled
            for fragment in layout.fragments_for_attribute(plan.attributes[0])
        )
        if count:
            with ctx.span(
                f"gpu-fused({plan.describe()})",
                "kernel",
                elements=count,
                operands=len(plan.attributes),
            ):
                kernel_cost = ctx.platform.gpu.fused_pipeline_cost(
                    count,
                    widths,
                    ops_per_element=plan.ops_per_element,
                    counters=ctx.counters,
                )
                ctx.note(f"gpu-fused({plan.describe()})", kernel_cost)
        # Returning the scalar to the host is one tiny device->host copy.
        result_cost = staging.scheduler.transfer(8, ctx.counters)
        ctx.note("result-copy", result_cost)

        def values_of(fragment: "Fragment", attribute: str) -> np.ndarray | None:
            return served[(id(fragment), attribute)]

        result, __ = fused_reduce(plan, layout, values_of)
    return result
