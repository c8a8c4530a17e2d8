"""Pure pipeline cost predictors — HyPE's fused-operator features.

``predicted_route_costs`` prices one plan on the four routes CoGaDB's
scheduler chooses between — ``fused-cpu``, ``unfused-cpu``,
``fused-gpu``, ``unfused-gpu`` — from the platform's analytic models
and the filter's selectivity hint, with **zero side effects**: no
counters, no fault draws, no staging-cache mutations.  Transfer terms
are cache-aware through
:meth:`~repro.staging.manager.StagingManager.predicted_transfer_cost`
(a column with a fresh device replica predicts 0 PCIe), every device
term prices the bytes
:meth:`~repro.staging.manager.StagingManager.stream` says a column's
device copy holds, and the kernel terms reuse the exact pricing
helpers the executors charge with, so a calibrated prediction tracks
the measurement instead of a parallel formula drifting from it.

The interesting physics the features capture: the unfused host path's
``random(matches)`` term grows linearly with selectivity while the
fused path pays one extra sequential scan regardless — so unfused wins
at very low selectivity and fusion wins everywhere else, a crossover
HyPE must rank correctly (the A10 driver asserts this on every cell
of its grid).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.execution.operators import (
    ADD_CYCLES_PER_VALUE,
    PREDICATE_CYCLES_PER_VALUE,
)
from repro.fusion.oracle import (
    POSITION_WIDTH,
    gather_kernel_cycles,
    select_kernel_cycles,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fusion.compiler import FusedPipeline
    from repro.hardware.platform import Platform
    from repro.layout.layout import Layout

__all__ = ["PIPELINE_ROUTES", "predicted_route_costs"]

#: The four placements HyPE ranks a pipeline across.
PIPELINE_ROUTES = ("fused-cpu", "unfused-cpu", "fused-gpu", "unfused-gpu")


def _predicted_column_transfer(
    layout: "Layout", attribute: str, platform: "Platform"
) -> float:
    """Cache- and residency-aware PCIe prediction for one column (pure)."""
    from repro.execution.device import is_device_resident

    total = 0.0
    for fragment in layout.fragments_for_attribute(attribute):
        if is_device_resident(fragment) or fragment.filled == 0:
            continue
        total += platform.staging.predicted_transfer_cost(fragment, attribute)
    return total


def predicted_route_costs(
    plan: "FusedPipeline",
    layout: "Layout",
    platform: "Platform",
    selectivity: float | None = None,
) -> dict[str, float]:
    """Uncalibrated predicted cycles for every route in PIPELINE_ROUTES.

    *selectivity* overrides the plan's ``selectivity_hint`` (engines
    pass better estimates when they have them); filterless plans always
    aggregate every row.
    """
    schema = layout.relation.schema
    count = layout.relation.row_count
    model = platform.memory_model
    gpu = platform.gpu
    scheduler = platform.staging.scheduler
    scan_width = schema.attribute(plan.scan_attribute).width
    agg_width = schema.attribute(plan.aggregate_attribute).width
    if plan.filter is None:
        matches = count
    else:
        if selectivity is None:
            selectivity = plan.filter.selectivity_hint
        matches = int(count * selectivity)
    per_value = ADD_CYCLES_PER_VALUE + sum(
        project.cycles_per_value for project in plan.projects
    )
    widths = tuple(schema.attribute(a).width for a in plan.attributes)

    # --- host routes -------------------------------------------------
    fused_cpu = sum(model.sequential(count * width) for width in widths)
    if plan.filter is not None:
        fused_cpu += count * PREDICATE_CYCLES_PER_VALUE
    fused_cpu += matches * per_value

    if plan.filter is None:
        unfused_cpu = model.sequential(count * agg_width) + count * ADD_CYCLES_PER_VALUE
    else:
        unfused_cpu = (
            model.sequential(count * scan_width)
            + count * PREDICATE_CYCLES_PER_VALUE
            + model.random(
                count=matches, touched=agg_width, footprint=count * agg_width
            )
            + matches * per_value
        )

    # --- device routes -----------------------------------------------
    # Every operand is priced on the bytes its device copy holds.
    streams = {
        attribute: platform.staging.stream(
            layout.fragments_for_attribute(attribute), attribute
        )
        for attribute in plan.attributes
    }
    aggregate = streams[plan.aggregate_attribute]
    operand_transfers = sum(
        _predicted_column_transfer(layout, attribute, platform)
        for attribute in plan.attributes
    )
    result_copy = scheduler.predicted_cost(POSITION_WIDTH)
    fused_gpu = (
        operand_transfers
        + (
            gpu.fused_pipeline_cost(
                count,
                [stream.width for stream in streams.values()],
                ops_per_element=plan.ops_per_element,
                nbytes=sum(stream.nbytes for stream in streams.values()),
                decoded=sum(stream.decoded for stream in streams.values()),
            )
            if count
            else 0.0
        )
        + result_copy
    )

    if plan.filter is None:
        unfused_gpu = (
            _predicted_column_transfer(layout, plan.aggregate_attribute, platform)
            + gpu.reduction_cost(
                aggregate.count,
                aggregate.width,
                nbytes=aggregate.nbytes,
                decoded=aggregate.decoded,
            )
            + result_copy
        )
    else:
        # Per-operator staging: the same column set, but the aggregate
        # column's burst is a second link latency — and when scan and
        # aggregate are the same column, operator 2 hits the replica
        # operator 1 just staged, so its transfer predicts to zero.
        unfused_gpu = (
            operand_transfers
            + select_kernel_cycles(gpu, streams[plan.scan_attribute], matches)
            + gather_kernel_cycles(gpu, aggregate, matches, len(plan.projects))
            + gpu.reduction_cost(matches, aggregate.width)
            + result_copy
        )
        if matches:
            unfused_gpu += 2 * scheduler.predicted_cost(matches * POSITION_WIDTH)

    return {
        "fused-cpu": fused_cpu,
        "unfused-cpu": unfused_cpu,
        "fused-gpu": fused_gpu,
        "unfused-gpu": unfused_gpu,
    }
