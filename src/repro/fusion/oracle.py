"""The unfused oracle: materializing operator chains for every plan.

Fused execution is an optimization, never a semantics change — so the
pre-fusion operator chain stays as the always-on correctness oracle.
``run_unfused_host`` composes the classic operators exactly as engine
code did before the compiler existed (``aggregate_column`` for
filterless plans, ``filter_scan`` + ``sum_at_positions`` for the
filtered-sum shape, and the generalized
:func:`aggregate_at_positions` for the rest), and
``run_unfused_device`` models the per-operator device tax the fused
path removes:

* one :meth:`~repro.staging.manager.StagingManager.stage` call, and
  so one PCIe burst, **per operator input** (scan column, then
  aggregate column) instead of one burst for the set;
* a two-launch selection kernel that writes a position buffer, then a
  gather kernel plus the two-pass reduction — five launches where the
  fused plan pays one (the selection streams the scan column's payload
  and the gather decodes what it gathers, as
  :meth:`~repro.staging.StagingManager.stream` prices them);
* the intermediate position list crossing the bus **twice** (device →
  host → device), the materialization round trip the paper's data-path
  argument is about.

Every kernel-pricing formula is exposed as a pure helper so HyPE's
pipeline cost features (:mod:`repro.fusion.costs`) predict with the
same expressions the executors charge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.execution.operators import (
    ADD_CYCLES_PER_VALUE,
    _positions_by_fragment,
    aggregate_column,
    aggregate_reducer,
    combine_partials,
    filter_scan,
    sum_at_positions,
)
from repro.hardware.event import Cycles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext
    from repro.fusion.compiler import FusedPipeline
    from repro.hardware.gpu import GPUModel
    from repro.layout.layout import Layout
    from repro.staging.manager import Stream

__all__ = [
    "run_unfused_host",
    "run_unfused_device",
    "aggregate_at_positions",
    "POSITION_WIDTH",
    "DEVICE_GATHER_BYTES",
    "select_kernel_cycles",
    "gather_kernel_cycles",
]

#: Bytes per materialized position (int64 row ids on the wire).
POSITION_WIDTH = 8

#: Effective global-memory traffic per scattered gather on the device —
#: an uncoalesced access drags a 32-byte sector regardless of the
#: element width, which is why gather-heavy unfused plans lose.
DEVICE_GATHER_BYTES = 32


# ----------------------------------------------------------------------
# Host oracle
# ----------------------------------------------------------------------
def run_unfused_host(
    plan: "FusedPipeline", layout: "Layout", ctx: "ExecutionContext"
) -> Any:
    """The materializing host chain for *plan* (the correctness oracle)."""
    if plan.filter is None:
        return aggregate_column(layout, plan.aggregate_attribute, plan.op, ctx)
    positions = filter_scan(
        layout, plan.scan_attribute, plan.filter.predicate, ctx
    )
    if plan.op == "sum" and not plan.projects:
        return sum_at_positions(
            layout, plan.aggregate_attribute, positions, ctx
        )
    return aggregate_at_positions(plan, layout, positions, ctx)


def aggregate_at_positions(
    plan: "FusedPipeline",
    layout: "Layout",
    positions: "list[int]",
    ctx: "ExecutionContext",
) -> Any:
    """Record-centric oracle tail: project + reduce at a position list.

    Generalizes ``sum_at_positions`` to every supported reducer and to
    projection chains, with the same cost structure — one random point
    access per position, ALU cycles per value — and the same
    per-fragment partial construction the fused data plane mirrors.
    """
    reducer, identity = aggregate_reducer(plan.op)
    fragments = layout.fragments_for_attribute(plan.aggregate_attribute)
    model = ctx.platform.memory_model
    per_value = ADD_CYCLES_PER_VALUE + sum(
        project.cycles_per_value for project in plan.projects
    )
    partials: list[Any] = []
    counts: list[int] = []
    latency: Cycles = 0.0
    compute: Cycles = 0.0
    for fragment, local in _positions_by_fragment(fragments, positions):
        width = fragment.schema.attribute(plan.aggregate_attribute).width
        if not fragment.is_phantom:
            values = fragment.column(plan.aggregate_attribute)[
                np.asarray(local, dtype=np.int64)
            ]
            for project in plan.projects:
                values = np.asarray(project.fn(values))
            partials.append(reducer(values))
            counts.append(len(local))
        latency += model.random(
            count=len(local), touched=width, footprint=fragment.nbytes
        )
        compute += len(local) * per_value
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=0.0,
        threads=ctx.threading.threads,
        latency_bound_cycles=latency,
    )
    with ctx.span(
        f"{plan.op}({plan.aggregate_attribute})@positions",
        "operator",
        rows=len(positions),
    ):
        ctx.counters.cycles += cycles
    if not partials:
        return identity
    return combine_partials(plan.op, partials, counts)


# ----------------------------------------------------------------------
# Device oracle
# ----------------------------------------------------------------------
def select_kernel_cycles(gpu: "GPUModel", scan: "Stream", matches: int) -> Cycles:
    """Host cycles of the unfused selection kernel (pure).

    Streams the scan column's payload (decoding encoded elements),
    writes the compacted position buffer — predicate pass plus a
    compaction pass, so two launches, like the two-pass reduction
    shape the paper's device uses.
    """
    if scan.count == 0:
        return 0.0
    seconds = gpu.streaming_kernel_seconds(
        nbytes=scan.nbytes + matches * POSITION_WIDTH,
        ops=scan.count * 2 + scan.decoded,
    )
    return gpu.seconds_to_host_cycles(seconds) + 2 * gpu.launch_latency_cycles


def gather_kernel_cycles(
    gpu: "GPUModel", aggregate: "Stream", matches: int, n_projects: int
) -> Cycles:
    """Host cycles of the unfused gather(+project) kernel (pure).

    One launch reading the position buffer and gathering the aggregate
    column's values at scattered offsets (32-byte sectors per element),
    decoding the gathered elements' share of the column's encoded ones.
    """
    if matches == 0:
        return 0.0
    seconds = gpu.streaming_kernel_seconds(
        nbytes=matches * (POSITION_WIDTH + DEVICE_GATHER_BYTES),
        ops=matches * (1 + n_projects) + matches * aggregate.decoded // aggregate.count,
    )
    return gpu.seconds_to_host_cycles(seconds) + gpu.launch_latency_cycles


def _serve_column(
    layout: "Layout", attribute: str, width: int, ctx: "ExecutionContext"
) -> dict[int, np.ndarray | None]:
    """Serve ONE operator's input column: its own stage call and burst.

    This is the per-step staging discipline of the unfused plan — each
    operator stages its own input with its own burst (one link latency
    *per operator*), which is exactly the overhead one operand set
    removes for fused plans.  Memory pressure is ``stage``'s, as for
    every device operator.
    """
    fragments = layout.fragments_for_attribute(attribute)
    columns, __ = ctx.platform.staging.stage(
        [(fragment, attribute, width) for fragment in fragments], ctx
    )
    return {id(fragment): values for fragment, values in zip(fragments, columns)}


def run_unfused_device(
    plan: "FusedPipeline", layout: "Layout", ctx: "ExecutionContext"
) -> Any:
    """The per-operator device chain for *plan* (the device oracle)."""
    from repro.execution.device import device_sum_column

    if layout.relation.row_count == 0:
        return aggregate_reducer(plan.op)[1]
    if plan.filter is None and plan.op == "sum" and not plan.projects:
        # A plain column sum is the one device dispatch for sums.
        return device_sum_column(layout, plan.aggregate_attribute, ctx)
    if plan.filter is None:
        return _device_aggregate_unfiltered(plan, layout, ctx)
    return _device_filtered(plan, layout, ctx)


def _device_aggregate_unfiltered(
    plan: "FusedPipeline", layout: "Layout", ctx: "ExecutionContext"
) -> Any:
    """Stage + two-pass reduction for a filterless non-sum aggregate."""
    gpu = ctx.platform.gpu
    attribute = plan.aggregate_attribute
    width = layout.relation.schema.attribute(attribute).width
    reducer, identity = aggregate_reducer(plan.op)
    with ctx.span(f"device-{plan.op}({attribute})", "operator"):
        served = _serve_column(layout, attribute, width, ctx)
        partials: list[Any] = []
        counts: list[int] = []
        fragments = layout.fragments_for_attribute(attribute)
        for fragment in fragments:
            values = served[id(fragment)]
            if values is None or len(values) == 0:
                continue
            partials.append(reducer(values))
            counts.append(len(values))
        column = ctx.platform.staging.stream(fragments, attribute)
        if column.count:
            with ctx.span(
                f"gpu-reduce({attribute})", "kernel", elements=column.count
            ):
                gpu.reduction_cost(
                    column.count,
                    column.width,
                    ctx.counters,
                    nbytes=column.nbytes,
                    decoded=column.decoded,
                )
        ctx.platform.staging.scheduler.transfer(POSITION_WIDTH, ctx.counters)
    if not partials:
        return identity
    return combine_partials(plan.op, partials, counts)


def _device_filtered(
    plan: "FusedPipeline", layout: "Layout", ctx: "ExecutionContext"
) -> Any:
    """Selection kernel → position round trip → gather + reduction.

    The three cost events the fused kernel collapses into one: every
    operator stages its own input, launches its own kernels, and the
    intermediate position list is materialized across the bus twice.
    """
    gpu = ctx.platform.gpu
    staging = ctx.platform.staging
    scheduler = staging.scheduler
    schema = layout.relation.schema
    scan_width = schema.attribute(plan.scan_attribute).width
    agg_width = schema.attribute(plan.aggregate_attribute).width
    scan_fragments = layout.fragments_for_attribute(plan.scan_attribute)
    agg_fragments = layout.fragments_for_attribute(plan.aggregate_attribute)
    with ctx.span(
        f"device-unfused({plan.describe()})",
        "operator",
        rows=layout.relation.row_count,
    ):
        # Operator 1: selection. Stages the scan column (its own burst),
        # evaluates the predicate, compacts matching positions on-device.
        scan_served = _serve_column(layout, plan.scan_attribute, scan_width, ctx)
        mask_parts: list[tuple[int, np.ndarray]] = []
        for fragment in scan_fragments:
            values = scan_served[id(fragment)]
            if values is None or len(values) == 0:
                continue
            fragment_mask = np.asarray(
                plan.filter.predicate(values), dtype=bool
            )
            start = fragment.region.rows.start
            mask_parts.append((start, fragment_mask))
        positions: list[int] = []
        for start, fragment_mask in mask_parts:
            positions.extend(
                int(index) + start for index in np.nonzero(fragment_mask)[0]
            )
        matches = len(positions)
        scan = staging.stream(scan_fragments, plan.scan_attribute)
        if scan.count:
            with ctx.span(
                f"gpu-select({plan.scan_attribute})", "kernel", elements=scan.count
            ):
                kernel = select_kernel_cycles(gpu, scan, matches)
                ctx.counters.cycles += kernel
                ctx.counters.kernel_launches += 2
                ctx.counters.device_cycles += (
                    (kernel - 2 * gpu.launch_latency_cycles)
                    / gpu.host_frequency_hz
                ) * gpu.clock_hz
        # The intermediate's materialization tax: the position list
        # crosses the bus twice (device -> host for the optimizer/next
        # operator, host -> device for the gather).
        if matches:
            scheduler.transfer(matches * POSITION_WIDTH, ctx.counters)
            scheduler.transfer(matches * POSITION_WIDTH, ctx.counters)
        # Operator 2: gather + project + reduce. Stages the aggregate
        # column with a SECOND burst, gathers at scattered offsets, then
        # runs the two-pass reduction over the gathered buffer.
        agg_served = _serve_column(
            layout, plan.aggregate_attribute, agg_width, ctx
        )
        aggregate = staging.stream(agg_fragments, plan.aggregate_attribute)
        if matches:
            with ctx.span(
                f"gpu-gather({plan.aggregate_attribute})",
                "kernel",
                elements=matches,
            ):
                kernel = gather_kernel_cycles(
                    gpu, aggregate, matches, len(plan.projects)
                )
                ctx.counters.cycles += kernel
                ctx.counters.kernel_launches += 1
                ctx.counters.device_cycles += (
                    (kernel - gpu.launch_latency_cycles) / gpu.host_frequency_hz
                ) * gpu.clock_hz
            with ctx.span(
                f"gpu-reduce({plan.aggregate_attribute})",
                "kernel",
                elements=matches,
            ):
                gpu.reduction_cost(matches, aggregate.width, ctx.counters)
        scheduler.transfer(POSITION_WIDTH, ctx.counters)
        # Data plane: identical partial construction to the host oracle
        # (and therefore to the fused plane), values served from the
        # replicas that would live on the device.
        reducer, identity = aggregate_reducer(plan.op)
        partials: list[Any] = []
        counts: list[int] = []
        for fragment, local in _positions_by_fragment(agg_fragments, positions):
            values = agg_served[id(fragment)]
            if values is None:
                continue
            selected = values[np.asarray(local, dtype=np.int64)]
            for project in plan.projects:
                selected = np.asarray(project.fn(selected))
            partials.append(reducer(selected))
            counts.append(len(local))
    if plan.op == "sum" and not plan.projects:
        total = 0.0
        for partial in partials:
            total += float(partial)
        return total
    if not partials:
        return identity
    return combine_partials(plan.op, partials, counts)
