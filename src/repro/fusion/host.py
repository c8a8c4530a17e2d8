"""Fused host execution: one traversal, no intermediate position list.

The unfused host plan runs ``filter_scan`` (full traversal of the scan
column, materializing a global position list) and then
``sum_at_positions``/``aggregate_at_positions`` (one **random** point
access per matching row of the aggregated column).  The fused plan
streams each referenced column exactly once — predicate, projection
and reduction happen in the same vectorized pass — so the random-access
tax and the position-list materialization disappear; at selectivity
``s`` over ``n`` rows that replaces ``s·n`` cache-missing point reads
with one extra sequential column scan.

The data plane is written so every per-fragment partial is the *same
numpy expression over the same element order* as the oracle's
(``values[mask]`` enumerates matches in ascending local order, exactly
like ``column[ascending_locals]``), and partials are folded with the
shared :func:`~repro.execution.operators.combine_partials` — which is
what makes fused results byte-identical, not merely close.

This module must not call the materializing operators
(``filter_scan``, ``sum_at_positions``, ``aggregate_column``, ...);
``tests/fusion/test_lint_fused_paths.py`` enforces that, so the fused
path can never silently degrade into the unfused one.  The pure
costing helper ``column_scan_cost`` and the shared combine helpers are
the only imports from the operator module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.errors import FusionError
from repro.execution.operators import (
    ADD_CYCLES_PER_VALUE,
    CALL_OVERHEAD_CYCLES,
    PREDICATE_CYCLES_PER_VALUE,
    aggregate_reducer,
    column_scan_cost,
    combine_partials,
)
from repro.obs.tracer import LAYER_FUSED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext
    from repro.fusion.compiler import FusedPipeline
    from repro.layout.fragment import Fragment
    from repro.layout.layout import Layout

__all__ = ["run_fused_host", "vector_pass", "DEFAULT_VECTOR_SIZE"]

#: Positions/values per vector of the bulk processing model (moved here
#: from ``execution.bulk`` so there is exactly one vector-at-a-time
#: code path; ``bulk`` re-exports it).
DEFAULT_VECTOR_SIZE = 1024


def _fragment_values(fragment: "Fragment", attribute: str) -> np.ndarray | None:
    """Host accessor: the fragment's own column (None for phantoms)."""
    return None if fragment.is_phantom else fragment.column(attribute)


def match_mask(
    plan: "FusedPipeline",
    layout: "Layout",
    values_of: Callable[["Fragment", str], np.ndarray | None],
) -> np.ndarray | None:
    """Global boolean match mask over the relation's rows (None: no filter).

    Evaluates the predicate per scan fragment — the same vectorized
    call, over the same value arrays, as ``filter_scan`` — but keeps
    the result as a mask instead of materializing a position list.
    """
    if plan.filter is None:
        return None
    mask = np.zeros(layout.relation.row_count, dtype=bool)
    for fragment in layout.fragments_for_attribute(plan.scan_attribute):
        values = values_of(fragment, plan.scan_attribute)
        if values is None:
            raise FusionError(
                f"{fragment.label}: fused filters are data-dependent and "
                "cannot run on phantom fragments"
            )
        if len(values) == 0:
            continue
        fragment_mask = np.asarray(plan.filter.predicate(values), dtype=bool)
        if fragment_mask.shape != values.shape:
            raise FusionError(
                f"predicate returned shape {fragment_mask.shape} for "
                f"{values.shape} values"
            )
        start = fragment.region.rows.start
        mask[start : start + len(values)] = fragment_mask
    return mask


def fused_reduce(
    plan: "FusedPipeline",
    layout: "Layout",
    values_of: Callable[["Fragment", str], np.ndarray | None],
) -> tuple[Any, int]:
    """Shared fused data plane: ``(result, aggregated_row_count)``.

    Used by both the host executor (fragment-backed values) and the
    device executor (staged-replica values).  Per aggregated fragment,
    in fragment order: select by the mask slice, apply projections,
    reduce — then fold the partials exactly as the oracle does.
    """
    reducer, __ = aggregate_reducer(plan.op)
    mask = match_mask(plan, layout, values_of)
    partials: list[Any] = []
    counts: list[int] = []
    aggregated = 0
    for fragment in layout.fragments_for_attribute(plan.aggregate_attribute):
        values = values_of(fragment, plan.aggregate_attribute)
        if values is None:
            continue  # phantom: cost-only fragment, no payload to reduce
        if mask is None:
            selected = values
        else:
            start = fragment.region.rows.start
            selected = values[mask[start : start + len(values)]]
        if len(selected) == 0:
            continue
        for project in plan.projects:
            selected = np.asarray(project.fn(selected))
        partials.append(reducer(selected))
        counts.append(len(selected))
        aggregated += len(selected)
    return _combine(plan, partials, counts), aggregated


def _combine(
    plan: "FusedPipeline", partials: Sequence[Any], counts: Sequence[int]
) -> Any:
    """Fold per-fragment partials with the oracle's exact float ops.

    The filtered-sum oracle (``sum_at_positions``) accumulates with a
    strict left-to-right ``total += float(partial)``; every other shape
    goes through :func:`~repro.execution.operators.combine_partials`
    (the ``aggregate_column`` combine).  Matching the fold per shape is
    part of the byte-identity contract.
    """
    if plan.filter is not None and plan.op == "sum" and not plan.projects:
        total = 0.0
        for partial in partials:
            total += float(partial)
        return total
    return combine_partials(plan.op, partials, counts)


def run_fused_host(
    plan: "FusedPipeline", layout: "Layout", ctx: "ExecutionContext"
) -> Any:
    """Execute *plan* over *layout* in one fused vectorized host pass.

    Cost plane: one :func:`column_scan_cost` traversal per distinct
    referenced attribute (the memory side plus any decode cycles), the
    predicate's ALU cycles per scanned row, and projection+reduce ALU
    cycles per *matching* row only — no random accesses, no position
    list.  An empty relation returns the aggregate's identity and
    charges nothing (the zero-size contract).
    """
    if layout.relation.row_count == 0:
        return plan.identity
    result, aggregated = fused_reduce(plan, layout, _fragment_values)
    memory = 0.0
    compute = 0.0
    scan_rows = 0
    for attribute in plan.attributes:
        for fragment in layout.fragments_for_attribute(attribute):
            fragment_memory, fragment_compute = column_scan_cost(
                fragment, attribute, ctx
            )
            memory += fragment_memory
            # column_scan_cost's compute term is ADD-per-value plus any
            # decode cycles; the fused pass does its own ALU accounting,
            # so only the decode portion carries over.
            compute += fragment_compute - fragment.filled * ADD_CYCLES_PER_VALUE
            if attribute == plan.scan_attribute:
                scan_rows += fragment.filled
    if plan.filter is not None:
        compute += scan_rows * PREDICATE_CYCLES_PER_VALUE
    per_value = ADD_CYCLES_PER_VALUE + sum(
        project.cycles_per_value for project in plan.projects
    )
    compute += aggregated * per_value
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=memory,
        threads=ctx.threading.threads,
    )
    with ctx.span(
        f"fused({plan.describe()})",
        LAYER_FUSED,
        placement="host",
        rows=layout.relation.row_count,
        matches=aggregated,
    ):
        ctx.counters.cycles += cycles
    return result


def vector_pass(
    layout: "Layout",
    attribute: str,
    stages: Sequence[tuple[str, Callable[[np.ndarray], np.ndarray], float]],
    ctx: "ExecutionContext",
    vector_size: int = DEFAULT_VECTOR_SIZE,
) -> np.ndarray:
    """The single vector-at-a-time host data path (the bulk model core).

    Moves vectors of ``vector_size`` values through the ``(name, fn,
    cycles_per_value)`` *stages*, charging the scan's data-access cost,
    each stage's per-value compute, and one interface-call overhead per
    (stage, vector) pair — the exact historical
    :meth:`~repro.execution.bulk.BulkPipeline.collect` charge sequence,
    which now lives here so the bulk wrappers and the fusion layer
    share one implementation.
    """
    if vector_size < 1:
        raise FusionError(f"vector_size must be >= 1, got {vector_size}")
    outputs: list[np.ndarray] = []
    memory = 0.0
    compute = 0.0
    vectors = 0
    for fragment in layout.fragments_for_attribute(attribute):
        values = (
            np.empty(0) if fragment.is_phantom else fragment.column(attribute)
        )
        fragment_memory, fragment_compute = column_scan_cost(
            fragment, attribute, ctx
        )
        memory += fragment_memory
        compute += fragment_compute
        for start in range(0, len(values), vector_size):
            vector = values[start : start + vector_size]
            vectors += 1
            for __, stage, cycles_per_value in stages:
                vector = np.asarray(stage(vector))
                compute += len(vector) * cycles_per_value
            outputs.append(vector)
    overhead = vectors * (len(stages) + 1) * CALL_OVERHEAD_CYCLES
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute + overhead,
        memory_cycles=memory,
        threads=ctx.threading.threads,
    )
    ctx.counters.cycles += cycles
    if not outputs:
        return np.empty(0)
    return np.concatenate(outputs)
