"""Relational operators with a data plane and a cost plane.

Every operator does two things at once:

* **data plane** — computes the correct answer from the fragments'
  numpy arrays (so tests can assert results, not just costs);
* **cost plane** — charges the execution context the cycles the access
  pattern would cost on the simulated platform, respecting the
  fragment's linearization (NSM scans are strided, DSM scans are
  sequential streams, point accesses are random) and the context's
  threading policy.

Join processing is deliberately absent: the paper excludes join costs
("we consider costs starting right after the output (i.e., sorted
position lists) of the last directly preceding join operator is
available"), so operators here accept position lists directly.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.hardware.event import Cycles
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind

__all__ = [
    "sum_column",
    "aggregate_column",
    "aggregate_reducer",
    "combine_partials",
    "sum_at_positions",
    "materialize_rows",
    "filter_scan",
    "update_field",
    "column_scan_cost",
]

#: ALU cycles to add one value into an accumulator (scalar, no SIMD).
ADD_CYCLES_PER_VALUE: Cycles = 1.0
#: ALU cycles to copy one field during materialization.
COPY_CYCLES_PER_FIELD: Cycles = 2.0
#: ALU cycles to evaluate one predicate during a filter scan.
PREDICATE_CYCLES_PER_VALUE: Cycles = 2.0


def _is_row_major(fragment: Fragment) -> bool:
    """Whether consecutive bytes in the fragment belong to one tuplet."""
    if fragment.linearization is LinearizationKind.NSM:
        return True
    return (
        fragment.linearization is LinearizationKind.DIRECT
        and fragment.region.is_row
    )


def column_scan_cost(fragment: Fragment, attribute: str, ctx: ExecutionContext) -> tuple[Cycles, Cycles]:
    """(bandwidth-bound, compute) cycles of scanning one column of a fragment.

    DSM/direct columns stream contiguously; NSM columns are strided by
    the record width (the hardware pulls whole lines regardless, which
    is exactly the paper's misplacement penalty (ii): "unnecessary
    loading of additional data into the cache").

    The result is a pure function of the platform's frozen model
    parameters and the fragment's geometry; it is cheap enough to
    recompute on every call (docs/PERFORMANCE.md).
    """
    model = ctx.platform.memory_model
    width = fragment.schema.attribute(attribute).width
    count = fragment.filled
    if count == 0:
        return 0.0, 0.0
    if _is_row_major(fragment):
        memory = model.strided(
            count=count,
            stride=fragment.schema.record_width,
            touched=width,
            footprint=fragment.nbytes,
        )
    else:
        # Compressed columns stream their (smaller) encoded footprint.
        memory = model.sequential(
            fragment.nbytes if fragment.is_compressed else count * width
        )
    compute = count * ADD_CYCLES_PER_VALUE
    if fragment.is_compressed and fragment.compression is not None:
        compute += count * fragment.compression.codec.decode_cycles_per_value
    return memory, compute


def sum_column(layout: Layout, attribute: str, ctx: ExecutionContext) -> float:
    """Attribute-centric aggregation: sum one attribute over all rows.

    This is the paper's Q2 (``SELECT sum(a) FROM R``), executed with the
    bulk processing model and the context's threading policy.
    """
    fragments = layout.fragments_for_attribute(attribute)
    total = 0.0
    memory: Cycles = 0.0
    compute: Cycles = 0.0
    for fragment in fragments:
        if not fragment.is_phantom:
            values = fragment.column(attribute)
            total += float(np.sum(values)) if len(values) else 0.0
        fragment_memory, fragment_compute = column_scan_cost(fragment, attribute, ctx)
        memory += fragment_memory
        compute += fragment_compute
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=memory,
        threads=ctx.threading.threads,
    )
    # The span wraps only the charge: all of the operator's simulated
    # time accrues at this single point, so the span's begin/end cycles
    # bracket exactly the operator's cost (zero observer effect).
    with ctx.span(f"sum({attribute})", "operator", rows=layout.relation.row_count):
        ctx.charge(f"sum({attribute})", cycles)
        ctx.counters.instructions += int(compute)
    return total


#: Supported aggregate names -> (numpy reducer, identity for empty input).
_AGGREGATES = {
    "sum": (np.sum, 0.0),
    "min": (np.min, None),
    "max": (np.max, None),
    "mean": (np.mean, None),
    "count": (len, 0),
}


def aggregate_reducer(op: str) -> tuple[Callable[..., Any], Any]:
    """The ``(reducer, identity-for-empty-input)`` pair behind *op*.

    Shared vocabulary between the unfused operators here and the fused
    pipelines in :mod:`repro.fusion` — both sides must reduce with the
    same numpy expression for byte-identical answers.
    """
    if op not in _AGGREGATES:
        raise ExecutionError(
            f"unknown aggregate {op!r}; choose from {sorted(_AGGREGATES)}"
        )
    return _AGGREGATES[op]


def combine_partials(
    op: str, partials: Sequence[Any], counts: Sequence[int]
) -> float | int | None:
    """Combine per-fragment aggregate partials into one answer.

    This is the (only) combine step of :func:`aggregate_column`, split
    out so the fused executors reproduce it expression-for-expression:
    a fused pipeline computes the *same* per-fragment partials in the
    same fragment order and must fold them with the same float
    operations, or results stop being byte-identical to the oracle.
    """
    identity = aggregate_reducer(op)[1]
    if not partials:
        return identity
    if op == "sum":
        return float(np.sum(partials))
    if op == "min":
        return float(np.min(partials))
    if op == "max":
        return float(np.max(partials))
    if op == "count":
        return int(np.sum(partials))
    # mean: combine partial means weighted by fragment sizes.
    total = sum(float(p) * c for p, c in zip(partials, counts))
    return total / sum(counts)


def aggregate_column(
    layout: Layout, attribute: str, op: str, ctx: ExecutionContext
) -> float | int | None:
    """Attribute-centric aggregation with a named reducer.

    ``op`` is one of ``sum | min | max | mean | count``.  The access
    pattern (and therefore the cost) is identical to :func:`sum_column`
    — one column scan; only the ALU combine differs.  Empty relations
    return the op's identity (None for min/max/mean).
    """
    reducer, __ = aggregate_reducer(op)
    fragments = layout.fragments_for_attribute(attribute)
    partials: list[Any] = []
    counts: list[int] = []
    memory: Cycles = 0.0
    compute: Cycles = 0.0
    for fragment in fragments:
        if not fragment.is_phantom and fragment.filled:
            values = fragment.column(attribute)
            partials.append(reducer(values))
            counts.append(fragment.filled)
        fragment_memory, fragment_compute = column_scan_cost(fragment, attribute, ctx)
        memory += fragment_memory
        compute += fragment_compute
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=memory,
        threads=ctx.threading.threads,
    )
    with ctx.span(f"{op}({attribute})", "operator", rows=layout.relation.row_count):
        ctx.charge(f"{op}({attribute})", cycles)
    return combine_partials(op, partials, counts)


def _positions_by_fragment(
    fragments: Sequence[Fragment], positions: Sequence[int]
) -> list[tuple[Fragment, list[int]]]:
    """Group global row positions by owning fragment (fragments in row order)."""
    grouped: list[tuple[Fragment, list[int]]] = []
    for fragment in fragments:
        rows = fragment.region.rows
        local = [
            position - rows.start for position in positions if rows.contains(position)
        ]
        if local:
            grouped.append((fragment, local))
    covered = sum(len(local) for __, local in grouped)
    if covered != len(positions):
        raise ExecutionError(
            f"{covered} of {len(positions)} positions routed; layout does not "
            "cover the position list"
        )
    return grouped


def sum_at_positions(
    layout: Layout,
    attribute: str,
    positions: Sequence[int],
    ctx: ExecutionContext,
) -> float:
    """Record-centric aggregation: sum *attribute* over a position list.

    The positions are the sorted output of a preceding join (Figure 2's
    "sum prices of 150 items"); each one is a point access.
    """
    fragments = layout.fragments_for_attribute(attribute)
    model = ctx.platform.memory_model
    total = 0.0
    latency: Cycles = 0.0
    compute: Cycles = 0.0
    for fragment, local in _positions_by_fragment(fragments, positions):
        width = fragment.schema.attribute(attribute).width
        if not fragment.is_phantom:
            column = fragment.column(attribute)
            total += float(np.sum(column[np.asarray(local, dtype=np.int64)]))
        latency += model.random(
            count=len(local), touched=width, footprint=fragment.nbytes
        )
        compute += len(local) * ADD_CYCLES_PER_VALUE
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=0.0,
        threads=ctx.threading.threads,
        latency_bound_cycles=latency,
    )
    with ctx.span(
        f"sum({attribute})@positions", "operator", rows=len(positions)
    ):
        ctx.charge(f"sum({attribute})@{len(positions)}pos", cycles)
    return total


def materialize_rows(
    layout: Layout, positions: Sequence[int], ctx: ExecutionContext
) -> list[tuple[Any, ...]]:
    """Record-centric materialization of whole rows at *positions*.

    This is Figure 2's "materialize 150 customers": the SELECT * tail of
    Q1-style queries.  On an NSM layout each row costs one random record
    access; on a DSM(-emulated) layout it costs one random access *per
    attribute* — the factor that makes the row store win panel 1.
    """
    model = ctx.platform.memory_model
    schema = layout.relation.schema
    results: list[tuple[Any, ...]] = []
    latency: Cycles = 0.0
    compute: Cycles = 0.0

    # Cost plane: group by (fragment, shape); every attribute of every
    # position must be fetched from its owning fragment.
    fragment_positions: dict[int, tuple[Fragment, set[int]]] = {}
    for position in positions:
        for attribute in schema.names:
            fragment = layout.fragment_for(position, attribute)
            entry = fragment_positions.setdefault(id(fragment), (fragment, set()))
            entry[1].add(position)
    for fragment, rows in fragment_positions.values():
        count = len(rows)
        if _is_row_major(fragment):
            # One random access pulls the whole tuplet.
            latency += model.random(
                count=count,
                touched=fragment.schema.record_width,
                footprint=fragment.nbytes,
            )
        else:
            # One random access per attribute of the fragment.
            for attribute in fragment.schema.names:
                width = fragment.schema.attribute(attribute).width
                latency += model.random(
                    count=count, touched=width, footprint=fragment.nbytes
                )
        compute += count * fragment.schema.arity * COPY_CYCLES_PER_FIELD

    # Data plane (skipped when the layout holds phantom fragments:
    # cost-only benchmark runs have no payload to materialize).
    if not any(fragment.is_phantom for fragment in layout.fragments):
        for position in positions:
            results.append(layout.read_row(position))

    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=0.0,
        threads=ctx.threading.threads,
        latency_bound_cycles=latency,
    )
    with ctx.span("materialize", "operator", rows=len(positions)):
        ctx.charge(f"materialize@{len(positions)}pos", cycles)
    return results


def filter_scan(
    layout: Layout,
    attribute: str,
    predicate: Callable[[np.ndarray], np.ndarray],
    ctx: ExecutionContext,
) -> list[int]:
    """Full scan of one attribute, returning matching global positions.

    *predicate* maps a value array to a boolean mask (vectorized, bulk
    processing model with late materialization — only positions are
    produced, not rows).
    """
    fragments = layout.fragments_for_attribute(attribute)
    matches: list[int] = []
    memory: Cycles = 0.0
    compute: Cycles = 0.0
    for fragment in fragments:
        if fragment.is_phantom:
            raise ExecutionError(
                f"{fragment.label}: filter_scan is data-dependent and cannot "
                "run on phantom fragments"
            )
        values = fragment.column(attribute)
        if len(values) == 0:
            continue
        mask = np.asarray(predicate(values), dtype=bool)
        if mask.shape != values.shape:
            raise ExecutionError(
                f"predicate returned shape {mask.shape} for {values.shape} values"
            )
        start = fragment.region.rows.start
        matches.extend(int(index) + start for index in np.nonzero(mask)[0])
        fragment_memory, __ = column_scan_cost(fragment, attribute, ctx)
        memory += fragment_memory
        compute += fragment.filled * PREDICATE_CYCLES_PER_VALUE
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=memory,
        threads=ctx.threading.threads,
    )
    with ctx.span(
        f"filter({attribute})", "operator", rows=layout.relation.row_count
    ):
        ctx.charge(f"filter({attribute})", cycles)
    return matches


def update_field(
    layout: Layout, position: int, attribute: str, value: Any, ctx: ExecutionContext
) -> None:
    """Point update of one field (the OLTP write path).

    Every fragment of the layout covering the cell is updated (an
    overlapping layout keeps replicas coherent by construction here;
    replication-based engines charge the extra writes).  Each touched
    fragment's device replicas stay staged: the write is recorded on
    them, and the next device read ships only the written cell.
    """
    model = ctx.platform.memory_model
    staging = ctx.platform.staging
    touched = 0
    with ctx.span(f"update({attribute})", "operator", position=position):
        for fragment in layout.fragments:
            if fragment.region.contains(position, attribute):
                local = position - fragment.region.rows.start
                fragment.update_field(local, attribute, value)
                # Keep the fragment's device replicas: the written one
                # patches this cell on its next read (a write that skips
                # this hook leaves a version gap, which drops them).
                staging.record_write(fragment, attribute, local)
                width = fragment.schema.attribute(attribute).width
                cycles = model.random(
                    count=1, touched=width, footprint=fragment.nbytes
                )
                ctx.charge(f"update({attribute})", cycles)
                ctx.counters.bytes_written += width
                touched += 1
    if touched == 0:
        raise ExecutionError(f"no fragment covers ({position}, {attribute!r})")
