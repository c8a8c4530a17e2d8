"""Chaos harness: drive a workload through an engine under faults.

The resilience claim worth testing is end-to-end: *with faults armed,
every query still returns the answer a fault-free run returns, every
injected fault is accounted for, and the resilience machinery's cost
shows up in the simulated cycle count.*  :func:`run_query_stream` is
the shared runner behind that claim — the chaos tests run it twice
(fault-free and faulted) on identical engines and workloads and compare
the two :class:`ChaosRunResult` records.

The runner is engine-agnostic: it executes
:class:`~repro.workload.queries.QuerySpec` streams (as produced by
``repro.workload.htap.HTAPMix``) against any
:class:`~repro.engines.base.StorageEngine`, optionally interleaving
re-organizations.  Surfaced faults are the harness's to handle: an
injected error that escapes the engine is recorded as *surfaced* and
the query is re-issued — the client-side retry every real deployment
has — so the stream always completes with correct results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ExecutionError, ReorganizationAborted, ReproError
from repro.faults.injector import FaultInjector
from repro.workload.queries import QueryShape, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import StorageEngine
    from repro.execution.context import ExecutionContext

__all__ = [
    "ChaosRunResult",
    "deterministic_update_value",
    "row_update_value",
    "run_query_stream",
]

#: Client-side retry budget per query: with per-site fault probability
#: <= 0.2 the chance of exhausting this is negligible, and a genuine
#: bug (a query that can never succeed) still fails fast.
MAX_SURFACED_RETRIES = 25


@dataclass(frozen=True)
class ChaosRunResult:
    """Everything two runs need to be compared.

    Attributes
    ----------
    results:
        One entry per query, in stream order: the sum for aggregates,
        the row tuples for materializations, ``None`` for updates.
    cycles:
        Total simulated cycles charged to the run's context.
    counters:
        Final :class:`~repro.hardware.event.PerfCounters` snapshot.
    resilience:
        Final resilience-report snapshot ({} for fault-free runs).
    reorganizations:
        (attempted, aborted) re-organization counts.
    """

    results: tuple[Any, ...]
    cycles: float
    counters: dict[str, float]
    resilience: dict[str, float]
    reorganizations: tuple[int, int]


def deterministic_update_value(index: int) -> float:
    """The value the *index*-th query of a single-row update stream writes.

    :func:`run_query_stream` and the recovery runner pass the query's
    index in its stream.  A pure function of that index, so a faulted
    run and its fault-free twin apply byte-identical writes.  It
    repeats every 97 queries; multi-row writers use
    :func:`row_update_value`.
    """
    return float((index * 7) % 97 + 1)


def row_update_value(index: int, position: int) -> float:
    """The value the *index*-th query of a stream writes at row *position*.

    The sharded executor and its single-node oracle write it.  Every
    (query, row) pair gets its own integer, so a later write to a row
    differs from every earlier one and a replay that drops or reorders
    a committed write changes an answer; integers keep float64 sums
    exact in any order.  A re-issued query writes the same values.
    """
    return float(index * 1_000 + position % 1_000 + 1)


def _execute(
    engine: "StorageEngine",
    name: str,
    query: QuerySpec,
    index: int,
    ctx: "ExecutionContext",
) -> Any:
    if query.shape is QueryShape.FULL_SUM:
        return engine.sum(name, query.attributes[0], ctx)
    if query.shape is QueryShape.POINT_MATERIALIZE:
        return tuple(engine.materialize(name, list(query.positions), ctx))
    if query.shape is QueryShape.POSITION_SUM:
        return engine.sum_at(name, query.attributes[0], list(query.positions), ctx)
    if query.shape is QueryShape.POINT_UPDATE:
        engine.update(
            name,
            query.positions[0],
            query.attributes[0],
            deterministic_update_value(index),
            ctx,
        )
        return None
    raise ExecutionError(f"chaos harness cannot execute {query.shape}")


def run_query_stream(
    engine: "StorageEngine",
    name: str,
    queries: Sequence[QuerySpec],
    ctx: "ExecutionContext",
    injector: FaultInjector | None = None,
    reorganize_every: int = 0,
) -> ChaosRunResult:
    """Run *queries* against *engine*, surviving injected faults.

    With ``reorganize_every = k > 0``, an ``engine.reorganize`` is
    attempted after every *k*-th query; an interruption
    (:class:`~repro.errors.ReorganizationAborted`) is recorded as a
    surfaced fault and skipped — the re-organizer's rollback guarantee
    means the engine keeps serving from the pre-reorg layout.
    """
    report = injector.report if injector is not None else None
    results: list[Any] = []
    reorgs_attempted = 0
    reorgs_aborted = 0
    for index, query in enumerate(queries):
        for attempt in range(MAX_SURFACED_RETRIES + 1):
            try:
                results.append(_execute(engine, name, query, index, ctx))
                break
            except ReproError as error:
                if not getattr(error, "injected", False) or report is None:
                    raise
                report.record_surfaced()
                if attempt == MAX_SURFACED_RETRIES:
                    raise
        if reorganize_every and (index + 1) % reorganize_every == 0:
            reorgs_attempted += 1
            try:
                engine.reorganize(name, ctx)
            except ReorganizationAborted as error:
                reorgs_aborted += 1
                if getattr(error, "injected", False) and report is not None:
                    report.record_surfaced()
    return ChaosRunResult(
        results=tuple(results),
        cycles=ctx.counters.cycles,
        counters=ctx.counters.snapshot(),
        resilience=report.snapshot() if report is not None else {},
        reorganizations=(reorgs_attempted, reorgs_aborted),
    )
