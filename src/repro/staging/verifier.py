"""The staging plane: ``python -m repro.verify staging``.

Builds the staging layer's acceptance record (``BENCH_staging.json``):

* the A9 ablation grid (cache capacity x OLTP share, whole-stream
  milliseconds / hit rates / PCIe megabytes per cell);
* a per-query **trajectory** of one HTAP stream: cumulative staging
  hit rate and cumulative cycles after every query, showing the cache
  warming up and transactional writes knocking replicas back out;
* the **warm-vs-cold** check: a repeated device sum must get at least
  3x cheaper once its column is staged (the cache's reason to exist);
* the **cold byte-identity** check: a single cold-cache device sum must
  charge *exactly* the cycles the pre-cache code charged — transfer +
  kernel + result copy, compared with ``==``, not a tolerance.

Both checks gate the record's ``ok``.
"""

from __future__ import annotations

from typing import Any

from repro.bench.ablations import SWEEPS, staging_cache_sweep
from repro.bench.figure2 import build_column_store
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.execution.operators import materialize_rows, update_field
from repro.hardware.event import PerfCounters
from repro.hardware.platform import Platform
from repro.obs.bench import make_bench_record
from repro.obs.logging import get_logger
from repro.serving.verifier import build_item_store
from repro.workload.htap import HTAPMix
from repro.workload.queries import QueryShape
from repro.workload.tpcc import item_relation

__all__ = ["verify"]

logger = get_logger(__name__)


def _cold_warm_records(
    row_count: int, warm_queries: int = 3
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One cold device sum, then warm repeats; the two check sections.

    The cold sum is measured once and reported in both sections.  The
    pre-cache path charged, in order: one PCIe transfer of the column,
    the two-pass reduction, one result copy.  The staging path on a
    cold cache must reproduce that float for float — the burst of one
    transfer is the same expression as the old single transfer.
    """
    platform = Platform.paper_testbed()
    relation = item_relation(row_count)
    store = build_column_store(platform, relation)
    cold_ctx = ExecutionContext(platform)
    device_sum_column(store, "i_price", cold_ctx)
    warm_ctx = ExecutionContext(platform)
    for __ in range(warm_queries):
        device_sum_column(store, "i_price", warm_ctx)
    warm_per_query = warm_ctx.cycles / warm_queries
    ratio = cold_ctx.cycles / warm_per_query if warm_per_query else float("inf")

    width = relation.schema.attribute("i_price").width
    legacy = PerfCounters()
    platform.interconnect.transfer_cost(row_count * width, legacy)
    platform.gpu.reduction_cost(row_count, width, legacy)
    platform.interconnect.transfer_cost(width, legacy)
    warm_cold = {
        "row_count": row_count,
        "cold_cycles": cold_ctx.cycles,
        "warm_cycles_per_query": warm_per_query,
        "warm_hits": warm_ctx.counters.staging_hits,
        "speedup": ratio,
        "passed": ratio >= 3.0 and warm_ctx.counters.staging_hits == warm_queries,
    }
    identity = {
        "row_count": row_count,
        "staging_cycles": cold_ctx.cycles,
        "legacy_cycles": legacy.cycles,
        "passed": cold_ctx.cycles == legacy.cycles,
    }
    return warm_cold, identity


def _trajectory_record(
    row_count: int,
    queries: int,
    capacity_fraction: float = 2.0,
    oltp_fraction: float = 0.25,
) -> dict[str, Any]:
    """Per-query cumulative hit rate + cycles over one HTAP stream."""
    platform = Platform.paper_testbed()
    store = build_item_store(platform, row_count)
    working_set = sum(
        fragment.nbytes
        for fragment in store.fragments
        if fragment.schema.attribute(fragment.region.attributes[0])
        .dtype.numpy_dtype()
        .kind
        in ("i", "f")
    )
    platform.staging.capacity_bytes = int(capacity_fraction * working_set)
    mix = HTAPMix(store.relation, oltp_fraction=oltp_fraction, seed=97)
    ctx = ExecutionContext(platform)
    trajectory = []
    for index, spec in enumerate(mix.queries(queries)):
        if spec.shape is QueryShape.FULL_SUM:
            device_sum_column(store, spec.attributes[0], ctx)
        elif spec.shape is QueryShape.POINT_UPDATE:
            position = spec.positions[0]
            update_field(store, position, spec.attributes[0], position % 97, ctx)
        else:
            materialize_rows(store, list(spec.positions), ctx)
        counters = ctx.counters
        lookups = counters.staging_hits + counters.staging_misses
        trajectory.append(
            {
                "query": index,
                "shape": spec.shape.name,
                "cumulative_hit_rate": (
                    counters.staging_hits / lookups if lookups else 0.0
                ),
                "cumulative_cycles": counters.cycles,
                "pcie_bytes": counters.pcie_bytes,
            }
        )
    return {
        "row_count": row_count,
        "capacity_fraction": capacity_fraction,
        "oltp_fraction": oltp_fraction,
        "queries": trajectory,
    }


def verify(seeds: list[int], sites: list[str], smoke: bool) -> dict[str, Any]:
    """The ``staging`` plane: the grid, the trajectory and both checks.

    The plane is seedless and declares no fault sites; *seeds* and
    *sites* are unused.
    """
    if smoke:
        sweep_kwargs = dict(SWEEPS["staging_cache"].smoke_kwargs)
        row_count = 200_000
        trajectory_queries = 16
    else:
        sweep_kwargs = {}
        row_count = 2_000_000
        trajectory_queries = 32

    points = staging_cache_sweep(**sweep_kwargs)
    warm_cold, identity = _cold_warm_records(row_count)
    trajectory = _trajectory_record(
        sweep_kwargs.get("row_count", 200_000), trajectory_queries
    )
    final = trajectory["queries"][-1]
    logger.info(
        "warm-vs-cold: %.1fx (%s)",
        warm_cold["speedup"],
        "ok" if warm_cold["passed"] else "FAILED: expected >= 3x",
    )
    logger.info(
        "cold byte-identity: %s (staging %r vs legacy %r)",
        "ok" if identity["passed"] else "FAILED",
        identity["staging_cycles"],
        identity["legacy_cycles"],
    )
    logger.info(
        "trajectory: %d queries, final hit rate %.2f",
        len(trajectory["queries"]),
        final["cumulative_hit_rate"],
    )
    return make_bench_record(
        "staging",
        ok=warm_cold["passed"] and identity["passed"],
        metrics={
            "warm_cold_speedup": warm_cold["speedup"],
            "cold_cycles": warm_cold["cold_cycles"],
            "final_hit_rate": final["cumulative_hit_rate"],
        },
        tolerances={
            "warm_cold_speedup": {"rel": 0.15, "direction": "higher_better"},
            "cold_cycles": {"rel": 0.05, "direction": "lower_better"},
            "final_hit_rate": {"rel": 0.10, "direction": "higher_better"},
        },
        smoke=smoke,
        grid=[
            {"capacity_fraction": point.knob, **point.outcomes} for point in points
        ],
        trajectory=trajectory,
        warm_vs_cold=warm_cold,
        cold_byte_identity=identity,
    )
