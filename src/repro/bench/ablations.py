"""Ablation sweeps for the design choices DESIGN.md calls out.

A1 — threading overhead: where does the single/multi crossover sit as a
     function of the per-thread spawn cost (the knob behind finding i)?
A2 — PCIe bandwidth: at what link speed does shipping the column to the
     GPU start beating the host (the knob behind panels 3 vs 4)?
A3 — PDSM: how do affinity-grouped hybrid layouts compare against pure
     NSM and pure DSM under mixed workloads (the Section II-B HYRISE /
     Peloton discussion: "neither DSM nor NSM is always the best
     choice", and "PDSM is less efficient than DSM for several cases")?
A4 — GPUTx bulk size: how fast does per-transaction cost collapse with
     the bulk (K-set) size (He & Yu's under-utilization argument)?
A5 — processing model: Volcano's per-tuple call overhead vs. the bulk
     model's per-vector overhead across input sizes.
A6 — snapshot isolation: detaching analytics from transactions by
     fork+copy-on-write vs. by full copy (challenge b.iii), sweeping
     the write rate between analytic queries.
A7 — compression: per-column codec selection, compression ratios, and
     the scan cost effect on L-Store's read-only base pages (DSM's
     "improved compression rates", Section II-A).
A8 — the 2026 machine: re-run Figure 2's decisive comparisons on a
     modern platform (16 cores, DDR5, HBM device, NVLink-class link,
     pooled threads) and see which of the paper's findings are
     architectural and which were artifacts of 2016 ratios.
A2f — fault-probability extension of A2: on a link fast enough for the
     device to win cleanly, how much PCIe unreliability (injected
     transfer faults, absorbed by retries and host fallbacks) does it
     take before the CPU-only plan wins end to end?
A9 — staging cache: device-cycle totals and hit rates for an HTAP mix
     as a function of the staging-cache capacity, across OLTP shares —
     how much repeated-OLAP PCIe traffic the
     :mod:`repro.staging` layer removes, and what transactional writes
     (patched into staged replicas cell by cell) cost it.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engines.gputx import GpuTxEngine, Transaction, TxKind
from repro.execution.bulk import bulk_sum
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.execution.operators import materialize_rows, sum_column
from repro.execution.threading import MULTI_THREADED_8, SINGLE_THREADED
from repro.execution.volcano import VolcanoScan, VolcanoSum, run_volcano
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.platform import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.relation import Relation
from repro.serving.server import LayoutBackend
from repro.serving.verifier import build_item_store
from repro.workload.queries import random_positions
from repro.workload.tpcc import generate_items, item_relation, item_schema

from repro.bench.figure2 import (
    build_column_store,
    build_device_column_store,
    build_row_store,
)

__all__ = [
    "threading_crossover_sweep",
    "pcie_crossover_sweep",
    "fault_probability_sweep",
    "pdsm_mixed_workload_sweep",
    "gputx_bulk_size_sweep",
    "processing_model_sweep",
    "snapshot_isolation_sweep",
    "compression_sweep",
    "machine_era_sweep",
    "staging_cache_sweep",
    "SweepSpec",
    "SWEEPS",
]


@dataclass(frozen=True)
class SweepPoint:
    """One ablation measurement: the swept knob and the outcomes."""

    knob: float
    outcomes: dict[str, float]


def threading_crossover_sweep(
    spawn_cycles_values: tuple[float, ...] = (10_000.0, 50_000.0, 100_000.0, 400_000.0),
    row_count: int = 1_000_000,
) -> list[SweepPoint]:
    """A1: single vs. 8-thread full-column sum under varying spawn cost."""
    points = []
    for spawn in spawn_cycles_values:
        platform = Platform.paper_testbed()
        platform = dataclasses.replace(
            platform, cpu=dataclasses.replace(platform.cpu, thread_spawn_cycles=spawn)
        )
        relation = item_relation(row_count)
        store = build_column_store(platform, relation)
        single = ExecutionContext(platform, threading=SINGLE_THREADED)
        multi = ExecutionContext(platform, threading=MULTI_THREADED_8)
        sum_column(store, "i_price", single)
        sum_column(store, "i_price", multi)
        points.append(
            SweepPoint(
                knob=spawn,
                outcomes={
                    "single_ms": platform.seconds(single.cycles) * 1e3,
                    "multi_ms": platform.seconds(multi.cycles) * 1e3,
                    "multi_wins": float(multi.cycles < single.cycles),
                },
            )
        )
    return points


def pcie_crossover_sweep(
    bandwidths: tuple[float, ...] = (2e9, 6e9, 16e9, 32e9, 64e9),
    row_count: int = 20_000_000,
) -> list[SweepPoint]:
    """A2: device sum WITH transfer vs. best host sum, sweeping link speed."""
    points = []
    for bandwidth in bandwidths:
        platform = Platform.paper_testbed()
        platform = dataclasses.replace(
            platform,
            interconnect=InterconnectModel(
                bandwidth=bandwidth,
                latency_s=platform.interconnect.latency_s,
                host_frequency_hz=platform.cpu.frequency_hz,
            ),
        )
        relation = item_relation(row_count)
        store = build_column_store(platform, relation)
        host = ExecutionContext(platform, threading=MULTI_THREADED_8)
        device = ExecutionContext(platform)
        sum_column(store, "i_price", host)
        device_sum_column(store, "i_price", device)
        points.append(
            SweepPoint(
                knob=bandwidth,
                outcomes={
                    "host_ms": platform.seconds(host.cycles) * 1e3,
                    "device_ms": platform.seconds(device.cycles) * 1e3,
                    "device_wins": float(device.cycles < host.cycles),
                },
            )
        )
    return points


def fault_probability_sweep(
    probabilities: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6),
    row_count: int = 20_000_000,
    bandwidth: float = 32e9,
    queries: int = 4,
) -> list[SweepPoint]:
    """A2f: end-to-end sum cost vs. PCIe fault probability.

    The link is fixed at a bandwidth where the device wins A2 cleanly;
    the knob is the per-transfer injected-fault probability.  The
    device plan runs under the production resilience stack — staging
    transfers retried, surviving faults degraded to the host copy via a
    :class:`~repro.faults.FallbackChain` — so every failed attempt's
    wire time and backoff lands in the measured cycles.  Somewhere in
    the sweep the retry overhead erases the device's advantage and the
    CPU-only plan wins: reliability is a scheduling input, not an
    operational footnote.
    """
    from repro.faults.injector import SITE_PCIE_TRANSFER, FaultInjector
    from repro.faults.policy import FallbackChain, FallbackStep, RetryPolicy

    points = []
    for probability in probabilities:
        platform = Platform.paper_testbed()
        platform = dataclasses.replace(
            platform,
            interconnect=InterconnectModel(
                bandwidth=bandwidth,
                latency_s=platform.interconnect.latency_s,
                host_frequency_hz=platform.cpu.frequency_hz,
            ),
        )
        injector = FaultInjector(seed=13).arm(SITE_PCIE_TRANSFER, probability)
        injector.install(platform)
        relation = item_relation(row_count)
        store = build_column_store(platform, relation)

        host_ctx = ExecutionContext(platform, threading=MULTI_THREADED_8)
        for __ in range(queries):
            sum_column(store, "i_price", host_ctx)

        device_ctx = ExecutionContext(platform)
        device_ctx.retry = RetryPolicy(max_attempts=4, report=injector.report)
        for __ in range(queries):
            chain = FallbackChain(
                [
                    FallbackStep(
                        "device",
                        lambda: device_sum_column(store, "i_price", device_ctx),
                    ),
                    FallbackStep(
                        "host", lambda: sum_column(store, "i_price", device_ctx)
                    ),
                ],
                report=injector.report,
            )
            chain.run(device_ctx)

        points.append(
            SweepPoint(
                knob=probability,
                outcomes={
                    "host_ms": platform.seconds(host_ctx.cycles) * 1e3,
                    "device_ms": platform.seconds(device_ctx.cycles) * 1e3,
                    "device_wins": float(device_ctx.cycles < host_ctx.cycles),
                    "injected": float(injector.report.injected),
                    "retried": float(injector.report.retried),
                    "fallen_back": float(injector.report.fallen_back),
                    "degraded_queries": float(injector.report.degraded_queries),
                },
            )
        )
    return points


def _pdsm_store(platform: Platform, relation: Relation,
                hot: tuple[str, ...]) -> Layout:
    """An affinity-grouped hybrid: hot columns thin, the rest one NSM group."""
    fragments = []
    grouped = tuple(n for n in relation.schema.names if n not in hot)
    region = Region(relation.rows, grouped)
    group = Fragment(
        region, relation.schema,
        LinearizationKind.NSM if region.is_fat else None,
        platform.host_memory, materialize=False,
    )
    group.fill_phantom(relation.row_count)
    fragments.append(group)
    for name in hot:
        column = Fragment(
            Region(relation.rows, (name,)), relation.schema, None,
            platform.host_memory, materialize=False,
        )
        column.fill_phantom(relation.row_count)
        fragments.append(column)
    return Layout("pdsm", relation, fragments)


def pdsm_mixed_workload_sweep(
    oltp_shares: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    row_count: int = 5_000_000,
    operations: int = 40,
) -> list[SweepPoint]:
    """A3: NSM vs. DSM vs. PDSM across the OLTP share of a mixed workload.

    Each workload is *operations* queries: an ``oltp_share`` fraction of
    150-record materializations (record-centric) and the rest full
    price-column sums (attribute-centric).  Reported per layout in
    simulated milliseconds for the whole workload.
    """
    points = []
    for share in oltp_shares:
        oltp_ops = round(operations * share)
        olap_ops = operations - oltp_ops
        outcomes: dict[str, float] = {}
        for label, builder in (
            ("nsm_ms", build_row_store),
            ("dsm_ms", build_column_store),
            (
                "pdsm_ms",
                lambda platform, relation: _pdsm_store(
                    platform, relation, hot=("i_price",)
                ),
            ),
        ):
            platform = Platform.paper_testbed()
            relation = item_relation(row_count)
            store = builder(platform, relation)
            ctx = ExecutionContext(platform)
            positions = random_positions(row_count, 150)
            for __ in range(oltp_ops):
                materialize_rows(store, positions, ctx)
            for __ in range(olap_ops):
                sum_column(store, "i_price", ctx)
            outcomes[label] = platform.seconds(ctx.cycles) * 1e3
        points.append(SweepPoint(knob=share, outcomes=outcomes))
    return points


def gputx_bulk_size_sweep(
    bulk_sizes: tuple[int, ...] = (1, 8, 64, 512, 4096),
    row_count: int = 100_000,
) -> list[SweepPoint]:
    """A4: per-transaction cost vs. the K-set bulk size."""
    platform = Platform.paper_testbed()
    engine = GpuTxEngine(platform)
    engine.create("item", item_schema())
    engine.load("item", generate_items(row_count))
    points = []
    for size in bulk_sizes:
        ctx = ExecutionContext(platform)
        batch = [
            Transaction(TxKind.READ, position % row_count, "i_price")
            for position in range(size)
        ]
        engine.execute_bulk("item", batch, ctx)
        per_tx_us = platform.seconds(ctx.cycles) / size * 1e6
        points.append(
            SweepPoint(knob=float(size), outcomes={"per_tx_us": per_tx_us})
        )
    return points


def processing_model_sweep(
    row_counts: tuple[int, ...] = (1_000, 10_000, 100_000),
) -> list[SweepPoint]:
    """A5: Volcano (tuple-at-a-time) vs. bulk (vector-at-a-time) sums."""
    points = []
    for rows in row_counts:
        platform = Platform.paper_testbed()
        relation = item_relation(rows)
        columns = generate_items(rows)
        fragments = []
        for region in (
            Region(relation.rows, (name,)) for name in relation.schema.names
        ):
            fragment = Fragment(region, relation.schema, None, platform.host_memory)
            fragment.append_columns({region.attributes[0]: columns[region.attributes[0]]})
            fragments.append(fragment)
        layout = Layout("t", relation, fragments)
        volcano_ctx = ExecutionContext(platform)
        bulk_ctx = ExecutionContext(platform)
        run_volcano(VolcanoSum(VolcanoScan(layout, ["i_price"])), volcano_ctx)
        bulk_sum(layout, "i_price", bulk_ctx)
        points.append(
            SweepPoint(
                knob=float(rows),
                outcomes={
                    "volcano_ms": platform.seconds(volcano_ctx.cycles) * 1e3,
                    "bulk_ms": platform.seconds(bulk_ctx.cycles) * 1e3,
                },
            )
        )
    return points


def snapshot_isolation_sweep(
    updates_between_queries: tuple[int, ...] = (0, 100, 1_000, 10_000),
    row_count: int = 1_000_000,
    analytic_queries: int = 5,
) -> list[SweepPoint]:
    """A6: CoW snapshots vs. detach-by-full-copy under a write stream.

    Each strategy serves *analytic_queries* consistent price-column sums
    while *updates_between_queries* point updates land between
    consecutive queries.  Full copy pays 2x the payload per query; CoW
    pays one fork plus one page copy per touched page.  Reported in
    simulated milliseconds for the whole episode.
    """
    import numpy as np

    from repro.layout.region import Region
    from repro.mvcc import SnapshotManager

    points = []
    for updates in updates_between_queries:
        rng = np.random.default_rng(updates + 1)
        positions = rng.integers(0, row_count, size=max(updates, 1) * analytic_queries)

        # Strategy 1: detach by full copy per analytic query.
        platform = Platform.paper_testbed()
        relation = item_relation(row_count)
        store = build_column_store(platform, relation)
        copy_ctx = ExecutionContext(platform)
        payload = sum(f.nbytes for f in store.fragments)
        for __ in range(analytic_queries):
            copy_ctx.counters.cycles += platform.memory_model.sequential(2 * payload)
            sum_column(store, "i_price", copy_ctx)
        copy_ms = platform.seconds(copy_ctx.cycles) * 1e3

        # Strategy 2: one CoW snapshot per analytic query.
        platform = Platform.paper_testbed()
        relation = Relation("item", item_relation(row_count).schema, row_count)
        price = Fragment(
            Region(relation.rows, ("i_price",)), relation.schema, None,
            platform.host_memory,
        )
        price.append_columns(
            {"i_price": rng.uniform(1.0, 100.0, size=row_count)}
        )
        layout = Layout("item/price", relation, [price], validate=False)
        manager = SnapshotManager(layout)
        cow_ctx = ExecutionContext(platform)
        cursor = 0
        for __ in range(analytic_queries):
            snapshot = manager.fork(cow_ctx)
            for __ in range(updates):
                position = int(positions[cursor])
                cursor += 1
                manager.before_update(position, "i_price", cow_ctx)
                price.update_field(position, "i_price", 0.0)
            snapshot.sum("i_price", cow_ctx)
            snapshot.release()
        cow_ms = platform.seconds(cow_ctx.cycles) * 1e3

        points.append(
            SweepPoint(
                knob=float(updates),
                outcomes={
                    "full_copy_ms": copy_ms,
                    "cow_ms": cow_ms,
                    "cow_wins": float(cow_ms < copy_ms),
                },
            )
        )
    return points


def compression_sweep(row_count: int = 500_000) -> list[SweepPoint]:
    """A7: codec choice + ratio + scan effect per item-table column.

    Loads the item table into two L-Store instances (raw and
    compressed base pages) and reports, per column: the winning codec,
    the compression ratio, and the full-column-scan cost ratio
    (compressed/raw — below 1.0 means the smaller stream won despite
    decode compute).
    """
    import numpy as np

    from repro.engines.lstore import LStoreEngine
    from repro.workload.tpcc import generate_items, item_schema

    # Deterministic, realistically-skewed columns: sequential ids,
    # low-cardinality warehouse ids, few distinct names, noisy prices.
    rng = np.random.default_rng(7)
    columns = {
        "i_id": np.arange(row_count, dtype="<i8"),
        "i_im_id": rng.integers(0, 100, row_count, dtype="<i4"),
        "i_name": rng.choice(
            np.array([b"WIDGET", b"GADGET", b"DOODAD"], dtype="S6"), row_count
        ),
        "i_data": rng.choice(np.array([b"AA", b"BB"], dtype="S2"), row_count),
        "i_price": rng.uniform(1.0, 100.0, row_count),
    }

    engines = {}
    for compress in (False, True):
        platform = Platform.paper_testbed()
        engine = LStoreEngine(platform, compress_base=compress)
        engine.create("item", item_schema())
        engine.load("item", columns)
        engines[compress] = (engine, platform)

    points = []
    for index, attribute in enumerate(item_schema().names):
        raw_engine, raw_platform = engines[False]
        packed_engine, packed_platform = engines[True]
        packed_fragment = packed_engine.layouts("item")[0].fragments_for_attribute(
            attribute
        )[0]
        codec = (
            packed_fragment.compression.codec.name
            if packed_fragment.is_compressed
            else "none"
        )
        ratio = (
            packed_fragment.compression.ratio
            if packed_fragment.is_compressed
            else 1.0
        )
        raw_ctx = ExecutionContext(raw_platform)
        packed_ctx = ExecutionContext(packed_platform)
        numeric = attribute in ("i_id", "i_im_id", "i_price")
        for engine, ctx in ((raw_engine, raw_ctx), (packed_engine, packed_ctx)):
            if numeric:
                engine.sum("item", attribute, ctx)
            else:
                engine.materialize("item", [0], ctx)
        points.append(
            SweepPoint(
                knob=float(index),
                outcomes={
                    "ratio": ratio,
                    "scan_cost_ratio": (
                        packed_ctx.cycles / raw_ctx.cycles if raw_ctx.cycles else 1.0
                    ),
                    "codec": codec,  # type: ignore[dict-item]
                },
            )
        )
    return points


def machine_era_sweep(row_count: int = 20_000_000) -> list[SweepPoint]:
    """A8: the paper's four findings, on the 2017 vs. a 2026 machine.

    Reports, per era, the decisive ratios: single/multi on a
    150-record materialization (finding i), row/column on the same
    (finding ii, inverted so >1 means NSM wins), row/column on a full
    scan (finding iii), host/device on a resident full scan (finding
    iv), and host/device *with transfer charged* — the one comparison
    whose winner flips across eras.
    """
    from repro.execution.threading import ThreadingPolicy
    from repro.workload.tpcc import customer_relation

    points = []
    for era, make_platform in (
        (2017.0, Platform.paper_testbed),
        (2026.0, Platform.modern_testbed),
    ):
        multi = ThreadingPolicy("multi", make_platform().cpu.hardware_threads)
        outcomes: dict[str, float] = {}

        # Findings (i)/(ii): 150-record materialization.
        platform = make_platform()
        customers = customer_relation(row_count)
        row_store = build_row_store(platform, customers)
        column_store = build_column_store(platform, customers)
        positions = random_positions(row_count, 150)
        costs = {}
        for label, store, threading in (
            ("row_single", row_store, SINGLE_THREADED),
            ("row_multi", row_store, multi),
            ("col_single", column_store, SINGLE_THREADED),
        ):
            ctx = ExecutionContext(platform, threading=threading)
            materialize_rows(store, positions, ctx)
            costs[label] = ctx.cycles
        outcomes["multi_over_single_150"] = costs["row_multi"] / costs["row_single"]
        outcomes["dsm_over_nsm_materialize"] = costs["col_single"] / costs["row_single"]

        # Findings (iii)/(iv) + the transfer story: full price scans.
        platform = make_platform()
        items = item_relation(row_count)
        row_store = build_row_store(platform, items)
        column_store = build_column_store(platform, items)
        device_store = build_device_column_store(platform, items, ("i_price",))
        scan_costs = {}
        for label, runner in (
            ("row", lambda ctx: sum_column(row_store, "i_price", ctx)),
            ("col", lambda ctx: sum_column(column_store, "i_price", ctx)),
            (
                "device_resident",
                lambda ctx: device_sum_column(device_store, "i_price", ctx),
            ),
            (
                "device_transfer",
                lambda ctx: device_sum_column(column_store, "i_price", ctx),
            ),
        ):
            threading = multi if label in ("row", "col") else SINGLE_THREADED
            ctx = ExecutionContext(platform, threading=threading)
            runner(ctx)
            scan_costs[label] = ctx.cycles
        outcomes["nsm_over_dsm_scan"] = scan_costs["row"] / scan_costs["col"]
        outcomes["host_over_device_resident"] = (
            scan_costs["col"] / scan_costs["device_resident"]
        )
        outcomes["device_transfer_over_host"] = (
            scan_costs["device_transfer"] / scan_costs["col"]
        )
        points.append(SweepPoint(knob=era, outcomes=outcomes))
    return points


def staging_cache_sweep(
    capacity_fractions: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0),
    oltp_fractions: tuple[float, ...] = (0.0, 0.25, 0.5),
    row_count: int = 200_000,
    queries: int = 32,
) -> list[SweepPoint]:
    """A9: HTAP device cost vs. staging-cache capacity, across OLTP shares.

    The knob is the staging-cache capacity as a fraction of the OLAP
    working set (the numeric columns the mix aggregates).  For each
    capacity x OLTP-share cell, one :class:`~repro.workload.htap.HTAPMix`
    stream runs against a materialized item column store through the
    serving layer's :class:`~repro.serving.server.LayoutBackend`:
    ``FULL_SUM`` queries go to the device with transfers charged (and
    therefore through the staging cache), point updates leave the
    touched replica staged with the written cell pending (the next sum
    ships only that cell), point materializations stay on the host.
    Reported per cell: whole-stream simulated milliseconds, the staging
    hit rate, and PCIe megabytes moved.
    """
    from repro.workload.htap import HTAPMix

    points = []
    for fraction in capacity_fractions:
        outcomes: dict[str, float] = {}
        for oltp_fraction in oltp_fractions:
            platform = Platform.paper_testbed()
            store = build_item_store(platform, row_count)
            relation = store.relation
            working_set = sum(
                fragment.nbytes
                for fragment in store.fragments
                if fragment.schema.attribute(
                    fragment.region.attributes[0]
                ).dtype.numpy_dtype().kind in ("i", "f")
            )
            platform.staging.capacity_bytes = int(fraction * working_set)
            mix = HTAPMix(relation, oltp_fraction=oltp_fraction, seed=97)
            ctx = ExecutionContext(platform)
            backend = LayoutBackend(platform, store)
            for spec in mix.queries(queries):
                backend.run(spec, ctx)
            counters = ctx.counters
            lookups = counters.staging_hits + counters.staging_misses
            suffix = f"oltp{oltp_fraction:g}"
            outcomes[f"ms_{suffix}"] = platform.seconds(ctx.cycles) * 1e3
            outcomes[f"hit_rate_{suffix}"] = (
                counters.staging_hits / lookups if lookups else 0.0
            )
            outcomes[f"pcie_mb_{suffix}"] = counters.pcie_bytes / 1e6
        points.append(SweepPoint(knob=fraction, outcomes=outcomes))
    return points


def fusion_sweep(
    selectivities: tuple[float, ...] = (0.02, 0.1, 0.5, 0.9),
    row_count: int = 200_000,
) -> list[SweepPoint]:
    """A10: fused vs. unfused scan→filter→aggregate across selectivities.

    The attribute-centric probe query (``sum(i_price) where i_im_id <
    t``) runs four ways per selectivity cell: fused and unfused on the
    host columns, fused and unfused on the device (cold staging run
    first, the reported cycles are the warm second run).  Reported per
    cell: both speedups, whether all four answers are byte-identical to
    the unfused host oracle, and whether HyPE's uncalibrated route
    features rank fused vs. unfused correctly on both placements — the
    low-selectivity cells are where the unfused host path's
    ``random(matches)`` term shrinks enough to win, the crossover the
    ranking has to get right.
    """
    from repro.fusion import Pipeline, compile_pipeline, predicted_route_costs
    from repro.fusion.device import run_fused_device
    from repro.fusion.host import run_fused_host
    from repro.fusion.oracle import run_unfused_device, run_unfused_host

    points = []
    for selectivity in selectivities:
        threshold = int(10_000 * selectivity)
        plan = compile_pipeline(
            Pipeline.scan("i_im_id")
            .filter(lambda values, t=threshold: values < t,
                    selectivity_hint=selectivity)
            .aggregate("sum", on="i_price")
        )
        platform = Platform.paper_testbed()
        store = build_item_store(platform, row_count)
        ctx = ExecutionContext(platform)
        oracle = run_unfused_host(plan, store, ctx)
        unfused_host = ctx.cycles
        ctx = ExecutionContext(platform)
        fused_result = run_fused_host(plan, store, ctx)
        fused_host = ctx.cycles
        identical = fused_result == oracle

        def warm_device(runner):
            # A fresh platform per variant isolates the staging caches;
            # the cold run stages the operands, the warm run is measured.
            device_platform = Platform.paper_testbed()
            device_store = build_item_store(device_platform, row_count)
            runner(plan, device_store, ExecutionContext(device_platform))
            warm_ctx = ExecutionContext(device_platform)
            value = runner(plan, device_store, warm_ctx)
            return value, warm_ctx.cycles, device_platform, device_store

        fused_value, fused_device, warm_platform, warm_store = warm_device(
            run_fused_device
        )
        unfused_value, unfused_device, __, __ = warm_device(run_unfused_device)
        identical = identical and fused_value == oracle and unfused_value == oracle

        host_costs = predicted_route_costs(plan, store, platform, selectivity)
        warm_costs = predicted_route_costs(
            plan, warm_store, warm_platform, selectivity
        )
        rank_correct = (
            (host_costs["fused-cpu"] < host_costs["unfused-cpu"])
            == (fused_host < unfused_host)
        ) and (
            (warm_costs["fused-gpu"] < warm_costs["unfused-gpu"])
            == (fused_device < unfused_device)
        )
        points.append(
            SweepPoint(
                knob=selectivity,
                outcomes={
                    "host_speedup": unfused_host / fused_host,
                    "device_speedup": unfused_device / fused_device,
                    "identical": 1.0 if identical else 0.0,
                    "hype_rank_correct": 1.0 if rank_correct else 0.0,
                },
            )
        )
    return points


@dataclass(frozen=True)
class SweepSpec:
    """A registry entry describing one ablation sweep to the sweep runner.

    ``func`` runs the whole sweep and returns its points in grid order;
    ``smoke_kwargs`` shrink the sweep for the ``sweeps`` plane's smoke
    tier without changing its shape.
    """

    name: str
    func: Callable[..., list[SweepPoint]]
    smoke_kwargs: dict[str, Any] = field(default_factory=dict)

    def rows_processed(self, kwargs: dict[str, Any], point_count: int) -> int:
        """Simulated rows the sweep's data plane covers (for rows/s).

        The sum of ``row_counts`` for a sweep over relation sizes, else
        ``row_count`` once per point.
        """
        parameters = inspect.signature(self.func).parameters
        if "row_counts" in parameters:
            return sum(kwargs.get("row_counts", parameters["row_counts"].default))
        row_count = kwargs.get("row_count", parameters["row_count"].default)
        return int(row_count) * max(point_count, 1)


#: Every ablation sweep, in DESIGN.md order, as the sweep runner sees it.
SWEEPS: dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        SweepSpec(
            "threading_crossover",
            threading_crossover_sweep,
            smoke_kwargs={
                "spawn_cycles_values": (10_000.0, 400_000.0),
                "row_count": 200_000,
            },
        ),
        SweepSpec(
            "pcie_crossover",
            pcie_crossover_sweep,
            smoke_kwargs={"bandwidths": (6e9, 32e9), "row_count": 2_000_000},
        ),
        SweepSpec(
            "fault_probability",
            fault_probability_sweep,
            smoke_kwargs={
                "probabilities": (0.0, 0.4),
                "row_count": 2_000_000,
                "queries": 2,
            },
        ),
        SweepSpec(
            "pdsm_mixed_workload",
            pdsm_mixed_workload_sweep,
            smoke_kwargs={
                "oltp_shares": (0.0, 1.0),
                "row_count": 500_000,
                "operations": 8,
            },
        ),
        SweepSpec(
            "gputx_bulk_size",
            gputx_bulk_size_sweep,
            smoke_kwargs={"bulk_sizes": (1, 512), "row_count": 20_000},
        ),
        SweepSpec(
            "processing_model",
            processing_model_sweep,
            smoke_kwargs={"row_counts": (1_000, 10_000)},
        ),
        SweepSpec(
            "snapshot_isolation",
            snapshot_isolation_sweep,
            smoke_kwargs={
                "updates_between_queries": (0, 1_000),
                "row_count": 200_000,
                "analytic_queries": 2,
            },
        ),
        SweepSpec(
            "compression",
            compression_sweep,
            smoke_kwargs={"row_count": 50_000},
        ),
        SweepSpec(
            "machine_era",
            machine_era_sweep,
            smoke_kwargs={"row_count": 2_000_000},
        ),
        SweepSpec(
            "staging_cache",
            staging_cache_sweep,
            smoke_kwargs={
                "capacity_fractions": (0.0, 2.0),
                "oltp_fractions": (0.0, 0.5),
                "row_count": 50_000,
                "queries": 12,
            },
        ),
        SweepSpec(
            "fusion",
            fusion_sweep,
            smoke_kwargs={"selectivities": (0.1, 0.9), "row_count": 50_000},
        ),
    )
}
