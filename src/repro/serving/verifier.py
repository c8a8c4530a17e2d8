"""The serving verifier: correctness, throughput, and tail-latency gates.

Batching and admission control only count if they change the *cost*
plane, never the *data* plane.  The harness here pins that down with
four gates, each run per chaos seed:

* **Byte identity** — every answer the concurrent, batched server
  produced is byte-equal to a serial replay of the same admitted
  queries in arrival order on identically-built state (exact ``==`` on
  canonical encodings, never tolerances).  The replay answers full sums
  from the host columns, so a device replica that drifted from its
  fragment shows up as a mismatch.
* **Throughput** — at saturation the GPU batch scheduler clears the
  same workload at >= :data:`MIN_BATCH_SPEEDUP` x the serial
  dispatcher's rate (the amortized launches and coalesced bursts must
  actually show up as makespan).
* **Tail latency** — with a bounded admission queue the served
  ``p99/p50`` (read from :attr:`ServingReport.executed` through
  :func:`~repro.obs.metrics.percentile`, so a run needs no registry
  for it) stays under :data:`MAX_TAIL_RATIO`; the unbounded
  baseline's p99 keeps *growing* as the horizon stretches (open-loop
  collapse), which is the paper-scale argument for shedding.
* **Exactly-once attribution** — every ``platform.<field>`` series of
  the metrics registry equals the root context's counter exactly
  (:meth:`~repro.obs.MetricsRegistry.verify_closure`), and under the
  ``serving.queue-overflow`` chaos site every injected fault is
  accounted for (``report.unaccounted == 0``).

Every cell is a pure function of its seed; the determinism gate runs
one cell twice and requires identical records.  :func:`verify` is the
``serving`` plane of ``python -m repro.verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.execution.context import ExecutionContext
from repro.execution.operators import sum_column
from repro.faults.injector import FaultInjector
from repro.faults.policy import RetryPolicy
from repro.hardware.platform import Platform
from repro.layout.fragment import Fragment, Region
from repro.layout.layout import Layout
from repro.obs.bench import make_bench_record
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, percentile
from repro.serving.admission import SITE_QUEUE_OVERFLOW, AdmissionQueue
from repro.serving.arrivals import (
    PoissonArrivals,
    QueryArrival,
    TenantSpec,
    WorkloadGenerator,
)
from repro.serving.server import (
    BATCH_16,
    SERIAL_DISPATCH,
    BatchPolicy,
    LayoutBackend,
    ServingLoop,
    ServingReport,
)
from repro.sharding.verifier import encode_answer
from repro.workload.queries import QueryShape
from repro.workload.tpcc import generate_items, item_relation

__all__ = [
    "MIN_BATCH_SPEEDUP",
    "MAX_TAIL_RATIO",
    "MIN_UNBOUNDED_GROWTH",
    "ServingOutcome",
    "build_item_store",
    "build_tenants",
    "serve_once",
    "replay_serial",
    "identity_mismatches",
    "verify",
]

logger = get_logger(__name__)

#: The throughput gate: batched dispatch must clear the saturation
#: workload at at least this multiple of serial dispatch.
MIN_BATCH_SPEEDUP = 2.0

#: The tail gate: served p99/p50 with a bounded admission queue.
MAX_TAIL_RATIO = 20.0

#: The unbounded baseline must degrade: doubling the overload horizon
#: must grow its p99 by at least this factor (no such growth appears
#: under admission control).
MIN_UNBOUNDED_GROWTH = 1.4

#: OLAP aggregation targets (two distinct columns, so batches both
#: deduplicate repeats and carry multi-column operand sets).
OLAP_ATTRIBUTES = ("i_price", "i_im_id")


def build_item_store(platform: Platform, row_count: int) -> Layout:
    """A filled single-fragment-per-attribute item column store.

    The same construction for every run of a cell (generation is
    seeded), so the serving run and its serial-replay oracle start from
    byte-identical state.
    """
    relation = item_relation(row_count)
    columns = generate_items(row_count)
    fragments = []
    for name in relation.schema.names:
        fragment = Fragment(
            Region(relation.rows, (name,)),
            relation.schema,
            None,
            platform.host_memory,
            label=f"item/{name}",
        )
        fragment.append_columns({name: columns[name]})
        fragments.append(fragment)
    return Layout("item/column-store", relation, fragments)


def build_tenants(
    tenant_count: int,
    per_tenant_gap_cycles: float,
    uniform_priority: bool = False,
) -> tuple[TenantSpec, ...]:
    """A deterministic Poisson tenant population for one cell.

    Tenants alternate fairness weights (2.0 / 1.0) and, unless
    *uniform_priority*, priority classes (0 / 1) — so every cell
    exercises both WFQ and strict classes.
    """
    process = PoissonArrivals(per_tenant_gap_cycles)
    return tuple(
        TenantSpec(
            name=f"t{index}",
            arrivals=process,
            weight=2.0 if index % 2 == 0 else 1.0,
            priority=0 if (uniform_priority or index % 2 == 0) else 1,
            oltp_fraction=0.2,
            seed_offset=index,
        )
        for index in range(tenant_count)
    )


@dataclass
class ServingOutcome:
    """One serving run and everything the gates need to inspect it.

    ``registry`` is the one :func:`serve_once` was given, or ``None``.
    """

    platform: Platform
    ctx: ExecutionContext
    registry: MetricsRegistry | None
    report: ServingReport
    loop: ServingLoop
    arrivals: list[QueryArrival]
    injector: FaultInjector | None


def serve_once(
    seed: int,
    row_count: int,
    tenants: tuple[TenantSpec, ...],
    horizon_cycles: float,
    policy: BatchPolicy,
    max_backlog: int | None,
    overflow_rate: float = 0.0,
    registry: MetricsRegistry | None = None,
) -> ServingOutcome:
    """Run one serving cell end to end on a fresh platform.

    *registry* goes to the :class:`ServingLoop` unchanged: given a
    :class:`~repro.obs.MetricsRegistry`, the loop records its
    ``serving.*`` series there, and the ``platform.*`` series from
    every delta it merges; ``None`` records nothing.  Either way the
    cell is the same (the zero-observer-effect gate runs it both ways).
    """
    platform = Platform.paper_testbed()
    injector: FaultInjector | None = None
    if overflow_rate > 0.0:
        injector = FaultInjector(seed=seed).arm(SITE_QUEUE_OVERFLOW, overflow_rate)
        injector.install(platform)
    store = build_item_store(platform, row_count)
    generator = WorkloadGenerator(
        store.relation, tenants, seed=seed, olap_attributes=OLAP_ATTRIBUTES
    )
    arrivals = generator.arrivals(horizon_cycles)
    ctx = ExecutionContext(
        platform,
        retry=RetryPolicy(report=injector.report if injector else None),
    )
    loop = ServingLoop(
        backend=LayoutBackend(platform, store),
        ctx=ctx,
        queue=AdmissionQueue(max_backlog, injector),
        policy=policy,
        registry=registry,
    )
    report = loop.run(arrivals)
    return ServingOutcome(
        platform, ctx, registry, report, loop, arrivals, injector
    )


def replay_serial(
    row_count: int, served: list[tuple[int, Any, Any]]
) -> list[Any]:
    """The oracle: the served specs, serially, in arrival order.

    Fresh platform, identically-built store, no injector, no batching,
    no queue — just one query after another.  Full sums read the host
    columns (:func:`~repro.execution.operators.sum_column`), never a
    device replica, so the oracle does not share the state it checks;
    both paths add ``float(np.sum(...))`` per fragment in fragment
    order, so a correct replica gives a byte-equal answer.  Every other
    shape runs through :meth:`LayoutBackend.run`.  Returns the answers
    in the same order as *served*.
    """
    platform = Platform.paper_testbed()
    store = build_item_store(platform, row_count)
    backend = LayoutBackend(platform, store)
    ctx = ExecutionContext(platform)
    return [
        sum_column(store, spec.attributes[0], ctx)
        if spec.shape is QueryShape.FULL_SUM
        else backend.run(spec, ctx)
        for __, spec, __ in served
    ]


def identity_mismatches(outcome: ServingOutcome, row_count: int) -> int:
    """How many served answers differ from the serial oracle (0 = pass)."""
    served = outcome.loop.answers_for_replay()
    oracle = replay_serial(row_count, served)
    return sum(
        1
        for (__, __, answer), expected in zip(served, oracle)
        if encode_answer(answer) != encode_answer(expected)
    )


def _latency_stats(outcome: ServingOutcome) -> dict[str, float]:
    """p50/p99 (and ratio) of the served latency distribution."""
    latencies = [query.latency_cycles for query in outcome.report.executed]
    p50 = percentile(latencies, 50.0)
    p99 = percentile(latencies, 99.0)
    return {
        "served": float(len(latencies)),
        "p50_cycles": p50,
        "p99_cycles": p99,
        "tail_ratio": (p99 / p50) if p50 > 0 else 0.0,
    }


def _tenant_latency_summaries(outcome: ServingOutcome) -> dict[str, dict[str, float]]:
    """Per-tenant count and p50/p95/p99 of the served latencies."""
    by_tenant: dict[str, list[float]] = {}
    for query in outcome.report.executed:
        by_tenant.setdefault(query.tenant, []).append(query.latency_cycles)
    return {
        tenant: {
            "count": len(latencies),
            "p50": percentile(latencies, 50.0),
            "p95": percentile(latencies, 95.0),
            "p99": percentile(latencies, 99.0),
        }
        for tenant, latencies in sorted(by_tenant.items())
    }


def _attribution_closed(outcome: ServingOutcome) -> bool:
    """Every ``platform.*`` series must equal its root counter exactly."""
    return not outcome.registry.verify_closure(outcome.ctx.counters)


def _cell_fingerprint(outcome: ServingOutcome) -> list[tuple[Any, ...]]:
    """A run's full observable behaviour, for the determinism gate.

    The counter snapshot makes the gate cover every counter too: the
    gate compares a cell run with a registry against its twin run
    without one.
    """
    record = [
        (
            executed.seq,
            executed.tenant,
            executed.spec.shape.name,
            executed.unit,
            executed.finish_cycle,
            encode_answer(executed.answer),
        )
        for executed in outcome.report.executed
    ]
    record.extend(
        ("shed", shed.seq, shed.tenant, shed.injected)
        for shed in outcome.report.shed
    )
    record.append(("makespan", outcome.report.makespan_cycles))
    record.append(("counters", outcome.ctx.counters.snapshot()))
    return record


def verify(seeds: list[int], sites: list[str], smoke: bool) -> dict[str, Any]:
    """The ``serving`` plane: every gate for every seed.

    The record's ``ok`` is the conjunction of all gates across all
    seeds; per-seed detail lands under ``seeds`` so a CI failure says
    *which* gate on *which* seed moved.  The plane declares no fault
    sites (its ``serving.queue-overflow`` cell is fixed), so *sites* is
    empty.
    """
    row_count = 20_000 if smoke else 60_000
    tenant_count = 4
    horizon = 3_000_000.0 if smoke else 6_000_000.0
    # Per-tenant gap for saturation: combined arrivals far denser than
    # the ~57k-cycle warm device sum.
    saturation_gap = 40_000.0
    per_seed: dict[str, Any] = {}
    all_ok = True
    for seed in seeds:
        tenants = build_tenants(tenant_count, saturation_gap)
        plain_tenants = build_tenants(
            tenant_count, saturation_gap, uniform_priority=True
        )

        # --- Gate 1 + 4 + determinism: batched, bounded, chaos-shed ---
        chaos = serve_once(
            seed, row_count, tenants, horizon, BATCH_16,
            max_backlog=48, overflow_rate=0.05, registry=MetricsRegistry(),
        )
        chaos_again = serve_once(
            seed, row_count, tenants, horizon, BATCH_16,
            max_backlog=48, overflow_rate=0.05,
        )
        identity_bad = identity_mismatches(chaos, row_count)
        deterministic = _cell_fingerprint(chaos) == _cell_fingerprint(chaos_again)
        attribution = _attribution_closed(chaos)
        report = chaos.injector.report
        chaos_closed = report.unaccounted == 0 and report.injected > 0

        # --- Gate 2: throughput, same arrivals, serial vs batched ---
        serial = serve_once(
            seed, row_count, plain_tenants, horizon, SERIAL_DISPATCH,
            max_backlog=None,
        )
        batched = serve_once(
            seed, row_count, plain_tenants, horizon, BATCH_16,
            max_backlog=None, registry=MetricsRegistry(),
        )
        serial_tput = serial.report.throughput_per_second(serial.platform)
        batched_tput = batched.report.throughput_per_second(batched.platform)
        speedup = batched_tput / serial_tput if serial_tput > 0 else 0.0
        batch_identity_bad = identity_mismatches(batched, row_count)

        # --- Gate 3: tails — bounded queue vs open-loop collapse ---
        bounded = serve_once(
            seed, row_count, plain_tenants, horizon, BATCH_16, max_backlog=32
        )
        bounded_stats = _latency_stats(bounded)
        # The collapse baseline is the *serial, unbounded* server: at
        # ~5x utilization its backlog (and therefore its p99) grows
        # linearly with the horizon, while the admission-controlled
        # queue's tail stays put.
        unbounded_stats = _latency_stats(serial)
        unbounded_long = serve_once(
            seed, row_count, plain_tenants, horizon * 2, SERIAL_DISPATCH,
            max_backlog=None,
        )
        long_stats = _latency_stats(unbounded_long)
        growth = (
            long_stats["p99_cycles"] / unbounded_stats["p99_cycles"]
            if unbounded_stats["p99_cycles"] > 0
            else 0.0
        )

        gates = {
            "byte_identity": identity_bad == 0 and batch_identity_bad == 0,
            "throughput_speedup": speedup >= MIN_BATCH_SPEEDUP,
            "bounded_tail": bounded_stats["tail_ratio"] <= MAX_TAIL_RATIO
            and bounded_stats["tail_ratio"] > 0,
            "unbounded_growth": growth >= MIN_UNBOUNDED_GROWTH,
            "exactly_once_attribution": attribution
            and _attribution_closed(batched),
            "chaos_accounted": chaos_closed,
            "deterministic": deterministic,
        }
        all_ok = all_ok and all(gates.values())
        per_seed[str(seed)] = {
            "gates": gates,
            "identity_mismatches": identity_bad + batch_identity_bad,
            "speedup": speedup,
            "serial_throughput_qps": serial_tput,
            "batched_throughput_qps": batched_tput,
            "serial_units": serial.report.units,
            "batched_units": batched.report.units,
            "batches": batched.report.batches,
            "bounded": bounded_stats,
            "tenant_latency": _tenant_latency_summaries(bounded),
            "unbounded": unbounded_stats,
            "unbounded_2x_horizon": long_stats,
            "shed_bounded": len(bounded.report.shed),
            "shed_chaos": len(chaos.report.shed),
            "chaos_injected": report.injected,
            "chaos_unaccounted": report.unaccounted,
        }
        logger.info(
            "seed %s: speedup=%.2fx tail=%.1f %s",
            seed, speedup, bounded_stats["tail_ratio"],
            " ".join(
                f"{name}={'ok' if passed else 'FAIL'}"
                for name, passed in gates.items()
            ),
        )
    metrics: dict[str, float] = {}
    tolerances: dict[str, dict[str, Any]] = {}
    for seed_key, cell in per_seed.items():
        metrics[f"speedup.s{seed_key}"] = cell["speedup"]
        tolerances[f"speedup.s{seed_key}"] = {
            "rel": 0.20, "direction": "higher_better",
        }
        metrics[f"tail_ratio.s{seed_key}"] = cell["bounded"]["tail_ratio"]
        tolerances[f"tail_ratio.s{seed_key}"] = {
            "rel": 0.50, "direction": "lower_better",
        }
        metrics[f"served.s{seed_key}"] = cell["bounded"]["served"]
        tolerances[f"served.s{seed_key}"] = {
            "rel": 0.10, "direction": "two_sided",
        }
    return make_bench_record(
        "serving",
        ok=all_ok,
        metrics=metrics,
        tolerances=tolerances,
        smoke=smoke,
        config={
            "row_count": row_count,
            "tenants": tenant_count,
            "horizon_cycles": horizon,
            "per_tenant_gap_cycles": saturation_gap,
            "max_batch": BATCH_16.max_batch,
            "smoke": smoke,
        },
        thresholds={
            "min_batch_speedup": MIN_BATCH_SPEEDUP,
            "max_tail_ratio": MAX_TAIL_RATIO,
            "min_unbounded_growth": MIN_UNBOUNDED_GROWTH,
        },
        seeds=per_seed,
    )
