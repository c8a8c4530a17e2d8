"""The obs plane: ``python -m repro.verify obs``.

Runs a Figure-2-shaped probe workload — a cold device sum (staging
miss + PCIe burst + kernel), a warm repeat (staging hit), a host column
sum, and a batch of WAL-logged transactions with group commit — under a
fault injector that forces exactly one retried PCIe transfer, then:

* writes the Perfetto-loadable Chrome trace (:data:`TRACE_FILE`) and
  validates it against the minimal schema gate
  (:func:`~repro.obs.export.validate_chrome_trace`);
* re-runs the identical workload **untraced** and gates the
  zero-observer-effect contract: both runs' final
  :meth:`~repro.hardware.event.PerfCounters.snapshot` must be
  byte-identical;
* checks that spans from at least five distinct layers (query,
  operator, kernel, pcie, wal) plus staging/fault instant events were
  recorded, and that every span tree nests cleanly;
* logs the :func:`~repro.obs.profile.explain` report and records the
  per-layer cycle attribution in ``BENCH_obs.json``.

On top of that, the telemetry-plane gates run a compact serving probe
per seed (the first seed only under ``--smoke``):

* **window closure** — every root
  :class:`~repro.hardware.event.PerfCounters` field equals its
  ``platform.<field>`` series total
  (:meth:`~repro.obs.metrics.MetricsRegistry.verify_closure`);
* **windowed zero observer** — the probe with a
  :class:`~repro.obs.metrics.MetricsRegistry` attached is
  byte-identical (answers, makespan, counter totals) to the same seed
  with none;
* **SLO discrimination + determinism** — the healthy probe produces
  zero burn-rate alerts, the seeded-overload probe fires, and running
  the overload probe twice yields identical alert streams;
* **regression self-check** — :func:`repro.obs.regress.compare_records`
  flags a synthetic 25% regression and passes identical artifacts.

Every gate feeds the record's ``ok``, so one CI cell asserts the whole
observability contract.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.logging import get_logger

__all__ = ["run_figure2_workload", "run_windowed_probe", "verify"]

logger = get_logger(__name__)

#: Where the plane writes the probe's Chrome/Perfetto trace.
TRACE_FILE = "trace.json"

#: Span layers the probe workload must exercise (instants add
#: ``staging`` and ``fault`` on top).
REQUIRED_SPAN_LAYERS = ("query", "operator", "kernel", "pcie", "wal")


def run_figure2_workload(
    rows: int = 100_000, tracer: Any = None, seed: int = 7
) -> dict[str, Any]:
    """Run the probe workload once; return its artifacts.

    *tracer* is installed as the process-wide default for the run (so
    the platform built inside picks it up exactly like the Figure 2
    drivers would); pass ``None`` for the untraced zero-observer
    baseline.  Everything that costs simulated cycles runs inside an
    observed query, so the :class:`~repro.obs.MetricsRegistry` closes
    against the context's final counters.
    """
    from repro.bench.figure2 import build_column_store
    from repro.execution.context import ExecutionContext
    from repro.execution.device import device_sum_column
    from repro.execution.operators import sum_column
    from repro.faults.injector import SITE_PCIE_TRANSFER, FaultInjector
    from repro.faults.policy import RetryPolicy
    from repro.hardware.event import PerfCounters
    from repro.hardware.platform import Platform
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import set_default_tracer
    from repro.recovery.wal import WriteAheadLog
    from repro.workload.tpcc import item_relation

    previous = set_default_tracer(tracer)
    try:
        platform = Platform.paper_testbed()
        # Exactly one forced PCIe fault: the first burst attempt fails
        # after burning its wire time, the retry policy absorbs it.
        injector = FaultInjector(seed=seed)
        injector.arm(SITE_PCIE_TRANSFER, 1.0, max_faults=1)
        injector.install(platform)
        wal = WriteAheadLog(platform, group_commit=4)
        ctx = ExecutionContext(platform, retry=RetryPolicy())
        ctx.wal = wal
        store = build_column_store(platform, item_relation(rows))
        registry = MetricsRegistry()

        def observed(name: str, operation) -> None:
            """One traced query: span + per-query counter delta."""
            before = ctx.counters.snapshot()
            with ctx.span(name, "query"):
                operation(ctx)
            after = ctx.counters.snapshot()
            delta = PerfCounters(
                **{key: after[key] - value for key, value in before.items()}
            )
            registry.observe_query(delta, ctx.cycles)

        observed(
            "q1-device-sum-cold",
            lambda qctx: device_sum_column(store, "i_price", qctx),
        )
        observed(
            "q2-device-sum-warm",
            lambda qctx: device_sum_column(store, "i_price", qctx),
        )
        observed(
            "q3-host-sum", lambda qctx: sum_column(store, "i_price", qctx)
        )

        def oltp_batch(qctx) -> None:
            """Eight logged transactions; group commit flushes twice."""
            for txn in range(1, 9):
                wal.log_begin(txn, qctx)
                wal.log_update(
                    txn, "item", "i_price", txn, float(txn), float(txn + 1), qctx
                )
                wal.log_commit(txn, qctx)

        observed("q4-oltp-commits", oltp_batch)

        rates = registry.derive_rates(platform=platform, wal=wal)
        return {
            "rows": rows,
            "snapshot": ctx.counters.snapshot(),
            "breakdown": dict(ctx.breakdown.parts),
            "rates": rates,
            "ctx": ctx,
            "platform": platform,
            "wal": wal,
            "registry": registry,
        }
    finally:
        set_default_tracer(previous)


#: The SLOs the windowed serving probe evaluates: a latency objective
#: calibrated so the healthy probe sits comfortably inside it while the
#: saturated probe blows through, and a served/shed error-ratio
#: objective only the chaos overflow site violates.
PROBE_LATENCY_THRESHOLD_CYCLES = 400_000.0


def _probe_slos() -> tuple:
    from repro.obs.slo import SloSpec

    return (
        SloSpec(
            name="p99-latency",
            kind="latency",
            metric="serving.latency",
            objective=0.95,
            threshold=PROBE_LATENCY_THRESHOLD_CYCLES,
        ),
        SloSpec(
            name="shed-rate",
            kind="event_ratio",
            metric="serving.served",
            bad_metric="serving.shed",
            objective=0.95,
        ),
    )


def run_windowed_probe(
    seed: int, overload: bool, windowed: bool = True
) -> dict[str, Any]:
    """One compact serving cell with (or without) a metrics registry.

    *overload* switches between a lightly-loaded healthy cell (arrival
    gaps far wider than the service time, no chaos) and a saturated
    cell under the ``serving.queue-overflow`` chaos site.  Returns the
    run's fingerprint (answers, makespan, counter snapshot) plus — when
    *windowed* — the registry, its closure problems, and the
    deterministic alert stream.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import evaluate_slos
    from repro.serving.server import BATCH_16
    from repro.serving.verifier import build_tenants, serve_once

    rows = 6_000
    horizon = 600_000.0
    gap = 15_000.0 if overload else 150_000.0
    tenants = build_tenants(3, gap, "poisson", horizon)
    registry = MetricsRegistry() if windowed else None
    outcome = serve_once(
        seed,
        rows,
        tenants,
        horizon,
        BATCH_16,
        max_backlog=16 if overload else None,
        overflow_rate=0.08 if overload else 0.0,
        registry=registry,
    )
    fingerprint = {
        "answers": [
            (seq, repr(answer))
            for seq, __, answer in outcome.loop.answers_for_replay()
        ],
        "makespan": outcome.report.makespan_cycles,
        "snapshot": outcome.ctx.counters.snapshot(),
    }
    result: dict[str, Any] = {"fingerprint": fingerprint, "outcome": outcome}
    if windowed:
        horizon_end = max(outcome.report.makespan_cycles, 1.0)
        result["registry"] = registry
        result["closure_problems"] = registry.verify_closure(
            outcome.ctx.counters
        )
        result["alerts"] = evaluate_slos(registry, _probe_slos(), horizon_end)
    return result


def _regress_self_check() -> dict[str, bool]:
    """The regression detector flags 25% drift and passes identity."""
    from repro.obs.bench import make_bench_record
    from repro.obs.regress import compare_records

    tolerances = {
        "latency": {"rel": 0.10, "direction": "lower_better"},
        "hit_rate": {"rel": 0.10, "direction": "higher_better"},
    }
    baseline = make_bench_record(
        "probe", True, {"latency": 100.0, "hit_rate": 0.8},
        tolerances=tolerances,
    )
    regressed = make_bench_record(
        "probe", True, {"latency": 125.0, "hit_rate": 0.8},
        tolerances=tolerances,
    )
    return {
        "flags_synthetic_regression": not compare_records(
            baseline, regressed
        ).ok,
        "passes_identical": compare_records(baseline, baseline).ok,
    }


def verify(seeds: list[int], sites: list[str], smoke: bool) -> dict[str, Any]:
    """Run the traced + untraced probes and every gate; write the trace.

    The plane declares no fault sites; *sites* is unused.
    """
    from repro.obs.bench import make_bench_record
    from repro.obs.export import validate_chrome_trace, write_chrome_trace
    from repro.obs.profile import explain, layer_attribution
    from repro.obs.tracer import Tracer, nesting_violations

    rows = 100_000 if smoke else 1_000_000
    tracer = Tracer()
    traced = run_figure2_workload(rows=rows, tracer=tracer)
    untraced = run_figure2_workload(rows=rows, tracer=None)

    # Gate 1: zero observer effect, byte for byte.
    identical = json.dumps(traced["snapshot"], sort_keys=True) == json.dumps(
        untraced["snapshot"], sort_keys=True
    )

    # Gate 2: the Chrome trace passes the schema validator.
    frequency = traced["platform"].cpu.frequency_hz
    events = write_chrome_trace(
        TRACE_FILE, tracer, frequency, workload="figure2-probe", rows=rows
    )
    trace_problems = validate_chrome_trace(events)

    # Gate 3: every span tree nests cleanly.
    nesting: list[str] = []
    for root in tracer.roots:
        nesting.extend(nesting_violations(root))

    # Gate 4: all required layers present (spans + instants).
    span_layers = {span.category for span in tracer.spans()}
    instant_layers = {event.category for event in tracer.events}
    missing_layers = sorted(
        set(REQUIRED_SPAN_LAYERS) - span_layers
    ) + sorted({"staging", "fault"} - instant_layers)

    # Gates 5-8, per seed: the telemetry-plane contracts on a compact
    # serving probe (window closure, windowed zero observer, SLO
    # discrimination, SLO determinism).
    if smoke:
        seeds = seeds[:1]
    per_seed: dict[str, Any] = {}
    windows_ok = True
    metrics: dict[str, float] = {}
    for seed in seeds:
        healthy = run_windowed_probe(seed, overload=False)
        healthy_plain = run_windowed_probe(seed, overload=False, windowed=False)
        overload = run_windowed_probe(seed, overload=True)
        overload_again = run_windowed_probe(seed, overload=True)
        gates = {
            "window_closure": not healthy["closure_problems"]
            and not overload["closure_problems"],
            "windowed_zero_observer": healthy["fingerprint"]
            == healthy_plain["fingerprint"],
            "healthy_silent": len(healthy["alerts"]) == 0,
            "overload_fires": len(overload["alerts"]) > 0,
            "alerts_deterministic": [a.key() for a in overload["alerts"]]
            == [a.key() for a in overload_again["alerts"]],
        }
        windows_ok = windows_ok and all(gates.values())
        per_seed[str(seed)] = {
            "gates": gates,
            "closure_problems": healthy["closure_problems"]
            + overload["closure_problems"],
            "healthy_alerts": len(healthy["alerts"]),
            "overload_alerts": [
                {
                    "slo": alert.slo,
                    "severity": alert.severity,
                    "cycle": alert.cycle,
                    "burn_fast": alert.burn_fast,
                    "burn_slow": alert.burn_slow,
                }
                for alert in overload["alerts"]
            ],
        }
        metrics[f"overload_alerts.s{seed}"] = float(len(overload["alerts"]))
        metrics[f"probe_makespan.s{seed}"] = overload["fingerprint"][
            "makespan"
        ]

    # Gate 9: the regression detector discriminates.
    regress_gates = _regress_self_check()

    attribution = layer_attribution(tracer)
    passed = (
        identical
        and not trace_problems
        and not nesting
        and not missing_layers
        and windows_ok
        and all(regress_gates.values())
    )
    metrics["figure2_cycles"] = traced["snapshot"]["cycles"]
    record = make_bench_record(
        "obs",
        ok=passed,
        metrics=metrics,
        tolerances={
            "figure2_cycles": {"rel": 0.05, "direction": "lower_better"},
            **{
                name: {"rel": 0.10, "direction": "two_sided"}
                for name in metrics
                if name.startswith("probe_makespan.")
            },
        },
        smoke=smoke,
        rows=rows,
        zero_observer_identical=identical,
        trace_file=TRACE_FILE,
        trace_events=len(events),
        trace_problems=trace_problems,
        nesting_violations=nesting,
        span_layers=sorted(span_layers),
        instant_layers=sorted(instant_layers),
        missing_layers=missing_layers,
        layer_attribution_cycles=attribution,
        rates=traced["rates"],
        seeds=per_seed,
        regress_gates=regress_gates,
    )
    logger.info("%s", explain(traced["ctx"], tracer))
    logger.info("")
    logger.info("zero-observer: %s", "ok" if identical else "FAILED")
    logger.info(
        "trace schema: %s (%d events)",
        "ok" if not trace_problems else f"FAILED {trace_problems}",
        len(events),
    )
    logger.info(
        "span nesting: %s", "ok" if not nesting else f"FAILED {nesting}"
    )
    logger.info(
        "layers: %s",
        "ok" if not missing_layers else f"FAILED, missing {missing_layers}",
    )
    for seed_key, cell in per_seed.items():
        logger.info(
            "windowed gates (seed %s): %s",
            seed_key,
            "ok"
            if all(cell["gates"].values())
            else f"FAILED {cell['gates']}",
        )
    logger.info(
        "regression self-check: %s",
        "ok" if all(regress_gates.values()) else f"FAILED {regress_gates}",
    )
    return record
