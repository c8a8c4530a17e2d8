"""repro.obs: simulated-time tracing, metrics and query profiling.

The observability layer the paper's "responsive adaptability"
requirement presupposes (Section IV-C): a storage engine can only adapt
to its hot paths if it can *see* them.  Three cooperating pieces:

* :class:`~repro.obs.tracer.Tracer` — hierarchical spans (query ->
  operator -> kernel / PCIe burst / WAL append / reorg step) and
  instant events (fault injections, staging hits/evictions), all
  stamped on the **simulated cycle timeline** with a hard
  zero-observer-effect contract;
* :class:`~repro.obs.metrics.MetricsRegistry` — counter/gauge/histogram
  aggregation of :class:`~repro.hardware.event.PerfCounters` snapshots
  per query and per engine, deriving the rates an adaptive scheduler
  reads (staging hit rate, PCIe utilization, fault retry rate, WAL
  group-commit size);
* exporters and reports — Chrome/Perfetto trace-event JSON
  (:mod:`repro.obs.export`), the ``explain(query)`` ASCII profile and
  per-layer attribution (:mod:`repro.obs.profile`), and the library's
  structured logger (:mod:`repro.obs.logging`).

The time-series plane builds on the same contract:
:class:`~repro.obs.timeseries.WindowedRegistry` adds ring-buffer
dimensional series sampled on the cycle timeline (the serving loop's
``serving.*`` events, and ``platform.*`` series derived from the
counter deltas it settles) with tumbling/sliding window aggregation
and a counter-closure exactness gate;
:mod:`repro.obs.slo` evaluates declarative :class:`SloSpec` objectives
with multi-window burn-rate alerting; and :mod:`repro.obs.bench` +
:mod:`repro.obs.regress` define the unified ``BENCH_*.json`` schema and
the cross-run regression diff CI runs.

``python -m repro.verify obs`` (:mod:`repro.obs.verifier`) runs a
Figure-2 workload traced, emits ``trace.json`` + the profile report,
and gates the zero-observer and trace-schema checks.  See
docs/OBSERVABILITY.md.
"""

from repro.obs.bench import (
    BENCH_SCHEMA,
    make_bench_record,
    validate_bench_record,
)
from repro.obs.export import (
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.logging import configure_cli_logging, get_logger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import explain, layer_attribution, render_span_tree
from repro.obs.slo import (
    Alert,
    BurnRatePolicy,
    SloEvaluator,
    SloSpec,
    evaluate_slos,
)
from repro.obs.timeseries import (
    TimeSeries,
    WindowAggregate,
    WindowedRegistry,
)
from repro.obs.tracer import (
    LAYER_FUSED,
    InstantEvent,
    Span,
    Tracer,
    default_tracer,
    nesting_violations,
    set_default_tracer,
    tracing,
)

__all__ = [
    "Tracer",
    "Span",
    "InstantEvent",
    "LAYER_FUSED",
    "tracing",
    "default_tracer",
    "set_default_tracer",
    "nesting_violations",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "WindowAggregate",
    "WindowedRegistry",
    "SloSpec",
    "BurnRatePolicy",
    "SloEvaluator",
    "Alert",
    "evaluate_slos",
    "BENCH_SCHEMA",
    "make_bench_record",
    "validate_bench_record",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "explain",
    "render_span_tree",
    "layer_attribution",
    "get_logger",
    "configure_cli_logging",
]
