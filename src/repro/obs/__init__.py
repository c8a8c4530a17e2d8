"""repro.obs: simulated-time tracing, metrics and query profiling.

The observability layer the paper's "responsive adaptability"
requirement presupposes (Section IV-C): a storage engine can only adapt
to its hot paths if it can *see* them.  Three cooperating pieces:

* :class:`~repro.obs.tracer.Tracer` — hierarchical spans (query ->
  operator -> kernel / PCIe burst / WAL append / reorg step) and
  instant events (fault injections, staging hits/evictions), all
  stamped on the **simulated cycle timeline** with a hard
  zero-observer-effect contract;
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters and
  dimensional time series sampled on the cycle timeline (the serving
  loop's ``serving.*`` events, and ``platform.*`` series of the
  :class:`~repro.hardware.event.PerfCounters` deltas it merges), one
  half-open window reader, an exact counter-closure check, and the
  rates an adaptive scheduler reads (staging hit rate, PCIe
  utilization, fault retry rate, WAL group-commit size);
* exporters and reports — Chrome/Perfetto trace-event JSON
  (:mod:`repro.obs.export`), the ``explain(query)`` ASCII profile and
  per-layer attribution (:mod:`repro.obs.profile`), and the library's
  structured logger (:mod:`repro.obs.logging`).

On top of the registry's series,
:func:`~repro.obs.slo.evaluate_slos` evaluates declarative
:class:`SloSpec` objectives with multi-window burn-rate alerting; and
:mod:`repro.obs.bench` + :mod:`repro.obs.regress` define the unified
``BENCH_*.json`` schema and the cross-run regression diff CI runs.

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
from repro.obs.metrics import Counter, MetricsRegistry, TimeSeries, percentile
from repro.obs.profile import explain, layer_attribution, render_span_tree
from repro.obs.slo import (
    Alert,
    BurnRatePolicy,
    SloSpec,
    evaluate_slos,
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
    "TimeSeries",
    "percentile",
    "SloSpec",
    "BurnRatePolicy",
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
