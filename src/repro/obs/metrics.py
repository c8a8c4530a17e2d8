"""Metrics: counters, gauges, histograms over PerfCounters snapshots.

The :class:`MetricsRegistry` is the aggregation half of the
observability layer: where the :class:`~repro.obs.tracer.Tracer`
answers *when* cycles were spent, the registry answers *how much and at
what rate* — per query and per engine run — and derives the rates an
adaptive scheduler wants to read without walking a trace:

* ``staging_hit_rate`` — device staging cache hits / lookups;
* ``pcie_bandwidth_utilization`` — achieved payload bandwidth over the
  link's rated bandwidth across the run;
* ``fault_retry_rate`` — retries per injected fault;
* ``wal_group_commit_records`` — records made durable per fsync.

Like the tracer, the registry is strictly read-only with respect to the
simulation: it consumes :meth:`~repro.hardware.event.PerfCounters.snapshot`
dictionaries and platform model parameters, and never charges a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.hardware.event import PerfCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.platform import Platform
    from repro.recovery.wal import WriteAheadLog

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing total (events, bytes, retries)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> float:
        """Add *amount* (must be >= 0); returns the new total."""
        if amount < 0:
            raise ValueError(f"{self.name}: counters only increase, got {amount}")
        self.value += amount
        return self.value


@dataclass
class Gauge:
    """A point-in-time level (hit rate, utilization, calibration factor)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> float:
        """Record the current level; returns it."""
        self.value = float(value)
        return self.value


@dataclass
class Histogram:
    """A distribution of observations (per-query cycles, burst sizes)."""

    name: str
    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.values.append(float(value))

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (``0 <= q <= 100``) of the observations.

        Linear interpolation between closest ranks (numpy's default
        method), computed over the exact observation list — this is a
        simulation, there is no reason to approximate with buckets.
        Returns 0.0 for an empty histogram; an out-of-range *q* is a
        hard error.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"{self.name}: percentile must be in [0, 100], got {q}")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = (len(ordered) - 1) * (q / 100.0)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def summary(self) -> dict[str, float]:
        """count/total/min/max/mean plus p50/p95/p99 (zeros when empty).

        The percentile readouts are what the serving tier's tail-latency
        gate consumes: ``p99 / p50`` bounded is the difference between
        an admission-controlled queue and an open-loop collapse.
        """
        if not self.values:
            return {
                "count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        total = sum(self.values)
        return {
            "count": len(self.values),
            "total": total,
            "min": min(self.values),
            "max": max(self.values),
            "mean": total / len(self.values),
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Named counters/gauges/histograms plus per-query aggregation.

    :meth:`observe_query` folds one query's *own* counter bundle (a
    per-query :class:`~repro.hardware.event.PerfCounters`, e.g. from a
    forked context) into the engine-level totals and the per-query
    histograms; :meth:`derive_rates` turns the totals into the
    scheduler-readable gauges; :meth:`dump` renders everything as one
    plain dict — the exporter format next to the Chrome trace.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._totals = PerfCounters()
        self._queries: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Named instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter *name*."""
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge *name*."""
        return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram *name*."""
        return self._histograms.setdefault(name, Histogram(name))

    def histograms_with_prefix(self, prefix: str) -> dict[str, Histogram]:
        """Every histogram whose name starts with ``{prefix}.``."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {
            name: histogram
            for name, histogram in sorted(self._histograms.items())
            if name.startswith(dotted)
        }

    # ------------------------------------------------------------------
    # PerfCounters aggregation
    # ------------------------------------------------------------------
    def observe_query(self, name: str, counters: PerfCounters) -> dict[str, float]:
        """Fold one query's counter bundle into the registry.

        *counters* must cover exactly that query (fork a context per
        query, or snapshot deltas); the snapshot is stored per query,
        merged into the engine totals, and the headline figures land in
        the ``query.*`` histograms.  Returns the snapshot.
        """
        snapshot = counters.snapshot()
        self._queries.append({"query": name, **snapshot})
        self._totals.merge(counters)
        self.histogram("query.cycles").observe(snapshot["cycles"])
        self.histogram("query.pcie_bytes").observe(snapshot["pcie_bytes"])
        return snapshot

    @property
    def totals(self) -> PerfCounters:
        """The engine-level sum of every observed query's counters."""
        return self._totals

    def derive_rates(
        self,
        platform: "Platform | None" = None,
        wal: "WriteAheadLog | None" = None,
    ) -> dict[str, float]:
        """Scheduler-readable rates from the aggregated totals.

        Rates that need context beyond the counters are included only
        when that context is given: PCIe bandwidth utilization needs the
        *platform*'s interconnect and clock, the group-commit size needs
        the *wal*.  Every derived rate is also published as a gauge.
        """
        totals = self._totals
        rates: dict[str, float] = {}
        lookups = totals.staging_hits + totals.staging_misses
        rates["staging_hit_rate"] = totals.staging_hits / lookups if lookups else 0.0
        rates["fault_retry_rate"] = (
            totals.fault_retries / totals.faults_injected
            if totals.faults_injected
            else 0.0
        )
        if platform is not None and totals.cycles > 0:
            seconds = platform.seconds(totals.cycles)
            achieved = totals.pcie_bytes / seconds if seconds else 0.0
            rates["pcie_bandwidth_utilization"] = (
                achieved / platform.interconnect.bandwidth
            )
        if wal is not None and wal.flush_count > 0:
            durable = len(wal.durable_records()) + wal.torn_records
            rates["wal_group_commit_records"] = durable / wal.flush_count
        for name, value in rates.items():
            self.gauge(name).set(value)
        return rates

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def dump(self) -> dict[str, Any]:
        """Everything as one plain dict (the metrics exporter format)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
            "totals": self._totals.snapshot(),
            "queries": list(self._queries),
        }
