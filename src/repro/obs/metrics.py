"""Metrics: named counters, labelled time series, and counter closure.

The :class:`MetricsRegistry` is the aggregation half of the
observability layer: where the :class:`~repro.obs.tracer.Tracer`
answers *when* cycles were spent, the registry answers *how much and
how it evolved*.  It holds two kinds of instrument:

* named :class:`Counter` totals — the sharded executor's
  ``shard-load.<id>`` rows, which the rebalance skew detector reads;
* :class:`TimeSeries` keyed by ``(metric, frozenset(labels))``, each
  keeping every ``(cycle, value)`` sample it was given on the simulated
  cycle timeline, read back over a half-open window with
  :meth:`MetricsRegistry.values` (the SLO layer, :mod:`repro.obs.slo`,
  is that reader).

**Label vocabulary.**  Series carry dimensional labels from a fixed
vocabulary — :data:`LABEL_KEYS` = ``tenant`` — so every emitter speaks
the same dimensions and readers can filter on them.  Unknown label keys
are a hard error: an open vocabulary would silently fragment series.

**Feeds.**  The serving loop records its ``serving.*`` series and hands
every counter delta it settles to :meth:`MetricsRegistry.observe_query`,
which lands it in the ``platform.*`` series, one per
:class:`~repro.hardware.event.PerfCounters` field.  Those series are the
registry's only copy of the counters: :attr:`MetricsRegistry.totals` is
their sum, and :meth:`MetricsRegistry.derive_rates` reads it to derive
the rates an adaptive scheduler wants without walking a trace:

* ``staging_hit_rate`` — device staging cache hits / lookups;
* ``pcie_bandwidth_utilization`` — achieved payload bandwidth over the
  link's rated bandwidth across the run;
* ``fault_retry_rate`` — retries per injected fault;
* ``wal_group_commit_records`` — records made durable per fsync.

**Closure.**  :meth:`MetricsRegistry.verify_closure` checks every
:class:`~repro.hardware.event.PerfCounters` field against its
``platform.<field>`` series total with ``==`` (the same exactly-once
discipline :class:`~repro.execution.context.CounterScope` enforces).

**Zero observer effect.**  Like the tracer, the registry is strictly
read-only with respect to the simulation: recording a sample never
charges a cycle and never draws randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

from repro.hardware.event import Cycles, PerfCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.platform import Platform
    from repro.recovery.wal import WriteAheadLog

__all__ = [
    "LABEL_KEYS",
    "PLATFORM_SERIES_PREFIX",
    "Counter",
    "MetricsRegistry",
    "TimeSeries",
    "percentile",
]

#: The closed label vocabulary every series dimension must come from.
LABEL_KEYS = frozenset({"tenant"})

#: Series kinds: a ``counter`` sample is a non-negative *delta* (events,
#: bytes); a ``gauge`` sample is a point-in-time *level* (a latency).
SERIES_KINDS = ("counter", "gauge")

#: Prefix of the per-field counter series :meth:`observe_query` feeds.
PLATFORM_SERIES_PREFIX = "platform."


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


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (``0 <= q <= 100``) of *values*.

    Linear interpolation between closest ranks (numpy's default
    method), computed over the exact observation list — this is a
    simulation, there is no reason to approximate with buckets.
    Returns 0.0 for no values; an out-of-range *q* is a hard error.
    The serving tier's tail-latency gate reads its p50/p99 here.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * (q / 100.0)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def _canonical_labels(labels: dict[str, str]) -> frozenset[tuple[str, str]]:
    """Validate label keys against the vocabulary; freeze for keying."""
    unknown = set(labels) - LABEL_KEYS
    if unknown:
        raise ValueError(
            f"unknown label keys {sorted(unknown)}; "
            f"the vocabulary is {sorted(LABEL_KEYS)}"
        )
    return frozenset((key, str(value)) for key, value in labels.items())


class TimeSeries:
    """One metric stream: every ``(cycle, value)`` sample and their total.

    Attributes
    ----------
    name / labels / kind:
        Identity: metric name, frozen label set, ``counter`` or
        ``gauge``.
    total:
        The sum of every sample's value.
    samples:
        Every ``(cycle, value)`` recorded, in recording order.
    """

    __slots__ = ("name", "labels", "kind", "total", "samples")

    def __init__(
        self,
        name: str,
        labels: frozenset[tuple[str, str]],
        kind: str = "counter",
    ) -> None:
        if kind not in SERIES_KINDS:
            raise ValueError(f"kind must be one of {SERIES_KINDS}, got {kind!r}")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.total = 0.0
        self.samples: list[tuple[Cycles, float]] = []

    def append(self, cycle: Cycles, value: float) -> None:
        """Record one sample; counters reject negative deltas."""
        value = float(value)
        if self.kind == "counter" and value < 0.0:
            raise ValueError(
                f"{self.name}: counter series take non-negative deltas, "
                f"got {value}"
            )
        self.samples.append((float(cycle), value))
        self.total += value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tags = ",".join(f"{k}={v}" for k, v in sorted(self.labels))
        return (
            f"TimeSeries({self.name}{{{tags}}}, kind={self.kind}, "
            f"samples={len(self.samples)}, total={self.total})"
        )


class MetricsRegistry:
    """Named counters plus labelled time series on the cycle timeline.

    :meth:`record` lands one labelled sample and :meth:`values` reads a
    window back; :meth:`observe_query` folds one settled counter delta
    into the ``platform.*`` series, which :attr:`totals`,
    :meth:`derive_rates` and :meth:`verify_closure` read.  Pass one as
    the serving loop's registry and the loop feeds it both.  The
    registry has no clock: every sample carries the cycle its emitter
    passes.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._series: dict[tuple[str, frozenset[tuple[str, str]]], TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter *name*."""
        return self._counters.setdefault(name, Counter(name))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        metric: str,
        value: float,
        cycle: Cycles,
        kind: str = "counter",
        **labels: str,
    ) -> None:
        """Land one sample at *cycle* in the series ``(metric, labels)``.

        A series' kind is fixed by its first sample; recording into it
        under a different kind is a hard error (it would change what
        its readers compute mid-run).
        """
        key = (metric, _canonical_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries(metric, key[1], kind)
        elif series.kind != kind:
            raise ValueError(
                f"series {metric!r} already exists as kind {series.kind!r}, "
                f"requested {kind!r}"
            )
        series.append(cycle, value)

    def observe_query(self, delta: PerfCounters, cycle: Cycles) -> None:
        """Feed one settled counter delta into the ``platform.*`` series.

        Every non-zero field lands as a counter sample at *cycle*, so
        after a run in which **every** charge settles through here, each
        ``platform.<field>`` series total equals the root
        :class:`~repro.hardware.event.PerfCounters` field — the closure
        :meth:`verify_closure` gates.
        """
        for spec in fields(delta):
            value = getattr(delta, spec.name)
            if value:
                self.record(f"{PLATFORM_SERIES_PREFIX}{spec.name}", value, cycle)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def matching(self, metric: str, **labels: str) -> list[TimeSeries]:
        """Every series of *metric* whose labels contain *labels*."""
        wanted = _canonical_labels(labels)
        return [
            series
            for (name, key), series in sorted(self._series.items())
            if name == metric and wanted <= key
        ]

    def total(self, metric: str, **labels: str) -> float:
        """The summed total across the matching series."""
        return sum(series.total for series in self.matching(metric, **labels))

    def values(
        self, metric: str, start: Cycles, end: Cycles, **labels: str
    ) -> list[float]:
        """The matching series' values stamped in ``[start, end)``.

        Series come in :meth:`matching` order and each one's samples in
        cycle order, so a sum over the result is the same run to run.
        """
        return [
            value
            for series in self.matching(metric, **labels)
            for cycle, value in sorted(series.samples)
            if start <= cycle < end
        ]

    @property
    def totals(self) -> PerfCounters:
        """The sum of every observed delta, one ``platform.*`` series per field."""
        return PerfCounters(
            **{
                spec.name: self.total(f"{PLATFORM_SERIES_PREFIX}{spec.name}")
                for spec in fields(PerfCounters)
            }
        )

    def derive_rates(
        self,
        platform: "Platform | None" = None,
        wal: "WriteAheadLog | None" = None,
    ) -> dict[str, float]:
        """Scheduler-readable rates from the aggregated :attr:`totals`.

        Rates that need context beyond the counters are included only
        when that context is given: PCIe bandwidth utilization needs the
        *platform*'s interconnect and clock, the group-commit size needs
        the *wal*.
        """
        totals = self.totals
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
        return rates

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------
    def verify_closure(self, totals: PerfCounters) -> list[str]:
        """Check every *totals* field against its series; returns the problems.

        The comparison is exact: the series add the deltas in the order
        they settled, which is the order the root counters merged them.
        A field no observed delta carried has no ``platform.<field>``
        series and totals 0, so a charge that never settled through
        :meth:`observe_query` is reported too.
        """
        observed = self.totals
        return [
            f"{PLATFORM_SERIES_PREFIX}{name}: series total "
            f"{getattr(observed, name)!r} != PerfCounters.{name} {expected!r}"
            for name, expected in totals.snapshot().items()
            if getattr(observed, name) != expected
        ]
