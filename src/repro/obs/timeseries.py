"""Dimensional time series on the simulated cycle timeline.

The snapshot-style :class:`~repro.obs.metrics.MetricsRegistry` answers
*how much in total*; this module answers *how behaviour evolved*: a
:class:`WindowedRegistry` extends the registry with :class:`TimeSeries`
keyed by ``(metric, frozenset(labels))``, each keeping every sample it
was given at its simulated cycle stamp, and reads them back over a
half-open cycle window with :meth:`WindowedRegistry.values`.  The SLO
layer (:mod:`repro.obs.slo`) is that reader.

**Label vocabulary.**  Series carry dimensional labels from a fixed
vocabulary — :data:`LABEL_KEYS` = ``tenant`` — so every emitter speaks
the same dimensions and readers can filter on them.  Unknown label keys
are a hard error: an open vocabulary would silently fragment series.

**Feeds.**  The serving loop records its ``serving.*`` series and hands
every counter delta it settles to :meth:`WindowedRegistry.sample_counters`,
which lands it in the ``platform.*`` series, one per
:class:`~repro.hardware.event.PerfCounters` field, so staging hits,
PCIe bytes and fault tallies are series of the counters their charge
sites keep.

**Zero observer effect.**  Recording a sample never charges a cycle and
never draws randomness.  The serving property test pins a windowed run
byte-identical to an unobserved one.

**Closure.**  :meth:`WindowedRegistry.verify_closure` checks every
:class:`~repro.hardware.event.PerfCounters` field against its
``platform.<field>`` series total (the same exactly-once discipline
:class:`~repro.execution.context.CounterScope` enforces).
"""

from __future__ import annotations

from dataclasses import fields

from repro.hardware.event import Cycles, PerfCounters
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "LABEL_KEYS",
    "PLATFORM_SERIES_PREFIX",
    "TimeSeries",
    "WindowedRegistry",
]

#: The closed label vocabulary every series dimension must come from.
LABEL_KEYS = frozenset({"tenant"})

#: Series kinds: a ``counter`` sample is a non-negative *delta* (events,
#: bytes); a ``gauge`` sample is a point-in-time *level* (a latency).
SERIES_KINDS = ("counter", "gauge")

#: Prefix of the per-field counter series :meth:`sample_counters` feeds.
PLATFORM_SERIES_PREFIX = "platform."


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

    Like :class:`~repro.obs.metrics.Histogram`, a series keeps every
    sample exactly.

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


class WindowedRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` with a dimensional time-series plane.

    Everything the base registry does still works (counters, gauges,
    histograms, per-query aggregation); on top, :meth:`record` lands
    labeled samples on the simulated cycle timeline and :meth:`values`
    reads them back over a cycle window.  Pass one as the serving
    loop's registry and the loop emits its ``serving.*`` series into
    it, and every delta it settles into the ``platform.*`` series.
    """

    def __init__(self) -> None:
        super().__init__()
        self._series: dict[tuple[str, frozenset[tuple[str, str]]], TimeSeries] = {}

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

    def sample_counters(self, delta: PerfCounters, cycle: Cycles) -> None:
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
                self.record(
                    f"{PLATFORM_SERIES_PREFIX}{spec.name}", value, cycle
                )

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

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------
    def verify_closure(self, totals: PerfCounters) -> list[str]:
        """Check every *totals* field against its series; returns the problems.

        A field no sampled delta carried has no ``platform.<field>``
        series and totals 0, so a charge that never settled through
        :meth:`sample_counters` is reported too.
        """
        problems: list[str] = []
        for name, expected in totals.snapshot().items():
            metric = f"{PLATFORM_SERIES_PREFIX}{name}"
            total = self.total(metric)
            # The series sums the deltas in settle order, the root
            # counters in merge order; the epsilon forgives float
            # representation error, never a lost sample.
            if abs(total - expected) > 1e-6 * max(1.0, abs(expected)):
                problems.append(
                    f"{metric}: series total {total!r} != "
                    f"PerfCounters.{name} {expected!r}"
                )
        return problems
