"""Windowed dimensional time series on the simulated cycle timeline.

The snapshot-style :class:`~repro.obs.metrics.MetricsRegistry` answers
*how much in total*; this module answers *how behaviour evolved*: a
:class:`WindowedRegistry` extends the registry with ring-buffered
:class:`TimeSeries` keyed by ``(metric, frozenset(labels))``, sampled
at simulated cycle timestamps, and aggregated over tumbling or sliding
cycle windows (:meth:`WindowedRegistry.windows`).  This is the input
plane the workload autopilot (ROADMAP item 4) and the SLO layer
(:mod:`repro.obs.slo`) read.

**Label vocabulary.**  Series carry dimensional labels from a fixed
vocabulary — :data:`LABEL_KEYS` = ``tenant``, ``shard``, ``layer``,
``engine``, ``fault_site`` — so every emitter speaks the same
dimensions and window queries can filter on any subset of them.
Unknown label keys are a hard error: an open vocabulary would silently
fragment series.

**Feeds.**  The serving loop records its ``serving.*`` series, and
:meth:`WindowedRegistry.observe_query` lands every settled counter
delta in the ``platform.*`` series, one per
:class:`~repro.hardware.event.PerfCounters` field, so staging hits,
PCIe bytes and fault tallies are windowed from the counters their
charge sites keep.

**Zero observer effect.**  Recording a sample only ever *reads* the
simulated clock; it never charges a cycle and never draws randomness.
The serving property test pins a windowed run byte-identical to an
unobserved one.

**Window closure.**  Counter series keep an eviction-safe running
``total`` next to the ring, and tumbling windows partition the
timeline, so for any counter the sum of all window deltas over a full
run equals the series total — and, for the ``platform.*`` series fed by
:meth:`WindowedRegistry.sample_counters`, equals the platform
:class:`~repro.hardware.event.PerfCounters` total (the same closure
discipline :class:`~repro.execution.context.CounterScope` enforces).
:meth:`WindowedRegistry.verify_closure` gates it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.hardware.event import Cycles, PerfCounters
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "LABEL_KEYS",
    "PLATFORM_SERIES_PREFIX",
    "TimeSeries",
    "WindowAggregate",
    "aggregate_windows",
    "WindowedRegistry",
]

#: The closed label vocabulary every series dimension must come from.
LABEL_KEYS = frozenset({"tenant", "shard", "layer", "engine", "fault_site"})

#: Series kinds: a ``counter`` sample is a non-negative *delta* (events,
#: bytes) summed over windows; a ``gauge`` sample is a point-in-time
#: *level* (a latency, a rate) averaged / percentiled over windows.
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
    """One metric stream: a ring buffer of ``(cycle, value)`` samples.

    The ring holds the most recent *capacity* samples for window
    queries; the running ``total`` / ``count`` aggregates are kept
    independently of the ring so evicting old samples never loses the
    closure figures (``evicted`` / ``evicted_value`` say exactly what
    the ring no longer shows).

    Attributes
    ----------
    name / labels / kind:
        Identity: metric name, frozen label set, ``counter`` or
        ``gauge``.
    total / count / last_cycle:
        Eviction-safe running aggregates over *every* sample recorded.
    evicted / evicted_value:
        How many samples (and, for counters, how much summed value)
        the ring has dropped; zero on a correctly-sized ring, which is
        what the closure gate requires of the windows themselves.
    """

    __slots__ = (
        "name",
        "labels",
        "kind",
        "capacity",
        "total",
        "count",
        "last_cycle",
        "evicted",
        "evicted_value",
        "_ring",
        "_head",
    )

    def __init__(
        self,
        name: str,
        labels: frozenset[tuple[str, str]],
        kind: str = "counter",
        capacity: int = 65536,
    ) -> None:
        if kind not in SERIES_KINDS:
            raise ValueError(f"kind must be one of {SERIES_KINDS}, got {kind!r}")
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.capacity = capacity
        self.total = 0.0
        self.count = 0
        self.last_cycle: Cycles = 0.0
        self.evicted = 0
        self.evicted_value = 0.0
        self._ring: list[tuple[Cycles, float]] = []
        self._head = 0

    def append(self, cycle: Cycles, value: float) -> None:
        """Record one sample; counters reject negative deltas."""
        value = float(value)
        if self.kind == "counter" and value < 0.0:
            raise ValueError(
                f"{self.name}: counter series take non-negative deltas, "
                f"got {value}"
            )
        sample = (float(cycle), value)
        if len(self._ring) < self.capacity:
            self._ring.append(sample)
        else:
            dropped = self._ring[self._head]
            self._ring[self._head] = sample
            self._head = (self._head + 1) % self.capacity
            self.evicted += 1
            self.evicted_value += dropped[1]
        self.total += value
        self.count += 1
        self.last_cycle = max(self.last_cycle, sample[0])

    def samples(self) -> list[tuple[Cycles, float]]:
        """The retained samples in cycle order (copies; ring unwound)."""
        unwound = self._ring[self._head :] + self._ring[: self._head]
        return sorted(unwound)

    def label_dict(self) -> dict[str, str]:
        """The labels as a plain sorted dict (for dumps and reports)."""
        return dict(sorted(self.labels))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tags = ",".join(f"{k}={v}" for k, v in sorted(self.labels))
        return (
            f"TimeSeries({self.name}{{{tags}}}, kind={self.kind}, "
            f"count={self.count}, total={self.total})"
        )


@dataclass(frozen=True)
class WindowAggregate:
    """One window's aggregation of a series selection.

    ``sum`` is the window delta for counters and the plain sample sum
    for gauges; ``rate`` is ``sum / (end - start)`` (per simulated
    cycle); the percentiles interpolate over the window's raw samples
    exactly as :meth:`~repro.obs.metrics.Histogram.percentile` does.
    """

    start: Cycles
    end: Cycles
    count: int
    sum: float
    rate: float
    mean: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def over(
        cls, start: Cycles, end: Cycles, values: list[float]
    ) -> "WindowAggregate":
        """Aggregate *values* sampled inside ``[start, end)``."""
        width = end - start
        total = sum(values)
        histogram = Histogram("window")
        histogram.values = values
        return cls(
            start=start,
            end=end,
            count=len(values),
            sum=total,
            rate=total / width if width > 0 else 0.0,
            mean=total / len(values) if values else 0.0,
            p50=histogram.percentile(50.0),
            p95=histogram.percentile(95.0),
            p99=histogram.percentile(99.0),
        )


def aggregate_windows(
    samples: list[tuple[Cycles, float]],
    width: Cycles,
    stride: Cycles,
    end: Cycles,
) -> list[WindowAggregate]:
    """Aggregate sorted *samples* over ``[0, end]`` cycle windows.

    Windows are half-open ``[start, start + width)``; with
    ``stride == width`` they tumble (partitioning the timeline, the
    closure shape), with a smaller stride they slide.  The last window
    generated is the one containing *end*, so a sample stamped exactly
    at the run's final cycle is always covered.
    """
    result: list[WindowAggregate] = []
    start = 0.0
    while True:
        stop = start + width
        values = [value for cycle, value in samples if start <= cycle < stop]
        result.append(WindowAggregate.over(start, stop, values))
        if stop > end:
            break
        start += stride
    return result


class WindowedRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` with a dimensional time-series plane.

    Everything the base registry does still works (counters, gauges,
    histograms, per-query aggregation); on top, :meth:`record` lands
    labeled samples on the simulated cycle timeline and
    :meth:`windows` aggregates them over tumbling or sliding cycle
    windows.  Pass one as the serving loop's registry and the loop
    emits its ``serving.*`` series into it, while every delta it
    observes lands in the ``platform.*`` series.

    Parameters
    ----------
    ring_capacity:
        Per-series ring size.  Size it to the run: the closure gate
        additionally asserts nothing was evicted, because a window
        query can only be exact over samples the ring still holds.
    """

    def __init__(self, ring_capacity: int = 65536) -> None:
        super().__init__()
        self.ring_capacity = ring_capacity
        self.clock: Cycles = 0.0
        self._series: dict[tuple[str, frozenset[tuple[str, str]]], TimeSeries] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def series(
        self, metric: str, kind: str = "counter", **labels: str
    ) -> TimeSeries:
        """Get or create the series ``(metric, labels)``.

        A metric's kind is fixed by its first use; asking for the same
        series under a different kind is a hard error (it would change
        window semantics mid-run).
        """
        key = (metric, _canonical_labels(labels))
        found = self._series.get(key)
        if found is None:
            found = TimeSeries(metric, key[1], kind, self.ring_capacity)
            self._series[key] = found
        elif found.kind != kind:
            raise ValueError(
                f"series {metric!r} already exists as kind {found.kind!r}, "
                f"requested {kind!r}"
            )
        return found

    def record(
        self,
        metric: str,
        value: float,
        cycle: Cycles,
        kind: str = "counter",
        **labels: str,
    ) -> None:
        """Land one sample at ``max(cycle, clock)`` on the timeline.

        The clamp matters for emitters running inside long-lived
        scopes: the serving loop's admission scope opens at cycle 0 and
        stays active for the whole run, so its counter position lags
        the event clock — :meth:`advance_clock` keeps samples stamped
        at (at least) the loop's simulated *now*.
        """
        self.series(metric, kind, **labels).append(max(cycle, self.clock), value)

    def advance_clock(self, cycle: Cycles) -> None:
        """Advance the monotone stamping floor (an event loop's *now*)."""
        self.clock = max(self.clock, cycle)

    def sample_counters(self, delta: PerfCounters, cycle: Cycles) -> None:
        """Feed one settled counter delta into the ``platform.*`` series.

        Every non-zero field lands as a counter sample at *cycle*, so
        after a run in which **every** charge settles through here, the
        sum of any ``platform.<field>`` series' window deltas equals the
        root :class:`~repro.hardware.event.PerfCounters` total — the
        closure :meth:`verify_closure` gates.
        """
        for spec in fields(delta):
            value = getattr(delta, spec.name)
            if value:
                self.record(
                    f"{PLATFORM_SERIES_PREFIX}{spec.name}", value, cycle
                )

    def observe_query(self, name: str, counters: PerfCounters) -> dict[str, float]:
        """Base aggregation plus a ``platform.*`` sample per delta.

        The sample is stamped at the delta's own closing cycle
        (``counters.cycles`` is the scope delta, so the stamp is the
        registry clock — advanced by the serving loop — or the delta
        end for standalone callers).
        """
        snapshot = super().observe_query(name, counters)
        self.sample_counters(counters, self.clock or counters.cycles)
        return snapshot

    # ------------------------------------------------------------------
    # Selection & aggregation
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
        """Eviction-safe running total across the matching series."""
        return sum(series.total for series in self.matching(metric, **labels))

    def windows(
        self,
        metric: str,
        width: Cycles,
        stride: Cycles | None = None,
        end: Cycles | None = None,
        **labels: str,
    ) -> list[WindowAggregate]:
        """Aggregate the matching series over cycle windows.

        Tumbling windows (the default, ``stride == width``) partition
        ``[0, end]``: every sample lands in exactly one window, so
        counter window sums close against the run total.  A smaller
        *stride* gives sliding (overlapping) windows — the shape the
        burn-rate evaluator reads.  *end* defaults to the latest sample
        cycle (clamped up to the registry clock), and the last window
        is the one containing *end*.
        """
        if width <= 0:
            raise ValueError(f"window width must be > 0, got {width}")
        stride = width if stride is None else stride
        if stride <= 0 or stride > width:
            raise ValueError(
                f"stride must be in (0, width], got {stride} (width {width})"
            )
        selected = self.matching(metric, **labels)
        samples = sorted(
            sample for series in selected for sample in series.samples()
        )
        if end is None:
            end = max(
                self.clock,
                samples[-1][0] if samples else 0.0,
            )
        return aggregate_windows(samples, width, stride, end)

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------
    def verify_closure(self, totals: PerfCounters) -> list[str]:
        """Check every counter series closes; returns the problems.

        Two families are gated:

        * every ``platform.<field>`` series' tumbling-window sum must
          equal both its running total and the *totals* field;
        * every other counter series' windows must close against its
          own running total (no sample lost, none double-counted).

        An evicting ring is reported too: windows can only be exact
        over samples the ring still holds.
        """
        problems: list[str] = []
        by_metric: dict[str, float] = {}
        for (metric, _key), series in sorted(self._series.items()):
            if series.kind != "counter":
                continue
            if series.evicted:
                problems.append(
                    f"{metric}{sorted(series.labels)}: ring evicted "
                    f"{series.evicted} samples (value {series.evicted_value}); "
                    "size ring_capacity to the run"
                )
            by_metric[metric] = by_metric.get(metric, 0.0) + series.total
            end = max(self.clock, series.last_cycle, 1.0)
            width = end / 16.0
            window_sum = sum(
                window.sum
                for window in aggregate_windows(
                    series.samples(), width, width, end
                )
            )
            # Window sums are floats accumulated in a different order
            # than the running total; equality is still exact for the
            # integer-valued counters the platform emits, and the
            # epsilon only forgives representation error, not lost
            # samples.
            if abs(window_sum - series.total) > 1e-6 * max(
                1.0, abs(series.total)
            ):
                problems.append(
                    f"{metric}{sorted(series.labels)}: window sum "
                    f"{window_sum!r} != series total {series.total!r}"
                )
        expected = totals.snapshot()
        for metric, total in sorted(by_metric.items()):
            if not metric.startswith(PLATFORM_SERIES_PREFIX):
                continue
            field_name = metric[len(PLATFORM_SERIES_PREFIX) :]
            if field_name not in expected:
                continue
            if abs(total - expected[field_name]) > 1e-6 * max(
                1.0, abs(expected[field_name])
            ):
                problems.append(
                    f"{metric}: series total {total!r} != "
                    f"PerfCounters.{field_name} {expected[field_name]!r}"
                )
        return problems

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """The base dump plus a ``series`` section (ring summaries)."""
        out = super().dump()
        out["series"] = [
            {
                "metric": series.name,
                "labels": series.label_dict(),
                "kind": series.kind,
                "count": series.count,
                "total": series.total,
                "last_cycle": series.last_cycle,
                "evicted": series.evicted,
            }
            for (_name, _key), series in sorted(self._series.items())
        ]
        return out
