"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloSpec` states an objective over one of the time series of
a :class:`~repro.obs.metrics.MetricsRegistry` — "p99 latency ≤ N
cycles" is really "at least 99% of latency samples are ≤ N", "error
rate ≤ x" is "at least 1-x of outcomes are good", "staging hit rate ≥
y" is already in that shape — so every spec reduces to a **good-event
fraction** per window, read through
:meth:`~repro.obs.metrics.MetricsRegistry.values`, and an **error
budget** ``1 - objective``.

:func:`evaluate_slos` applies the standard multi-window burn-rate method: the
*burn rate* of a window is ``bad_fraction / budget`` (1.0 = spending
the budget exactly at the sustainable rate), and an alert fires only
when **both** a fast and a slow window exceed a policy's threshold —
the fast window catches the onset quickly, the slow window suppresses
one-off blips.  Two built-in policies mirror the SRE-workbook pairing:
:data:`PAGE` (high burn over short windows) and :data:`TICKET` (modest
burn over long windows).

Everything runs on the simulated cycle timeline: evaluation strides
are multiples of the fast window, so :class:`Alert` records carry
deterministic cycle timestamps — identical seeds produce identical
alert streams, which ``python -m repro.verify obs`` gates.  Alerts fire on
the *rising edge* of a violation (one alert per continuous episode per
policy), and an episode that never clears never re-fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.hardware.event import Cycles
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SloSpec",
    "BurnRatePolicy",
    "PAGE",
    "TICKET",
    "DEFAULT_POLICIES",
    "Alert",
    "evaluate_slos",
]


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over the registry's time series.

    Two kinds cover the specs the platform needs:

    ``latency``
        *metric* is a gauge series of latencies; a sample is **bad**
        when it exceeds *threshold* cycles.  ``objective = 0.99`` with
        a threshold N reads "p99 latency ≤ N".
    ``event_ratio``
        *metric* is the **good**-event counter series and *bad_metric*
        the bad-event one; the window's bad fraction is
        ``bad / (good + bad)``.  "error rate ≤ 5%" is
        ``objective = 0.95`` over served/shed; "staging hit rate ≥ y"
        is ``objective = y`` over hits/misses.

    *labels* restrict the evaluation to matching series (e.g. one
    tenant); empty labels aggregate across all label sets.
    """

    name: str
    kind: str
    metric: str
    objective: float
    threshold: float | None = None
    bad_metric: str | None = None
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "event_ratio"):
            raise ValueError(
                f"{self.name}: kind must be 'latency' or 'event_ratio', "
                f"got {self.kind!r}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"{self.name}: objective must be in (0, 1), got {self.objective}"
            )
        if self.kind == "latency" and self.threshold is None:
            raise ValueError(f"{self.name}: latency SLOs need a threshold")
        if self.kind == "event_ratio" and self.bad_metric is None:
            raise ValueError(f"{self.name}: event_ratio SLOs need bad_metric")

    @property
    def budget(self) -> float:
        """The error budget: the tolerable bad-event fraction."""
        return 1.0 - self.objective

    def bad_fraction(
        self, registry: MetricsRegistry, start: Cycles, end: Cycles
    ) -> float:
        """The bad-event fraction inside ``[start, end)`` (0 when idle)."""
        if self.kind == "latency":
            samples = registry.values(self.metric, start, end, **self.labels)
            if not samples:
                return 0.0
            bad = sum(1 for value in samples if value > self.threshold)
            return bad / len(samples)
        good = sum(registry.values(self.metric, start, end, **self.labels))
        bad = sum(registry.values(self.bad_metric, start, end, **self.labels))
        total = good + bad
        return bad / total if total > 0 else 0.0


@dataclass(frozen=True)
class BurnRatePolicy:
    """One (fast window, slow window, burn threshold) alerting rule.

    *fast_fraction* / *slow_fraction* size the windows relative to the
    evaluated horizon, so one policy works across runs of different
    lengths; *burn* is the rate both windows must exceed.  *severity*
    names the alert stream the rule feeds.
    """

    severity: str
    fast_fraction: float = 1.0 / 20.0
    slow_fraction: float = 1.0 / 4.0
    burn: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fast_fraction <= self.slow_fraction <= 1.0:
            raise ValueError(
                f"{self.severity}: need 0 < fast <= slow <= 1, got "
                f"{self.fast_fraction} / {self.slow_fraction}"
            )
        if self.burn <= 0.0:
            raise ValueError(f"{self.severity}: burn must be > 0, got {self.burn}")


#: Page-grade rule: a fierce burn sustained across a short pairing.
PAGE = BurnRatePolicy("page", 1.0 / 20.0, 1.0 / 8.0, burn=10.0)

#: Ticket-grade rule: a modest burn sustained across long windows.
TICKET = BurnRatePolicy("ticket", 1.0 / 8.0, 1.0 / 3.0, burn=3.0)

#: The default multi-window pairing the verifier evaluates.
DEFAULT_POLICIES: tuple[BurnRatePolicy, ...] = (PAGE, TICKET)


@dataclass(frozen=True)
class Alert:
    """One deterministic burn-rate alert.

    ``cycle`` is the evaluation-stride boundary at which both windows
    first exceeded the policy's burn — a pure function of the seeded
    run, so identical seeds yield identical alert streams.
    """

    slo: str
    severity: str
    cycle: Cycles
    burn_fast: float
    burn_slow: float
    budget: float
    threshold_burn: float

    def key(self) -> tuple:
        """The comparison tuple the determinism gate matches on."""
        return (
            self.slo,
            self.severity,
            self.cycle,
            round(self.burn_fast, 9),
            round(self.burn_slow, 9),
        )


def evaluate_slos(
    registry: MetricsRegistry,
    specs: Iterable[SloSpec],
    horizon: Cycles,
    policies: Iterable[BurnRatePolicy] = DEFAULT_POLICIES,
) -> list[Alert]:
    """Every alert *specs* fire over *registry* on ``[0, horizon]``.

    Walks stride boundaries (one fast window per stride) for each
    (spec, policy) pair, computes the fast and slow trailing-window
    burn rates at each, and emits one alert per rising edge; *policies*
    defaults to :data:`DEFAULT_POLICIES`.  The alerts come back in
    cycle order.  Evaluation is read-only and charges nothing.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    policies = tuple(policies)
    alerts: list[Alert] = []
    for spec in specs:
        for policy in policies:
            fast = horizon * policy.fast_fraction
            slow = horizon * policy.slow_fraction
            violating = False
            boundary = fast
            while boundary <= horizon + 1e-9:
                burn_fast = (
                    spec.bad_fraction(registry, boundary - fast, boundary)
                    / spec.budget
                )
                burn_slow = (
                    spec.bad_fraction(
                        registry, max(0.0, boundary - slow), boundary
                    )
                    / spec.budget
                )
                firing = burn_fast >= policy.burn and burn_slow >= policy.burn
                if firing and not violating:
                    alerts.append(
                        Alert(
                            slo=spec.name,
                            severity=policy.severity,
                            cycle=boundary,
                            burn_fast=burn_fast,
                            burn_slow=burn_slow,
                            budget=spec.budget,
                            threshold_burn=policy.burn,
                        )
                    )
                violating = firing
                boundary += fast
    alerts.sort(key=lambda alert: (alert.cycle, alert.slo, alert.severity))
    return alerts
