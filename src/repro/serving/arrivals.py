"""Open-loop arrival processes and the multi-tenant workload generator.

"Millions of users" do not wait for the previous query to finish: an
**open-loop** workload keeps arriving at its own rate regardless of how
the server is doing, which is exactly what makes tail latency and
admission control meaningful (a closed-loop client self-throttles and
hides overload).  This module puts seeded arrivals on the simulated
cycle timeline: :class:`PoissonArrivals` draws memoryless arrivals at a
constant rate, the baseline of every queueing model.

A :class:`TenantSpec` binds one arrival process to a fairness weight, a
priority class, and an :class:`~repro.workload.htap.HTAPMix`-shaped
query population; :class:`WorkloadGenerator` merges every tenant's
stream into one time-sorted sequence of :class:`QueryArrival` events.
Everything is a pure function of the seeds — the verifier's determinism
gate runs each cell twice and requires identical records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.hardware.event import Cycles
from repro.model.relation import Relation
from repro.workload.htap import HTAPMix
from repro.workload.queries import QuerySpec

__all__ = [
    "PoissonArrivals",
    "TenantSpec",
    "QueryArrival",
    "WorkloadGenerator",
]


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals: exponential gaps with the given mean."""

    mean_gap_cycles: float

    def __post_init__(self) -> None:
        if self.mean_gap_cycles <= 0:
            raise WorkloadError(
                f"mean_gap_cycles must be positive, got {self.mean_gap_cycles}"
            )

    def cycles_until(
        self, rng: np.random.Generator, horizon_cycles: Cycles, limit: int
    ) -> list[float]:
        """Absolute arrival cycles in ``(0, horizon]``, capped at *limit*.

        Gaps are exponential with mean ``mean_gap_cycles``, drawn from
        *rng*; the process is stateless, so one object can be shared
        across tenants and runs.
        """
        if horizon_cycles <= 0:
            raise WorkloadError(f"horizon must be positive, got {horizon_cycles}")
        out: list[float] = []
        now = 0.0
        while True:
            now += float(rng.exponential(self.mean_gap_cycles))
            if now > horizon_cycles or len(out) >= limit:
                return out
            out.append(now)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the serving tier: identity, rate, mix, and rights.

    Attributes
    ----------
    name:
        Tenant identity (also the fairness-accounting key).
    arrivals:
        The tenant's open-loop arrival process.
    weight:
        Weighted-fair-queueing share; a weight-2 tenant drains twice as
        fast as a weight-1 tenant under contention.
    priority:
        Priority class, lower is more urgent (0 = interactive).  The
        admission queue serves classes strictly in order and sheds the
        lowest class first under overflow pressure.
    oltp_fraction:
        The tenant's HTAP mix knob (share of transactional queries).
    seed_offset:
        Folded into the generator seed so tenants draw distinct streams.
    """

    name: str
    arrivals: PoissonArrivals
    weight: float = 1.0
    priority: int = 0
    oltp_fraction: float = 0.25
    seed_offset: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError(f"tenant weight must be positive, got {self.weight}")
        if self.priority < 0:
            raise WorkloadError(f"priority class must be >= 0, got {self.priority}")


@dataclass(frozen=True)
class QueryArrival:
    """One query landing on the timeline: who, when, and what.

    ``seq`` is the global arrival order — the serial-equivalence order
    the batch scheduler's write barriers preserve and the byte-identity
    oracle replays.
    """

    seq: int
    cycle: Cycles
    tenant: str
    priority: int
    weight: float
    spec: QuerySpec


@dataclass(frozen=True)
class WorkloadGenerator:
    """Merge every tenant's seeded stream into one arrival sequence.

    Each tenant gets an independent ``np.random.Generator`` seeded from
    ``(seed, tenant.seed_offset, index)`` and an
    :class:`~repro.workload.htap.HTAPMix` over *relation* with the
    tenant's OLTP fraction, so the merged stream is deterministic and
    tenants never share randomness.  Arrivals are sorted by
    ``(cycle, tenant name)`` and numbered with the global ``seq``.
    """

    relation: Relation
    tenants: tuple[TenantSpec, ...]
    seed: int = 0
    #: Safety cap per tenant so a mis-tuned rate cannot hang a run.
    max_queries_per_tenant: int = 100_000
    olap_attributes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.tenants:
            raise WorkloadError("a workload needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate tenant names in {names}")

    def arrivals(self, horizon_cycles: Cycles) -> list[QueryArrival]:
        """Every tenant's arrivals in ``(0, horizon]``, merged and numbered."""
        merged: list[tuple[float, str, int, float, QuerySpec]] = []
        for index, tenant in enumerate(self.tenants):
            rng = np.random.default_rng(
                (self.seed * 1_000_003 + tenant.seed_offset * 7919 + index) % (2**63)
            )
            cycles = tenant.arrivals.cycles_until(
                rng, horizon_cycles, self.max_queries_per_tenant
            )
            mix = HTAPMix(
                self.relation,
                oltp_fraction=tenant.oltp_fraction,
                olap_attributes=self.olap_attributes,
                seed=(self.seed * 31 + tenant.seed_offset + index) % (2**31),
            )
            specs = mix.query_list(len(cycles))
            for cycle, spec in zip(cycles, specs):
                merged.append(
                    (cycle, tenant.name, tenant.priority, tenant.weight, spec)
                )
        merged.sort(key=lambda item: (item[0], item[1]))
        return [
            QueryArrival(seq, cycle, tenant, priority, weight, spec)
            for seq, (cycle, tenant, priority, weight, spec) in enumerate(merged)
        ]
