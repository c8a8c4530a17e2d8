"""The serving loop: admission, batching, and the simulated event clock.

:class:`ServingLoop` is a discrete-event server over the simulated
cycle timeline.  Arrivals (from a
:class:`~repro.serving.arrivals.WorkloadGenerator`) are admitted
through an :class:`~repro.serving.admission.AdmissionQueue` as the
clock reaches them; eligible work is dispatched one *unit* at a time —
a single query, or a batch of compatible device queries grouped under
the :class:`BatchPolicy`; the clock advances by each unit's measured
service cycles; per-query latency is ``finish - arrival``.

**Serial-equivalence discipline.**  Every unit runs on its own
:class:`~repro.execution.context.ExecutionContext`, forked from the
loop's root context with its cycle counter seeded at the dispatch
instant (so spans inside the unit are stamped on the loop's timeline);
when the unit returns, its counters minus the seed are merged into the
root context once and observed in the
:class:`~repro.obs.MetricsRegistry` when the loop has one.  Dispatch
respects **write barriers**: reads may reorder freely between two
writes (they commute), but a write executes only once every
earlier-arriving query has — so the interleaved, batched execution
produces answers byte-identical to a serial replay of the same
admitted queries in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import (
    AdmissionRejected,
    CapacityError,
    DeviceError,
    TransferError,
)
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column, run_device_batch
from repro.execution.operators import (
    materialize_rows,
    sum_at_positions,
    sum_column,
    update_field,
)
from repro.hardware.event import Cycles, PerfCounters
from repro.obs.metrics import MetricsRegistry
from repro.serving.admission import AdmissionQueue
from repro.serving.arrivals import QueryArrival
from repro.workload.queries import QueryShape, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.platform import Platform
    from repro.layout.layout import Layout

__all__ = [
    "BatchPolicy",
    "SERIAL_DISPATCH",
    "BATCH_16",
    "LayoutBackend",
    "ExecutedQuery",
    "ShedQuery",
    "ServingReport",
    "ServingLoop",
]

#: The deterministic value a served point update writes (a pure
#: function of the position, so the serial replay writes it too).
UPDATE_VALUE_MODULUS = 97


@dataclass(frozen=True)
class BatchPolicy:
    """How the scheduler groups compatible device queries.

    ``max_batch = 1`` is serial dispatch (the baseline the throughput
    gate compares against); larger values let one dispatch absorb up
    to that many queued compatible queries.  Batches form naturally
    from backlog — the loop never waits for a batch to fill, so an
    idle system still serves single queries at first-arrival latency.
    """

    name: str
    max_batch: int = 1

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")


#: One query per dispatch: every device query pays its own launches.
SERIAL_DISPATCH = BatchPolicy("serial", 1)

#: The default batching policy the verifier gates.
BATCH_16 = BatchPolicy("batch-16", 16)


class LayoutBackend:
    """Single-node backend over one materialized :class:`Layout`.

    Full-column sums go to the device (through the staging cache),
    degrading to the host column scan when the device path surfaces a
    :class:`~repro.errors.DeviceError`/:class:`~repro.errors.TransferError`
    /:class:`~repro.errors.CapacityError`; point shapes run the host
    operators.  Device full sums are the *batchable* shape.
    """

    def __init__(self, platform: "Platform", store: "Layout") -> None:
        self.platform = platform
        self.store = store

    def batchable(self, spec: QuerySpec) -> bool:
        """Whether the query can join a device batch (full-column sums)."""
        return spec.shape is QueryShape.FULL_SUM

    def is_write(self, spec: QuerySpec) -> bool:
        """Whether the query mutates the store (dispatch barrier)."""
        return spec.shape is QueryShape.POINT_UPDATE

    def run(self, spec: QuerySpec, ctx: ExecutionContext) -> Any:
        """Execute one query; returns its data-plane answer."""
        if spec.shape is QueryShape.FULL_SUM:
            try:
                return device_sum_column(self.store, spec.attributes[0], ctx)
            except (DeviceError, TransferError, CapacityError) as error:
                return self._fall_back(error, [spec], ctx)[0]
        if spec.shape is QueryShape.POSITION_SUM:
            return sum_at_positions(
                self.store, spec.attributes[0], list(spec.positions), ctx
            )
        if spec.shape is QueryShape.POINT_MATERIALIZE:
            return materialize_rows(self.store, list(spec.positions), ctx)
        position = spec.positions[0]
        value = float(position % UPDATE_VALUE_MODULUS)
        update_field(self.store, position, spec.attributes[0], value, ctx)
        return value

    def run_batch(
        self, specs: Sequence[QuerySpec], ctx: ExecutionContext
    ) -> list[Any]:
        """Execute a batch of compatible device queries in one dispatch."""
        try:
            return run_device_batch(
                self.store, [spec.attributes[0] for spec in specs], ctx
            )
        except (DeviceError, TransferError, CapacityError) as error:
            return self._fall_back(error, specs, ctx)

    def _fall_back(
        self, error: Exception, specs: Sequence[QuerySpec], ctx: ExecutionContext
    ) -> list[float]:
        """Answer *specs* from the host columns after the device path failed.

        One failed dispatch is one fallback: an injected *error* is
        recorded once in the resilience report, and every query of the
        dispatch counts as degraded.
        """
        injector = self.platform.injector
        if getattr(error, "injected", False) and injector is not None:
            injector.report.record_fallback()
            ctx.counters.fault_fallbacks += 1
        ctx.counters.degraded_queries += len(specs)
        return [sum_column(self.store, spec.attributes[0], ctx) for spec in specs]


@dataclass(frozen=True)
class ExecutedQuery:
    """One served query: identity, timing, and answer."""

    seq: int
    tenant: str
    spec: QuerySpec
    arrival_cycle: Cycles
    start_cycle: Cycles
    finish_cycle: Cycles
    latency_cycles: Cycles
    unit: int
    batched: bool
    answer: Any


@dataclass(frozen=True)
class ShedQuery:
    """One query admission control refused."""

    seq: int
    tenant: str
    cycle: Cycles
    injected: bool


@dataclass
class ServingReport:
    """Everything one :meth:`ServingLoop.run` produced.

    ``executed`` is ordered by finish time and is the one record of
    every served query (its latency, spec and answer); ``shed`` is
    ordered by decision time; ``makespan_cycles`` is the clock when the
    last unit finished.
    """

    executed: list[ExecutedQuery] = field(default_factory=list)
    shed: list[ShedQuery] = field(default_factory=list)
    units: int = 0
    batches: int = 0
    makespan_cycles: Cycles = 0.0

    def throughput_per_second(self, platform: "Platform") -> float:
        """Served queries per simulated second of makespan."""
        seconds = platform.seconds(self.makespan_cycles)
        return len(self.executed) / seconds if seconds > 0 else 0.0


class ServingLoop:
    """The multi-tenant discrete-event serving loop.

    Parameters
    ----------
    backend:
        A :class:`LayoutBackend` (or anything with ``run`` /
        ``run_batch`` / ``batchable`` / ``is_write``).
    ctx:
        The root execution context.  Each unit runs on a fork of it,
        and the unit's counters are merged into it once,
        as are admission's counters when the run ends; after a run
        ``ctx.counters`` is the platform total, which a registry's
        ``platform.*`` series must close against exactly (the
        exactly-once gate).
    queue:
        The admission queue (owns backlog bound and fairness policy).
    policy:
        The batch policy.
    registry:
        Optional metrics sink.  Given one, the loop records the
        per-tenant ``serving.latency``/``served``/``shed`` series and
        feeds every counter delta it merges to
        :meth:`~repro.obs.MetricsRegistry.observe_query` at the loop's
        *now*; ``None`` (the default) records nothing.
    """

    def __init__(
        self,
        backend: Any,
        ctx: ExecutionContext,
        queue: AdmissionQueue,
        policy: BatchPolicy = SERIAL_DISPATCH,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.backend = backend
        self.ctx = ctx
        self.queue = queue
        self.policy = policy
        self.registry = registry
        self.now: Cycles = 0.0
        self._report = ServingReport()
        self._admission = PerfCounters()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit_due(self, arrivals: list[QueryArrival], cursor: int) -> int:
        """Admit every arrival with ``cycle <= now``; returns new cursor.

        Admissions charge the run's admission counters, which
        :meth:`run` merges once at the end, so injected overflow
        tallies roll up exactly once; an injected shed is recorded
        *recovered* (shedding is the designed response), an organic
        shed is just counted.
        """
        injector = self.ctx.platform.injector
        while cursor < len(arrivals) and arrivals[cursor].cycle <= self.now:
            arrival = arrivals[cursor]
            cursor += 1
            try:
                victim = self.queue.admit(arrival, self._admission)
            except AdmissionRejected as error:
                injected = bool(getattr(error, "injected", False))
                if injected and injector is not None:
                    injector.report.record_recovered()
                    self._admission.fault_recoveries += 1
                self._report.shed.append(
                    ShedQuery(arrival.seq, arrival.tenant, self.now, injected)
                )
                self._sample_shed(arrival.tenant)
                continue
            if victim is not None:
                self._report.shed.append(
                    ShedQuery(victim.seq, victim.tenant, self.now, False)
                )
                self._sample_shed(victim.tenant)
        return cursor

    def _sample_shed(self, tenant: str) -> None:
        """Record one per-tenant shed sample (no-op without a registry)."""
        if self.registry is not None:
            self.registry.record(
                "serving.shed", 1.0, cycle=self.now, tenant=tenant
            )

    def _merge(self, delta: PerfCounters) -> None:
        """Fold *delta* into the root counters and observe it at *now*.

        The registry (when the loop has one) sees exactly what the root
        counters gain, which is the closure its ``platform.*`` series
        are checked against.
        """
        self.ctx.counters.merge(delta)
        if self.registry is not None:
            self.registry.observe_query(delta, self.now)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _eligible(self) -> list[QueryArrival]:
        """Pending entries the write barriers allow to run now.

        Reads older than the oldest pending write commute and are all
        eligible; the write itself becomes eligible only once it is
        the globally oldest pending query — the discipline that keeps
        every answer equal to an arrival-order serial execution.
        """
        pending = self.queue.pending
        if not pending:
            return []
        write_seqs = [
            entry.seq for entry in pending if self.backend.is_write(entry.spec)
        ]
        barrier = min(write_seqs) if write_seqs else None
        eligible = [
            entry
            for entry in pending
            if not self.backend.is_write(entry.spec)
            and (barrier is None or entry.seq < barrier)
        ]
        if not eligible and barrier is not None:
            oldest = min(entry.seq for entry in pending)
            if barrier == oldest:
                eligible = [entry for entry in pending if entry.seq == barrier]
        return eligible

    def _dispatch_unit(self) -> bool:
        """Serve one unit (query or batch); returns False when idle.

        The unit runs on its own fork of the root context, its cycle
        counter seeded at the current clock; its cycles minus the seed
        are the unit's service time, the clock advances by them, and
        every member's latency is ``finish - arrival``.
        """
        eligible = self._eligible()
        if not eligible:
            return False
        order = self.queue.ordered(eligible)
        head = order[0]
        unit = [head]
        if self.policy.max_batch > 1 and self.backend.batchable(head.spec):
            for entry in order[1:]:
                if len(unit) >= self.policy.max_batch:
                    break
                if self.backend.batchable(entry.spec):
                    unit.append(entry)
        for entry in unit:
            self.queue.take(entry)
        batched = len(unit) > 1
        unit_id = self._report.units
        start = self.now
        unit_ctx = self.ctx.fork()
        # Seeded at the dispatch instant so spans inside the unit are
        # stamped on the loop's timeline; the seed comes off before the
        # merge.
        delta = unit_ctx.counters
        delta.cycles = start
        if batched:
            answers = self.backend.run_batch(
                [entry.spec for entry in unit], unit_ctx
            )
        else:
            answers = [self.backend.run(head.spec, unit_ctx)]
        delta.cycles -= start
        self._merge(delta)
        finish = start + delta.cycles
        for entry, answer in zip(unit, answers):
            latency = finish - entry.cycle
            if self.registry is not None:
                # Per-tenant end-to-end latency on the cycle timeline,
                # plus a served-event counter (the good half of the
                # shed/served error-ratio SLOs).
                self.registry.record(
                    "serving.latency", latency, cycle=finish,
                    kind="gauge", tenant=entry.tenant,
                )
                self.registry.record(
                    "serving.served", 1.0, cycle=finish, tenant=entry.tenant
                )
            self._report.executed.append(
                ExecutedQuery(
                    seq=entry.seq,
                    tenant=entry.tenant,
                    spec=entry.spec,
                    arrival_cycle=entry.cycle,
                    start_cycle=start,
                    finish_cycle=finish,
                    latency_cycles=latency,
                    unit=unit_id,
                    batched=batched,
                    answer=answer,
                )
            )
        self.now = finish
        self._report.units += 1
        if batched:
            self._report.batches += 1
        return True

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self, arrivals: list[QueryArrival]) -> ServingReport:
        """Serve the whole arrival sequence; returns the report.

        Drains every admitted query (open-loop: late arrivals keep
        landing while earlier ones are served), then merges the
        admission counters so the exactly-once attribution closes.
        """
        self._admission = PerfCounters()
        cursor = 0
        while True:
            cursor = self._admit_due(arrivals, cursor)
            if not self.queue.pending:
                if cursor >= len(arrivals):
                    break
                # Idle: jump the clock to the next arrival.
                self.now = max(self.now, arrivals[cursor].cycle)
                continue
            self._dispatch_unit()
        self._merge(self._admission)
        self._report.makespan_cycles = self.now
        return self._report

    def answers_for_replay(self) -> list[tuple[int, QuerySpec, Any]]:
        """Every served (seq, spec, answer), in global arrival order.

        This is the byte-identity contract: replaying exactly these
        specs serially, in this order, on identically-built state must
        reproduce every answer.
        """
        return [
            (query.seq, query.spec, query.answer)
            for query in sorted(self._report.executed, key=lambda query: query.seq)
        ]
