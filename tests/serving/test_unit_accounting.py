"""Per-unit accounting: every unit runs on its own forked context.

The serving loop forks its root context once per dispatched unit,
seeds the fork's cycle counter at the dispatch instant, and merges the
fork's counters (minus the seed) into the root once.  These tests pin
the two consequences: the root totals close exactly against the
registry's ``platform.*`` series under any serving cell, and every span
a unit records lies on the loop's timeline inside that unit.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.execution.context import ExecutionContext
from repro.hardware.platform import Platform
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.serving.admission import AdmissionQueue
from repro.serving.arrivals import WorkloadGenerator
from repro.serving.server import BATCH_16, SERIAL_DISPATCH, LayoutBackend, ServingLoop
from repro.serving.verifier import (
    OLAP_ATTRIBUTES,
    build_item_store,
    build_tenants,
    serve_once,
)


class TestRollUp:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        tenants=st.integers(min_value=1, max_value=4),
        gap=st.sampled_from([5_000.0, 20_000.0, 80_000.0]),
        policy=st.sampled_from([SERIAL_DISPATCH, BATCH_16]),
        max_backlog=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        overflow_rate=st.sampled_from([0.0, 0.1, 0.3]),
    )
    def test_root_totals_close_against_the_registry(
        self, tenants, gap, policy, max_backlog, overflow_rate
    ):
        outcome = serve_once(
            seed=7,
            row_count=2_000,
            tenants=build_tenants(tenants, gap),
            horizon_cycles=300_000.0,
            policy=policy,
            max_backlog=max_backlog,
            overflow_rate=overflow_rate,
            registry=MetricsRegistry(),
        )
        assert outcome.registry.verify_closure(outcome.ctx.counters) == []


class RootsPerUnit:
    """A backend proxy noting the trace roots each dispatched unit opened."""

    def __init__(self, backend: LayoutBackend, tracer) -> None:
        self.backend = backend
        self.tracer = tracer
        self.units: list[list] = []

    def batchable(self, spec) -> bool:
        return self.backend.batchable(spec)

    def is_write(self, spec) -> bool:
        return self.backend.is_write(spec)

    def run(self, spec, ctx):
        first = len(self.tracer.roots)
        answer = self.backend.run(spec, ctx)
        self.units.append(self.tracer.roots[first:])
        return answer

    def run_batch(self, specs, ctx):
        first = len(self.tracer.roots)
        answers = self.backend.run_batch(specs, ctx)
        self.units.append(self.tracer.roots[first:])
        return answers


def test_spans_lie_within_their_unit():
    """Dropping the dispatch-instant seed stamps spans from cycle 0."""
    with tracing() as tracer:
        platform = Platform.paper_testbed()
        store = build_item_store(platform, 4_000)
        arrivals = WorkloadGenerator(
            store.relation,
            build_tenants(3, 20_000.0),
            seed=5,
            olap_attributes=OLAP_ATTRIBUTES,
        ).arrivals(1_000_000.0)
        backend = RootsPerUnit(LayoutBackend(platform, store), tracer)
        loop = ServingLoop(
            backend, ExecutionContext(platform), AdmissionQueue(None), BATCH_16
        )
        report = loop.run(arrivals)
    windows = {
        query.unit: (query.start_cycle, query.finish_cycle)
        for query in report.executed
    }
    assert len(backend.units) == report.units == len(windows)
    assert min(start for start, __ in windows.values()) > 0.0
    spans = 0
    for unit, roots in enumerate(backend.units):
        start, finish = windows[unit]
        for root in roots:
            for span in root.walk():
                assert start <= span.begin <= span.end <= finish, (
                    f"unit {unit} [{start}, {finish}]: {span.name} "
                    f"[{span.begin}, {span.end}]"
                )
                spans += 1
    assert spans > report.units
