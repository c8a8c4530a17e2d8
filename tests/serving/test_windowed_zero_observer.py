"""A metrics registry must not perturb a serving run byte-for-byte.

The serving loop's ``serving.*`` series and the ``platform.*`` series
it derives from settled counters only ever *read* the simulated clock —
they never charge a cycle and never draw randomness.  These tests run
identical serving cells with a registry and with none, and compare the
full observable behaviour: answers, makespan, and every counter.
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.serving.server import BATCH_16
from repro.serving.verifier import build_tenants, serve_once


def fingerprint(outcome):
    return {
        "answers": [
            (seq, repr(answer))
            for seq, __, answer in outcome.loop.answers_for_replay()
        ],
        "makespan": outcome.report.makespan_cycles,
        "snapshot": outcome.ctx.counters.snapshot(),
    }


def run_cell(seed, overflow_rate, registry):
    horizon = 300_000.0
    tenants = build_tenants(2, 40_000.0)
    return serve_once(
        seed,
        2_000,
        tenants,
        horizon,
        BATCH_16,
        max_backlog=8 if overflow_rate else None,
        overflow_rate=overflow_rate,
        registry=registry,
    )


class TestWindowedZeroObserver:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        chaotic=st.booleans(),
    )
    def test_windowed_run_is_byte_identical(self, seed, chaotic):
        overflow = 0.08 if chaotic else 0.0
        plain = run_cell(seed, overflow, registry=None)
        windowed = run_cell(seed, overflow, registry=MetricsRegistry())
        assert fingerprint(windowed) == fingerprint(plain)

    def test_windowed_run_actually_recorded_series(self):
        registry = MetricsRegistry()
        run_cell(5, 0.0, registry=registry)
        assert registry.matching("serving.latency")
        assert registry.matching("serving.served")
        assert registry.total("serving.served") > 0

    def test_windowed_run_closes_against_root_counters(self):
        registry = MetricsRegistry()
        outcome = run_cell(5, 0.08, registry=registry)
        assert registry.verify_closure(outcome.ctx.counters) == []


class TestSeriesAgreeWithReport:
    def test_serving_series_match_the_report_per_tenant(self):
        """The SLOs read the ``serving.*`` series and the serving gates
        read the report; both must describe the same run."""
        registry = MetricsRegistry()
        report = run_cell(5, 0.08, registry=registry).report
        assert report.shed
        tenants = {query.tenant for query in report.executed}
        tenants |= {shed.tenant for shed in report.shed}
        for tenant in sorted(tenants):
            executed = [query for query in report.executed if query.tenant == tenant]
            shed = [query for query in report.shed if query.tenant == tenant]
            latencies = registry.values("serving.latency", 0.0, math.inf, tenant=tenant)
            assert sorted(latencies) == sorted(
                query.latency_cycles for query in executed
            )
            assert registry.total("serving.served", tenant=tenant) == len(executed)
            assert registry.total("serving.shed", tenant=tenant) == len(shed)
