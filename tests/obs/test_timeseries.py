"""Dimensional time series: samples, labels, window reads, closure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.event import PerfCounters
from repro.obs.metrics import LABEL_KEYS, MetricsRegistry, TimeSeries


class TestTimeSeries:
    def test_counter_rejects_negative_delta(self):
        series = TimeSeries("events", frozenset())
        with pytest.raises(ValueError):
            series.append(10.0, -1.0)

    def test_gauge_accepts_any_value(self):
        series = TimeSeries("level", frozenset(), kind="gauge")
        series.append(5.0, -3.0)
        assert series.total == -3.0

    def test_unknown_kind_and_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries("x", frozenset(), kind="summary")


class TestLabels:
    def test_unknown_label_key_is_a_hard_error(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown label keys"):
            registry.record("events", 1.0, cycle=0.0, region="us-east")

    def test_vocabulary_keys_all_accepted(self):
        registry = MetricsRegistry()
        for key in sorted(LABEL_KEYS):
            registry.record("events", 1.0, cycle=0.0, **{key: "a"})
        assert registry.total("events") == float(len(LABEL_KEYS))

    def test_matching_filters_on_label_subset(self):
        registry = MetricsRegistry()
        registry.record("events", 1.0, cycle=0.0, tenant="t0")
        registry.record("events", 2.0, cycle=0.0, tenant="t0")
        registry.record("events", 4.0, cycle=0.0, tenant="t1")
        registry.record("events", 8.0, cycle=0.0)
        assert len(registry.matching("events")) == 3
        assert registry.total("events", tenant="t0") == 3.0
        assert registry.total("events", tenant="t1") == 4.0
        assert registry.total("events") == 15.0

    def test_kind_is_fixed_at_first_use(self):
        registry = MetricsRegistry()
        registry.record("latency", 10.0, cycle=0.0, kind="gauge")
        with pytest.raises(ValueError, match="already exists as kind"):
            registry.record("latency", 1.0, cycle=1.0, kind="counter")


class TestValues:
    def test_half_open_window_in_cycle_order_filtered_by_label(self):
        registry = MetricsRegistry()
        for cycle in (30.0, 10.0, 40.0, 20.0):
            registry.record(
                "latency", cycle + 1.0, cycle=cycle, kind="gauge", tenant="t0"
            )
        registry.record("latency", 99.0, cycle=25.0, kind="gauge", tenant="t1")
        # [10, 40): the start is in, the end is out, and the samples
        # come back in cycle order whatever order they were recorded in.
        assert registry.values("latency", 10.0, 40.0, tenant="t0") == [
            11.0,
            21.0,
            31.0,
        ]
        assert registry.values("latency", 0.0, 100.0, tenant="t1") == [99.0]
        assert sorted(registry.values("latency", 20.0, 30.0)) == [21.0, 99.0]
        assert registry.values("latency", 40.0, 40.0) == []
        assert registry.values("events", 0.0, 100.0) == []


class TestClosure:
    def test_platform_series_close_against_perfcounters(self):
        registry = MetricsRegistry()
        totals = PerfCounters()
        for cycle in (100.0, 250.0, 900.0):
            delta = PerfCounters(cycles=cycle / 10.0, pcie_bytes=64, transfers=1)
            registry.observe_query(delta, cycle)
            totals.merge(delta)
        assert registry.verify_closure(totals) == []

    def test_lost_increment_is_detected(self):
        registry = MetricsRegistry()
        totals = PerfCounters()
        delta = PerfCounters(pcie_bytes=64)
        registry.observe_query(delta, 10.0)
        totals.merge(delta)
        totals.pcie_bytes += 64  # charged but never emitted
        problems = registry.verify_closure(totals)
        assert any("platform.pcie_bytes" in problem for problem in problems)

    def test_never_sampled_field_is_detected(self):
        """A charge in a field no sampled delta carried has no series;
        the absent series totals 0, so the gate still sees it."""
        problems = MetricsRegistry().verify_closure(PerfCounters(pcie_bytes=64))
        assert [problem.split(":")[0] for problem in problems] == [
            "platform.pcie_bytes"
        ]
        registry = MetricsRegistry()
        registry.observe_query(PerfCounters(pcie_bytes=64), 10.0)
        problems = registry.verify_closure(
            PerfCounters(pcie_bytes=64, faults_injected=3)
        )
        assert [problem.split(":")[0] for problem in problems] == [
            "platform.faults_injected"
        ]

    def test_loss_below_the_old_tolerance_is_detected(self):
        """Closure is exact: a loss of one part in a million still fails."""
        registry = MetricsRegistry()
        registry.observe_query(PerfCounters(cycles=1e9), 10.0)
        problems = registry.verify_closure(PerfCounters(cycles=1e9 + 999.0))
        assert [problem.split(":")[0] for problem in problems] == [
            "platform.cycles"
        ]
        registry = MetricsRegistry()
        registry.observe_query(PerfCounters(pcie_bytes=10**7), 10.0)
        problems = registry.verify_closure(PerfCounters(pcie_bytes=10**7 + 9))
        assert [problem.split(":")[0] for problem in problems] == [
            "platform.pcie_bytes"
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e7),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=64,
        )
    )
    def test_window_sums_close_for_any_sample_stream(self, stream):
        """The closure property: for any stream of deltas sampled through
        ``observe_query``, every series closes against the merged
        totals."""
        registry = MetricsRegistry()
        totals = PerfCounters()
        for cycle, hits in stream:
            delta = PerfCounters(cycles=cycle, staging_hits=hits)
            registry.observe_query(delta, cycle)
            totals.merge(delta)
        assert registry.verify_closure(totals) == []

