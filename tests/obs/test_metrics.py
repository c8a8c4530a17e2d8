"""MetricsRegistry aggregation and derived scheduler-readable rates."""

import pytest

from repro.hardware.event import PerfCounters
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_increases_and_rejects_negative(self):
        counter = Counter("c")
        assert counter.inc() == 1.0
        assert counter.inc(4.0) == 5.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_holds_latest(self):
        gauge = Gauge("g")
        gauge.set(0.25)
        gauge.set(0.75)
        assert gauge.value == 0.75

    def test_histogram_summary(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["total"] == 6.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0
        assert summary["p50"] == 2.0
        assert summary["p95"] == pytest.approx(2.9)
        assert summary["p99"] == pytest.approx(2.98)

    def test_empty_histogram_summary_is_zeros(self):
        summary = Histogram("h").summary()
        assert summary["count"] == 0
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.0

    def test_percentile_interpolates_between_ranks(self):
        histogram = Histogram("h")
        # Unsorted on purpose: percentile must sort internally.
        for value in (40.0, 10.0, 30.0, 20.0):
            histogram.observe(value)
        assert histogram.percentile(0.0) == 10.0
        assert histogram.percentile(100.0) == 40.0
        assert histogram.percentile(50.0) == pytest.approx(25.0)
        # rank = 3 * 0.25 = 0.75 -> between 10 and 20.
        assert histogram.percentile(25.0) == pytest.approx(17.5)

    def test_percentile_matches_numpy_linear_method(self):
        import numpy as np

        histogram = Histogram("h")
        values = [float((value * 37) % 101) for value in range(23)]
        for value in values:
            histogram.observe(value)
        for q in (0.0, 12.5, 50.0, 95.0, 99.0, 100.0):
            assert histogram.percentile(q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_percentile_of_singleton_is_that_value(self):
        histogram = Histogram("h")
        histogram.observe(7.0)
        assert histogram.percentile(99.0) == 7.0

    def test_percentile_rejects_out_of_range(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(-0.1)
        with pytest.raises(ValueError):
            histogram.percentile(100.1)

    def test_percentile_of_empty_histogram_is_zero(self):
        assert Histogram("h").percentile(50.0) == 0.0


class TestHistogramMerge:
    def test_prefix_filter_requires_the_dot(self):
        registry = MetricsRegistry()
        registry.histogram("shard-latency.0").observe(1.0)
        registry.histogram("shard-latency-extra.0").observe(2.0)
        assert list(registry.histograms_with_prefix("shard-latency")) == [
            "shard-latency.0"
        ]


class TestRegistry:
    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_observe_query_merges_totals_and_histograms(self):
        registry = MetricsRegistry()
        registry.observe_query("q1", PerfCounters(cycles=100.0, pcie_bytes=8))
        registry.observe_query("q2", PerfCounters(cycles=300.0, pcie_bytes=24))
        assert registry.totals.cycles == 400.0
        assert registry.totals.pcie_bytes == 32
        assert registry.histogram("query.cycles").summary()["mean"] == 200.0
        queries = registry.dump()["queries"]
        assert [entry["query"] for entry in queries] == ["q1", "q2"]

    def test_derived_rates_from_counters_alone(self):
        registry = MetricsRegistry()
        registry.observe_query(
            "q",
            PerfCounters(
                staging_hits=3, staging_misses=1, faults_injected=2, fault_retries=2
            ),
        )
        rates = registry.derive_rates()
        assert rates["staging_hit_rate"] == pytest.approx(0.75)
        assert rates["fault_retry_rate"] == pytest.approx(1.0)
        assert "pcie_bandwidth_utilization" not in rates  # no platform given
        assert registry.gauge("staging_hit_rate").value == pytest.approx(0.75)

    def test_rates_default_to_zero_when_nothing_happened(self):
        rates = MetricsRegistry().derive_rates()
        assert rates["staging_hit_rate"] == 0.0
        assert rates["fault_retry_rate"] == 0.0

    def test_pcie_utilization_needs_platform(self):
        from repro.hardware.platform import Platform

        platform = Platform.paper_testbed()
        registry = MetricsRegistry()
        # One second of simulated time moving half the rated bandwidth.
        seconds = 1.0
        cycles = platform.cpu.frequency_hz * seconds
        payload = int(platform.interconnect.bandwidth * seconds / 2)
        registry.observe_query(
            "q", PerfCounters(cycles=cycles, pcie_bytes=payload)
        )
        rates = registry.derive_rates(platform=platform)
        assert rates["pcie_bandwidth_utilization"] == pytest.approx(0.5, rel=1e-6)

    def test_wal_group_commit_size(self):
        from repro.execution.context import ExecutionContext
        from repro.hardware.platform import Platform
        from repro.recovery.wal import WriteAheadLog

        platform = Platform.paper_testbed()
        ctx = ExecutionContext(platform)
        wal = WriteAheadLog(platform, group_commit=4)
        for txn in range(1, 9):
            wal.log_begin(txn, ctx)
            wal.log_commit(txn, ctx)
        registry = MetricsRegistry()
        registry.observe_query("oltp", ctx.counters)
        rates = registry.derive_rates(wal=wal)
        # 16 records made durable by 2 group-commit fsyncs.
        assert rates["wal_group_commit_records"] == pytest.approx(8.0)

    def test_dump_is_plain_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        dump = registry.dump()
        assert list(dump["counters"]) == ["a", "b"]
        assert set(dump) == {"counters", "gauges", "histograms", "totals", "queries"}
