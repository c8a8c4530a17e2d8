"""MetricsRegistry counters, percentiles and derived scheduler-readable rates."""

import pytest

from repro.hardware.event import PerfCounters
from repro.obs.metrics import Counter, MetricsRegistry, percentile


class TestInstruments:
    def test_counter_increases_and_rejects_negative(self):
        counter = Counter("c")
        assert counter.inc() == 1.0
        assert counter.inc(4.0) == 5.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_percentile_interpolates_between_ranks(self):
        # Unsorted on purpose: percentile must sort internally.
        values = [40.0, 10.0, 30.0, 20.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 100.0) == 40.0
        assert percentile(values, 50.0) == pytest.approx(25.0)
        # rank = 3 * 0.25 = 0.75 -> between 10 and 20.
        assert percentile(values, 25.0) == pytest.approx(17.5)

    def test_percentile_matches_numpy_linear_method(self):
        import numpy as np

        values = [float((value * 37) % 101) for value in range(23)]
        for q in (0.0, 12.5, 50.0, 95.0, 99.0, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_percentile_of_singleton_is_that_value(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_percentile_of_empty_histogram_is_zero(self):
        assert percentile([], 50.0) == 0.0


class TestRegistry:
    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        registry.record("z", 1.0, cycle=0.0)
        registry.record("z", 2.0, cycle=1.0)
        [series] = registry.matching("z")
        assert series.samples == [(0.0, 1.0), (1.0, 2.0)]

    def test_observe_query_merges_totals(self):
        registry = MetricsRegistry()
        registry.observe_query(PerfCounters(cycles=100.0, pcie_bytes=8), 0.0)
        registry.observe_query(PerfCounters(cycles=300.0, pcie_bytes=24), 100.0)
        assert registry.totals.cycles == 400.0
        assert registry.totals.pcie_bytes == 32

    def test_derived_rates_from_counters_alone(self):
        registry = MetricsRegistry()
        registry.observe_query(
            PerfCounters(
                staging_hits=3, staging_misses=1, faults_injected=2, fault_retries=2
            ),
            0.0,
        )
        rates = registry.derive_rates()
        assert rates["staging_hit_rate"] == pytest.approx(0.75)
        assert rates["fault_retry_rate"] == pytest.approx(1.0)
        assert "pcie_bandwidth_utilization" not in rates  # no platform given

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
        registry.observe_query(PerfCounters(cycles=cycles, pcie_bytes=payload), 0.0)
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
        registry.observe_query(ctx.counters, ctx.cycles)
        rates = registry.derive_rates(wal=wal)
        # 16 records made durable by 2 group-commit fsyncs.
        assert rates["wal_group_commit_records"] == pytest.approx(8.0)
