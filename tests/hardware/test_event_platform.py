"""PerfCounters and Platform assembly tests."""

import pytest

from repro.hardware.event import PerfCounters
from repro.hardware.memory import MemoryKind
from repro.hardware.platform import Platform


class TestPerfCounters:
    def test_merge_adds_fields(self):
        a = PerfCounters(cycles=10, l1_hits=2)
        b = PerfCounters(cycles=5, l1_hits=1, bytes_read=64)
        a.merge(b)
        assert a.cycles == 15 and a.l1_hits == 3 and a.bytes_read == 64

    def test_snapshot_copies_every_counter(self):
        counters = PerfCounters(cycles=7, tlb_misses=3)
        snap = counters.snapshot()
        assert snap["cycles"] == 7 and snap["tlb_misses"] == 3
        counters.tlb_misses += 1
        assert snap["tlb_misses"] == 3


class TestPlatform:
    def test_testbed_calibration(self):
        platform = Platform.paper_testbed()
        assert platform.cpu.cores == 4
        assert platform.cpu.frequency_hz == 2.6e9
        assert platform.gpu.sms == 5
        assert platform.gpu.cores_per_sm == 128
        assert platform.device_memory.capacity == 4044 * 1024 * 1024
        assert platform.memory_model.llc_size == 6144 * 1024

    def test_space_lookup(self):
        platform = Platform.paper_testbed()
        assert platform.space(MemoryKind.HOST) is platform.host_memory
        assert platform.space(MemoryKind.DEVICE) is platform.device_memory
        assert platform.space(MemoryKind.DISK) is platform.disk

    def test_fresh_platforms_are_independent(self):
        first = Platform.paper_testbed()
        second = Platform.paper_testbed()
        first.host_memory.allocate(1024)
        assert second.host_memory.used == 0

    def test_trace_hierarchy_matches_analytic_geometry(self):
        platform = Platform.paper_testbed()
        hierarchy = platform.make_trace_hierarchy()
        assert hierarchy.levels[-1].geometry.size == platform.memory_model.llc_size
        assert hierarchy.line == platform.memory_model.line

    def test_seconds_conversion(self):
        platform = Platform.paper_testbed()
        assert platform.seconds(2.6e9) == pytest.approx(1.0)

    def test_capacity_overrides(self):
        platform = Platform.paper_testbed(device_capacity=1000)
        assert platform.device_memory.capacity == 1000


class TestModernTestbed:
    def test_modern_machine_is_strictly_faster(self):
        """Every modern component dominates the 2017 one — the A8 sweep
        compares architectures, not a handicapped strawman."""
        old = Platform.paper_testbed()
        new = Platform.modern_testbed()
        assert new.cpu.cores > old.cpu.cores
        assert new.cpu.stream_bandwidth_aggregate > old.cpu.stream_bandwidth_aggregate
        assert new.cpu.thread_spawn_cycles < old.cpu.thread_spawn_cycles
        assert new.gpu.device_bandwidth > old.gpu.device_bandwidth
        assert new.interconnect.bandwidth > old.interconnect.bandwidth
        assert new.memory_model.llc_size > old.memory_model.llc_size

    def test_modern_scan_cheaper_in_wall_time(self):
        from repro.execution import ExecutionContext
        from repro.bench import build_column_store
        from repro.workload import item_relation

        times = {}
        for label, factory in (("old", Platform.paper_testbed), ("new", Platform.modern_testbed)):
            platform = factory()
            store = build_column_store(platform, item_relation(5_000_000))
            ctx = ExecutionContext(platform)
            from repro.execution import sum_column

            sum_column(store, "i_price", ctx)
            times[label] = ctx.seconds()
        assert times["new"] < times["old"]
