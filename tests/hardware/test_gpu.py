"""GPU model tests: reduction roofline, launches, bandwidth."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExecutionError
from repro.hardware.event import PerfCounters
from repro.hardware.gpu import REDUCTION_THREADS_PER_BLOCK, GPUModel


@pytest.fixture
def gpu():
    return GPUModel()


class TestReduction:
    def test_empty_input_costs_nothing(self, gpu):
        assert gpu.reduction_cost(0, 8) == 0.0

    def test_negative_count_rejected(self, gpu):
        with pytest.raises(ExecutionError):
            gpu.reduction_cost(-1, 8)

    def test_too_many_threads_per_block(self):
        # The reduction launches 512-thread blocks: a device whose limit
        # is below that cannot run it, so the model refuses to exist.
        with pytest.raises(ExecutionError):
            GPUModel(max_threads_per_block=REDUCTION_THREADS_PER_BLOCK - 1)
        assert GPUModel(max_threads_per_block=REDUCTION_THREADS_PER_BLOCK)

    def test_launch_latency_floors_small_inputs(self, gpu):
        cost = gpu.reduction_cost(10, 8)
        assert cost >= 2 * gpu.launch_latency_cycles

    def test_bandwidth_bound_at_scale(self, gpu):
        """Big reductions are bandwidth-bound: cost ~ bytes/bandwidth."""
        count = 50_000_000
        cost = gpu.reduction_cost(count, 8)
        floor = gpu.seconds_to_host_cycles(count * 8 / gpu.device_bandwidth)
        assert cost >= floor
        assert cost <= 1.2 * floor + 4 * gpu.launch_latency_cycles

    def test_two_launches_counted(self, gpu):
        counters = PerfCounters()
        gpu.reduction_cost(1_000_000, 8, counters)
        assert counters.kernel_launches == 2
        assert counters.bytes_read == 8_000_000
        assert counters.device_cycles > 0

    def test_gpu_beats_cpu_stream_at_scale(self, gpu):
        """Finding (iv): device-resident columnar sums favor the GPU."""
        from repro.hardware.cache import AnalyticMemoryModel

        count = 5_000_000
        cpu_cost = AnalyticMemoryModel().sequential(count * 8) + count
        assert gpu.reduction_cost(count, 8) < cpu_cost


class TestRoofline:
    def test_streaming_kernel_bandwidth_side(self, gpu):
        seconds = gpu.streaming_kernel_seconds(nbytes=80_000_000, ops=1)
        assert seconds == pytest.approx(80_000_000 / gpu.device_bandwidth)

    def test_streaming_kernel_compute_side(self, gpu):
        seconds = gpu.streaming_kernel_seconds(nbytes=1, ops=10**12)
        assert seconds == pytest.approx(10**12 / (gpu.total_cores * gpu.clock_hz))

    def test_total_cores(self, gpu):
        assert gpu.total_cores == 640


@given(st.integers(0, 10**8))
def test_reduction_monotone_property(count):
    gpu = GPUModel()
    assert gpu.reduction_cost(count, 8) <= gpu.reduction_cost(count + 1024, 8)
