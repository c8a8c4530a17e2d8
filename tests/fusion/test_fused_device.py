"""Fused device execution: one burst, one launch, capacity degradation."""

import numpy as np
import pytest

from repro.errors import CapacityError, ExecutionError
from repro.execution.context import ExecutionContext
from repro.fusion import Pipeline, compile_pipeline
from repro.fusion.device import run_fused_device
from repro.fusion.oracle import run_unfused_device, run_unfused_host
from repro.hardware import Platform

from tests.fusion.stores import dsm_store, fusion_columns, fusion_relation

ROWS = 2_048


def probe(values):
    return values < 400


@pytest.fixture
def plan():
    return compile_pipeline(
        Pipeline.scan("key").filter(probe).aggregate("sum", on="price")
    )


@pytest.fixture
def oracle(plan, relation, columns):
    return run_unfused_host(
        plan,
        dsm_store(Platform.paper_testbed(), relation, columns),
        ExecutionContext(Platform.paper_testbed()),
    )


class TestCostEvents:
    def test_cold_run_is_one_burst_one_launch(self, plan, relation, columns, oracle):
        platform = Platform.paper_testbed()
        store = dsm_store(platform, relation, columns)
        ctx = ExecutionContext(platform)
        assert run_fused_device(plan, store, ctx) == oracle
        counters = ctx.counters
        # Both operand columns cross in ONE coalesced burst; the only
        # other wire event is the scalar result copy.
        assert counters.transfers == 2
        assert counters.kernel_launches == 1
        assert counters.staging_misses == 2
        assert counters.pcie_bytes == 2 * ROWS * 8 + 8

    def test_warm_run_hits_the_cache(self, plan, relation, columns, oracle):
        platform = Platform.paper_testbed()
        store = dsm_store(platform, relation, columns)
        run_fused_device(plan, store, ExecutionContext(platform))
        warm = ExecutionContext(platform)
        assert run_fused_device(plan, store, warm) == oracle
        assert warm.counters.staging_hits == 2
        assert warm.counters.transfers == 1  # result copy only
        assert warm.counters.kernel_launches == 1
        assert warm.counters.pcie_bytes == 8

    def test_unfused_device_pays_per_operator(self, plan, relation, columns, oracle):
        fused_platform = Platform.paper_testbed()
        fused_store = dsm_store(fused_platform, relation, columns)
        run_fused_device(plan, fused_store, ExecutionContext(fused_platform))
        fused_warm = ExecutionContext(fused_platform)
        assert run_fused_device(plan, fused_store, fused_warm) == oracle

        unfused_platform = Platform.paper_testbed()
        unfused_store = dsm_store(unfused_platform, relation, columns)
        run_unfused_device(plan, unfused_store, ExecutionContext(unfused_platform))
        unfused_warm = ExecutionContext(unfused_platform)
        assert run_unfused_device(plan, unfused_store, unfused_warm) == oracle
        # Five launches (select x2, gather, reduce x2) against one, and
        # the position list crosses the bus twice.
        assert unfused_warm.counters.kernel_launches == 5
        assert unfused_warm.counters.transfers > fused_warm.counters.transfers
        assert unfused_warm.cycles > fused_warm.cycles


class TestDegradation:
    def test_capacity_error_when_operands_cannot_stage(self, plan, relation, columns):
        platform = Platform.paper_testbed(device_capacity=256)
        store = dsm_store(platform, relation, columns)
        with pytest.raises(CapacityError):
            run_fused_device(plan, store, ExecutionContext(platform))

    def test_zero_size_contract(self, plan):
        platform = Platform.paper_testbed()
        empty = fusion_relation(0)
        store = dsm_store(
            platform, empty,
            {"key": np.empty(0, np.int64), "price": np.empty(0)},
        )
        ctx = ExecutionContext(platform)
        assert run_fused_device(plan, store, ctx) == plan.identity
        assert ctx.cycles == 0.0
        assert ctx.counters.transfers == 0
        assert ctx.counters.kernel_launches == 0
        unfused = ExecutionContext(platform)
        assert run_unfused_device(plan, store, unfused) == plan.identity
        assert unfused.cycles == 0.0


class TestKernelModel:
    def test_zero_count_kernel_is_free(self, platform):
        assert platform.gpu.fused_pipeline_cost(0, (8, 8)) == 0.0

    def test_invalid_geometry_rejected(self, platform):
        with pytest.raises(ExecutionError):
            platform.gpu.fused_pipeline_cost(-1, (8,))
        with pytest.raises(ExecutionError):
            platform.gpu.fused_pipeline_cost(100, ())
        with pytest.raises(ExecutionError):
            platform.gpu.fused_pipeline_cost(100, (0,))

    def test_one_launch_latency_not_two(self, platform):
        # The fused launch pays the 5 us launch latency once; the
        # two-pass reduction of the same element count pays it twice.
        fused = platform.gpu.fused_pipeline_cost(10_000, (8,))
        reduction = platform.gpu.reduction_cost(10_000, 8)
        assert fused < reduction
