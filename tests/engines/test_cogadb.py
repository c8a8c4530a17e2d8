"""CoGaDB tests: all-or-nothing placement, HyPE routing, calibration."""

import numpy as np
import pytest

from repro.engines.cogadb import CoGaDBEngine, HypeScheduler
from repro.errors import EngineError
from repro.execution import ExecutionContext
from repro.hardware import Platform
from repro.layout.fragment import Fragment
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.workload import item_schema


@pytest.fixture
def engine(loaded_item_engine_factory):
    return loaded_item_engine_factory(CoGaDBEngine)


class TestPlacement:
    def test_place_column_replicates(self, engine):
        cogadb, platform = engine
        ctx = ExecutionContext(platform)
        (report,) = cogadb.place_columns("item", ("i_price",), ctx)
        assert report.placed
        assert platform.device_memory.used == 500 * 8
        # Host copy still present (replication, not migration).
        (host_layout,) = cogadb.layouts("item")
        assert all(f.space is platform.host_memory for f in host_layout.fragments)
        (fragment,) = host_layout.fragments_for_attribute("i_price")
        assert platform.staging.cache.pins(host_layout.fragments) == [(fragment, "i_price")]

    def test_all_or_nothing_fallback(self, small_items):
        platform = Platform.paper_testbed(device_capacity=100)
        cogadb = CoGaDBEngine(platform)
        cogadb.create("item", item_schema())
        cogadb.load("item", small_items)
        ctx = ExecutionContext(platform)
        (report,) = cogadb.place_columns("item", ("i_price",), ctx)
        assert not report.placed
        assert "fallback" in report.reason
        assert platform.device_memory.used == 0
        assert ctx.counters.bytes_transferred == 0

    def test_double_placement_noop(self, engine):
        cogadb, platform = engine
        ctx = ExecutionContext(platform)
        cogadb.place_columns("item", ("i_price",), ctx)
        (report,) = cogadb.place_columns("item", ("i_price",), ctx)
        assert not report.placed

    def test_unknown_column_rejected(self, engine):
        cogadb, platform = engine
        with pytest.raises(EngineError):
            cogadb.place_columns("item", ("ghost",), ExecutionContext(platform))


def phantom_column(platform, count, pinned):
    """A phantom ``price`` column of *count* rows, pinned on the device or not."""
    relation = Relation("prices", Schema.of(("price", FLOAT64)), count)
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory,
        materialize=False,
    )
    fragment.fill_phantom(count)
    if pinned:
        assert platform.staging.pin(fragment, "price", ExecutionContext(platform))
    return fragment


def predict(platform, count, pinned):
    """HyPE's raw sum prediction for a phantom column of *count* rows."""
    fragment = phantom_column(platform, count, pinned)
    return HypeScheduler(platform).raw_predict_sum(count, 8, fragment, "price")


class TestHype:
    def test_prediction_prefers_gpu_when_resident(self, platform):
        scheduler = HypeScheduler(platform)
        raw = predict(platform, 5_000_000, pinned=True)
        assert scheduler.choose_sum_device(raw) == "gpu"

    def test_prediction_prefers_cpu_when_transfer_needed(self, platform):
        scheduler = HypeScheduler(platform)
        raw = predict(platform, 5_000_000, pinned=False)
        assert scheduler.choose_sum_device(raw) == "cpu"

    def test_prediction_prefers_cpu_for_tiny_inputs(self, platform):
        scheduler = HypeScheduler(platform)
        raw = predict(platform, 100, pinned=True)
        assert scheduler.choose_sum_device(raw) == "cpu"

    def test_calibration_learns_ratio(self, platform):
        scheduler = HypeScheduler(platform)
        for __ in range(40):
            scheduler.observe("cpu", raw_predicted=100.0, observed=200.0)
        assert scheduler.cpu_calibration == pytest.approx(2.0, rel=0.05)

    def test_calibration_flips_decision(self, platform):
        scheduler = HypeScheduler(platform)
        raw = predict(platform, 2_000_000, pinned=True)
        assert scheduler.choose_sum_device(raw) == "gpu"
        # The GPU turns out 100x slower than modeled; HyPE adapts.
        for __ in range(60):
            scheduler.observe("gpu", raw[1], raw[1] * 100)
        assert scheduler.choose_sum_device(raw) == "cpu"

    def test_bad_observations_rejected(self, platform):
        scheduler = HypeScheduler(platform)
        with pytest.raises(EngineError):
            scheduler.observe("cpu", 0.0, 10.0)
        with pytest.raises(EngineError):
            scheduler.observe("tpu", 1.0, 1.0)


class TestRoutedQueries:
    def test_sum_correct_via_either_device(self, engine, small_items):
        cogadb, platform = engine
        ctx = ExecutionContext(platform)
        expected = float(np.sum(small_items["i_price"]))
        assert cogadb.sum("item", "i_price", ctx) == pytest.approx(expected)
        cogadb.place_columns("item", ("i_price",), ctx)
        assert cogadb.sum("item", "i_price", ctx) == pytest.approx(expected)

    def test_decisions_recorded(self, engine):
        cogadb, platform = engine
        ctx = ExecutionContext(platform)
        cogadb.sum("item", "i_price", ctx)
        assert cogadb.scheduler.decisions

    def test_update_keeps_replica_coherent(self, engine):
        cogadb, platform = engine
        ctx = ExecutionContext(platform)
        cogadb.place_columns("item", ("i_price",), ctx)
        cogadb.update("item", 3, "i_price", 42.0, ctx)
        (fragment,) = cogadb.layouts("item")[0].fragments_for_attribute("i_price")
        replica = platform.staging.cache.peek(fragment, "i_price")
        assert replica.allocation.space is platform.device_memory
        # The write waits on the pinned replica until its next read.
        assert replica.pending == {3}
        platform.staging.stage([(fragment, "i_price", 8)], ctx)
        assert replica.values[3] == 42.0 and not replica.pending


class TestPipelineRouting:
    """HyPE over the fused-operator feature set (repro.fusion.costs)."""

    ROWS = 200_000
    #: Small enough that a cold device route loses to the host: from
    #: about 100k rows the encoded ``i_im_id`` transfer already wins.
    COLD_HOST_ROWS = 50_000

    @staticmethod
    def _loaded(platform, rows=ROWS):
        from repro.workload import generate_items

        engine = CoGaDBEngine(platform)
        engine.create("item", item_schema())
        columns = generate_items(rows)
        engine.load("item", columns)
        return engine, columns

    @staticmethod
    def _pipeline(threshold=5_000, hint=0.5):
        from repro import Pipeline

        return (
            Pipeline.scan("i_im_id")
            .filter(lambda values, t=threshold: values < t,
                    selectivity_hint=hint)
            .aggregate("sum", on="i_price")
        )

    def test_result_is_byte_identical_to_numpy(self, platform):
        engine, columns = self._loaded(platform)
        ctx = ExecutionContext(platform)
        got = engine.run_pipeline("item", self._pipeline(), ctx)
        mask = columns["i_im_id"] < 5_000
        assert got == float(np.sum(columns["i_price"][mask]))

    def test_route_flips_with_placement(self, platform):
        engine, __ = self._loaded(platform, self.COLD_HOST_ROWS)
        ctx = ExecutionContext(platform)
        engine.run_pipeline("item", self._pipeline(), ctx)
        assert engine.scheduler.decisions[-1] == "fused-cpu"
        engine.place_columns("item", ("i_im_id", "i_price"), ctx)
        engine.run_pipeline("item", self._pipeline(), ExecutionContext(platform))
        assert engine.scheduler.decisions[-1] == "fused-gpu"

    def test_low_selectivity_routes_unfused(self, platform):
        # The crossover: at ~2% selectivity the unfused host chain's few
        # random point reads undercut the fused extra sequential scan.
        engine, columns = self._loaded(platform)
        ctx = ExecutionContext(platform)
        got = engine.run_pipeline(
            "item", self._pipeline(threshold=200, hint=0.02), ctx
        )
        assert engine.scheduler.decisions[-1] == "unfused-cpu"
        mask = columns["i_im_id"] < 200
        assert got == pytest.approx(float(np.sum(columns["i_price"][mask])))

    def test_prediction_accuracy_fused_host(self, platform):
        # The fused-operator features must *predict* what the executor
        # then charges: raw prediction within 10% of the observation,
        # so the EMA calibration stays near 1 instead of papering over
        # a drifting model.
        engine, __ = self._loaded(platform, self.COLD_HOST_ROWS)
        ctx = ExecutionContext(platform)
        engine.run_pipeline("item", self._pipeline(), ctx)
        assert engine.scheduler.decisions[-1] == "fused-cpu"
        from repro import compile_pipeline

        plan = compile_pipeline(self._pipeline())
        (host_layout,) = engine.layouts("item")
        raw = engine.scheduler.raw_predict_pipeline(plan, host_layout)
        assert raw["fused-cpu"] == pytest.approx(ctx.cycles, rel=0.10)
        assert 0.9 <= engine.scheduler.cpu_calibration <= 1.1

    def test_prediction_accuracy_fused_device_warm(self, platform):
        engine, __ = self._loaded(platform)
        setup = ExecutionContext(platform)
        engine.place_columns("item", ("i_im_id", "i_price"), setup)
        engine.run_pipeline("item", self._pipeline(), ExecutionContext(platform))
        warm = ExecutionContext(platform)
        engine.run_pipeline("item", self._pipeline(), warm)
        assert engine.scheduler.decisions[-1] == "fused-gpu"
        from repro import compile_pipeline

        plan = compile_pipeline(self._pipeline())
        # The placed columns' pinned replicas price no transfer.
        (host_layout,) = engine.layouts("item")
        raw = engine.scheduler.raw_predict_pipeline(plan, host_layout)
        assert raw["fused-gpu"] == pytest.approx(warm.cycles, rel=0.10)
        assert 0.9 <= engine.scheduler.gpu_calibration <= 1.1

    def test_gpu_fault_falls_back_to_fused_host(self, platform):
        from repro.faults.injector import SITE_KERNEL_LAUNCH, FaultInjector

        engine, columns = self._loaded(platform)
        setup = ExecutionContext(platform)
        engine.place_columns("item", ("i_im_id", "i_price"), setup)
        injector = FaultInjector(seed=13).arm(SITE_KERNEL_LAUNCH, 1.0)
        injector.install(platform)
        ctx = ExecutionContext(platform)
        got = engine.run_pipeline("item", self._pipeline(), ctx)
        mask = columns["i_im_id"] < 5_000
        assert got == float(np.sum(columns["i_price"][mask]))
        assert engine.scheduler.decisions[-2] == "fused-gpu"
        assert engine.scheduler.decisions[-1] == "cpu-fallback"
        assert injector.report.fallen_back >= 1
        assert injector.report.unaccounted == 0

    def test_empty_relation_returns_identity(self, platform):
        engine = CoGaDBEngine(platform)
        engine.create("item", item_schema())
        ctx = ExecutionContext(platform)
        assert engine.run_pipeline("item", self._pipeline(), ctx) == 0.0
        assert ctx.cycles == 0.0
