"""Remembered answers: a staged replica reuses what was computed from it.

``device_sum_column`` and ``run_device_batch`` take a replica's column
sum from the replica, and ``run_fused_device`` a plan's answer, while
the replica's contents (and, for a plan, every other operand's content
stamp and the plan's stages) are unchanged.  These tests pin that the
repeat skips the numpy data plane but charges exactly what the first
warm query charged, that every write, eviction, invalidation or frame
drop is followed by the host oracle's answer, that fresh plans do not
grow the memory held, and that a patch which forgets nothing is caught
by the serving identity check and by a fused answer check.
"""

import numpy as np
import pytest

import repro.fusion.device as fused_device
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column, run_device_batch
from repro.execution.operators import sum_column, update_field
from repro.fusion import Pipeline, compile_pipeline
from repro.fusion.device import run_fused_device
from repro.fusion.oracle import run_unfused_host
from repro.hardware import Platform
from repro.serving.verifier import identity_mismatches
from repro.staging.cache import StagedColumn

from tests.fusion.stores import dsm_store, fusion_columns, fusion_relation, nsm_store
from tests.staging.test_encoded import SERVING_ROWS, serving_cell
from tests.staging.test_patch import key_store


@pytest.fixture
def numpy_sums(monkeypatch):
    """Replica arrays ``np.sum`` reduced, one entry per call."""
    summed = []
    original = np.sum

    def counting(values, *args, **kwargs):
        summed.append(values)
        return original(values, *args, **kwargs)

    monkeypatch.setattr(np, "sum", counting)

    def replica_sums(platform) -> int:
        arrays = [entry.values for entry in platform.staging.cache]
        return sum(1 for values in summed if any(values is a for a in arrays))

    return replica_sums


@pytest.fixture
def fused_passes(monkeypatch):
    """How many times the fused device path ran its numpy data plane."""
    calls = []
    original = fused_device.fused_reduce

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fused_device, "fused_reduce", counting)
    return calls


@pytest.fixture
def patch_keeps_answers(monkeypatch):
    """The mutant: a patch copies its cells but forgets no answer."""
    original = StagedColumn.apply_patch

    def patch(entry):
        kept = entry.stamp, entry.remembered
        original(entry)
        entry.stamp, entry.remembered = kept

    monkeypatch.setattr(StagedColumn, "apply_patch", patch)


def filtered_plan(bound=500):
    return compile_pipeline(
        Pipeline.scan("key").filter(lambda v, b=bound: v < b).aggregate("sum", on="price")
    )


@pytest.fixture
def store():
    platform = Platform.paper_testbed()
    return dsm_store(platform, fusion_relation(), fusion_columns()), platform


#: A row the filtered plan skips (key >= 500): writing key 1 there
#: changes the plan's answer.
OUTSIDE = int(np.argmax(fusion_columns()["key"] >= 500))


def host_fused(plan, layout, platform):
    return run_unfused_host(plan, layout, ExecutionContext(platform))


def charged(ctx):
    return ctx.cycles, ctx.counters.snapshot()


class TestRepeats:
    def test_a_repeated_device_sum_runs_numpy_once(self, store, numpy_sums):
        layout, platform = store
        device_sum_column(layout, "price", ExecutionContext(platform))
        assert numpy_sums(platform) == 0  # a miss sums the host column
        first, repeat = ExecutionContext(platform), ExecutionContext(platform)
        answer = device_sum_column(layout, "price", first)
        assert numpy_sums(platform) == 1
        assert device_sum_column(layout, "price", repeat) == answer
        assert numpy_sums(platform) == 1
        assert charged(repeat) == charged(first)
        assert answer == sum_column(layout, "price", ExecutionContext(platform))

    def test_a_repeated_batch_runs_numpy_once_per_column(self, store, numpy_sums):
        layout, platform = store
        run_device_batch(layout, ["price", "key"], ExecutionContext(platform))
        first, repeat = ExecutionContext(platform), ExecutionContext(platform)
        answers = run_device_batch(layout, ["price", "key", "price"], first)
        assert numpy_sums(platform) == 2
        assert run_device_batch(layout, ["price", "key", "price"], repeat) == answers
        assert numpy_sums(platform) == 2
        assert charged(repeat) == charged(first)
        # The batch and the serial sum share one remembered sum.
        assert device_sum_column(layout, "price", ExecutionContext(platform)) == answers[0]
        assert numpy_sums(platform) == 2

    def test_a_repeated_fused_pipeline_runs_numpy_once(self, store, fused_passes):
        layout, platform = store
        plan = filtered_plan()
        run_fused_device(plan, layout, ExecutionContext(platform))
        first, repeat = ExecutionContext(platform), ExecutionContext(platform)
        answer = run_fused_device(plan, layout, first)
        assert len(fused_passes) == 2  # the cold run and the first warm one
        assert run_fused_device(plan, layout, repeat) == answer
        assert len(fused_passes) == 2
        assert charged(repeat) == charged(first)
        assert answer == host_fused(plan, layout, platform)

    def test_a_recompiled_plan_reuses_the_answer(self, store, fused_passes):
        layout, platform = store
        pipeline = Pipeline.scan("key").filter(lambda v: v < 300).aggregate("mean", on="price")
        for __ in range(3):
            run_fused_device(compile_pipeline(pipeline), layout, ExecutionContext(platform))
        assert len(fused_passes) == 2

    def test_another_plan_is_not_this_plans_answer(self, store):
        layout, platform = store
        for bound in (100, 900, 100, 900):
            plan = filtered_plan(bound)
            ctx = ExecutionContext(platform)
            assert run_fused_device(plan, layout, ctx) == host_fused(plan, layout, platform)
        for op in ("sum", "min", "max", "mean", "count"):
            plan = compile_pipeline(Pipeline.scan("price").aggregate(op))
            assert run_fused_device(
                plan, layout, ExecutionContext(platform)
            ) == host_fused(plan, layout, platform)


class TestWrites:
    @pytest.mark.parametrize("position", [0, 7, 2_047])
    def test_a_write_to_the_summed_column_is_summed(self, store, position):
        layout, platform = store
        for __ in range(2):
            device_sum_column(layout, "price", ExecutionContext(platform))
        update_field(layout, position, "price", 1e6, ExecutionContext(platform))
        for run in (device_sum_column, lambda *a: run_device_batch(a[0], [a[1]], a[2])[0]):
            answer = run(layout, "price", ExecutionContext(platform))
            assert answer == sum_column(layout, "price", ExecutionContext(platform))

    @pytest.mark.parametrize("column", ["key", "price"])
    def test_a_write_to_an_operand_is_in_the_fused_answer(self, store, column):
        layout, platform = store
        plan = filtered_plan()
        for __ in range(2):
            run_fused_device(plan, layout, ExecutionContext(platform))
        # The row moves into the filter (key), or its price changes.
        value = 1 if column == "key" else 12_345.0
        update_field(layout, OUTSIDE, column, value, ExecutionContext(platform))
        for __ in range(2):
            answer = run_fused_device(plan, layout, ExecutionContext(platform))
            assert answer == host_fused(plan, layout, platform)

    def test_a_write_to_another_attribute_keeps_the_answer(self, numpy_sums, fused_passes):
        platform = Platform.paper_testbed()
        layout = nsm_store(platform, fusion_relation(), fusion_columns())
        plan = compile_pipeline(Pipeline.scan("key").filter(lambda v: v < 500).aggregate("sum"))
        for __ in range(2):
            device_sum_column(layout, "key", ExecutionContext(platform))
            run_fused_device(plan, layout, ExecutionContext(platform))
        computed = numpy_sums(platform), len(fused_passes)
        update_field(layout, 3, "price", 7.0, ExecutionContext(platform))
        assert device_sum_column(layout, "key", ExecutionContext(platform)) == sum_column(
            layout, "key", ExecutionContext(platform)
        )
        assert run_fused_device(
            plan, layout, ExecutionContext(platform)
        ) == host_fused(plan, layout, platform)
        assert (numpy_sums(platform), len(fused_passes)) == computed == (1, 1)


class TestRestaged:
    def test_an_evicted_operand_restages_with_a_new_stamp(self, store):
        layout, platform = store
        plan = filtered_plan()
        for __ in range(2):
            run_fused_device(plan, layout, ExecutionContext(platform))
        price = layout.fragments_for_attribute("price")[0]
        stamps = {entry.stamp for entry in platform.staging.cache}
        # Touch the key replica so the price replica is the LRU one.
        device_sum_column(layout, "key", ExecutionContext(platform))
        evicted = platform.staging.cache.evict_lru()
        assert evicted.source is price
        price.update_field(3, "price", 54_321.0)  # no replica sees this write
        for __ in range(2):
            answer = run_fused_device(plan, layout, ExecutionContext(platform))
            assert answer == host_fused(plan, layout, platform)
            answer = device_sum_column(layout, "price", ExecutionContext(platform))
            assert answer == sum_column(layout, "price", ExecutionContext(platform))
        restaged = platform.staging.cache.peek(price, "price")
        assert restaged is not evicted and restaged.stamp not in stamps

    def test_invalidate_all_drops_every_answer(self, store):
        layout, platform = store
        plan = filtered_plan()
        for __ in range(2):
            run_fused_device(plan, layout, ExecutionContext(platform))
            device_sum_column(layout, "key", ExecutionContext(platform))
        platform.staging.invalidate_all()
        for fragment in layout.fragments:
            attribute = fragment.region.attributes[0]
            fragment.update_field(3, attribute, fragment.column(attribute)[4])
        for __ in range(2):
            answer = run_fused_device(plan, layout, ExecutionContext(platform))
            assert answer == host_fused(plan, layout, platform)
            answer = device_sum_column(layout, "key", ExecutionContext(platform))
            assert answer == sum_column(layout, "key", ExecutionContext(platform))

    def test_a_write_outside_its_frame_restages_fresh(self):
        platform = Platform.paper_testbed()
        layout = key_store(platform)
        plan = compile_pipeline(Pipeline.scan("key").filter(lambda v: v < 50).aggregate("sum"))
        for __ in range(2):
            device_sum_column(layout, "key", ExecutionContext(platform))
            run_fused_device(plan, layout, ExecutionContext(platform))
        update_field(layout, 5, "key", -1_000, ExecutionContext(platform))
        assert len(platform.staging.cache) == 0  # below the frame's base
        for __ in range(2):
            assert device_sum_column(layout, "key", ExecutionContext(platform)) == sum_column(
                layout, "key", ExecutionContext(platform)
            )
            assert run_fused_device(
                plan, layout, ExecutionContext(platform)
            ) == host_fused(plan, layout, platform)


class TestMemory:
    def test_fresh_plans_hold_no_more_than_the_live_ones(self, store):
        layout, platform = store
        for bound in range(1_000):
            plan = compile_pipeline(
                Pipeline.scan("price").filter(lambda v, b=bound: v < b).aggregate("sum")
            )
            run_fused_device(plan, layout, ExecutionContext(platform))
        (entry,) = [e for e in platform.staging.cache if e.attribute == "price"]
        assert len(entry.remembered) <= 2
        kept = [filtered_plan(bound) for bound in range(10)]
        device_sum_column(layout, "key", ExecutionContext(platform))  # stage key
        for plan in kept:
            run_fused_device(plan, layout, ExecutionContext(platform))
        key = platform.staging.cache.peek(layout.fragments_for_attribute("key")[0], "key")
        assert len(key.remembered) == 10
        del kept, plan
        run_fused_device(filtered_plan(5), layout, ExecutionContext(platform))
        assert len(key.remembered) == 1

    def test_no_remembered_answer_holds_an_array(self, store):
        layout, platform = store
        for op in ("sum", "min", "max", "mean", "count"):
            plan = compile_pipeline(Pipeline.scan("key").filter(lambda v: v < 9).aggregate(op))
            for __ in range(2):
                run_fused_device(plan, layout, ExecutionContext(platform))
                device_sum_column(layout, "price", ExecutionContext(platform))
        answers = [
            answer for entry in platform.staging.cache
            for __, __, answer in entry.remembered.values()
        ]
        assert answers
        assert all(type(answer) in (float, int) for answer in answers)


class TestMutants:
    @pytest.mark.parametrize("seed", [5, 23, 101])
    def test_a_patch_that_forgets_nothing_is_a_wrong_answer(
        self, seed, patch_keeps_answers
    ):
        assert identity_mismatches(serving_cell(seed), SERVING_ROWS) > 0

    def test_a_patch_that_forgets_nothing_is_a_wrong_fused_answer(
        self, store, patch_keeps_answers
    ):
        layout, platform = store
        plan = filtered_plan()
        for __ in range(2):
            run_fused_device(plan, layout, ExecutionContext(platform))
        update_field(layout, OUTSIDE, "key", 1, ExecutionContext(platform))
        answer = run_fused_device(plan, layout, ExecutionContext(platform))
        assert answer != host_fused(plan, layout, platform)
