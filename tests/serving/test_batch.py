"""The GPU batch path: byte-identical answers, amortized fixed costs."""

from __future__ import annotations

import pytest

from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.execution.operators import sum_column, update_field
from repro.hardware.platform import Platform
from repro.serving import LayoutBackend, run_device_batch
from repro.serving.verifier import build_item_store
from repro.workload.queries import QueryShape, QuerySpec

ROWS = 10_000


@pytest.fixture
def store(platform):
    return build_item_store(platform, ROWS)


class TestByteIdentity:
    def test_batched_answers_equal_serial_answers_exactly(self, platform, store):
        attributes = ["i_price", "i_im_id", "i_price", "i_price", "i_im_id"]
        batch_ctx = ExecutionContext(platform)
        batched = run_device_batch(store, attributes, batch_ctx)

        serial_platform = Platform.paper_testbed()
        serial_store = build_item_store(serial_platform, ROWS)
        serial_ctx = ExecutionContext(serial_platform)
        serial = [
            device_sum_column(serial_store, attribute, serial_ctx)
            for attribute in attributes
        ]
        assert batched == serial  # exact ==, never a tolerance

    def test_empty_batch_is_a_no_op(self, ctx, store):
        assert run_device_batch(store, [], ctx) == []
        assert ctx.counters.cycles == 0.0


class TestAmortization:
    def test_one_batch_pays_two_launches_total(self, ctx, store):
        run_device_batch(store, ["i_price"] * 8, ctx)
        assert ctx.counters.kernel_launches == 2

    def test_serial_dispatch_pays_per_query_launches(self, platform, store):
        ctx = ExecutionContext(platform)
        for __ in range(8):
            device_sum_column(store, "i_price", ctx)
        assert ctx.counters.kernel_launches == 16

    def test_duplicates_deduplicate_staging_traffic(self, platform, store):
        ctx = ExecutionContext(platform)
        run_device_batch(store, ["i_price"] * 6, ctx)
        width = store.relation.schema.attribute("i_price").width
        # One column staged once + the K-scalar result copy: far less
        # wire traffic than six independent column transfers.
        assert ctx.counters.pcie_bytes < 2 * ROWS * width

    def test_batch_is_cheaper_than_serial_for_the_same_queries(
        self, platform, store
    ):
        batch_ctx = ExecutionContext(platform)
        run_device_batch(store, ["i_price"] * 8, batch_ctx)

        serial_platform = Platform.paper_testbed()
        serial_store = build_item_store(serial_platform, ROWS)
        serial_ctx = ExecutionContext(serial_platform)
        for __ in range(8):
            device_sum_column(serial_store, "i_price", serial_ctx)
        assert batch_ctx.counters.cycles < serial_ctx.counters.cycles / 2

    def test_warm_batch_hits_the_staging_cache(self, ctx, store):
        run_device_batch(store, ["i_price", "i_im_id"], ctx)
        before = ctx.counters.pcie_bytes
        run_device_batch(store, ["i_price", "i_im_id"], ctx)
        assert ctx.counters.staging_hits >= 2
        # Second batch ships only the result copy, not the columns.
        width_sum = sum(
            store.relation.schema.attribute(a).width
            for a in ("i_price", "i_im_id")
        )
        assert ctx.counters.pcie_bytes - before == width_sum


class TestReplicaAnswers:
    def test_a_stale_replica_gives_its_stale_sum(self, platform, skipped_patch):
        store = build_item_store(platform, 2_000)
        ctx = ExecutionContext(platform)
        staged = run_device_batch(store, ["i_price"], ctx)
        column = store.fragments_for_attribute("i_price")[0].column("i_price")
        update_field(store, 7, "i_price", float(column[7]) + 1_000.0, ctx)
        answers = run_device_batch(store, ["i_price", "i_price"], ctx)
        # The batch answers from the replica it staged, patched or not.
        assert answers == staged * 2
        assert answers[0] != sum_column(store, "i_price", ExecutionContext(platform))


class TestMemoryPressure:
    def test_a_batch_the_device_cannot_hold_falls_back_to_the_host(self):
        platform = Platform.paper_testbed(device_capacity=256)
        store = build_item_store(platform, 2_000)
        attributes = ["i_price", "i_im_id", "i_price"]
        specs = [QuerySpec(QueryShape.FULL_SUM, "item", (name,)) for name in attributes]
        ctx = ExecutionContext(platform)
        answers = LayoutBackend(platform, store).run_batch(specs, ctx)
        host = ExecutionContext(platform)
        assert answers == [sum_column(store, name, host) for name in attributes]
        # One fallback for the whole dispatch: every query degraded, no
        # kernel launched, nothing left on the device.
        assert ctx.counters.degraded_queries == len(specs)
        assert ctx.counters.kernel_launches == 0
        assert platform.device_memory.used == 0
