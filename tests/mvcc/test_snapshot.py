"""Snapshot isolation tests: consistency, CoW accounting, interference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransactionError
from repro.execution import ExecutionContext
from repro.execution.operators import sum_column, update_field
from repro.hardware import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.partitioning import one_region_per_attribute
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.mvcc import PAGE_BYTES, SnapshotManager
from repro.mvcc.snapshot import FAULT_OVERHEAD_CYCLES

ROWS = 5000


@pytest.fixture
def layout(platform):
    relation = Relation("t", Schema.of(("id", INT64), ("price", FLOAT64)), ROWS)
    fragments = []
    for region in one_region_per_attribute(relation):
        fragment = Fragment(region, relation.schema, None, platform.host_memory)
        name = region.attributes[0]
        values = np.arange(ROWS, dtype=np.float64 if name == "price" else np.int64)
        fragment.append_columns({name: values})
        fragments.append(fragment)
    return Layout("t", relation, fragments)


def checked_update(manager, layout, position, attribute, value, ctx):
    manager.before_update(position, attribute, ctx)
    update_field(layout, position, attribute, value, ctx)


class TestConsistency:
    def test_snapshot_sees_fork_time_values(self, layout, platform, ctx):
        manager = SnapshotManager(layout)
        snapshot = manager.fork(ctx)
        before = float(np.sum(np.arange(ROWS, dtype=np.float64)))
        checked_update(manager, layout, 7, "price", 1_000_000.0, ctx)
        # Live data moved on; the snapshot did not.
        assert snapshot.sum("price", ctx.fork()) == pytest.approx(before)
        assert sum_column(layout, "price", ctx.fork()) == pytest.approx(
            before - 7.0 + 1_000_000.0
        )

    def test_read_field_pre_image(self, layout, platform, ctx):
        manager = SnapshotManager(layout)
        snapshot = manager.fork(ctx)
        checked_update(manager, layout, 7, "price", -1.0, ctx)
        assert snapshot.read_field(7, "price") == 7.0
        assert snapshot.read_field(8, "price") == 8.0  # same page, untouched cell

    def test_multiple_updates_one_page_one_preimage(self, layout, platform, ctx):
        manager = SnapshotManager(layout)
        snapshot = manager.fork(ctx)
        rows_per_page = PAGE_BYTES // 8
        for offset in range(5):  # all inside page 0
            checked_update(manager, layout, offset, "price", 0.0, ctx)
        assert snapshot.pages_copied == 1
        checked_update(manager, layout, rows_per_page + 1, "price", 0.0, ctx)
        assert snapshot.pages_copied == 2

    def test_two_snapshots_diverge_correctly(self, layout, platform, ctx):
        manager = SnapshotManager(layout)
        first = manager.fork(ctx)
        checked_update(manager, layout, 3, "price", 100.0, ctx)
        second = manager.fork(ctx)
        checked_update(manager, layout, 3, "price", 200.0, ctx)
        assert first.read_field(3, "price") == 3.0
        assert second.read_field(3, "price") == 100.0
        assert layout.fragment_for(3, "price").read_field(3, "price") == 200.0

    def test_updates_before_fork_are_visible(self, layout, platform, ctx):
        manager = SnapshotManager(layout)
        checked_update(manager, layout, 5, "price", 55.5, ctx)
        snapshot = manager.fork(ctx)
        assert snapshot.read_field(5, "price") == 55.5


class TestLifecycle:
    def test_release_stops_faults(self, layout, platform, ctx):
        manager = SnapshotManager(layout)
        snapshot = manager.fork(ctx)
        snapshot.release()
        fault_ctx = ctx.fork()
        checked_update(manager, layout, 7, "price", 0.0, fault_ctx)
        assert snapshot.pages_copied == 0
        assert fault_ctx.counters.bytes_written == 8  # the cell, no page
        assert manager.live_snapshots == ()

    def test_released_snapshot_rejects_reads(self, layout, platform, ctx):
        manager = SnapshotManager(layout)
        snapshot = manager.fork(ctx)
        snapshot.release()
        with pytest.raises(TransactionError):
            snapshot.read_field(0, "price")
        with pytest.raises(TransactionError):
            snapshot.sum("price", ctx)

    def test_double_release_is_idempotent(self, layout, platform, ctx):
        """Recovery teardown sweeps blindly: double release must be free."""
        manager = SnapshotManager(layout)
        snapshot = manager.fork(ctx)
        checked_update(manager, layout, 7, "price", 0.0, ctx)
        cycles_before = ctx.counters.cycles
        snapshot.release()
        snapshot.release()  # must not raise, charge, or double-free
        snapshot.release()
        assert ctx.counters.cycles == cycles_before
        assert manager.live_snapshots == ()
        assert not snapshot.is_live

    def test_release_all_sweeps_everything(self, layout, platform, ctx):
        manager = SnapshotManager(layout)
        first = manager.fork(ctx)
        second = manager.fork(ctx)
        first.release()  # individually released before the sweep
        assert manager.release_all() == 1  # only `second` was still live
        assert manager.live_snapshots == ()
        assert not second.is_live
        assert manager.release_all() == 0  # sweep twice: still fine


class TestCosts:
    def test_fork_is_proportional_to_pages_not_bytes_copied(self, layout, platform):
        ctx = ExecutionContext(platform)
        manager = SnapshotManager(layout)
        manager.fork(ctx)
        payload = sum(f.nbytes for f in layout.fragments)
        # Fork must be far cheaper than copying the payload.
        copy_cost = platform.memory_model.sequential(2 * payload)
        assert ctx.cycles < copy_cost / 3

    def test_cow_fault_charged_per_page(self, layout, platform):
        ctx = ExecutionContext(platform)
        manager = SnapshotManager(layout)
        snapshot = manager.fork(ctx)
        before = ctx.cycles
        checked_update(manager, layout, 0, "price", 0.0, ctx)
        plain = ExecutionContext(platform)
        update_field(layout, 0, "price", 0.0, plain)
        assert snapshot.pages_copied == 1
        assert ctx.cycles - before - plain.cycles == pytest.approx(
            FAULT_OVERHEAD_CYCLES + platform.memory_model.sequential(2 * PAGE_BYTES)
        )
        assert ctx.counters.bytes_written >= PAGE_BYTES

    def test_snapshot_cheaper_than_full_copy_at_low_write_rates(
        self, layout, platform
    ):
        """The HyPer argument: CoW isolation beats detach-by-copy."""
        payload = sum(f.nbytes for f in layout.fragments)
        full_copy = platform.memory_model.sequential(2 * payload)

        ctx = ExecutionContext(platform)
        manager = SnapshotManager(layout)
        manager.fork(ctx)
        for position in range(0, 50):
            checked_update(manager, layout, position, "price", 0.0, ctx)
        assert ctx.cycles < full_copy


@given(
    st.lists(
        st.tuples(st.integers(0, ROWS - 1), st.floats(-100, 100, allow_nan=False)),
        max_size=40,
    )
)
@settings(max_examples=25, deadline=None)
def test_snapshot_isolation_property(updates):
    """Whatever the write sequence, the snapshot always reads the
    fork-time value of every cell."""
    platform = Platform.paper_testbed()
    relation = Relation("t", Schema.of(("price", FLOAT64)), ROWS)
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory
    )
    original = np.arange(ROWS, dtype=np.float64)
    fragment.append_columns({"price": original.copy()})
    layout = Layout("t", relation, [fragment])
    ctx = ExecutionContext(platform)
    manager = SnapshotManager(layout)
    snapshot = manager.fork(ctx)
    for position, value in updates:
        checked_update(manager, layout, position, "price", value, ctx)
    assert np.array_equal(snapshot.column("price"), original)
