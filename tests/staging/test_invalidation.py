"""Stale-read regressions: every write path must reach staged replicas.

One test per trigger the staging layer hooks:

* ``update_field`` — a point write to a staged column is recorded on
  the replica, which patches the cell on its next read;
* ``reorganize_layout`` — a layout swap frees the source fragments;
* ``RecoveryManager.recover`` — replicas staged before the crash carry
  pre-crash state (loser writes included) and must not survive it.

Each test would return a *wrong answer* (or leak device memory held by
replicas of dead fragments) if the corresponding hook were removed.
"""

import numpy as np
import pytest

from repro.adapt.advisor import GroupProposal, LayoutProposal
from repro.adapt.reorganizer import reorganize_layout
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.execution.operators import update_field
from repro.hardware import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.manager import RecoveryManager
from repro.recovery.wal import WriteAheadLog
from repro.workload.tpcc import generate_items, item_schema

ROWS = 200


@pytest.fixture
def relation():
    return Relation("prices", Schema.of(("price", FLOAT64)), ROWS)


def price_store(relation, platform):
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory
    )
    fragment.append_columns({"price": np.arange(ROWS, dtype=np.float64)})
    return Layout("c", relation, [fragment])


class TestUpdateFieldTrigger:
    def test_device_sum_sees_the_write(self, relation, platform, ctx):
        store = price_store(relation, platform)
        before = device_sum_column(store, "price", ctx)
        assert before == pytest.approx(float(np.sum(np.arange(ROWS))))
        update_field(store, 7, "price", 10_000.0, ctx)
        after = device_sum_column(store, "price", ctx)
        # A stale replica would reproduce the pre-write sum exactly.
        assert after == pytest.approx(before - 7.0 + 10_000.0)

    def test_write_patches_only_the_touched_replica(self, relation, platform, ctx):
        store = price_store(relation, platform)
        other_relation = Relation("costs", Schema.of(("price", FLOAT64)), ROWS)
        other = price_store(other_relation, platform)
        device_sum_column(store, "price", ctx)
        device_sum_column(other, "price", ctx)
        assert len(platform.staging.cache) == 2
        clean = ExecutionContext(platform)
        device_sum_column(other, "price", clean)
        update_field(store, 0, "price", 1.0, ctx)
        # Both replicas stay staged; only the touched one has a pending cell.
        assert len(platform.staging.cache) == 2
        assert platform.staging.cache.invalidations == 0
        warm = ExecutionContext(platform)
        device_sum_column(other, "price", warm)
        assert (warm.counters.staging_hits, warm.counters.staging_misses) == (1, 0)
        assert warm.counters.pcie_bytes == clean.counters.pcie_bytes
        patched = ExecutionContext(platform)
        total = device_sum_column(store, "price", patched)
        assert total == pytest.approx(float(np.sum(np.arange(1, ROWS))) + 1.0)
        assert (patched.counters.staging_hits, patched.counters.staging_misses) == (1, 0)
        # One cell crossed: its int64 offset and its 8-byte value.
        assert patched.counters.pcie_bytes == clean.counters.pcie_bytes + 16


class TestReorganizerTrigger:
    def test_layout_swap_drops_replicas_of_freed_fragments(self, platform, ctx):
        columns = generate_items(ROWS)
        schema = item_schema()
        relation = Relation("item", schema, ROWS)
        fragments = []
        for name in schema.names:
            fragment = Fragment(
                Region(relation.rows, (name,)), schema, None, platform.host_memory
            )
            fragment.append_columns({name: columns[name]})
            fragments.append(fragment)
        layout = Layout("item", relation, fragments)
        expected = float(np.sum(columns["i_price"]))
        assert device_sum_column(layout, "i_price", ctx) == pytest.approx(expected)
        assert len(platform.staging.cache) == 1

        proposal = LayoutProposal(
            (GroupProposal(schema.names, LinearizationKind.NSM),), 0.0
        )
        reorganize_layout(layout, proposal, platform.host_memory, ctx)
        # Replicas of the freed fragments are gone; no device leak.
        assert len(platform.staging.cache) == 0
        assert platform.device_memory.used == 0
        assert device_sum_column(layout, "i_price", ctx) == pytest.approx(expected)


class TestRecoveryTrigger:
    def test_recovery_purges_pre_crash_replicas(self, platform):
        from repro.engines.h2o import H2OEngine

        def build_engine():
            engine = H2OEngine(platform)
            engine.create("item", item_schema())
            return engine

        columns = generate_items(ROWS)
        engine = build_engine()
        engine.load("item", {n: c.copy() for n, c in columns.items()})
        wal = WriteAheadLog(platform, group_commit=1)
        store = CheckpointStore(platform)
        ctx = ExecutionContext(platform)
        store.take(engine, "item", wal, ctx)

        # A committed write, then a loser whose COMMIT never lands.
        wal.log_begin(1, ctx)
        before = engine.sum_at("item", "i_price", [3], ctx)
        wal.log_update(1, "item", "i_price", 3, before, 101.0, ctx)
        engine.update("item", 3, "i_price", 101.0, ctx)
        wal.log_commit(1, ctx)
        wal.log_begin(2, ctx)
        before = engine.sum_at("item", "i_price", [7], ctx)
        wal.log_update(2, "item", "i_price", 7, before, -1.0, ctx)
        engine.update("item", 7, "i_price", -1.0, ctx)
        wal.flush(ctx)

        # Stage a replica off the pre-crash layout: it now carries the
        # loser's write, which recovery is about to roll back.
        layout = engine.layouts("item")[0]
        device_sum_column(layout, "i_price", ctx)
        assert len(platform.staging.cache) >= 1
        invalidations = platform.staging.cache.invalidations
        wal.crash()

        recovered, _ = RecoveryManager(wal, store).recover(
            build_engine, "item", ExecutionContext(platform)
        )
        assert platform.staging.cache.invalidations > invalidations
        assert len(platform.staging.cache) == 0
        # All replica device memory went with them.
        assert platform.staging.cache.resident_bytes == 0
        probe = ExecutionContext(platform)
        expected = float(np.sum(columns["i_price"])) - float(
            columns["i_price"][3]
        ) + 101.0
        total = device_sum_column(
            recovered.layouts("item")[0], "i_price", probe
        )
        assert total == pytest.approx(expected)
