"""StagingCache unit tests: LRU policy, freshness, device-memory hygiene."""

import numpy as np
import pytest

from repro.bench.figure2 import build_column_store
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.workload.tpcc import item_relation


@pytest.fixture
def relation():
    return Relation("prices", Schema.of(("price", FLOAT64)), 100)


def host_column(relation, platform, values, label="col"):
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory,
        label=label,
    )
    fragment.append_columns({"price": values})
    return fragment


def stage(platform, fragment, ctx):
    """Stage one fragment's column through the manager; return the entry."""
    entries = platform.staging.acquire_set([(fragment, "price", 8)], ctx)
    assert entries is not None and len(entries) == 1
    return entries[0]


class TestLookup:
    def test_miss_then_hit(self, relation, platform, ctx):
        fragment = host_column(relation, platform, np.ones(100))
        staging = platform.staging
        assert staging.lookup(fragment, "price", ctx.counters) is None
        stage(platform, fragment, ctx)
        entry = staging.lookup(fragment, "price", ctx.counters)
        assert entry is not None
        assert entry.source is fragment
        assert ctx.counters.staging_misses == 1
        assert ctx.counters.staging_hits == 1

    def test_peek_is_stat_free(self, relation, platform, ctx):
        fragment = host_column(relation, platform, np.ones(100))
        stage(platform, fragment, ctx)
        cache = platform.staging.cache
        hits, misses = cache.hits, cache.misses
        assert cache.peek(fragment, "price") is not None
        assert (cache.hits, cache.misses) == (hits, misses)

    def test_stale_version_dropped_and_freed(self, relation, platform, ctx):
        fragment = host_column(relation, platform, np.ones(100))
        stage(platform, fragment, ctx)
        used = platform.device_memory.used
        fragment.update_field(0, "price", 5.0)  # bumps fragment.version
        assert platform.staging.lookup(fragment, "price", ctx.counters) is None
        assert platform.device_memory.used == used - 800

    def test_insert_replaces_existing_entry(self, relation, platform, ctx):
        fragment = host_column(relation, platform, np.ones(100))
        stage(platform, fragment, ctx)
        fragment.update_field(0, "price", 5.0)
        stage(platform, fragment, ctx)  # re-stage after the write
        cache = platform.staging.cache
        assert len(cache) == 1
        assert cache.resident_bytes == 800
        entry = cache.peek(fragment, "price")
        assert entry is not None and entry.values[0] == 5.0


class TestEviction:
    def test_lru_order(self, relation, platform, ctx):
        fragments = [
            host_column(relation, platform, np.full(100, i), label=f"c{i}")
            for i in range(3)
        ]
        for fragment in fragments:
            stage(platform, fragment, ctx)
        cache = platform.staging.cache
        # Touch c0 so c1 becomes the LRU entry.
        assert platform.staging.lookup(fragments[0], "price", ctx.counters)
        evicted = cache.evict_lru()
        assert evicted.source is fragments[1]
        assert cache.peek(fragments[0], "price") is not None
        assert cache.peek(fragments[2], "price") is not None

    def test_capacity_pressure_evicts_lru(self, relation, platform, ctx):
        platform.staging.capacity_bytes = 1600  # room for two columns
        fragments = [
            host_column(relation, platform, np.full(100, i), label=f"c{i}")
            for i in range(3)
        ]
        for fragment in fragments:
            stage(platform, fragment, ctx)
        cache = platform.staging.cache
        assert len(cache) == 2
        assert cache.resident_bytes == 1600
        assert cache.peek(fragments[0], "price") is None  # the LRU victim
        assert platform.device_memory.used == 1600

    def test_acquire_gives_up_on_oversized_column(self, relation, platform, ctx):
        from repro.hardware import Platform

        platform = Platform.paper_testbed(device_capacity=100)
        ctx = ExecutionContext(platform)
        fragment = host_column(relation, platform, np.ones(100))
        assert platform.staging.acquire_set([(fragment, "price", 8)], ctx) is None
        assert len(platform.staging.cache) == 0
        assert platform.device_memory.used == 0


class TestInvalidation:
    def test_write_hook_drops_a_replica_that_missed_a_write(
        self, relation, platform, ctx
    ):
        fragment = host_column(relation, platform, np.ones(100))
        other = host_column(relation, platform, np.ones(100), label="other")
        stage(platform, fragment, ctx)
        stage(platform, other, ctx)
        fragment.update_field(0, "price", 5.0)  # a write no hook saw
        fragment.update_field(1, "price", 6.0)
        platform.staging.record_write(fragment, "price", 1)
        cache = platform.staging.cache
        assert cache.invalidations == 1
        assert cache.peek(fragment, "price") is None
        assert cache.peek(other, "price") is not None
        assert platform.device_memory.used == 800

    def test_invalidate_all(self, relation, platform, ctx):
        for i in range(2):
            stage(platform, host_column(relation, platform, np.ones(100)), ctx)
        assert platform.staging.invalidate_all() == 2
        assert len(platform.staging.cache) == 0
        assert platform.device_memory.used == 0

    def test_stats_snapshot(self, relation, platform, ctx):
        fragment = host_column(relation, platform, np.ones(100))
        stage(platform, fragment, ctx)
        platform.staging.lookup(fragment, "price", ctx.counters)
        stats = platform.staging.stats()
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        assert stats["resident_bytes"] == 800


class TestFreshPlatformColdCache:
    def test_replace_makes_a_fresh_manager(self):
        import dataclasses

        from repro.hardware import Platform

        platform = Platform.paper_testbed()
        clone = dataclasses.replace(platform)
        assert clone.staging is not platform.staging

    def test_warm_queries_skip_pcie(self, relation, platform):
        values = np.arange(100, dtype=np.float64)
        fragment = host_column(relation, platform, values)
        layout = Layout("c", relation, [fragment])
        cold = ExecutionContext(platform)
        warm = ExecutionContext(platform)
        device_sum_column(layout, "price", cold)
        total = device_sum_column(layout, "price", warm)
        assert total == pytest.approx(float(np.sum(values)))
        assert warm.counters.staging_hits == 1
        # Only the scalar result crosses the link on the warm query.
        assert warm.counters.pcie_bytes == 8
        assert warm.cycles < cold.cycles


def test_staged_column_makes_repeat_sums_three_times_cheaper(platform):
    # At 100 rows the link latency hides the ratio; at 200k rows the
    # column transfer dominates the cold sum, and the replica removes it.
    store = build_column_store(platform, item_relation(200_000))
    cold = ExecutionContext(platform)
    device_sum_column(store, "i_price", cold)
    warm = ExecutionContext(platform)
    for __ in range(3):
        device_sum_column(store, "i_price", warm)
    assert warm.counters.staging_hits == 3
    assert cold.cycles >= 3.0 * (warm.cycles / 3)
