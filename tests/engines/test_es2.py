"""ES2 tests: delegation, distribution, DFS backing, re-adaption."""

import pytest

from repro.distributed.cluster import Cluster
from repro.engines.es2 import ES2Engine
from repro.execution import ExecutionContext
from repro.workload import item_schema


@pytest.fixture
def engine(loaded_item_engine_factory):
    return loaded_item_engine_factory(ES2Engine, partition_rows=128)


class TestDistribution:
    def test_partitions_spread_over_nodes(self, engine):
        es2, __ = engine
        spaces = {f.space.name for f in es2.layouts("item")[0].fragments}
        assert len(spaces) >= 2

    def test_delegation_owns_every_row(self, engine):
        es2, __ = engine
        policy = es2.delegation_policy("item")
        owners = {policy.owner_of(position, "i_id") for position in (0, 200, 499)}
        assert all(owner.startswith("node") for owner in owners)

    def test_replica_layout_on_shifted_nodes(self, engine):
        es2, __ = engine
        primary, replica = es2.layouts("item")
        primary_spaces = [f.space.name for f in primary.fragments]
        replica_spaces = [f.space.name for f in replica.fragments]
        assert primary_spaces != replica_spaces

    def test_pax_formatted_pages_in_dfs(self, engine):
        es2, __ = engine
        primary = es2.layouts("item")[0]
        for fragment in primary.fragments:
            dfs_file = es2.dfs.file(fragment.label)
            assert dfs_file.size == len(fragment.serialize())

    def test_remote_reads_cost_network(self, engine):
        es2, platform = engine
        ctx = ExecutionContext(platform)
        es2.sum("item", "i_price", ctx)
        assert ctx.counters.bytes_transferred > 0


class TestReAdaption:
    def test_regroups_by_affinity(self, engine):
        es2, platform = engine
        ctx = ExecutionContext(platform)
        for __ in range(30):
            es2.sum("item", "i_price", ctx)
        assert es2.reorganize("item", ctx)
        primary = es2.layouts("item")[0]
        price_fragment = primary.fragment_for(0, "i_price")
        assert price_fragment.region.attributes == ("i_price",)

    def test_reorganize_preserves_values(self, engine, small_items):
        import numpy as np

        es2, platform = engine
        ctx = ExecutionContext(platform)
        for __ in range(30):
            es2.sum("item", "i_price", ctx)
        expected = float(np.sum(small_items["i_price"]))
        es2.reorganize("item", ctx)
        assert es2.sum("item", "i_price", ctx) == pytest.approx(expected)
        assert es2.materialize("item", [7], ctx)[0][0] == 7

    def test_reorganize_rewrites_dfs(self, engine):
        es2, platform = engine
        ctx = ExecutionContext(platform)
        for __ in range(30):
            es2.sum("item", "i_price", ctx)
        old_paths = set(es2.dfs.paths())
        es2.reorganize("item", ctx)
        assert set(es2.dfs.paths()) != old_paths

    def test_noop_when_grouping_unchanged(self, engine):
        es2, platform = engine
        ctx = ExecutionContext(platform)
        for __ in range(30):
            es2.sum("item", "i_price", ctx)
        assert es2.reorganize("item", ctx)
        assert not es2.reorganize("item", ctx)


class TestConfiguration:
    def test_custom_cluster(self, platform, small_items):
        es2 = ES2Engine(platform, cluster=Cluster(node_count=6), partition_rows=64)
        es2.create("item", item_schema())
        es2.load("item", small_items)
        spaces = {f.space.name for f in es2.layouts("item")[0].fragments}
        assert len(spaces) == 6

    def test_replication_capped_by_cluster(self, platform):
        es2 = ES2Engine(platform, cluster=Cluster(node_count=2), dfs_replication=5)
        assert es2.dfs.replication == 2


class TestDistributedSecondaryIndexes:
    def test_fanout_lookup(self, engine, small_items):
        import numpy as np

        es2, platform = engine
        ctx = ExecutionContext(platform)
        es2.create_secondary_index("item", "i_im_id", ctx)
        key = int(small_items["i_im_id"][7])
        expected = tuple(np.flatnonzero(small_items["i_im_id"] == key))
        got = es2.lookup_secondary("item", "i_im_id", key, ctx)
        assert got == expected

    def test_remote_shards_cost_network(self, engine, small_items):
        es2, platform = engine
        ctx = ExecutionContext(platform)
        es2.create_secondary_index("item", "i_im_id", ctx)
        lookup_ctx = ExecutionContext(platform)
        key = int(small_items["i_im_id"][0])
        es2.lookup_secondary("item", "i_im_id", key, lookup_ctx)
        assert lookup_ctx.counters.bytes_transferred > 0

    def test_lookup_without_index_rejected(self, engine):
        from repro.errors import EngineError

        es2, platform = engine
        with pytest.raises(EngineError):
            es2.lookup_secondary("item", "i_name", "X", ExecutionContext(platform))

    def test_index_feeds_materialization(self, engine, small_items):
        """The paper's pipeline: secondary lookup -> sorted position
        list -> record materialization."""
        es2, platform = engine
        ctx = ExecutionContext(platform)
        es2.create_secondary_index("item", "i_im_id", ctx)
        key = int(small_items["i_im_id"][3])
        positions = es2.lookup_secondary("item", "i_im_id", key, ctx)
        rows = es2.materialize("item", list(positions), ctx)
        assert all(row[1] == key for row in rows)


class TestElasticity:
    def test_scale_out_spreads_partitions(self, loaded_item_engine_factory):
        # 500 rows / 48-row partitions = 11 partitions: enough to cover
        # the grown cluster.
        es2, platform = loaded_item_engine_factory(ES2Engine, partition_rows=48)
        ctx = ExecutionContext(platform)
        before = {f.space.name for f in es2.layouts("item")[0].fragments}
        migrated = es2.scale_out("item", added_nodes=4, ctx=ctx)
        after = {f.space.name for f in es2.layouts("item")[0].fragments}
        assert len(es2.cluster) == 8
        assert len(after) > len(before)
        assert migrated > 0
        assert ctx.counters.bytes_transferred > 0

    def test_values_survive_scale_out(self, engine, small_items):
        import numpy as np

        es2, platform = engine
        ctx = ExecutionContext(platform)
        expected = float(np.sum(small_items["i_price"]))
        es2.scale_out("item", added_nodes=2, ctx=ctx)
        assert es2.sum("item", "i_price", ctx) == pytest.approx(expected)
        assert es2.materialize("item", [123], ctx)[0][0] == 123
        for layout in es2.layouts("item"):
            layout.validate()

    def test_old_node_memory_released(self, engine):
        es2, platform = engine
        ctx = ExecutionContext(platform)
        payload_before = sum(node.memory.used for node in es2.cluster.nodes)
        es2.scale_out("item", added_nodes=4, ctx=ctx)
        payload_after = sum(node.memory.used for node in es2.cluster.nodes)
        assert payload_after == payload_before  # moved, not duplicated

    def test_secondary_indexes_invalidated(self, engine, small_items):
        es2, platform = engine
        ctx = ExecutionContext(platform)
        es2.create_secondary_index("item", "i_im_id", ctx)
        es2.scale_out("item", added_nodes=1, ctx=ctx)
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            es2.lookup_secondary("item", "i_im_id", 1, ctx)
        # Rebuild works against the new partitioning.
        es2.create_secondary_index("item", "i_im_id", ctx)
        key = int(small_items["i_im_id"][7])
        assert 7 in es2.lookup_secondary("item", "i_im_id", key, ctx)

    def test_invalid_scale_rejected(self, engine):
        from repro.errors import EngineError

        es2, platform = engine
        with pytest.raises(EngineError):
            es2.scale_out("item", added_nodes=0, ctx=ExecutionContext(platform))
