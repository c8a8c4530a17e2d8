"""ShardMap geometry, serialization, and serving-state transitions."""

import numpy as np
import pytest

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.errors import DistributedError
from repro.sharding import ShardingScheme, ShardMap
from repro.sharding.placement import deserialize_columns, serialize_columns


def make_map(columns, shard_count=4, scheme=ShardingScheme.RANGE, nodes=4):
    cluster = Cluster(nodes)
    dfs = BlockStore(cluster, replication=2, block_size=4096)
    return ShardMap("orders", columns, cluster, dfs, shard_count, scheme=scheme)


class TestSerialization:
    def test_roundtrip_is_exact(self):
        columns = {
            "v": np.arange(10, dtype=np.float64) * 3,
            "k": np.arange(10, dtype=np.float64),
        }
        decoded = deserialize_columns(serialize_columns(columns))
        assert sorted(decoded) == ["k", "v"]
        for attr in columns:
            np.testing.assert_array_equal(decoded[attr], columns[attr])

    def test_attribute_order_is_canonical(self):
        a = serialize_columns({"b": np.zeros(4), "a": np.ones(4)})
        b = serialize_columns({"a": np.ones(4), "b": np.zeros(4)})
        assert a == b


class TestGeometry:
    def test_shards_partition_every_row(self, columns):
        for scheme in ShardingScheme:
            shard_map = make_map(columns, scheme=scheme)
            seen = np.concatenate(
                [shard.positions for shard in shard_map.shards]
            )
            assert sorted(seen.tolist()) == list(range(128))

    def test_shard_of_agrees_with_ownership(self, columns):
        for scheme in ShardingScheme:
            shard_map = make_map(columns, scheme=scheme)
            for shard in shard_map.shards:
                for position in shard.positions[:5]:
                    assert shard_map.shard_of(int(position)) == shard.shard_id

    def test_prune_groups_by_owner_and_drops_the_rest(self, columns):
        shard_map = make_map(columns, shard_count=4)
        grouped = shard_map.prune((0, 1, 127))
        assert set(grouped) == {0, 3}
        np.testing.assert_array_equal(grouped[0], [0, 1])
        np.testing.assert_array_equal(grouped[3], [127])

    def test_out_of_range_position_rejected(self, columns):
        shard_map = make_map(columns)
        with pytest.raises(DistributedError, match="outside"):
            shard_map.shard_of(128)

    def test_local_indices_map_back_to_values(self, columns):
        shard_map = make_map(columns, scheme=ShardingScheme.HASH)
        shard = shard_map.shards[1]
        some = shard.positions[:4]
        local = shard.local_indices(some)
        state = shard_map.state(1)
        np.testing.assert_array_equal(state["v"][local], columns["v"][some])


class TestServingState:
    def test_base_files_live_in_the_dfs(self, columns):
        shard_map = make_map(columns)
        for shard in shard_map.shards:
            assert shard_map.dfs.file(shard.path).size > 0
            assert shard.primary in shard_map.dfs.file(shard.path).blocks[0].replica_nodes

    def test_drop_states_on_forgets_only_that_node(self, columns):
        shard_map = make_map(columns)
        victim = shard_map.shards[0].primary
        lost = shard_map.drop_states_on(victim)
        assert 0 in lost
        assert shard_map.state(0) is None
        survivor = next(
            shard for shard in shard_map.shards if shard.primary != victim
        )
        assert shard_map.state(survivor.shard_id) is not None

    def test_promote_repoints_primary_and_state(self, columns):
        shard_map = make_map(columns)
        shard = shard_map.shards[0]
        old_primary = shard.primary
        new_primary = next(
            node.name
            for node in shard_map.cluster.nodes
            if node.name != old_primary
        )
        rebuilt = {
            attr: columns[attr][shard.positions].copy() for attr in columns
        }
        shard_map.promote(0, new_primary, rebuilt)
        assert shard.primary == new_primary
        assert shard_map.state(0) is rebuilt
        assert shard_map.epoch == 0

    def test_replica_candidates_prefer_holders(self, columns):
        shard_map = make_map(columns)
        shard = shard_map.shards[0]
        candidates = shard_map.replica_candidates(shard)
        assert len(candidates) == len(shard_map.cluster.nodes)
        holders = set(shard_map.dfs.file(shard.path).blocks[0].replica_nodes)
        assert set(candidates[: len(holders)]) == holders


class TestValidation:
    def test_ragged_columns_rejected(self):
        with pytest.raises(DistributedError, match="ragged"):
            make_map({"a": np.zeros(4), "b": np.zeros(5)})

    def test_more_shards_than_rows_rejected(self):
        with pytest.raises(DistributedError, match="spread"):
            make_map({"a": np.zeros(2)}, shard_count=3)
