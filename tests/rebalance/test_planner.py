"""RebalancePlanner: fixed-point target loads → split/merge/move plans."""

from __future__ import annotations

import pytest

from repro.rebalance import MergeOp, MoveOp, RebalancePlanner, SplitOp
from repro.rebalance.skew import SkewReport


def window(loads: dict[int, float]) -> SkewReport:
    """A synthetic load window (what SkewDetector.snapshot returns)."""
    total = sum(loads.values())
    mean = total / len(loads) if loads else 0.0
    if total > 0:
        hottest = max(loads, key=lambda sid: (loads[sid], -sid))
        coldest = min(loads, key=lambda sid: (loads[sid], sid))
        ratio = loads[hottest] / mean
    else:
        hottest = coldest = -1
        ratio = 1.0
    return SkewReport(
        loads=loads,
        total=total,
        mean=mean,
        ratio=ratio,
        hottest=hottest,
        coldest=coldest,
    )


class TestPlan:
    def test_balanced_window_plans_nothing(self, stack):
        built = stack(shard_count=4)
        plan = built.planner.plan(window({0: 10.0, 1: 10.0, 2: 10.0, 3: 10.0}))
        assert plan == []

    def test_noise_inside_the_dead_band_plans_nothing(self, stack):
        # A 30% sampling wobble on one shard must not trigger churn:
        # the power-of-two piece rounding ignores anything within
        # [0.71, 1.41] of the target load.
        built = stack(shard_count=4)
        plan = built.planner.plan(window({0: 13.0, 1: 10.0, 2: 10.0, 3: 9.0}))
        assert plan == []

    def test_hot_shard_splits_to_its_piece_count(self, stack):
        built = stack(shard_count=4, rows=128)
        plan = built.planner.plan(window({0: 8.0, 1: 1.0, 2: 1.0, 3: 1.0}))
        splits = [op for op in plan if isinstance(op, SplitOp)]
        # The fixed point settles at a target load of 2: the 8-load
        # shard wants 4 pieces (3 splits), the 1-load shards half a
        # piece each (merge candidates).
        assert len(splits) == 3
        assert splits[0].shard_id == 0
        assert splits[0].new_shard_id == len(built.shard_map.shards)
        new_ids = [op.new_shard_id for op in splits]
        assert new_ids == [4, 5, 6]  # consecutive, in emission order

    def test_cold_shards_merge_within_the_target_headroom(self, stack):
        built = stack(shard_count=4, rows=128)
        plan = built.planner.plan(window({0: 8.0, 1: 1.0, 2: 1.0, 3: 1.0}))
        merges = [op for op in plan if isinstance(op, MergeOp)]
        assert len(merges) == 1
        assert {merges[0].winner_id, merges[0].loser_id} <= {1, 2, 3}

    def test_single_row_shards_never_split(self, stack):
        built = stack(shard_count=4, rows=4)  # one row per shard
        plan = built.planner.plan(window({0: 8.0, 1: 1.0, 2: 1.0, 3: 1.0}))
        assert not [op for op in plan if isinstance(op, SplitOp)]

    def test_empty_window_plans_nothing(self, stack):
        built = stack(shard_count=4)
        assert built.planner.plan(built.skew.snapshot()) == []

    def test_never_merges_below_min_live(self, stack):
        built = stack(shard_count=2)
        plan = RebalancePlanner(built.shard_map).plan(window({0: 1.0, 1: 1.0}))
        assert not [op for op in plan if isinstance(op, MergeOp)]

    def test_moves_rehome_primaries_from_busiest_to_idlest(self, stack):
        built = stack(shard_count=4, node_count=4)
        crowded = built.shard_map.shards[0].primary
        for shard in built.shard_map.shards[1:]:
            state = built.shard_map.state(shard.shard_id)
            built.shard_map.promote(shard.shard_id, crowded, state)
        plan = built.planner.plan(window({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}))
        moves = [op for op in plan if isinstance(op, MoveOp)]
        assert moves, "4 shards on one node must plan primary moves"
        assert all(op.dest != crowded for op in moves)

    def test_parameter_validation(self, stack):
        built = stack()
        with pytest.raises(ValueError):
            RebalancePlanner(built.shard_map, target_ratio=0.9)

    def test_describe_labels_are_stable(self):
        assert SplitOp(3, 8).describe() == "split(3->+8)"
        assert MergeOp(5, 2).describe() == "merge(2->5)"
        assert MoveOp(1, "node-2").describe() == "move(1->node-2)"
