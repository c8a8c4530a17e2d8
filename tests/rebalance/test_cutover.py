"""One cutover: every split, merge and move goes through ``ShardMap.commit``.

A property drives random operation sequences through the migrator and
checks the one ownership record after each: the shards' rows
partition the table, ``shard_of`` agrees with every shard, every
serving state holds the base columns at its rows, and the epoch counts
the commits.  Direct cases show that a malformed cutover is refused
before anything changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DistributedError
from repro.execution import ExecutionContext
from repro.hardware import Platform
from repro.rebalance import MergeOp, MoveOp, SplitOp
from tests.rebalance.conftest import build_stack

ROWS = 64

#: (kind, pick, node): *pick* chooses among the live shards, *node*
#: the move destination.
operations = st.lists(
    st.tuples(
        st.sampled_from(("split", "merge", "move")),
        st.integers(0, 63),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=8,
)


def plan_op(shard_map, kind, pick, node):
    """The operation *kind* names on the current map, or None if none fits."""
    live = [shard.shard_id for shard in shard_map.shards if shard.row_count]
    if kind == "split":
        splittable = [sid for sid in live if shard_map.shards[sid].row_count >= 2]
        if not splittable:
            return None
        return SplitOp(splittable[pick % len(splittable)], len(shard_map.shards))
    if kind == "merge":
        if len(live) < 2:
            return None
        winner = live[pick % len(live)]
        loser = live[(pick + 1) % len(live)]
        return MergeOp(winner, loser)
    nodes = shard_map.cluster.nodes
    return MoveOp(live[pick % len(live)], nodes[node % len(nodes)].name)


def assert_one_ownership_record(shard_map, columns):
    """Rows partition the table; shard_of and every state agree."""
    owned = np.concatenate([shard.positions for shard in shard_map.shards])
    assert np.array_equal(np.sort(owned), np.arange(ROWS))
    owner = np.empty(ROWS, dtype=np.int64)
    for shard in shard_map.shards:
        owner[shard.positions] = shard.shard_id
        state = shard_map.state(shard.shard_id)
        for attr, column in columns.items():
            assert np.array_equal(state[attr], column[shard.positions])
    assert [shard_map.shard_of(p) for p in range(ROWS)] == owner.tolist()


@settings(max_examples=30, deadline=None)
@given(ops=operations)
def test_every_operation_keeps_one_ownership_record(ops):
    platform = Platform.paper_testbed()
    built = build_stack(platform, rows=ROWS)
    shard_map = built.shard_map
    ctx = ExecutionContext(platform)
    commits = 0
    for kind, pick, node in ops:
        op = plan_op(shard_map, kind, pick, node)
        if op is None:
            continue
        built.migrator.run(op, ctx)
        commits += 1
        assert shard_map.epoch == commits
        assert_one_ownership_record(shard_map, built.columns)


#: The base LSN :func:`split_pieces` gives both halves.
SPLIT_BASE = 3


def split_pieces(shard_map):
    """A valid cutover splitting shard 0 into itself and the next id."""
    shard = shard_map.shards[0]
    state = shard_map.state(0)
    half = shard.row_count // 2
    return [
        (0, shard.positions[:half], "left", shard.primary,
         {attr: column[:half] for attr, column in state.items()}, SPLIT_BASE),
        (len(shard_map.shards), shard.positions[half:], "right", shard.primary,
         {attr: column[half:] for attr, column in state.items()}, SPLIT_BASE),
    ]


def with_rows(piece, positions):
    """*piece* over *positions*, its state cut to match their count."""
    shard_id, _, path, primary, state, base_lsn = piece
    count = positions.size
    return (shard_id, positions, path, primary,
            {attr: np.resize(column, count) for attr, column in state.items()},
            base_lsn)


def missing_row(pieces):
    left, right = pieces
    return (0,), [with_rows(left, left[1][1:]), right]


def duplicated_row(pieces):
    left, right = pieces
    return (0,), [left, with_rows(right, np.concatenate([left[1][-1:], right[1]]))]


def short_state(pieces):
    left, right = pieces
    state = {attr: column[:-1] for attr, column in left[4].items()}
    return (0,), [left[:4] + (state,) + left[5:], right]


def wrong_attributes(pieces):
    left, right = pieces
    state = {"k": left[4]["k"], "w": left[4]["v"]}
    return (0,), [left[:4] + (state,) + left[5:], right]


def named_twice(pieces):
    left, right = pieces
    every = np.concatenate([left[1], right[1]])
    return (0, 0), [with_rows(left, every), with_rows(right, every)]


def piece_twice(pieces):
    left, right = pieces
    return (0,), [left, (0,) + right[1:]]


def skipped_dense_id(pieces):
    left, right = pieces
    return (0,), [left, (right[0] + 1,) + right[1:]]


def unnamed_existing_id(pieces):
    left, right = pieces
    return (0,), [left, (1,) + right[1:]]


@pytest.mark.parametrize(
    "malform",
    [
        missing_row,
        duplicated_row,
        short_state,
        wrong_attributes,
        named_twice,
        piece_twice,
        skipped_dense_id,
        unnamed_existing_id,
    ],
)
def test_a_malformed_cutover_is_refused_and_changes_nothing(stack, malform):
    shard_map = stack(rows=ROWS).shard_map
    before = [
        (shard.positions.copy(), shard.path, shard.primary, shard.base_lsn)
        for shard in shard_map.shards
    ]
    shard_ids, pieces = malform(split_pieces(shard_map))
    with pytest.raises(DistributedError):
        shard_map.commit(shard_ids, pieces)
    assert shard_map.epoch == 0
    assert len(shard_map.shards) == len(before)
    for shard, (positions, *fields) in zip(shard_map.shards, before):
        assert np.array_equal(shard.positions, positions)
        assert [shard.path, shard.primary, shard.base_lsn] == fields
    assert [shard_map.shard_of(p) for p in range(ROWS)] == np.repeat(
        np.arange(4), ROWS // 4
    ).tolist()


def test_a_well_formed_split_commits(stack):
    shard_map = stack(rows=ROWS).shard_map
    pieces = split_pieces(shard_map)
    assert shard_map.commit((0,), pieces) == 1
    assert [shard.row_count for shard in shard_map.shards] == [8, 16, 16, 16, 8]
    assert shard_map.shard_of(int(pieces[1][1][0])) == 4
    bases = [shard.base_lsn for shard in shard_map.shards]
    assert bases == [SPLIT_BASE, 0, 0, 0, SPLIT_BASE]


def test_an_uncovered_named_shard_is_left_empty(stack):
    shard_map = stack(rows=ROWS).shard_map
    winner, loser = shard_map.shards[1], shard_map.shards[2]
    rows = np.concatenate([winner.positions, loser.positions])
    state = {
        attr: np.concatenate([shard_map.state(1)[attr], shard_map.state(2)[attr]])
        for attr in shard_map.attributes
    }
    shard_map.commit((1, 2), [(1, rows, "merged", winner.primary, state, 0)])
    assert loser.row_count == 0 and shard_map.live_shard_count == 3
    assert shard_map.prune(tuple(int(p) for p in rows)).keys() == {1}
