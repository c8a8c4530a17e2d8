"""The chaos oracles see a committed update that a replay lost or reordered.

Each update writes values derived from its query's stream index and the
row, so a later write to a row differs from every earlier one.  A replay
that keeps only a row's first update, or applies the log newest record
first, leaves a stale value that the chaos cells count as a mismatch
against the single-node oracle.
"""

import pytest

from repro.rebalance import SITE_REBALANCE_CRASH_PRE_CUTOVER, LiveMigrator, SplitOp
from repro.sharding.executor import SITE_SHARD_NODE_CRASH
from repro.sharding.replay import replay_updates
from repro.sharding.verifier import ChaosRun, run_chaos
from repro.workload.queries import QueryShape, QuerySpec, random_positions


def first_update_only(entries, relation, positions, columns, min_lsn=0):
    """Mutant: replay only the first logged update of each cell."""
    seen = set()
    kept = []
    for entry in entries:
        if entry[1] == "update":
            cell = (entry[3], entry[4], entry[5])
            if cell in seen:
                continue
            seen.add(cell)
        kept.append(entry)
    return replay_updates(kept, relation, positions, columns, min_lsn)


def reverse_lsn_order(entries, relation, positions, columns, min_lsn=0):
    """Mutant: replay the log newest record first."""
    return replay_updates(entries[::-1], relation, positions, columns, min_lsn)


MUTANTS = {
    "first-update-only": first_update_only,
    "reverse-lsn-order": reverse_lsn_order,
}


def fault_free_run(seed):
    """A fault-free 4-node, 4-shard stack, and sixteen rows of a shard
    whose primary is a worker, as a query's sorted position tuple."""
    chaos = ChaosRun(
        seed, node_count=4, shard_count=4, replication=2, fault_rate=0.0,
        sites=(), row_count=512,
    )
    shard = next(
        shard
        for shard in chaos.shard_map.shards
        if shard.primary != chaos.executor.coordinator
    )
    rows = tuple(
        int(shard.positions[local])
        for local in random_positions(shard.row_count, 16, seed=seed)
    )
    return chaos, shard, rows


def write_twice(chaos, rows):
    """Two committed updates (stream indices 0 and 1) to the same rows."""
    for index in (0, 1):
        chaos.run_verified(
            QuerySpec(QueryShape.POINT_UPDATE, "orders", ("v",), rows, index)
        )


def read_back(chaos, rows):
    chaos.run_verified(
        QuerySpec(QueryShape.POINT_MATERIALIZE, "orders", ("k", "v"), rows, 2)
    )


def crash_after_two_writes(seed):
    """Two committed updates rewrite a worker-primaried shard's rows, then
    the shard's primary crashes while they are read back, so failover
    rebuilds the shard and must replay both writes in order."""
    chaos, _, rows = fault_free_run(seed)
    write_twice(chaos, rows)
    chaos.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
    read_back(chaos, rows)
    assert chaos.executor.stats.rebuilds == 1
    return chaos.mismatched


def checkpoint_then_two_writes(seed):
    """A first committed update, then a round's checkpoint rewrites every
    shard file at the durable LSN; two more committed updates rewrite
    the same rows of a worker-primaried shard, and its primary crashes
    while they are read back, so failover rebuilds the shard from its
    checkpointed file and must replay both writes past its nonzero
    ``base_lsn`` in order."""
    chaos, shard, rows = fault_free_run(seed)
    chaos.run_verified(QuerySpec(QueryShape.POINT_UPDATE, "orders", ("v",), rows, 3))
    migrator = LiveMigrator(
        chaos.shard_map, chaos.wal, chaos.injector, replicated=chaos.replicated
    )
    assert migrator.checkpoint(chaos.ctx) == len(chaos.shard_map.shards)
    assert shard.base_lsn == chaos.wal.durable_lsn > 0
    write_twice(chaos, rows)
    chaos.injector.arm(SITE_SHARD_NODE_CRASH, 1.0, max_faults=1)
    read_back(chaos, rows)
    assert chaos.executor.stats.rebuilds == 1
    return chaos.mismatched


def split_around_two_writes(seed, crash_pre_cutover):
    """A worker-primaried shard's split copies it, two committed updates
    rewrite its rows on the source, and the split finishes, so the
    catch-up (or, after a pre-cutover crash, the journal resume's
    rebuild past the copy snapshot) must replay both writes in order."""
    chaos, shard, rows = fault_free_run(seed)
    migrator = LiveMigrator(
        chaos.shard_map, chaos.wal, chaos.injector, replicated=chaos.replicated
    )
    migration = migrator.begin(
        SplitOp(shard.shard_id, len(chaos.shard_map.shards)), chaos.ctx
    )
    write_twice(chaos, rows)
    if crash_pre_cutover:
        chaos.injector.arm(SITE_REBALANCE_CRASH_PRE_CUTOVER, 1.0, max_faults=1)
    migrator.finish(migration, chaos.ctx)
    assert migrator.stats.resumed == int(crash_pre_cutover)
    read_back(chaos, rows)
    assert chaos.executor.stats.rebuilds == 0
    return chaos.mismatched


#: One cell per replay consumer, returning its mismatch count.  The
#: rebuild cell needs no fault schedule, only one crash after two
#: writes to the same rows, and the checkpoint cell is the same rebuild
#: from a checkpointed file; node crashes make the distributed cell
#: rebuild shards from the log; the two split cells reach the
#: migrator's catch-up and its journal resume.
CELLS = {
    "rebuild": crash_after_two_writes,
    "checkpoint": checkpoint_then_two_writes,
    "distributed": lambda seed: run_chaos(
        seed=seed, sites=(SITE_SHARD_NODE_CRASH,), query_count=48, row_count=512
    ).mismatched,
    "catch-up": lambda seed: split_around_two_writes(seed, crash_pre_cutover=False),
    "resume": lambda seed: split_around_two_writes(seed, crash_pre_cutover=True),
}


@pytest.fixture(params=sorted(MUTANTS))
def broken_replay(request, monkeypatch):
    """Install one mutant in the one replay path every rebuild takes."""
    monkeypatch.setattr("repro.sharding.replay.replay_updates", MUTANTS[request.param])


@pytest.mark.parametrize("seed", [5, 23, 101])
@pytest.mark.parametrize("plane", sorted(CELLS))
def test_clean_replay_has_no_mismatches(plane, seed):
    assert CELLS[plane](seed) == 0


@pytest.mark.parametrize("seed", [5, 23, 101])
@pytest.mark.parametrize("plane", sorted(CELLS))
def test_broken_replay_is_a_mismatch(plane, seed, broken_replay):
    assert CELLS[plane](seed) > 0
