"""The chaos oracles see a committed update that a replay lost or reordered.

Each update writes values derived from its query's stream index and the
row, so a later write to a row differs from every earlier one.  A replay
that keeps only a row's first update, or applies the log newest record
first, leaves a stale value that the distributed and rebalance chaos
cells count as a mismatch against the single-node oracle.
"""

import pytest

from repro.rebalance.verifier import run_rebalance_chaos
from repro.sharding.executor import SITE_SHARD_NODE_CRASH
from repro.sharding.replay import replay_updates
from repro.sharding.verifier import run_chaos


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

#: One chaos cell per plane, returning its mismatch count.  Node crashes
#: make the distributed cell rebuild shards from the log; the rebalance
#: cell's migrations copy and catch up from it.
CELLS = {
    "distributed": lambda seed: run_chaos(
        seed=seed, sites=(SITE_SHARD_NODE_CRASH,), query_count=48, row_count=512
    ).mismatched,
    "rebalance": lambda seed: run_rebalance_chaos(
        seed=seed,
        fault_rate=0.0,
        op_mix="split",
        query_count=24,
        row_count=512,
        interleave_count=24,
    ).mismatched,
}


@pytest.fixture(params=sorted(MUTANTS))
def broken_replay(request, monkeypatch):
    """Install one mutant wherever the committed log is replayed."""
    for consumer in ("repro.sharding.executor", "repro.rebalance.migrator"):
        monkeypatch.setattr(f"{consumer}.replay_updates", MUTANTS[request.param])


@pytest.mark.parametrize("seed", [5, 23, 101])
@pytest.mark.parametrize("plane", sorted(CELLS))
def test_clean_replay_has_no_mismatches(plane, seed):
    assert CELLS[plane](seed) == 0


@pytest.mark.parametrize("seed", [5, 23, 101])
@pytest.mark.parametrize("plane", sorted(CELLS))
def test_broken_replay_is_a_mismatch(plane, seed, broken_replay):
    assert CELLS[plane](seed) > 0
