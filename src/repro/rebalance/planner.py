"""The rebalance planner: load windows → split/merge/move operations.

Given one :class:`~repro.rebalance.skew.SkewReport` window, the
planner solves for a fixed-point per-shard **target load** and emits
an ordered operation list that drives every shard toward it:

* :class:`SplitOp` — halve a shard hot enough to want two or more
  power-of-two pieces (its rows and, by the positional-skew
  assumption, its load);
* :class:`MergeOp` — fold cold fragments together while the merged
  shard stays within the target's headroom;
* :class:`MoveOp` — re-home a shard's primary to even out how many
  shards each node serves (load-neutral, placement-balancing).

Planning is *free*: the loop is pure dict arithmetic over projected
loads — no DFS reads, no cycle charges, matching the router's
planning-never-charges rule.  Splits predict the shard id their new
half will receive (``len(shards)`` at execution time), so an emitted
plan is only valid while it executes in order from the state it was
planned against; the driver re-plans from a fresh window whenever an
operation aborts mid-plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from repro.rebalance.skew import SkewReport
from repro.sharding.placement import ShardMap

__all__ = [
    "SplitOp",
    "MergeOp",
    "MoveOp",
    "RebalanceOp",
    "RebalancePlanner",
]


@dataclass(frozen=True)
class SplitOp:
    """Split one shard in half at its median owned row.

    Attributes
    ----------
    shard_id:
        The shard to split (keeps the lower half).
    new_shard_id:
        The dense id the upper half will receive — predicted at plan
        time as ``len(shards)``, validated at execution time.
    """

    shard_id: int
    new_shard_id: int

    def describe(self) -> str:
        """The op's journal label fragment."""
        return f"split({self.shard_id}->+{self.new_shard_id})"


@dataclass(frozen=True)
class MergeOp:
    """Fold the loser shard's rows into the winner shard.

    The loser stays in the dense shard list as an empty placeholder
    (ids are never renumbered); the router prunes it afterwards.
    """

    winner_id: int
    loser_id: int

    def describe(self) -> str:
        """The op's journal label fragment."""
        return f"merge({self.loser_id}->{self.winner_id})"


@dataclass(frozen=True)
class MoveOp:
    """Re-home one shard's primary (and base file) to *dest*."""

    shard_id: int
    dest: str

    def describe(self) -> str:
        """The op's journal label fragment."""
        return f"move({self.shard_id}->{self.dest})"


#: Any of the three rebalance operations.
RebalanceOp = Union[SplitOp, MergeOp, MoveOp]

#: Cap on split+merge operations per plan.
MAX_OPS = 32
#: Cap on primary-balancing moves appended after the load loop.
MAX_MOVES = 4
#: Never merge below this many live shards.
MIN_LIVE = 2


class RebalancePlanner:
    """Greedy projection planner over one shard map.

    Parameters
    ----------
    shard_map:
        Supplies current row counts, primaries, and the cluster's node
        set (read-only; planning never mutates or charges).
    target_ratio:
        The max/mean load ratio the projection drives toward.  Planned
        a little tighter than the bench gate so measured post-rebalance
        windows clear it with sampling headroom.
    """

    def __init__(self, shard_map: ShardMap, target_ratio: float = 1.15) -> None:
        if target_ratio < 1.0:
            raise ValueError(f"target_ratio must be >= 1, got {target_ratio}")
        self.shard_map = shard_map
        self.target_ratio = target_ratio

    # ------------------------------------------------------------------
    def plan(self, report: SkewReport) -> list[RebalanceOp]:
        """Operations projected to bring every shard near the target load.

        The plan is anchored on a **fixed-point target load** ``X``:
        each shard wants ``2**round(log2(load / X))`` pieces (powers of
        two, because migrations split at the median), and ``X`` is
        iterated until ``total / sum(pieces)`` reproduces itself.
        Anchoring on a fixed absolute target — rather than on the
        running max/mean ratio — is what makes planning stable:

        * the power-of-two rounding gives a ±41% dead band, so the
          sampling noise of a narrow load window never triggers an
          operation on an already-balanced shard;
        * a ratio-chasing greedy either collapses the map into a few
          giant shards (merging raises the mean, flattering the ratio
          without moving one hot row) or splits without bound (every
          split lowers the mean, re-exposing its neighbours) —
          against a fixed ``X``, neither pathology exists.

        Three passes, in the order the operations execute: shards above
        the dead band split toward their piece count; the coldest pairs
        merge while their combined load stays within ``target_ratio``
        of ``X``; moves re-home primaries from the most- to the
        least-crowded node without touching row ownership (so the
        predicted split ids stay valid).
        """
        loads = dict(report.loads)
        rows = {
            shard.shard_id: shard.row_count
            for shard in self.shard_map.shards
            if shard.row_count
        }
        next_id = len(self.shard_map.shards)
        merged_away: set[int] = set()
        ops: list[RebalanceOp] = []
        if loads and report.total > 0:
            target = self._target_load(report.total, loads)
            # Split pass: hottest first, halving until each descendant
            # lands inside the dead band around the target load.
            queue = [
                (sid, loads[sid], self._pieces(loads[sid] / target))
                for sid in sorted(loads, key=lambda s: (-loads[s], s))
            ]
            while queue and len(ops) < MAX_OPS:
                sid, load, pieces = queue.pop(0)
                if pieces < 2 or rows.get(sid, 0) < 2:
                    continue
                ops.append(SplitOp(sid, next_id))
                left = rows[sid] // 2
                loads[sid] = loads[next_id] = load / 2.0
                rows[next_id] = rows[sid] - left
                rows[sid] = left
                queue.append((sid, load / 2.0, pieces / 2.0))
                queue.append((next_id, load / 2.0, pieces / 2.0))
                next_id += 1
            # Merge pass: consolidate cold fragments while the merged
            # shard stays within target_ratio of the target load.
            while len(ops) < MAX_OPS and len(loads) > MIN_LIVE:
                cold = sorted(loads, key=lambda sid: (loads[sid], sid))[:2]
                if loads[cold[0]] + loads[cold[1]] > (
                    self.target_ratio * target
                ):
                    break
                loser, winner = cold[0], cold[1]
                ops.append(MergeOp(winner, loser))
                loads[winner] += loads.pop(loser)
                rows[winner] += rows.pop(loser)
                merged_away.add(loser)
        ops.extend(self._plan_moves(merged_away))
        return ops

    @staticmethod
    def _pieces(quotient: float) -> float:
        """Power-of-two piece count for a shard at *quotient* × target.

        Rounding in log space centres the dead band multiplicatively:
        loads within [0.71, 1.41] of the target want exactly one piece,
        below that a half (a merge candidate), above it 2/4/8/…
        splits.  The quotient is clamped so zero-load shards read as
        quarter-pieces instead of diverging.
        """
        return 2.0 ** round(math.log2(min(max(quotient, 0.25), 2.0**20)))

    def _target_load(self, total: float, loads: dict[int, float]) -> float:
        """The fixed-point per-shard target load ``X``.

        Iterates ``X -> total / sum(pieces(load / X))`` from the
        current mean; each shard's piece count is the power of two
        nearest its load's multiple of ``X``, so the iteration settles
        on the load every piece would carry after the plan executes.
        """
        target = total / len(loads)
        for _ in range(8):
            pieces = sum(
                self._pieces(load / target) for load in loads.values()
            )
            refined = total / pieces
            if abs(refined - target) <= 1e-9 * target:
                break
            target = refined
        return target

    def _plan_moves(self, merged_away: set[int]) -> list[MoveOp]:
        """Primary-balancing moves: busiest node sheds to the idlest.

        Only shards that currently exist are moved — never the
        predicted halves of planned splits (their placement is decided
        by the DFS write at execution time) and never the losers of
        merges planned earlier in the same list (*merged_away*): the
        plan executes in order, so by the time a move runs those
        shards are empty.  A move is planned while some node serves at
        least two more shards than another.
        """
        served: dict[str, list[int]] = {
            node.name: [] for node in self.shard_map.cluster.nodes
        }
        for shard in self.shard_map.shards:
            if shard.row_count and shard.shard_id not in merged_away:
                served.setdefault(shard.primary, []).append(shard.shard_id)
        moves: list[MoveOp] = []
        while len(moves) < MAX_MOVES:
            busiest = max(served, key=lambda name: (len(served[name]), name))
            idlest = min(served, key=lambda name: (len(served[name]), name))
            if len(served[busiest]) - len(served[idlest]) < 2:
                break
            shard_id = min(served[busiest])
            moves.append(MoveOp(shard_id, idlest))
            served[busiest].remove(shard_id)
            served[idlest].append(shard_id)
        return moves
