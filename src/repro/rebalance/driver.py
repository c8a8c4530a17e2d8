"""The rebalance driver: checkpoint → detect → plan → migrate, per round.

:class:`Rebalancer` wires the three layers together: the
:class:`~repro.rebalance.skew.SkewDetector` supplies a load window,
the :class:`~repro.rebalance.planner.RebalancePlanner` turns it into
an ordered operation list, and the
:class:`~repro.rebalance.migrator.LiveMigrator` executes each
operation as a journaled live migration — while the caller keeps
running queries between (and, via the *interleave* hook, *during*)
migrations.  Each round opens with the migrator's checkpoint, which
rewrites the shard files at the durable LSN and truncates the log
below them, so the log a rebuild or catch-up reads is about one round
long.

A mid-copy abort ends the round early: split operations later in the
plan predicted shard ids from the state the plan was made against, so
once an operation fails to commit the remainder is stale.  The driver
simply stops; the next round re-plans from a fresh window.  Surfaced
errors (catch-up retry exhaustion, organic faults) propagate to the
caller, which owns their attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import RebalanceAborted
from repro.execution.context import ExecutionContext
from repro.rebalance.migrator import LiveMigrator
from repro.rebalance.planner import RebalanceOp, RebalancePlanner
from repro.rebalance.skew import SkewDetector, SkewReport

__all__ = ["RebalanceRound", "Rebalancer"]


@dataclass
class RebalanceRound:
    """What one :meth:`Rebalancer.rebalance_once` call did.

    Attributes
    ----------
    ratio_before:
        The max/mean shard-load ratio of the window the round planned
        from.
    planned:
        Operations the planner emitted for the window.
    committed:
        Operations whose cutover installed a new epoch.
    aborted:
        Operations rolled back (the round stops at the first abort —
        the remaining plan is stale).
    epoch:
        The shard map's placement epoch after the round.
    """

    ratio_before: float
    planned: list[RebalanceOp] = field(default_factory=list)
    committed: int = 0
    aborted: int = 0
    epoch: int = 0


class Rebalancer:
    """Detect-plan-migrate loop over one shard map.

    Parameters
    ----------
    skew:
        The load-window detector (shares the executor's metrics
        registry).
    planner:
        Projects windows into split/merge/move operations.
    migrator:
        Executes each operation as a crash-safe live migration.
    """

    def __init__(
        self,
        skew: SkewDetector,
        planner: RebalancePlanner,
        migrator: LiveMigrator,
    ) -> None:
        self.skew = skew
        self.planner = planner
        self.migrator = migrator

    def rebalance_once(
        self,
        ctx: ExecutionContext,
        report: SkewReport | None = None,
        interleave: Callable[[], None] | None = None,
    ) -> RebalanceRound:
        """Run one checkpoint-detect-plan-migrate round; returns what happened.

        The round opens with :meth:`LiveMigrator.checkpoint`, before any
        migration holds a second copy of a shard.  With *report* the
        round plans from that window (already
        snapshotted by the caller); otherwise it snapshots one itself.
        The *interleave* hook runs between each migration's copy and
        cutover phases — the caller injects live queries there, which
        is precisely what makes catch-up replay non-trivial.  A
        mid-copy :class:`~repro.errors.RebalanceAborted` (already
        tallied recovered by the migrator) stops the round; other
        errors propagate.
        """
        self.migrator.checkpoint(ctx)
        window = report if report is not None else self.skew.snapshot()
        round_result = RebalanceRound(
            ratio_before=window.ratio, epoch=self.migrator.shard_map.epoch
        )
        round_result.planned = self.planner.plan(window)
        for op in round_result.planned:
            try:
                migration = self.migrator.begin(op, ctx)
            except RebalanceAborted:
                round_result.aborted += 1
                break
            if interleave is not None:
                interleave()
            self.migrator.finish(migration, ctx)
            round_result.committed += 1
        round_result.epoch = self.migrator.shard_map.epoch
        return round_result
