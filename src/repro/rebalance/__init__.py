"""Elastic shard rebalancing: crash-safe live split/merge/move.

The scale-out tier's answer to workload skew.  The
:class:`~repro.rebalance.skew.SkewDetector` windows the executor's
per-shard load counters; the
:class:`~repro.rebalance.planner.RebalancePlanner` projects a window
into split/merge/move operations; the
:class:`~repro.rebalance.migrator.LiveMigrator` executes each as a
WAL-journaled copy → catch-up → epoch-bumped-cutover migration that
survives a coordinator crash at any phase boundary
(:mod:`~repro.rebalance.journal` holds the restart-side decisions);
and the :class:`~repro.rebalance.driver.Rebalancer` loops the three —
all while queries keep executing against the shard map.

``python -m repro.verify rebalance`` chaos-verifies the whole stack
against a single-node oracle and gates the measured load-balance win;
see ``docs/REBALANCING.md`` for the state machine and the crash-resume
matrix.
"""

from repro.rebalance.driver import Rebalancer, RebalanceRound
from repro.rebalance.journal import PendingMigration, pending_migrations
from repro.rebalance.migrator import (
    SITE_NET_DROP_CATCHUP,
    SITE_REBALANCE_CRASH_MID_COPY,
    SITE_REBALANCE_CRASH_PRE_CUTOVER,
    DestFragment,
    LiveMigrator,
    Migration,
    MigrationPhase,
    MigratorStats,
)
from repro.rebalance.planner import (
    MergeOp,
    MoveOp,
    RebalanceOp,
    RebalancePlanner,
    SplitOp,
)
from repro.rebalance.skew import SkewDetector, SkewReport
from repro.rebalance.verifier import (
    OP_MIXES,
    REBALANCE_SITES,
    RebalanceRunResult,
    build_skewed_stream,
    run_rebalance_chaos,
)

__all__ = [
    "SITE_REBALANCE_CRASH_MID_COPY",
    "SITE_REBALANCE_CRASH_PRE_CUTOVER",
    "SITE_NET_DROP_CATCHUP",
    "REBALANCE_SITES",
    "OP_MIXES",
    "SkewDetector",
    "SkewReport",
    "RebalancePlanner",
    "SplitOp",
    "MergeOp",
    "MoveOp",
    "RebalanceOp",
    "LiveMigrator",
    "Migration",
    "MigrationPhase",
    "MigratorStats",
    "DestFragment",
    "Rebalancer",
    "RebalanceRound",
    "PendingMigration",
    "pending_migrations",
    "RebalanceRunResult",
    "build_skewed_stream",
    "run_rebalance_chaos",
]
