"""Fault-tolerant scatter-gather execution with mid-query failover.

This is the robustness core of the scale-out tier.  The coordinator
(always ``cluster.nodes[0]``) scatters a routed
:class:`~repro.sharding.router.QueryPlan` as per-shard sub-queries,
gathers network-cost-charged partial results, and merges them — and it
keeps its answer *byte-identical to a single-node run* while the
cluster misbehaves underneath it.  Each sub-query runs where its shard
lives: on its worker primary, or on the coordinator itself, locally
and with no response shipped, for a shard primaried there.  A
query rebuilds only a shard whose serving state a crash lost.

Three fault sites are registered here and exercised by the chaos
harness (:mod:`repro.sharding.verifier`):

``node.crash-mid-query``
    The worker serving a sub-query dies.  The heartbeat/lease
    :class:`~repro.sharding.detector.FailureDetector` charges the
    detection lag, the node's volatile shard states are dropped, the
    DFS marks it down (replicas retained — fail-stop, not disk loss)
    and re-replicates while enough nodes are up, and the sub-query
    **fails over**: it re-runs on the next surviving replica candidate
    after a deadline-capped exponential failover backoff, rebuilding
    the shard there from its DFS base file plus a replay of the
    committed log the shipped segments hold past the file's
    ``base_lsn`` (:class:`~repro.recovery.replicated.ReplicatedLog`),
    then promoting that node to primary.

``net.drop-response``
    A partial result is lost on the wire.  A bounded
    :class:`~repro.faults.RetryPolicy` re-sends (re-charging the
    transfer — a dropped response still burned wire time), surfacing
    :class:`~repro.errors.DeadlineExceeded` past its cycle budget.

``net.slow-link``
    The response link degrades into a straggler.  The coordinator
    *hedges*: it re-dispatches the sub-query to another live replica
    and takes whichever answer lands first — charged as duplicate
    compute plus a second response, tallied as a retry.  With no spare
    replica it waits the slowdown out (tallied as recovered).

A point-update query is one transaction.  Its shard tasks log their
rows' ``UPDATE`` records under the query's transaction id and hand
their cell writes back unapplied; after the gather the coordinator
logs one ``COMMIT``, forces the log once, and only then applies the
writes.  A query that surfaces an error logs an ``ABORT`` and applies
nothing, so no serving state runs ahead of the durable log and a crash
never leaves half a query committed.  The coordinator's log is the one
log of every shard, so the cross-shard commit is a single record.

Every injected fault therefore ends in exactly one
:class:`~repro.faults.report.ResilienceReport` outcome, which the
verifier asserts (``injected == retried + fallen_back + recovered +
surfaced``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import (
    DeadlineExceeded,
    DistributedError,
    NodeUnavailable,
    ReproError,
    ShardRetryExhausted,
)
from repro.execution.context import ExecutionContext
from repro.faults.chaos import row_update_value
from repro.faults.injector import FaultInjector, register_fault_site
from repro.faults.policy import RetryPolicy
from repro.hardware.event import Cycles
from repro.obs.metrics import MetricsRegistry
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.wal import WriteAheadLog
from repro.sharding.detector import FailureDetector
from repro.sharding.replay import rebuild
from repro.sharding.router import QueryPlan, Router, ShardTask
from repro.workload.queries import QueryShape, QuerySpec

__all__ = [
    "SITE_SHARD_NODE_CRASH",
    "SITE_NET_DROP_RESPONSE",
    "SITE_NET_SLOW_LINK",
    "SHARD_LOAD_METRIC",
    "encode_answer",
    "ShardedResult",
    "ExecutorStats",
    "ShardedExecutor",
]

#: Prefix of the per-shard load counters the executor records into its
#: optional metrics registry (``{prefix}.{shard_id}``, in rows served).
#: The rebalance skew detector reads these to find hot shards.
SHARD_LOAD_METRIC = "shard-load"

#: A worker dies while serving a shard sub-query; the failover state
#: machine re-runs the sub-query on a surviving DFS replica.
SITE_SHARD_NODE_CRASH = register_fault_site(
    "node.crash-mid-query",
    "worker node dies while serving a shard sub-query",
    NodeUnavailable,
)
#: A shard's partial result is lost on the wire; the gather re-sends
#: under a bounded retry policy.
SITE_NET_DROP_RESPONSE = register_fault_site(
    "net.drop-response",
    "a shard's partial result is lost on the wire",
    DistributedError,
)
#: A response link degrades into a straggler; the coordinator hedges
#: the sub-query to another replica (or waits the slowdown out).
SITE_NET_SLOW_LINK = register_fault_site(
    "net.slow-link",
    "a shard's response link degrades into a straggler",
    DistributedError,
)

_FLOAT = np.dtype(np.float64).itemsize


def encode_answer(value: Any) -> bytes:
    """A canonical byte encoding of an answer for oracle comparison."""
    if isinstance(value, dict):
        return repr(sorted(value.items())).encode()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return repr(value).encode()


@dataclass(frozen=True)
class _ShardWrites:
    """One shard task's point-update cells, held back until commit.

    ``state[attribute][local] = values`` for each of *attributes* is
    the whole write; the coordinator performs it only once the query's
    ``COMMIT`` is durable.
    """

    shard_id: int
    state: dict[str, np.ndarray]
    attributes: tuple[str, ...]
    local: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ShardedResult:
    """One merged scatter-gather answer.

    Attributes
    ----------
    query:
        The executed specification.
    value:
        Shape-dependent payload: ``{attribute: sum}`` for the
        aggregate shapes, a ``(rows, attributes)`` float64 matrix in
        ``query.positions`` order for materialization, and the updated
        row count for point updates.
    served_by:
        shard id -> node that actually served the sub-query (differs
        from the plan under failover).
    fanout:
        Shards the scatter touched after pruning.
    """

    query: QuerySpec
    value: Any
    served_by: dict[int, str]
    fanout: int

    def encoded(self) -> bytes:
        """A canonical byte encoding of *value* for oracle comparison."""
        return encode_answer(self.value)


@dataclass
class ExecutorStats:
    """Cumulative robustness events across one executor's lifetime."""

    #: Sub-queries re-run on another node after their worker died.
    failovers: int = 0
    #: Straggler sub-queries hedged to a second replica.
    hedges: int = 0
    #: Straggler sub-queries waited out (no spare replica to hedge to).
    stragglers_waited: int = 0
    #: Shard states rebuilt from DFS base + WAL replay.
    rebuilds: int = 0
    #: Worker crashes observed mid-query.
    crashes_observed: int = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy (stable key order) for benchmark JSON."""
        return {
            "failovers": self.failovers,
            "hedges": self.hedges,
            "stragglers_waited": self.stragglers_waited,
            "rebuilds": self.rebuilds,
            "crashes_observed": self.crashes_observed,
        }


class ShardedExecutor:
    """Scatter-gather over a :class:`ShardMap` with mid-query failover.

    Parameters
    ----------
    router:
        Supplies plans (and through them the shard map and cluster).
    injector:
        The shared fault source; its report receives every outcome.
    wal / replicated:
        Optional durability pair, given both or neither: each
        point-update query is one transaction write-ahead logged
        through *wal*, and failover rebuilds replay the committed
        prefix from *replicated*, the log *wal* ships into the DFS.
        Without them a rebuild serves the shard's DFS base file.
    failover_deadline_cycles:
        Cap on the cumulative exponential backoff between failover
        attempts; exceeding it surfaces
        :class:`~repro.errors.DeadlineExceeded`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: when
        given, every served sub-query increments a per-shard
        ``shard-load.<id>`` row counter — the one load signal the
        rebalance skew detector reads, whatever the registry's type.
        Recording is read-only with respect to the simulation (never
        charges a cycle).

    Attributes
    ----------
    detector:
        The heartbeat/lease liveness model.
    update_value:
        ``update_value(query.index, position)`` is the value a point
        update writes at each row: the chaos module's pure function of
        both, so faulted and fault-free runs write byte-identical data
        and a re-issued query rewrites its values.
    slow_factor:
        Straggler slowdown multiplier charged when a slow link must be
        waited out.
    failover_backoff_cycles:
        The first failover attempt's backoff; each later one doubles.
    response_retry:
        Policy wrapping each response transfer: it retries
        :class:`~repro.errors.DistributedError` a bounded number of
        times under its own total-backoff deadline.
    """

    def __init__(
        self,
        router: Router,
        injector: FaultInjector,
        wal: WriteAheadLog | None = None,
        replicated: ReplicatedLog | None = None,
        failover_deadline_cycles: Cycles = 50_000_000.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if (wal is None) != (replicated is None):
            raise DistributedError(
                "a WAL needs the replicated log rebuilds read, and the "
                "replicated log needs its WAL: pass both or neither"
            )
        self.router = router
        self.shard_map = router.shard_map
        self.cluster = self.shard_map.cluster
        self.dfs = self.shard_map.dfs
        self.injector = injector
        self.detector = FailureDetector()
        self.wal = wal
        self.replicated = replicated
        self.update_value = row_update_value
        self.slow_factor = 8.0
        self.failover_backoff_cycles = 100_000.0
        self.failover_deadline_cycles = failover_deadline_cycles
        self.response_retry = RetryPolicy(
            max_attempts=6,
            backoff_cycles=30_000.0,
            retry_on=(DistributedError,),
            report=injector.report,
            seed=injector.seed,
            max_total_cycles=4_000_000.0,
        )
        self.metrics = metrics
        self.stats = ExecutorStats()
        self._next_txn = 1

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def coordinator(self) -> str:
        """Name of the coordinator node (never crash-checked)."""
        return self.cluster.nodes[0].name

    def run(self, query: QuerySpec, ctx: ExecutionContext) -> ShardedResult:
        """Route and execute *query* in one call."""
        return self.execute(self.router.route(query), ctx)

    def execute(self, plan: QueryPlan, ctx: ExecutionContext) -> ShardedResult:
        """Scatter *plan*'s sub-queries, gather, and merge.

        Charges every cost — compute, detection lag, failover backoff,
        rebuild transfers, response shipping — to *ctx* in simulated
        cycles, and traces the scatter/gather as ``sharding`` spans.
        Injected faults are absorbed per the module contract; the only
        errors that escape are surfaced faults
        (:class:`~repro.errors.ShardRetryExhausted`,
        :class:`~repro.errors.DeadlineExceeded`) and organic data loss
        (:class:`~repro.errors.DistributedError`).  A point update that
        raises one has applied nothing and logged an ``ABORT``.
        """
        query = plan.query
        served_by: dict[int, str] = {}
        partials: list[Any] = []
        txn = None
        if query.shape is QueryShape.POINT_UPDATE:
            txn = self._next_txn
            self._next_txn += 1
        with ctx.span(
            "scatter-gather", "sharding", shape=query.shape.value, fanout=plan.fanout
        ):
            try:
                for task in plan.tasks:
                    partial, node_name = self._run_shard(task, query, txn, ctx)
                    served_by[task.shard.shard_id] = node_name
                    partials.append(partial)
                    if self.metrics is not None:
                        self.metrics.counter(
                            f"{SHARD_LOAD_METRIC}.{task.shard.shard_id}"
                        ).inc(task.row_count)
            except ReproError:
                if txn is not None and self.wal is not None and not self.wal.crashed:
                    self.wal.log_abort(txn, ctx)
                raise
            if txn is not None:
                self._commit(txn, partials, ctx)
            value = self._merge(query, plan, partials, ctx)
        return ShardedResult(
            query=query, value=value, served_by=served_by, fanout=plan.fanout
        )

    # ------------------------------------------------------------------
    # Failover state machine
    # ------------------------------------------------------------------
    def _failover_candidates(self, task: ShardTask) -> list[str]:
        """Nodes to try for *task*: plan node, primary, replicas, coordinator.

        The *plan-time* node comes first — an in-flight plan routed
        before a rebalance cutover finishes on the migration source
        rather than chasing the shard's new primary mid-query (the
        live-migration protocol keeps the source serving until cutover
        commits).  Only nodes the failure detector believes alive are
        listed.  The coordinator keeps its natural place when it is the
        plan node or the primary, so a shard it holds is served where
        it lives, with no rebuild and no response shipped.  Otherwise
        it comes last, as the resort that can serve any shard by remote
        DFS reads; it is never crash-checked, so the list is never
        empty.
        """
        ordered: list[str] = []
        for name in (task.node, task.shard.primary):
            if name not in ordered and self.detector.is_alive(name):
                ordered.append(name)
        for name in self.shard_map.replica_candidates(task.shard):
            if (
                name not in ordered
                and name != self.coordinator
                and self.detector.is_alive(name)
            ):
                ordered.append(name)
        if self.coordinator not in ordered:
            ordered.append(self.coordinator)
        return ordered

    def _run_shard(
        self,
        task: ShardTask,
        query: QuerySpec,
        txn: int | None,
        ctx: ExecutionContext,
    ) -> tuple[Any, str]:
        """Run one sub-query, failing over across replicas on faults.

        Each failed attempt charges an exponential failover backoff
        before the next candidate is tried; pushing the cumulative
        backoff past ``failover_deadline_cycles`` raises
        :class:`~repro.errors.DeadlineExceeded`, and exhausting every
        candidate raises :class:`~repro.errors.ShardRetryExhausted`.
        """
        candidates = self._failover_candidates(task)
        delay = self.failover_backoff_cycles
        total_backoff: Cycles = 0.0
        for rank, node_name in enumerate(candidates):
            if not self.detector.is_alive(node_name):
                continue  # died since the candidate list was built
            try:
                with ctx.span(
                    "shard-subquery",
                    "sharding",
                    shard=task.shard.shard_id,
                    node=node_name,
                    attempt=rank,
                ):
                    return self._attempt(task, query, txn, node_name, ctx), node_name
            except DistributedError as error:
                injected = bool(getattr(error, "injected", False))
                remaining = [
                    name
                    for name in candidates[rank + 1 :]
                    if self.detector.is_alive(name)
                ]
                # The caught error is attributed exactly once: fallback
                # when another candidate will absorb it, otherwise it
                # rides out inside the surfaced exception un-tallied so
                # the harness records it.
                if not remaining:
                    exhausted = ShardRetryExhausted(
                        f"shard {task.shard.shard_id} failed on every "
                        f"candidate ({', '.join(candidates)})"
                    )
                    exhausted.injected = injected
                    raise exhausted from error
                if total_backoff + delay > self.failover_deadline_cycles:
                    deadline = DeadlineExceeded(
                        f"failover deadline for shard {task.shard.shard_id} "
                        f"exceeded: {total_backoff + delay:.0f} > "
                        f"{self.failover_deadline_cycles:.0f} backoff cycles"
                    )
                    deadline.injected = injected
                    raise deadline from error
                total_backoff += delay
                ctx.counters.cycles += delay
                delay *= 2.0
                self.stats.failovers += 1
                ctx.counters.fault_fallbacks += 1
                if injected:
                    self.injector.report.record_fallback()
                ctx.instant(
                    "failover",
                    "sharding",
                    shard=task.shard.shard_id,
                    failed=node_name,
                )
        raise AssertionError("unreachable: the coordinator always serves")

    def _attempt(
        self,
        task: ShardTask,
        query: QuerySpec,
        txn: int | None,
        node_name: str,
        ctx: ExecutionContext,
    ) -> Any:
        """One sub-query attempt on *node_name* (crash check -> compute
        -> response), raising :class:`~repro.errors.NodeUnavailable`
        when the worker dies under it."""
        if node_name != self.coordinator and self.injector.fires(
            SITE_SHARD_NODE_CRASH, ctx.counters
        ):
            self._crash_node(node_name, ctx)
            error = NodeUnavailable(
                f"injected fault at {SITE_SHARD_NODE_CRASH!r}: node "
                f"{node_name!r} died serving shard {task.shard.shard_id}"
            )
            error.injected = True
            raise error
        state = self._serving_state(task, node_name, ctx)
        partial, compute_cycles = self._compute(task, query, txn, state, ctx)
        if node_name != self.coordinator:
            self._ship_response(task, node_name, compute_cycles, ctx)
        return partial

    def _crash_node(self, node_name: str, ctx: ExecutionContext) -> None:
        """Model a worker's fail-stop death and its cluster-side fallout."""
        self.stats.crashes_observed += 1
        lag = self.detector.mark_crashed(node_name, ctx.cycles)
        ctx.counters.cycles += lag
        self.shard_map.drop_states_on(node_name)
        self.dfs.mark_down(node_name)
        up_count = len(self.cluster) - len(self.dfs.down_nodes)
        if up_count >= self.dfs.replication:
            # Re-replicate immediately so a *further* crash still leaves
            # every block a surviving replica (the zero-surfaced-at-
            # replication>=2 guarantee the verifier gates on).
            self.dfs.re_replicate(ctx.counters)
        ctx.instant("node-crash", "sharding", node=node_name, lag=lag)

    # ------------------------------------------------------------------
    # Shard state: serving copy, rebuild, WAL replay
    # ------------------------------------------------------------------
    def _serving_state(
        self, task: ShardTask, node_name: str, ctx: ExecutionContext
    ) -> dict[str, np.ndarray]:
        """The shard's columns on *node_name*, rebuilding if necessary.

        A rebuild (:func:`~repro.sharding.replay.rebuild`) reads the
        shard's base file through the DFS as *node_name* (charging
        remote transfers) and replays the committed log past the file's
        ``base_lsn`` onto it from the replicated log's DFS segments.
        *node_name* is then promoted to primary.
        """
        shard = task.shard
        state = self.shard_map.state(shard.shard_id)
        if state is not None and shard.primary == node_name:
            return state
        with ctx.span(
            "shard-rebuild", "sharding", shard=shard.shard_id, node=node_name
        ):
            columns, _, replayed_txns = rebuild(
                self.shard_map,
                shard.path,
                shard.positions,
                node_name,
                self.replicated,
                ctx,
                since=shard.base_lsn,
            )
            if replayed_txns:
                self.injector.report.record_replayed(len(replayed_txns))
            self.shard_map.promote(shard.shard_id, node_name, columns)
        self.stats.rebuilds += 1
        return columns

    # ------------------------------------------------------------------
    # Per-shard compute
    # ------------------------------------------------------------------
    def _compute(
        self,
        task: ShardTask,
        query: QuerySpec,
        txn: int | None,
        state: dict[str, np.ndarray],
        ctx: ExecutionContext,
    ) -> tuple[Any, Cycles]:
        """Evaluate the sub-query on *state*; returns (partial, cycles).

        The cycles of the compute step are returned separately so the
        hedging path can charge an honest duplicate.  A point update
        logs its rows under transaction *txn* and returns them as
        :class:`_ShardWrites`, unapplied.
        """
        shard = task.shard
        model = ctx.platform.memory_model
        footprint = shard.row_count * _FLOAT * len(self.shard_map.attributes)
        if query.shape is QueryShape.FULL_SUM:
            nbytes = shard.row_count * _FLOAT * len(query.attributes)
            cost = model.sequential(nbytes)
            ctx.counters.cycles += cost
            return (
                {attr: float(state[attr].sum()) for attr in query.attributes},
                cost,
            )
        positions = np.array(task.positions)
        local = shard.local_indices(positions)
        touched = _FLOAT * len(query.attributes)
        if query.shape is QueryShape.POSITION_SUM:
            cost = model.random(len(local), touched, footprint)
            ctx.counters.cycles += cost
            return (
                {
                    attr: float(state[attr][local].sum())
                    for attr in query.attributes
                },
                cost,
            )
        if query.shape is QueryShape.POINT_MATERIALIZE:
            cost = model.random(len(local), touched, footprint)
            ctx.counters.cycles += cost
            rows = {
                int(position): np.array(
                    [float(state[attr][index]) for attr in query.attributes]
                )
                for position, index in zip(positions, local)
            }
            return rows, cost
        # POINT_UPDATE: write-ahead log the rows; the coordinator
        # applies them once the query's commit is durable.
        cost = model.random(len(local), touched, footprint)
        values = np.array(
            [float(self.update_value(query.index, int(p))) for p in positions]
        )
        if self.wal is not None:
            for position, index, value in zip(positions, local, values):
                for attr in query.attributes:
                    self.wal.log_update(
                        txn,
                        self.shard_map.name,
                        attr,
                        int(position),
                        float(state[attr][index]),
                        float(value),
                        ctx,
                    )
        ctx.counters.cycles += cost
        return (
            _ShardWrites(shard.shard_id, state, query.attributes, local, values),
            cost,
        )

    def _commit(
        self, txn: int, writes: list[_ShardWrites], ctx: ExecutionContext
    ) -> None:
        """Make *txn* durable with one log force, then apply *writes*.

        ``log_commit`` forces the log itself at ``group_commit=1``; a
        larger group is forced here, so a query never waits on later
        ones.  A serving state that a crash dropped since its task ran
        is skipped: its rebuild replays the committed transaction.
        """
        if self.wal is not None and not self.wal.log_commit(txn, ctx):
            self.wal.flush(ctx)
        for write in writes:
            if self.shard_map.state(write.shard_id) is write.state:
                for attr in write.attributes:
                    write.state[attr][write.local] = write.values

    # ------------------------------------------------------------------
    # Gather: response shipping, drop retry, straggler hedging
    # ------------------------------------------------------------------
    def _ship_response(
        self,
        task: ShardTask,
        node_name: str,
        compute_cycles: Cycles,
        ctx: ExecutionContext,
    ) -> None:
        """Move the partial result to the coordinator, absorbing faults.

        Checks the slow-link site once (hedging or waiting out a
        straggler), then sends under the bounded response retry policy
        — each attempt re-charges the transfer before the drop site is
        checked, because a dropped response still burned wire time.
        """
        network = self.cluster.network
        nbytes = task.estimated_response_bytes
        if self.injector.fires(SITE_NET_SLOW_LINK, ctx.counters):
            self._handle_straggler(task, node_name, compute_cycles, ctx)

        def send() -> None:
            network.transfer_cost(nbytes, ctx.counters)
            self.injector.check(SITE_NET_DROP_RESPONSE, ctx.counters)
        self.response_retry.run(f"response(shard {task.shard.shard_id})", send, ctx)

    def _handle_straggler(
        self,
        task: ShardTask,
        node_name: str,
        compute_cycles: Cycles,
        ctx: ExecutionContext,
    ) -> None:
        """Absorb a slow-link fault by hedging (or waiting it out).

        With a live spare replica the sub-query is re-dispatched there
        and the faster copy wins: the cost is one duplicate compute
        plus one extra response transfer, and the fault counts as
        *retried* (the hedge is a speculative retry).  Hedge targets
        are warm DFS replica *holders* only — not the coordinator,
        which is the gather side of the link, and not down or dead
        nodes.  With no spare the coordinator waits out the degraded
        link — the response costs ``slow_factor`` times its healthy
        cycles — and the fault counts as *recovered* in place.
        """
        holders: set[str] = set()
        for block in self.dfs.file(task.shard.path).blocks:
            holders.update(block.replicas)
        spares = sorted(
            name
            for name in holders
            if name != node_name
            and name != self.coordinator
            and name not in self.dfs.down_nodes
            and self.detector.is_alive(name)
        )
        network = self.cluster.network
        nbytes = task.estimated_response_bytes
        if spares:
            self.stats.hedges += 1
            ctx.counters.cycles += compute_cycles
            network.transfer_cost(nbytes, ctx.counters)
            self.injector.report.record_retried()
            ctx.counters.fault_retries += 1
            ctx.instant(
                "hedge", "sharding", shard=task.shard.shard_id, spare=spares[0]
            )
        else:
            self.stats.stragglers_waited += 1
            penalty = network.peek_transfer_cost(nbytes) * (self.slow_factor - 1.0)
            ctx.counters.cycles += penalty
            self.injector.report.record_recovered()
            ctx.counters.fault_recoveries += 1
            ctx.instant("straggler-wait", "sharding", shard=task.shard.shard_id)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def _merge(
        self,
        query: QuerySpec,
        plan: QueryPlan,
        partials: list[Any],
        ctx: ExecutionContext,
    ) -> Any:
        """Combine per-shard partials into the final answer.

        Sums are added in shard-id order; materialized rows are
        reassembled in ``query.positions`` order.  The merge itself is
        a coordinator-local streaming pass over the gathered bytes.
        """
        gathered = sum(task.estimated_response_bytes for task in plan.tasks)
        with ctx.span("gather-merge", "sharding", fanout=plan.fanout):
            ctx.counters.cycles += ctx.platform.memory_model.sequential(gathered)
            if query.shape in (QueryShape.FULL_SUM, QueryShape.POSITION_SUM):
                merged = {attr: 0.0 for attr in query.attributes}
                for partial in partials:
                    for attr, value in partial.items():
                        merged[attr] += value
                return merged
            if query.shape is QueryShape.POINT_MATERIALIZE:
                by_position: dict[int, np.ndarray] = {}
                for partial in partials:
                    by_position.update(partial)
                return np.array(
                    [by_position[position] for position in query.positions]
                )
            return int(sum(len(write.local) for write in partials))
