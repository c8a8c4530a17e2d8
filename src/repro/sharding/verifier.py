"""Chaos verification for sharded scatter-gather execution.

The claim worth gating on is end-to-end: *with node-kill, dropped-
response and slow-link faults armed, every query's merged answer is
byte-identical to an unfaulted single-node oracle, every injected
fault is accounted for in the resilience report, and at replication
>= 2 no fault surfaces past the failover machinery.*

:func:`run_chaos` is that experiment: it builds a cluster, shards an
integer-valued float64 relation over it (integer values keep float
sums exact, so shard-order-independent partial sums compare byte-for-
byte against the oracle), drives a mixed read/write query stream
through :class:`~repro.sharding.executor.ShardedExecutor` under a
seeded fault schedule, and checks each merged answer against a plain-
numpy :class:`SingleNodeOracle` twin.  Surfaced faults are the
harness's to handle, exactly as in :mod:`repro.faults.chaos`: the
fault is recorded, crashed processes are restarted
(:meth:`~repro.distributed.dfs.BlockStore.restore_node` — fail-stop
retains disks), and the query is re-issued.

Sharding and rebalancing build the same stack and verify the same
way, so :class:`ChaosRun` owns it once.  :func:`verify` is the
``distributed`` plane of ``python -m repro.verify``: a seed × fault-site
matrix plus a nodes × shards × fault-rate sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.errors import ReproError
from repro.execution.context import ExecutionContext
from repro.faults.chaos import MAX_SURFACED_RETRIES
from repro.faults.injector import FaultInjector
from repro.hardware.platform import Platform
from repro.obs.bench import make_bench_record
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.wal import WriteAheadLog
from repro.sharding.detector import FailureDetector
from repro.sharding.executor import (
    SITE_NET_DROP_RESPONSE,
    SITE_NET_SLOW_LINK,
    SITE_SHARD_NODE_CRASH,
    ShardedExecutor,
    encode_answer,
)
from repro.sharding.placement import ShardMap, ShardingScheme
from repro.sharding.router import Router
from repro.workload.queries import QueryShape, QuerySpec, random_positions

__all__ = [
    "CHAOS_SITES",
    "SITES",
    "build_columns",
    "build_query_stream",
    "encode_answer",
    "SingleNodeOracle",
    "ShardedRunResult",
    "ChaosRun",
    "run_chaos",
    "verify",
]

T = TypeVar("T")

logger = get_logger(__name__)

#: The three fault sites this tier registers and exercises.
CHAOS_SITES: tuple[str, ...] = (
    SITE_SHARD_NODE_CRASH,
    SITE_NET_DROP_RESPONSE,
    SITE_NET_SLOW_LINK,
)

#: The sites ``python -m repro.verify distributed --sites`` may name.
SITES = CHAOS_SITES

#: The scale sweep's (node_count, shard_count, fault_rate) grid.
SWEEP_GRID: tuple[tuple[int, int, float], ...] = (
    (3, 6, 0.02),
    (4, 8, 0.05),
    (5, 10, 0.05),
    (5, 15, 0.10),
)

#: Positions touched by each point/position query of the stream.
POSITIONS_PER_QUERY = 24


def build_columns(row_count: int) -> dict[str, np.ndarray]:
    """The verifier's relation: two integer-valued float64 columns.

    Integer values (small residues) make every partial sum exact in
    float64, so the sharded merge is bit-equal to the oracle's direct
    sum regardless of shard count or summation order.
    """
    rows = np.arange(row_count)
    return {
        "k": ((rows * 13) % 1009).astype(np.float64),
        "v": ((rows * 7) % 997).astype(np.float64),
    }


def build_query_stream(
    row_count: int, query_count: int, seed: int
) -> tuple[QuerySpec, ...]:
    """A deterministic mixed stream cycling all four query shapes."""
    shapes = (
        QueryShape.POSITION_SUM,
        QueryShape.POINT_MATERIALIZE,
        QueryShape.FULL_SUM,
        QueryShape.POINT_UPDATE,
    )
    queries: list[QuerySpec] = []
    for index in range(query_count):
        shape = shapes[index % len(shapes)]
        if shape is QueryShape.FULL_SUM:
            queries.append(QuerySpec(shape, "orders", ("v",)))
            continue
        positions = random_positions(
            row_count,
            min(POSITIONS_PER_QUERY, row_count),
            seed=seed * 10_007 + index,
        )
        attributes = (
            ("k", "v") if shape is QueryShape.POINT_MATERIALIZE else ("v",)
        )
        queries.append(QuerySpec(shape, "orders", attributes, positions))
    return tuple(queries)


class SingleNodeOracle:
    """The unfaulted single-node twin: plain numpy, no cluster, no cost.

    Evaluates the same query stream on a private copy of the base
    columns, applying the same deterministic update values, so its
    answers are the ground truth the sharded run must match byte-for-
    byte.
    """

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        update_value: Callable[[int], float],
    ) -> None:
        self.columns = {attr: array.copy() for attr, array in columns.items()}
        self.update_value = update_value

    def answer(self, query: QuerySpec) -> Any:
        """The ground-truth merged answer for *query* (applies updates)."""
        if query.shape is QueryShape.FULL_SUM:
            return {
                attr: float(self.columns[attr].sum())
                for attr in query.attributes
            }
        positions = np.array(query.positions)
        if query.shape is QueryShape.POSITION_SUM:
            return {
                attr: float(self.columns[attr][positions].sum())
                for attr in query.attributes
            }
        if query.shape is QueryShape.POINT_MATERIALIZE:
            return np.array(
                [
                    [float(self.columns[attr][p]) for attr in query.attributes]
                    for p in query.positions
                ]
            )
        for position in query.positions:
            value = float(self.update_value(int(position)))
            for attr in query.attributes:
                self.columns[attr][position] = value
        return len(query.positions)


@dataclass(frozen=True)
class ShardedRunResult:
    """Everything one chaos run reports (and the determinism gate compares).

    Attributes
    ----------
    seed / node_count / shard_count / replication / fault_rate / sites:
        The cell's configuration.
    queries / matched / mismatched:
        Stream length and per-query byte-comparison outcomes.
    data_lost:
        Organic (non-injected) failures observed — replication's honest
        limit; zero at replication >= 2.
    cycles:
        Total simulated cycles charged.
    resilience / detector / executor:
        Final snapshots of the resilience report, failure detector and
        executor robustness stats.
    accounting_ok:
        Whether every injected fault has exactly one recorded outcome.
    """

    seed: int
    node_count: int
    shard_count: int
    replication: int
    fault_rate: float
    sites: tuple[str, ...]
    queries: int
    matched: int
    mismatched: int
    data_lost: int
    cycles: float
    resilience: dict[str, float]
    detector: dict[str, float]
    executor: dict[str, int]
    accounting_ok: bool

    @property
    def ok(self) -> bool:
        """The cell's verdict: all answers match and accounting balances."""
        return self.mismatched == 0 and self.accounting_ok

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready record for ``BENCH_distributed.json``."""
        return {**asdict(self), "sites": list(self.sites), "ok": self.ok}


class ChaosRun:
    """One seeded sharded stack under chaos, verified query by query.

    Owns what every sharded chaos experiment shares: the platform,
    injector, cluster, DFS, :class:`~repro.sharding.placement.ShardMap`,
    replicated WAL and executor; the :class:`SingleNodeOracle` twin;
    the surfaced-fault retry loop (:meth:`retry`) with its
    :meth:`repair`; and the per-query byte comparison
    (:meth:`run_verified`), tallied in ``matched`` / ``mismatched`` /
    ``data_lost``.  *metrics* reaches the executor's per-shard load
    counters (the rebalancer's skew detector reads them).
    """

    def __init__(
        self,
        seed: int,
        node_count: int,
        shard_count: int,
        replication: int,
        fault_rate: float,
        sites: Sequence[str],
        row_count: int,
        scheme: ShardingScheme = ShardingScheme.RANGE,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        platform = Platform()
        self.injector = FaultInjector(seed=seed)
        self.injector.install(platform)
        for site in sites:
            self.injector.arm(site, fault_rate)
        self.cluster = Cluster(node_count)
        dfs = BlockStore(
            self.cluster,
            replication=replication,
            block_size=64 * 1024,
            injector=self.injector,
        )
        columns = build_columns(row_count)
        self.shard_map = ShardMap(
            "orders", columns, self.cluster, dfs, shard_count, scheme=scheme
        )
        self.replicated = ReplicatedLog(dfs, name="orders")
        self.wal = WriteAheadLog(
            platform, group_commit=1, replicator=self.replicated.on_flush
        )
        self.executor = ShardedExecutor(
            Router(self.shard_map),
            self.injector,
            detector=FailureDetector(),
            wal=self.wal,
            replicated=self.replicated,
            metrics=metrics,
        )
        self.oracle = SingleNodeOracle(columns, self.executor.update_value)
        self.ctx = ExecutionContext(platform=platform)
        self.matched = self.mismatched = self.data_lost = 0

    def repair(self) -> None:
        """Restart crashed processes and re-establish the replication target.

        Fail-stop crashes retain disks, so a restart brings the node's
        replicas straight back; shard serving states rebuild lazily on
        the next access (DFS base + committed WAL replay).
        """
        dfs = self.executor.dfs
        for node_name in dfs.down_nodes:
            dfs.restore_node(node_name)
            self.executor.detector.revive(node_name)
        if dfs.under_replicated():
            dfs.re_replicate(self.ctx.counters)

    def retry(self, operation: Callable[[int], T]) -> T:
        """``operation(attempt)`` until it returns, absorbing surfaced faults.

        A surfaced error is recorded — as *surfaced* when injected, as
        data loss otherwise — crashed processes are repaired, and the
        operation is re-issued with the next attempt number; after
        :data:`~repro.faults.chaos.MAX_SURFACED_RETRIES` re-issues the
        error propagates.
        """
        attempt = 0
        while True:
            try:
                return operation(attempt)
            except ReproError as error:
                if getattr(error, "injected", False):
                    self.injector.report.record_surfaced()
                else:
                    self.data_lost += 1
                self.repair()
                if attempt == MAX_SURFACED_RETRIES:
                    raise
                attempt += 1

    def run_verified(self, query: QuerySpec) -> None:
        """Execute *query* with retries; byte-compare it to the oracle."""
        expected = encode_answer(self.oracle.answer(query))
        result = self.retry(lambda attempt: self.executor.run(query, self.ctx))
        if result.encoded() == expected:
            self.matched += 1
        else:
            self.mismatched += 1

    def tallies(self) -> dict[str, Any]:
        """The outcome fields every chaos result records."""
        report = self.injector.report
        return {
            "queries": self.matched + self.mismatched,
            "matched": self.matched,
            "mismatched": self.mismatched,
            "data_lost": self.data_lost,
            "cycles": self.ctx.counters.cycles,
            "resilience": report.snapshot(),
            "accounting_ok": report.unaccounted == 0,
        }


def run_chaos(
    seed: int = 0,
    node_count: int = 4,
    shard_count: int = 8,
    replication: int = 2,
    fault_rate: float = 0.05,
    sites: Sequence[str] = CHAOS_SITES,
    query_count: int = 48,
    row_count: int = 2048,
    scheme: ShardingScheme = ShardingScheme.RANGE,
    repair_every: int = 8,
) -> ShardedRunResult:
    """One seeded chaos run: sharded execution vs. the oracle.

    Arms *sites* at *fault_rate* on a fresh cluster, executes the
    deterministic query stream, byte-compares every merged answer
    against the :class:`SingleNodeOracle`, and reports the outcome.
    Every *repair_every* queries (and after every surfaced fault)
    crashed processes are restarted, keeping fault sites live across
    the whole stream.  The result is a pure function of the arguments
    — the plane's determinism gate runs each cell twice and requires
    identical records.
    """
    chaos = ChaosRun(
        seed, node_count, shard_count, replication, fault_rate, sites,
        row_count, scheme=scheme,
    )
    queries = build_query_stream(row_count, query_count, seed)
    for index, query in enumerate(queries):
        chaos.run_verified(query)
        if repair_every and (index + 1) % repair_every == 0:
            chaos.repair()
    return ShardedRunResult(
        seed=seed,
        node_count=node_count,
        shard_count=shard_count,
        replication=replication,
        fault_rate=fault_rate,
        sites=tuple(sites),
        detector=chaos.executor.detector.snapshot(),
        executor=chaos.executor.stats.snapshot(),
        **chaos.tallies(),
    )


def _cell(seed: int, site: str, smoke: bool) -> dict[str, Any]:
    """One matrix cell: two identical runs, all gates."""
    from repro.verify import run_twice

    first, deterministic = run_twice(
        run_chaos,
        seed=seed,
        sites=(site,),
        query_count=16 if smoke else 48,
        row_count=512 if smoke else 2048,
    )
    problems: list[str] = []
    if first.mismatched:
        problems.append(f"{first.mismatched} answers diverged from the oracle")
    if not first.accounting_ok:
        problems.append("fault accounting does not balance")
    if not deterministic:
        problems.append("identical runs produced different records")
    if first.data_lost:
        problems.append(f"data lost {first.data_lost}x at replication 2")
    return {
        **first.to_dict(),
        "deterministic": deterministic,
        "problems": problems,
    }


def verify(seeds: list[int], sites: list[str], smoke: bool) -> dict[str, Any]:
    """The ``distributed`` plane: seed × site matrix plus the scale sweep.

    1. **Verification matrix** — each (seed, site) cell runs twice and
       must be deterministic, byte-identical to the single-node oracle,
       balanced in its fault account and lossless.
    2. **Scale sweep** (skipped under *smoke*) — nodes × shards ×
       fault-rate at replication 2 with every site armed, gating that
       **zero** faults surface past the failover machinery.
    """
    failures = 0
    cells = []
    for seed in seeds:
        for site in sites:
            cell = _cell(seed, site, smoke)
            failures += 1 if cell["problems"] else 0
            cells.append(cell)
            resilience = cell["resilience"]
            logger.info(
                "seed=%3d site=%-21s injected=%4.0f surfaced=%3.0f "
                "matched=%d/%d det=%-5s %s",
                seed, site, resilience.get("injected", 0),
                resilience.get("surfaced", 0), cell["matched"],
                cell["queries"], cell["deterministic"],
                "FAIL: " + "; ".join(cell["problems"])
                if cell["problems"]
                else "ok",
            )

    sweep = []
    if not smoke:
        for node_count, shard_count, fault_rate in SWEEP_GRID:
            result = run_chaos(
                seed=seeds[0],
                node_count=node_count,
                shard_count=shard_count,
                replication=2,
                fault_rate=fault_rate,
                sites=CHAOS_SITES,
            )
            surfaced = result.resilience.get("surfaced", 0)
            ok = result.ok and surfaced == 0 and result.data_lost == 0
            failures += 0 if ok else 1
            sweep.append(result.to_dict())
            logger.info(
                "sweep nodes=%d shards=%2d rate=%.2f injected=%4.0f "
                "surfaced=%3.0f failovers=%3d %s",
                node_count, shard_count, fault_rate,
                result.resilience.get("injected", 0), surfaced,
                result.executor["failovers"], "ok" if ok else "FAIL",
            )

    return make_bench_record(
        "distributed",
        ok=failures == 0,
        metrics={
            "failures": float(failures),
            "matrix_cycles": float(sum(cell["cycles"] for cell in cells)),
            "injected": float(
                sum(cell["resilience"].get("injected", 0) for cell in cells)
            ),
        },
        tolerances={
            "failures": {"rel": 0.0, "direction": "lower_better"},
            "matrix_cycles": {"rel": 0.10, "direction": "lower_better"},
            "injected": {"rel": 0.10, "direction": "two_sided"},
        },
        smoke=smoke,
        seeds=seeds,
        sites=sites,
        failures=failures,
        matrix=cells,
        sweep=sweep,
    )
