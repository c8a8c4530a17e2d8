"""Chaos verification for elastic rebalancing under live traffic.

The claim worth gating on: *with coordinator crashes armed at every
migration phase and catch-up segments dropping on the wire, a shard
map that splits, merges and moves under continuous skewed traffic
serves answers byte-identical to an unfaulted single-node oracle,
loses no row and duplicates none, accounts for every injected fault
exactly once — and actually ends up balanced.*

:func:`run_rebalance_chaos` is that experiment.  It drives a skewed
query stream (a hot eighth of the rows absorbs most point traffic)
through the sharded executor in batches; between batches the
:class:`~repro.rebalance.driver.Rebalancer` windows the measured
per-shard load, plans split/merge/move operations, and executes them
as journaled live migrations — with more verified queries interleaved
*between the copy and the cutover* of each migration, so catch-up
replay is never vacuous.  After the final batch, a full-table sum and
a full materialization must match the oracle byte-for-byte: the
zero-loss / zero-duplication proof across every epoch bump.

The sharded stack, its oracle and its surfaced-fault retries come from
:class:`~repro.sharding.verifier.ChaosRun`.  :func:`verify` is the
``rebalance`` plane of ``python -m repro.verify``: a seed × fault-rate
× op-mix matrix (each cell twice — the determinism gate) plus the
load-balance win gate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from repro.obs.bench import make_bench_record
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.rebalance.driver import Rebalancer, RebalanceRound
from repro.rebalance.migrator import (
    SITE_NET_DROP_CATCHUP,
    SITE_REBALANCE_CRASH_MID_COPY,
    SITE_REBALANCE_CRASH_PRE_CUTOVER,
    LiveMigrator,
)
from repro.rebalance.planner import RebalancePlanner
from repro.rebalance.skew import SkewDetector
from repro.sharding.verifier import ChaosRun
from repro.workload.queries import QueryShape, QuerySpec

__all__ = [
    "REBALANCE_SITES",
    "SITES",
    "OP_MIXES",
    "build_skewed_stream",
    "RebalanceRunResult",
    "run_rebalance_chaos",
    "verify",
]

logger = get_logger(__name__)

#: The three fault sites this tier registers and exercises.
REBALANCE_SITES: tuple[str, ...] = (
    SITE_REBALANCE_CRASH_MID_COPY,
    SITE_REBALANCE_CRASH_PRE_CUTOVER,
    SITE_NET_DROP_CATCHUP,
)

#: The sites ``python -m repro.verify rebalance --sites`` may name.
SITES = REBALANCE_SITES

#: Operation mixes the matrix sweeps: how much of each query's point
#: traffic lands in the hot eighth of the rows.  ``split`` hammers one
#: hot shard at exactly 8/15 — after three levels of splitting (eight
#: hot pieces) all fifteen shards carry the same expected load, so the
#: rebalanced layout is measurably near-perfect; ``mixed`` starves the
#: cold shards too, so cold-consolidation merges join the splits;
#: ``move`` keeps the load uniform but starts with every shard
#: primaried on one node, so only placement moves are planned.
OP_MIXES: dict[str, float] = {"split": 8 / 15, "mixed": 0.9, "move": 0.125}

#: Positions touched by each query of the skewed stream.
POSITIONS_PER_QUERY = 24

#: The hot region: the first eighth of the rows.
HOT_DIVISOR = 8

#: Fault rates the matrix sweeps (0 = protocol-only, no chaos).
FAULT_RATES: tuple[float, ...] = (0.0, 0.1, 0.25)

#: Bench gate: minimum imbalance the skewed stream must produce.
GATE_RATIO_BEFORE = 3.0

#: Bench gate: maximum post-rebalance imbalance.
GATE_RATIO_AFTER = 1.25


def build_skewed_stream(
    row_count: int,
    query_count: int,
    seed: int,
    hot_fraction: float,
    first_index: int = 0,
) -> tuple[QuerySpec, ...]:
    """A deterministic point stream concentrating on the hot eighth.

    Cycles POSITION_SUM / POINT_MATERIALIZE / POINT_UPDATE (no
    FULL_SUM: a full scan touches every shard equally, which flattens
    exactly the imbalance the experiment must measure).  Each query
    draws ``hot_fraction`` of its distinct positions from the first
    ``row_count // 8`` rows and the rest from the remainder, and carries
    its stream index, from which updates derive the values they write.
    Indices run from *first_index*: streams of one run that start where
    the previous one ended never write a value twice.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    hot_rows = max(1, row_count // HOT_DIVISOR)
    shapes = (
        QueryShape.POSITION_SUM,
        QueryShape.POINT_MATERIALIZE,
        QueryShape.POINT_UPDATE,
    )
    rng = np.random.default_rng(seed * 92_821 + 17)
    queries: list[QuerySpec] = []
    for index in range(query_count):
        shape = shapes[index % len(shapes)]
        sample = min(POSITIONS_PER_QUERY, row_count)
        hot_count = min(round(sample * hot_fraction), hot_rows)
        cold_count = min(sample - hot_count, row_count - hot_rows)
        hot = rng.choice(hot_rows, size=hot_count, replace=False)
        cold = hot_rows + rng.choice(
            row_count - hot_rows, size=cold_count, replace=False
        )
        positions = tuple(int(p) for p in np.sort(np.concatenate([hot, cold])))
        attributes = (
            ("k", "v") if shape is QueryShape.POINT_MATERIALIZE else ("v",)
        )
        queries.append(
            QuerySpec(shape, "orders", attributes, positions, first_index + index)
        )
    return tuple(queries)


@dataclass(frozen=True)
class RebalanceRunResult:
    """Everything one rebalance chaos run reports.

    Attributes
    ----------
    seed / node_count / shard_count / replication / fault_rate /
    op_mix / sites:
        The cell's configuration.
    queries / matched / mismatched:
        Stream length (batches + interleaved) and per-query
        byte-comparison outcomes; the two final full-table checks are
        included.
    data_lost:
        Organic (non-injected) failures observed.
    ratio_before / ratio_after:
        Max/mean shard-load ratio of the first window (pre-rebalance)
        and of the final window (measured entirely on the post-
        rebalance placement).
    epoch:
        Placement epochs committed (0 = the map never changed).
    committed / aborted:
        Migration outcomes summed over all rounds.
    cycles / rebalance_cycles:
        Total simulated cycles, and the share spent inside the
        migration protocol — the honest price of rebalancing.
    resilience / migrator:
        Final snapshots of the resilience report and migrator stats.
    accounting_ok:
        Whether every injected fault has exactly one recorded outcome.
    final_checks_ok:
        Whether the closing full-table sum and materialization matched
        the oracle (the zero-loss / zero-duplication proof).
    """

    seed: int
    node_count: int
    shard_count: int
    replication: int
    fault_rate: float
    op_mix: str
    sites: tuple[str, ...]
    queries: int
    matched: int
    mismatched: int
    data_lost: int
    ratio_before: float
    ratio_after: float
    epoch: int
    committed: int
    aborted: int
    cycles: float
    rebalance_cycles: float
    resilience: dict[str, float]
    migrator: dict[str, float]
    accounting_ok: bool
    final_checks_ok: bool

    @property
    def ok(self) -> bool:
        """The cell's verdict: byte-identical, lossless, accounted."""
        return (
            self.mismatched == 0
            and self.final_checks_ok
            and self.accounting_ok
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready record for ``BENCH_rebalance.json``."""
        return {**asdict(self), "sites": list(self.sites), "ok": self.ok}


def run_rebalance_chaos(
    seed: int = 0,
    node_count: int = 4,
    shard_count: int = 8,
    replication: int = 2,
    fault_rate: float = 0.05,
    op_mix: str = "split",
    sites: Sequence[str] = REBALANCE_SITES,
    query_count: int = 48,
    row_count: int = 2048,
    rebalance_rounds: int = 3,
    interleave_count: int = 48,
    measure_count: int = 0,
) -> RebalanceRunResult:
    """One seeded chaos run: rebalancing under live verified traffic.

    Splits the skewed stream into ``rebalance_rounds + 1`` batches;
    after each batch but the last, the rebalancer windows the measured
    load and executes its plan as live migrations, each with verified
    queries interleaved between copy and cutover (drawn from a
    separate *interleave_count*-query pool).  Every answer — batch,
    interleaved, and the two closing full-table checks — is
    byte-compared against the :class:`SingleNodeOracle`.  With
    *measure_count* > 0 a dedicated measurement stream of that many
    further verified queries runs after the last round and supplies
    ``ratio_after`` — per-shard window loads are sampled counts, so a
    gated balance figure needs a window wide enough to drown sampling
    noise (the default final batch is fine for verification but too
    narrow to gate on).  The result is a pure function of the
    arguments; the plane's determinism gate runs each cell twice and
    requires identical records.
    """
    if op_mix not in OP_MIXES:
        raise ValueError(f"unknown op_mix {op_mix!r}; want one of {sorted(OP_MIXES)}")
    metrics = MetricsRegistry()
    chaos = ChaosRun(
        seed, node_count, shard_count, replication, fault_rate, sites,
        row_count, metrics=metrics,
    )
    shard_map = chaos.shard_map
    if op_mix == "move":
        # Pathological placement: every shard but the first primaried on
        # one node.  The uniform stream keeps loads level, so the only
        # planned operations are placement moves.
        crowded = chaos.cluster.nodes[1].name
        for shard in shard_map.shards[1:]:
            state = shard_map.state(shard.shard_id)
            assert state is not None
            shard_map.promote(shard.shard_id, crowded, state)
    skew = SkewDetector(metrics, shard_map, threshold=1.25)
    planner = RebalancePlanner(shard_map, target_ratio=1.15)
    migrator = LiveMigrator(
        shard_map, chaos.wal, chaos.injector, replicated=chaos.replicated
    )
    rebalancer = Rebalancer(skew, planner, migrator)

    hot_fraction = OP_MIXES[op_mix]
    stream = build_skewed_stream(row_count, query_count, seed, hot_fraction)
    pool = list(
        build_skewed_stream(
            row_count, interleave_count, seed + 7919, hot_fraction,
            first_index=query_count,
        )
    )

    def interleave() -> None:
        """Two live queries between one migration's copy and cutover."""
        for _ in range(2):
            if pool:
                chaos.run_verified(pool.pop(0))

    def rebalance_round(attempt: int) -> RebalanceRound:
        """One round planned from this batch's window.

        A retry re-windows — the aborted round may have committed a
        prefix of its plan — but only a retry: a snapshot advances the
        window baseline.
        """
        report = window if attempt == 0 else skew.snapshot()
        return rebalancer.rebalance_once(
            chaos.ctx, report=report, interleave=interleave
        )

    batches = rebalance_rounds + 1
    batch_size = max(1, query_count // batches)
    ratio_before = ratio_after = 1.0
    committed = aborted = 0
    cursor = 0
    for round_index in range(batches):
        upper = (
            len(stream)
            if round_index == batches - 1
            else cursor + batch_size
        )
        for query in stream[cursor:upper]:
            chaos.run_verified(query)
        cursor = upper
        window = skew.snapshot()
        if round_index == 0:
            ratio_before = window.ratio
        ratio_after = window.ratio
        if round_index < rebalance_rounds:
            outcome = chaos.retry(rebalance_round)
            committed += outcome.committed
            aborted += outcome.aborted

    if measure_count:
        for query in build_skewed_stream(
            row_count, measure_count, seed + 104_729, hot_fraction,
            first_index=query_count + interleave_count,
        ):
            chaos.run_verified(query)
        ratio_after = skew.snapshot().ratio

    # Closing zero-loss / zero-duplication proof: full-table answers
    # must match the oracle byte-for-byte across every epoch bump.
    final_queries = (
        QuerySpec(QueryShape.FULL_SUM, "orders", ("k", "v")),
        QuerySpec(
            QueryShape.POINT_MATERIALIZE,
            "orders",
            ("k", "v"),
            tuple(range(row_count)),
        ),
    )
    final_before = chaos.mismatched
    for query in final_queries:
        chaos.run_verified(query)
    final_checks_ok = chaos.mismatched == final_before

    return RebalanceRunResult(
        seed=seed,
        node_count=node_count,
        shard_count=shard_count,
        replication=replication,
        fault_rate=fault_rate,
        op_mix=op_mix,
        sites=tuple(sites),
        ratio_before=ratio_before,
        ratio_after=ratio_after,
        epoch=shard_map.epoch,
        committed=committed,
        aborted=aborted,
        rebalance_cycles=migrator.stats.cycles,
        migrator=migrator.stats.snapshot(),
        final_checks_ok=final_checks_ok,
        **chaos.tallies(),
    )


def _cell(
    seed: int, fault_rate: float, op_mix: str, sites: list[str], smoke: bool
) -> dict[str, Any]:
    """One matrix cell: two identical runs, all gates."""
    from repro.verify import run_twice

    first, deterministic = run_twice(
        run_rebalance_chaos,
        seed=seed,
        fault_rate=fault_rate,
        op_mix=op_mix,
        sites=tuple(sites),
        query_count=24 if smoke else 48,
        row_count=512 if smoke else 2048,
        interleave_count=24 if smoke else 48,
    )
    problems: list[str] = []
    if first.mismatched:
        problems.append(f"{first.mismatched} answers diverged from the oracle")
    if not first.final_checks_ok:
        problems.append("full-table zero-loss checks failed")
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
    """The ``rebalance`` plane: chaos matrix plus the balance bench.

    1. **Verification matrix** — seeds × fault rates × operation mixes,
       with *sites* armed in every cell.  Each cell runs twice and must
       be deterministic, byte-identical to the single-node oracle
       (including the closing full-table zero-loss checks) and
       balanced in its fault account.  Across the matrix every
       selected site must have fired at least once (the coverage gate
       — a chaos harness whose faults never fire gates nothing).
    2. **Balance bench** — one unfaulted skewed run per seed: the
       max/mean shard-load ratio must come down to <=
       :data:`GATE_RATIO_AFTER` from a >= :data:`GATE_RATIO_BEFORE`
       start, with the migration cycles charged and reported.
    """
    mixes = ["split"] if smoke else sorted(OP_MIXES)
    rates = (0.0, 0.25) if smoke else FAULT_RATES
    failures = 0
    cells = []
    injected_by_site: dict[str, float] = {site: 0.0 for site in sites}
    for seed in seeds:
        for fault_rate in rates:
            for op_mix in mixes:
                cell = _cell(seed, fault_rate, op_mix, sites, smoke)
                failures += 1 if cell["problems"] else 0
                cells.append(cell)
                resilience = cell["resilience"]
                for site in injected_by_site:
                    injected_by_site[site] += resilience.get(
                        f"injected[{site}]", 0
                    )
                logger.info(
                    "seed=%3d rate=%.2f mix=%-5s epoch=%2d committed=%2d "
                    "aborted=%2d injected=%4.0f matched=%d/%d det=%-5s %s",
                    seed, fault_rate, op_mix, cell["epoch"],
                    cell["committed"], cell["aborted"],
                    resilience.get("injected", 0), cell["matched"],
                    cell["queries"], cell["deterministic"],
                    "FAIL: " + "; ".join(cell["problems"])
                    if cell["problems"]
                    else "ok",
                )
    coverage_gaps = [
        site for site, count in injected_by_site.items() if count == 0
    ]
    if coverage_gaps:
        failures += 1
        logger.info(
            "coverage FAIL: sites never fired: %s", ", ".join(coverage_gaps)
        )

    bench = []
    for seed in seeds:
        # The balance bench always runs at full size with wide windows:
        # the smoke sizing (512 rows, 6-query windows) leaves per-shard
        # load counts too sparsely sampled to measure a ratio against a
        # 1.25 gate, and narrow *planning* windows can bait the planner
        # into merging two healthy shards that merely sampled cold.
        result = run_rebalance_chaos(
            seed=seed,
            fault_rate=0.0,
            op_mix="split",
            query_count=144,
            measure_count=192,
        )
        ok = (
            result.ok
            and result.ratio_before >= GATE_RATIO_BEFORE
            and result.ratio_after <= GATE_RATIO_AFTER
        )
        failures += 0 if ok else 1
        entry = result.to_dict()
        entry["gate"] = {
            "ratio_before_min": GATE_RATIO_BEFORE,
            "ratio_after_max": GATE_RATIO_AFTER,
            "passed": ok,
        }
        bench.append(entry)
        share = (
            result.rebalance_cycles / result.cycles if result.cycles else 0.0
        )
        logger.info(
            "bench seed=%3d ratio %.2f -> %.2f over %d epochs "
            "(migration cycles %6.1f%% of total) %s",
            seed, result.ratio_before, result.ratio_after, result.epoch,
            share * 100, "ok" if ok else "FAIL",
        )

    metrics = {"failures": float(failures)}
    tolerances: dict[str, dict[str, Any]] = {
        "failures": {"rel": 0.0, "direction": "lower_better"},
    }
    for entry in bench:
        name = f"ratio_after.s{entry['seed']}"
        metrics[name] = float(entry["ratio_after"])
        tolerances[name] = {"rel": 0.10, "direction": "lower_better"}
    return make_bench_record(
        "rebalance",
        ok=failures == 0,
        metrics=metrics,
        tolerances=tolerances,
        smoke=smoke,
        seeds=seeds,
        sites=sites,
        fault_rates=list(rates),
        op_mixes=mixes,
        failures=failures,
        matrix=cells,
        # "bench" is the envelope's harness-name key, so the balance
        # bench cells land under "balance_bench".
        balance_bench=bench,
    )
