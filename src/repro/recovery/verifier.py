"""Crash/recover verification: the durability subsystem's end-to-end proof.

The claim worth testing spans every layer this package wires together:
*run a seeded HTAP workload durably, crash the machine at an
injector-chosen point, recover, and the recovered engine's logical
state equals a committed-prefix oracle exactly — with every injected
crash accounted for and the whole exercise deterministic per seed.*

:func:`run_crash_recover` performs one full cycle:

1. **Doomed run** — a fresh engine is bulk-loaded, checkpointed (the
   load's durability point), and then drives an
   :class:`~repro.workload.htap.HTAPMix` stream through
   :func:`run_durable_stream`: every point update is a single-statement
   transaction (BEGIN / UPDATE with both images / COMMIT under group
   commit), with periodic fuzzy checkpoints and reorganizations.  One
   crash site is armed with ``max_faults=1``; the run ends in
   :class:`~repro.errors.EngineCrashed`.
2. **Teardown** — the WAL's volatile tail is dropped
   (:meth:`~repro.recovery.wal.WriteAheadLog.crash`) and every MVCC
   snapshot is swept via the idempotent release path.
3. **Recovery** — a fresh engine on a fresh platform (the rebooted
   machine) is rebuilt by :class:`~repro.recovery.RecoveryManager`
   from the durable artifacts.
4. **Oracle** — a third engine replays *only* the committed prefix
   (durable COMMITs, in LSN order) on top of the original load.
5. **Verdict** — both engines' logical states are digested row by row
   and compared; the resilience accounting invariant
   ``injected == retried + fallen_back + recovered + surfaced`` is
   checked with the crash recorded as *recovered*.

Equality is **logical**: both engines materialize every row through
their ordinary read path and the value streams must match exactly.
(Physical bytes may differ — L-Store's recovered tail chain is not the
crashed run's tail chain — but the paper's Table 1 durability claims
are about logical state, and so is the oracle.)

:func:`verify` is the ``recovery`` plane of ``python -m repro.verify``:
one crash/recover cycle per (seed, crash site).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import EngineCrashed, ReorganizationAborted
from repro.execution.context import ExecutionContext
from repro.faults.chaos import deterministic_update_value
from repro.faults.injector import (
    SITE_CRASH_POST_COMMIT,
    SITE_CRASH_REORG,
    SITE_WAL_TORN_WRITE,
    FaultInjector,
)
from repro.hardware.platform import Platform
from repro.obs.bench import make_bench_record
from repro.obs.logging import get_logger
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.manager import RecoveryManager
from repro.recovery.wal import LogRecordKind, WriteAheadLog
from repro.workload.htap import HTAPMix
from repro.workload.queries import QueryShape, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import StorageEngine

__all__ = [
    "CRASH_SITES",
    "SITES",
    "CrashRecoveryResult",
    "run_durable_stream",
    "run_crash_recover",
    "state_digest",
    "verify",
]

logger = get_logger(__name__)

#: Harness keys -> (fault site, per-check probability).  Probabilities
#: are tuned to the per-site check density so one fault fires well
#: inside the default stream for every CI seed: flush-level sites see
#: tens of checks per run, the reorg site sees hundreds (one per
#: migrated row).
CRASH_SITES: dict[str, tuple[str, float]] = {
    "torn-append": (SITE_WAL_TORN_WRITE, 0.35),
    "post-commit": (SITE_CRASH_POST_COMMIT, 0.35),
    "during-reorg": (SITE_CRASH_REORG, 0.02),
}

#: The crash-site keys ``python -m repro.verify recovery --sites`` may
#: name.
SITES: tuple[str, ...] = tuple(sorted(CRASH_SITES))

#: The relation every harness run drives.
RELATION = "item"

DEFAULT_ROWS = 400
DEFAULT_QUERIES = 160
DEFAULT_GROUP_COMMIT = 4
DEFAULT_CHECKPOINT_EVERY = 40
DEFAULT_REORGANIZE_EVERY = 12


@dataclass(frozen=True)
class CrashRecoveryResult:
    """One crash/recover cycle, reduced to comparable scalars.

    Two runs with the same (seed, crash site, knobs) must produce
    *equal* instances — the determinism half of the acceptance
    criteria — so every field is a plain value, including the
    resilience snapshot dict.
    """

    seed: int
    crash_site: str
    crashed: bool
    queries_executed: int
    checkpoints_taken: int
    reorgs_attempted: int
    durable_records: int
    torn_records: int
    committed_txns: int
    loser_txns: int
    redo_updates: int
    undo_updates: int
    replayed_txns: int
    incomplete_reorgs: int
    recovery_cycles: float
    state_matches: bool
    unaccounted_faults: int
    resilience: dict[str, float]

    def to_dict(self) -> dict:
        """JSON-ready form (the BENCH_recovery.json rows)."""
        return asdict(self)


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def default_engine_factory(platform: Platform) -> "StorageEngine":
    """The harness default: H2O, adaptive enough to exercise reorgs.

    Returns an engine with the relation *created but not loaded* —
    recovery owns the load when rebuilding, the harness loads the
    doomed run and the oracle itself.
    """
    from repro.engines.h2o import H2OEngine
    from repro.workload.tpcc import item_schema

    engine = H2OEngine(platform)
    engine.create(RELATION, item_schema())
    return engine


def state_digest(engine: "StorageEngine", name: str) -> str:
    """SHA-256 over the relation's logical row stream.

    Rows are materialized through the engine's ordinary read path on a
    scratch context (digesting must not perturb the run's charge) and
    normalized to plain Python values so two engines agree whenever
    their logical contents agree.
    """
    ctx = ExecutionContext(engine.platform)
    row_count = engine.relation(name).row_count
    digest = hashlib.sha256()
    for row in engine.materialize(name, range(row_count), ctx):
        normalized = tuple(
            value.item() if hasattr(value, "item") else value for value in row
        )
        digest.update(repr(normalized).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The durable runner
# ----------------------------------------------------------------------
def run_durable_stream(
    engine: "StorageEngine",
    name: str,
    queries: Sequence[QuerySpec],
    ctx: ExecutionContext,
    wal: WriteAheadLog,
    checkpoints: CheckpointStore,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    reorganize_every: int = DEFAULT_REORGANIZE_EVERY,
    progress: dict[str, int] | None = None,
) -> tuple[int, int, int]:
    """Drive *queries* durably; returns (executed, checkpoints, reorgs).

    Every ``POINT_UPDATE`` is one transaction, logged write-ahead with
    both images (the before image read through the engine so it is the
    value any reader would have seen).  Reads are not logged.  Crash
    faults (:class:`~repro.errors.EngineCrashed`) propagate to the
    caller — there is no in-process absorption for a dead process; the
    optional *progress* dict keeps the pre-crash counts reachable.
    """
    executed = 0
    checkpoints_taken = 0
    reorgs_attempted = 0
    if progress is None:
        progress = {}
    ctx.wal = wal
    for index, query in enumerate(queries):
        if query.shape is QueryShape.POINT_UPDATE:
            txn_id = index
            attribute = query.attributes[0]
            position = query.positions[0]
            after = deterministic_update_value(index)
            wal.log_begin(txn_id, ctx)
            before = engine.sum_at(name, attribute, [position], ctx)
            wal.log_update(
                txn_id, name, attribute, position, before, after, ctx
            )
            engine.update(name, position, attribute, after, ctx)
            wal.log_commit(txn_id, ctx)
        elif query.shape is QueryShape.FULL_SUM:
            engine.sum(name, query.attributes[0], ctx)
        elif query.shape is QueryShape.POSITION_SUM:
            engine.sum_at(name, query.attributes[0], list(query.positions), ctx)
        else:
            engine.materialize(name, list(query.positions), ctx)
        executed += 1
        progress["executed"] = executed
        if reorganize_every and (index + 1) % reorganize_every == 0:
            reorgs_attempted += 1
            progress["reorgs"] = reorgs_attempted
            try:
                engine.reorganize(name, ctx)
            except ReorganizationAborted:
                # Rolled back in-process; the durable run keeps going.
                pass
        if checkpoint_every and (index + 1) % checkpoint_every == 0:
            checkpoints.take(engine, name, wal, ctx)
            checkpoints_taken += 1
            progress["checkpoints"] = checkpoints_taken
    return executed, checkpoints_taken, reorgs_attempted


# ----------------------------------------------------------------------
# The full crash/recover cycle
# ----------------------------------------------------------------------
def run_crash_recover(
    seed: int,
    crash_site: str,
    rows: int = DEFAULT_ROWS,
    queries: int = DEFAULT_QUERIES,
    group_commit: int = DEFAULT_GROUP_COMMIT,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    reorganize_every: int = DEFAULT_REORGANIZE_EVERY,
    engine_factory: "Callable[[Platform], StorageEngine] | None" = None,
) -> CrashRecoveryResult:
    """One verified crash/recover cycle at (*seed*, *crash_site*)."""
    from repro.workload.tpcc import generate_items

    if crash_site not in CRASH_SITES:
        raise KeyError(
            f"unknown crash site {crash_site!r}; pick from {sorted(CRASH_SITES)}"
        )
    site, probability = CRASH_SITES[crash_site]
    factory = engine_factory or default_engine_factory
    columns = generate_items(rows)

    # ---- the doomed run ------------------------------------------------
    platform = Platform.paper_testbed()
    engine = factory(platform)
    engine.load(RELATION, {name: column.copy() for name, column in columns.items()})
    wal = WriteAheadLog(platform, group_commit=group_commit)
    store = CheckpointStore(platform)
    ctx = ExecutionContext(platform, wal=wal)
    store.take(engine, RELATION, wal, ctx)  # the load's durability point

    injector = FaultInjector(seed=seed)
    injector.arm(site, probability, max_faults=1)
    injector.install(platform)

    mix = HTAPMix(
        engine.relation(RELATION),
        oltp_fraction=0.6,
        oltp_write_fraction=0.5,
        seed=seed,
    )
    stream = mix.query_list(queries)
    crashed = False
    progress: dict[str, int] = {}
    try:
        run_durable_stream(
            engine,
            RELATION,
            stream,
            ctx,
            wal,
            store,
            checkpoint_every=checkpoint_every,
            reorganize_every=reorganize_every,
            progress=progress,
        )
    except EngineCrashed:
        crashed = True
    executed = progress.get("executed", 0)
    checkpoints_taken = progress.get("checkpoints", 0)
    reorgs_attempted = progress.get("reorgs", 0)

    # ---- teardown of the dead process ---------------------------------
    wal.crash()
    for manager in getattr(engine, "_snapshot_managers", {}).values():
        manager.release_all()

    # ---- recovery on the rebooted machine -----------------------------
    recovery_platform = Platform.paper_testbed()
    recovery_ctx = ExecutionContext(recovery_platform)
    recovery_manager = RecoveryManager(wal, store)
    recovered_engine, recovery = recovery_manager.recover(
        lambda: factory(recovery_platform),
        RELATION,
        recovery_ctx,
        report=injector.report,
    )
    if crashed:
        # The injected crash's outcome: absorbed by recovery.
        injector.report.record_recovered()

    # ---- the committed-prefix oracle ----------------------------------
    oracle_platform = Platform.paper_testbed()
    oracle_engine = factory(oracle_platform)
    oracle_engine.load(
        RELATION, {name: column.copy() for name, column in columns.items()}
    )
    oracle_ctx = ExecutionContext(oracle_platform)
    durable = wal.durable_records()
    committed = {
        record.txn_id
        for record in durable
        if record.kind is LogRecordKind.COMMIT
    }
    for record in durable:
        if record.kind is LogRecordKind.UPDATE and record.txn_id in committed:
            oracle_engine.update(
                RELATION, record.position, record.attribute, record.after, oracle_ctx
            )

    state_matches = state_digest(recovered_engine, RELATION) == state_digest(
        oracle_engine, RELATION
    )
    report = injector.report
    return CrashRecoveryResult(
        seed=seed,
        crash_site=crash_site,
        crashed=crashed,
        queries_executed=executed,
        checkpoints_taken=checkpoints_taken,
        reorgs_attempted=reorgs_attempted,
        durable_records=len(durable),
        torn_records=wal.torn_records,
        committed_txns=recovery.committed_txns,
        loser_txns=recovery.loser_txns,
        redo_updates=recovery.redo_updates,
        undo_updates=recovery.undo_updates,
        replayed_txns=recovery.replayed_txns,
        incomplete_reorgs=recovery.incomplete_reorgs,
        recovery_cycles=recovery.cycles,
        state_matches=state_matches,
        unaccounted_faults=report.unaccounted,
        resilience=report.snapshot(),
    )


def verify(seeds: list[int], sites: list[str], smoke: bool) -> dict[str, Any]:
    """The ``recovery`` plane: one crash/recover cycle per (seed, site).

    Each cell must crash, recover to exactly the committed-prefix
    oracle's state, and leave no injected fault unaccounted.  Smoke
    shrinks the table but keeps the full query stream: the crash sites
    fire probabilistically per query, so cutting the stream would leave
    some cells with no crash at all.
    """
    sizing = dict(rows=200) if smoke else {}
    cells = []
    failures = 0
    for seed in seeds:
        for site in sites:
            result = run_crash_recover(seed, site, **sizing)
            ok = result.crashed and result.state_matches and (
                result.unaccounted_faults == 0
            )
            failures += 0 if ok else 1
            cells.append(result.to_dict())
            logger.info(
                "seed=%3d site=%-13s crashed=%-5s match=%-5s replayed=%3d "
                "recovery_cycles=%s %s",
                seed, site, result.crashed, result.state_matches,
                result.replayed_txns, f"{result.recovery_cycles:,.0f}",
                "ok" if ok else "FAIL",
            )
    return make_bench_record(
        "recovery",
        ok=failures == 0,
        metrics={
            "failures": float(failures),
            "replayed_txns": float(sum(cell["replayed_txns"] for cell in cells)),
            "recovery_cycles": float(
                sum(cell["recovery_cycles"] for cell in cells)
            ),
        },
        tolerances={
            "failures": {"rel": 0.0, "direction": "lower_better"},
            "replayed_txns": {"rel": 0.10, "direction": "two_sided"},
            "recovery_cycles": {"rel": 0.10, "direction": "lower_better"},
        },
        smoke=smoke,
        seeds=seeds,
        sites=sites,
        failures=failures,
        runs=cells,
    )
