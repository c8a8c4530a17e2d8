"""The benchmark's three HTAP workloads, on the simulated clock.

No single configuration wins the paper's Figure 2: record-centric work
favours NSM, attribute-centric work favours DSM, and the GPU wins only
when data is already on the device.  The workloads therefore sit on
both sides of those boundaries:

* ``htap-serve`` — the paper's HTAP case: open-loop multi-tenant OLAP
  sums on the device beside point updates and materialisations, through
  ``ServingLoop`` + ``LayoutBackend``.  The staging working set fits, so
  every staging miss comes from a write invalidating a replica.
* ``olap-scan`` — read-only fused pipelines routed by CoGaDB's HyPE over
  an item table whose scanned columns exceed the staging capacity, so
  operand sets evict each other.
* ``sharded-oltp`` — write-heavy skewed point traffic with no GPU
  through the sharded executor, DFS, replicated WAL and periodic
  rebalancing.

A workload runs in rounds: :meth:`Workload.setup` builds fresh state
from a round seed, :meth:`Workload.run` is the timed phase, and the
results of every round are pooled.  Inputs come from the seed, are made
ahead of time on the simulated clock (so a generator is never late),
and their amount is a fixed function of ``seconds`` (sized so a round
takes about that long at the commit that introduced the benchmark).
Every simulated figure is therefore a pure function of the seeds and
``seconds``.  Table contents come from the library's fixed generators.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from typing import Any, Callable

import numpy as np

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.engines.cogadb import CoGaDBEngine, HypeScheduler
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.faults.injector import FaultInjector
from repro.fusion import PIPELINE_ROUTES, Pipeline, compile_pipeline
from repro.fusion.oracle import run_unfused_host
from repro.hardware.event import PerfCounters
from repro.hardware.platform import Platform
from repro.obs.metrics import MetricsRegistry
from repro.rebalance.driver import Rebalancer
from repro.rebalance.migrator import LiveMigrator
from repro.rebalance.planner import RebalancePlanner
from repro.rebalance.skew import SkewDetector
from repro.rebalance.verifier import build_skewed_stream
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.wal import WriteAheadLog
from repro.serving.admission import AdmissionQueue
from repro.serving.arrivals import WorkloadGenerator
from repro.serving.server import BATCH_16, LayoutBackend, ServingLoop
from repro.serving.verifier import (
    OLAP_ATTRIBUTES,
    build_item_store,
    build_tenants,
    replay_serial,
)
from repro.sharding.executor import ShardedExecutor
from repro.sharding.placement import ShardMap, ShardingScheme
from repro.sharding.router import Router
from repro.sharding.verifier import SingleNodeOracle, build_columns, encode_answer
from repro.workload.queries import QueryShape, QuerySpec
from repro.workload.tpcc import generate_items, item_schema

__all__ = ["WORKLOADS", "Workload", "ClosedLoop", "HtapServe", "OlapScan", "ShardedOltp"]


class ClosedLoop:
    """Clients that think, send one request and wait for its answer.

    Each client thinks for an exponential time (mean *think_cycles*),
    sends a request and waits for it; one server serves requests in the
    order they were sent.  A request's latency runs from its send to its
    finish, so it includes the wait behind other clients' requests; with
    a finite client count that wait stays bounded.
    """

    def __init__(self, clients: int, think_cycles: float, rng: np.random.Generator) -> None:
        self.rng = rng
        self.think_cycles = think_cycles
        self.ready = list(rng.exponential(think_cycles, size=clients))
        #: The simulated cycle at which the server next falls idle.
        self.free = 0.0

    def serve(self, request: Callable[[], float]) -> float:
        """Serve the next client's request; returns its latency in cycles.

        *request* executes the request and returns the cycles it charged.
        """
        client = min(range(len(self.ready)), key=self.ready.__getitem__)
        sent = self.ready[client]
        self.free = max(sent, self.free) + request()
        self.ready[client] = self.free + self.rng.exponential(self.think_cycles)
        return self.free - sent

    def occupy(self, cycles: float) -> None:
        """Hold the server for *cycles* of work no client asked for."""
        self.free += cycles


class UnitHooks:
    """A serving backend that calls hooks around every unit it runs.

    ``ServingLoop`` only calls ``run``/``run_batch``/``batchable``/
    ``is_write``; the proxy forwards them, calling ``before(specs)``
    and ``after()`` around each dispatched unit.
    """

    def __init__(self, backend: Any, before: Callable, after: Callable) -> None:
        self.backend = backend
        self.before = before
        self.after = after

    def batchable(self, spec: QuerySpec) -> bool:
        return self.backend.batchable(spec)

    def is_write(self, spec: QuerySpec) -> bool:
        return self.backend.is_write(spec)

    def run(self, spec: QuerySpec, ctx: ExecutionContext) -> Any:
        self.before([spec])
        answer = self.backend.run(spec, ctx)
        self.after()
        return answer

    def run_batch(self, specs, ctx: ExecutionContext) -> list[Any]:
        self.before(specs)
        answers = self.backend.run_batch(specs, ctx)
        self.after()
        return answers


class Workload:
    """One workload: per-round set-up and timed phase, pooled results.

    After the rounds, ``latencies`` holds every completed request's
    simulated latency in cycles, ``counters`` the simulated counters
    charged in the timed phases, ``staging`` the staging-cache activity
    they caused and ``peak_held`` the most bytes held after any request.
    The runner sets ``tracer`` when the run is traced.
    """

    name = ""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.latencies: list[float] = []
        self.counters = PerfCounters()
        self.offered = 0
        self.shed = 0
        self.user_bytes = 1
        self.peak_held = 0
        self.hz = 1.0
        self.staging: Counter = Counter()
        self.tracer: Any = None
        #: Return values the traced run's ``watch`` hooks see during
        #: timed phases, by hook.
        self.observed: dict[str, list] = {}
        self._timing = False
        #: What the oracle needs to check the last round's answers.
        self._answers: Any = None

    # -- subclass interface ---------------------------------------------
    def setup(self, seed: int) -> None:  # pragma: no cover - interface
        """Build a round's platform, data and inputs from *seed*."""
        raise NotImplementedError

    def _run(self) -> None:  # pragma: no cover - interface
        """Serve the round's inputs, pooling results; keep ``_answers``."""
        raise NotImplementedError

    def _mismatches(self, answers: Any) -> int:  # pragma: no cover - interface
        """How many of a round's answers differ from the oracle's."""
        raise NotImplementedError

    def watch(self) -> list[tuple[Any, str, Callable[[Any], None]]]:
        """``(owner, attribute, on_return)`` hooks the traced run installs."""
        return []

    def layer_values(self) -> dict[str, float]:
        """Workload-specific per-layer values (counts the runner cannot see)."""
        return {}

    def tables(self) -> dict[str, list[tuple]]:
        """Detail tables the traced run prints, by title (after layer_values)."""
        return {}

    # -- shared ---------------------------------------------------------
    def run(self) -> None:
        """The timed phase of one round."""
        before = self.platform.staging.stats()
        self._timing = True
        try:
            self._run()
        finally:
            self._timing = False
            self._request(None)
        after = self.platform.staging.stats()
        self.staging.update({key: after[key] - before[key] for key in before})

    def check(self) -> int:
        """Check the last round's answers against the oracle, then drop them.

        Called between rounds, so no round's timed phase carries the
        previous rounds' answers on its heap.
        """
        wrong = self._mismatches(self._answers)
        self._answers = None
        return wrong

    def _observe(self, key: str) -> Callable[[Any], None]:
        """An ``on_return`` hook keeping values returned in timed phases."""
        values = self.observed.setdefault(key, [])

        def keep(value: Any) -> None:
            if self._timing:
                values.append(value)

        return keep

    def _held(self) -> int:
        return self.platform.host_memory.used + self.platform.device_memory.used

    def _generating(self):
        """The span input generation runs under (no-op untraced)."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span("workload.gen", "workload")

    def _request(self, request: Any) -> None:
        """Stamp *request* on the host spans that follow (traced runs)."""
        if self.tracer is not None:
            self.tracer.request = request

    def _served(self) -> None:
        """After every request or unit: sample the bytes held."""
        self.peak_held = max(self.peak_held, self._held())

    @property
    def completed(self) -> int:
        return len(self.latencies)


class HtapServe(Workload):
    """Four open-loop Poisson tenants on a 200k-row item column store.

    Tenants alternate weights 2/1 and priority classes 0/1; 80 % of
    queries are device ``FULL_SUM`` on ``i_price``/``i_im_id``, 10 %
    point updates and 10 % 4-row materialisations, batched up to 16
    under a 64-deep admission backlog, at 20k queries per simulated
    second in all.
    """

    name = "htap-serve"
    ROWS = 200_000
    TENANTS = 4
    RATE_QPS = 20_000.0
    #: Simulated seconds of arrivals per second of ``seconds``.
    SIM_SECONDS_PER_SECOND = 0.35
    MAX_BACKLOG = 64
    LADDER_QPS = (5_000, 7_000, 10_000, 14_000, 20_000, 28_000, 40_000, 56_000)
    LADDER_ARRIVALS = 2_000
    P99_LIMIT_US = 1_000.0

    def __init__(self, seconds: float) -> None:
        super().__init__(seconds)
        self.waits: list[float] = []
        self.units = self.batches = self.batched = 0

    def _arrivals(self, seed: int, relation, rate_qps: float, horizon_s: float) -> list:
        tenants = build_tenants(self.TENANTS, self.hz * self.TENANTS / rate_qps)
        generator = WorkloadGenerator(
            relation,
            tenants,
            seed=seed,
            olap_attributes=OLAP_ATTRIBUTES,
            max_queries_per_tenant=10**9,
        )
        return generator.arrivals(horizon_s * self.hz)

    def setup(self, seed: int) -> None:
        self.seed = seed
        platform = self.platform = Platform.paper_testbed()
        self.hz = platform.cpu.frequency_hz
        store = build_item_store(platform, self.ROWS)
        self.user_bytes = self.ROWS * store.relation.schema.record_width
        with self._generating():
            self.arrivals = self._arrivals(
                seed, store.relation, self.RATE_QPS,
                self.SIM_SECONDS_PER_SECOND * self.seconds,
            )
        # Warm-up: stage both OLAP columns before the clock starts.
        warm = ExecutionContext(platform)
        for attribute in OLAP_ATTRIBUTES:
            device_sum_column(store, attribute, warm)
        self.seq_of = {id(arrival.spec): arrival.seq for arrival in self.arrivals}
        self.ctx = ExecutionContext(platform)
        self.loop = ServingLoop(
            UnitHooks(LayoutBackend(platform, store), self._unit, self._served),
            self.ctx,
            AdmissionQueue(self.MAX_BACKLOG),
            BATCH_16,
        )

    def _unit(self, specs) -> None:
        self._request([self.seq_of[id(spec)] for spec in specs])

    def _run(self) -> None:
        report = self.loop.run(self.arrivals)
        for query in report.executed:
            self.latencies.append(query.latency_cycles)
            self.waits.append(query.start_cycle - query.arrival_cycle)
            self.batched += query.batched
        self.units += report.units
        self.batches += report.batches
        self.counters.merge(self.ctx.counters)
        self.offered += len(self.arrivals)
        self.shed += len(report.shed)
        self._answers = self.loop.answers_for_replay()

    def _mismatches(self, served) -> int:
        """The served answers against a serial replay in arrival order."""
        expected = replay_serial(self.ROWS, served)
        return sum(
            1
            for (__, __, answer), oracle in zip(served, expected)
            if encode_answer(answer) != encode_answer(oracle)
        )

    def ladder(self) -> list[tuple[float, float, int]]:
        """``(rate, p99 us, shed)`` per ladder rate, each on a fresh store."""
        rungs = []
        for rate in self.LADDER_QPS:
            platform = Platform.paper_testbed()
            store = build_item_store(platform, self.ROWS)
            arrivals = self._arrivals(
                self.seed, store.relation, rate, self.LADDER_ARRIVALS / rate
            )
            loop = ServingLoop(
                LayoutBackend(platform, store),
                ExecutionContext(platform),
                AdmissionQueue(self.MAX_BACKLOG),
                BATCH_16,
            )
            report = loop.run(arrivals)
            latencies = [query.latency_cycles for query in report.executed]
            p99 = float(np.percentile(latencies, 99)) / self.hz * 1e6
            rungs.append((rate, p99, len(report.shed)))
        return rungs

    def layer_values(self) -> dict[str, float]:
        self.rungs = self.ladder()
        passing = [
            rate for rate, p99, shed in self.rungs
            if p99 <= self.P99_LIMIT_US and shed == 0
        ]
        return {
            "serving.units": self.units,
            "serving.batch_mean": self.batched / self.batches if self.batches else 0.0,
            "serving.wait_p99_us": np.percentile(self.waits, 99) / self.hz * 1e6,
            "serving.p999_us": np.percentile(self.latencies, 99.9) / self.hz * 1e6,
            "serving.shed": self.shed,
            "serving.max_qps": max(passing, default=0.0),
        }

    def tables(self) -> dict[str, list[tuple]]:
        return {"rate ladder: offered q/s, sim p99 us, shed": self.rungs}


class OlapScan(Workload):
    """Twelve fused pipelines over a 250k-row item table, four clients.

    Q6-like ``sum(i_price) where i_im_id < t``, Q1-like
    ``sum(i_price * 1.07) where i_price < c`` and ``sum(i_im_id) where
    i_id < c``, each at selectivities 0.02/0.1/0.5/0.9, picked at random
    per request.  Four closed-loop clients think 0.5 ms (mean) between
    requests.  The staging capacity is 70 % of the three scanned
    columns: every operand set fits (at most 60 %), all three do not.
    """

    name = "olap-scan"
    ROWS = 250_000
    SELECTIVITIES = (0.02, 0.1, 0.5, 0.9)
    CAPACITY_SHARE = 0.7
    CLIENTS = 4
    THINK_S = 0.5e-3
    PIPELINES_PER_SECOND = 800

    def __init__(self, seconds: float) -> None:
        super().__init__(seconds)
        self.routes: list[str] = []
        self.charged: list[float] = []

    def pipelines(self) -> list[Pipeline]:
        plans = []
        for selectivity in self.SELECTIVITIES:
            id_bound = int(10_000 * selectivity)
            price_bound = 1.0 + 99.0 * selectivity
            row_bound = int(self.ROWS * selectivity)
            plans += [
                Pipeline.scan("i_im_id")
                .filter(lambda v, t=id_bound: v < t, selectivity_hint=selectivity)
                .aggregate("sum", on="i_price"),
                Pipeline.scan("i_price")
                .filter(lambda v, c=price_bound: v < c, selectivity_hint=selectivity)
                .project(lambda v: v * 1.07, name="tax")
                .aggregate("sum"),
                Pipeline.scan("i_id")
                .filter(lambda v, c=row_bound: v < c, selectivity_hint=selectivity)
                .aggregate("sum", on="i_im_id"),
            ]
        return plans

    def setup(self, seed: int) -> None:
        with self._generating():
            columns = generate_items(self.ROWS)
        platform = self.platform = Platform.paper_testbed()
        self.hz = platform.cpu.frequency_hz
        self.user_bytes = sum(column.nbytes for column in columns.values())
        platform.staging.capacity_bytes = int(
            self.CAPACITY_SHARE
            * sum(columns[name].nbytes for name in ("i_id", "i_im_id", "i_price"))
        )
        self.engine = CoGaDBEngine(platform)
        self.engine.create("item", item_schema())
        self.engine.load("item", columns)
        self.plans = self.pipelines()
        count = max(1, round(self.PIPELINES_PER_SECOND * self.seconds))
        with self._generating():
            self.rng = np.random.default_rng(seed)
            self.choice = self.rng.integers(len(self.plans), size=count).tolist()
        # Warm-up: one pass over the twelve pipelines stages operands
        # and lets HyPE calibrate before the clock starts.
        self.warm_answers = [
            self.engine.run_pipeline("item", plan, ExecutionContext(platform))
            for plan in self.plans
        ]

    def _run(self) -> None:
        platform, engine = self.platform, self.engine
        decisions = len(engine.scheduler.decisions)
        clients = ClosedLoop(self.CLIENTS, self.THINK_S * self.hz, self.rng)
        answers = []

        def pipeline(index: int) -> float:
            ctx = ExecutionContext(platform)
            answers.append(engine.run_pipeline("item", self.plans[index], ctx))
            self.charged.append(ctx.cycles)
            self.counters.merge(ctx.counters)
            return ctx.cycles

        for request, index in enumerate(self.choice):
            self._request(request)
            self.latencies.append(clients.serve(lambda: pipeline(index)))
            self._served()
        self.offered += len(self.choice)
        self.routes += [
            decision
            for decision in engine.scheduler.decisions[decisions:]
            if decision in PIPELINE_ROUTES
        ]
        checked = list(zip(range(len(self.plans)), self.warm_answers))
        checked += zip(self.choice, answers)
        self._answers = checked

    def _mismatches(self, checked) -> int:
        """Every answer against the unfused host oracle, compared with ``==``."""
        platform = Platform.paper_testbed()
        store = build_item_store(platform, self.ROWS)
        expected = [
            run_unfused_host(compile_pipeline(plan), store, ExecutionContext(platform))
            for plan in self.plans
        ]
        return sum(1 for index, answer in checked if not answer == expected[index])

    def watch(self):
        return [(HypeScheduler, "predict_pipeline", self._observe("predictions"))]

    def layer_values(self) -> dict[str, float]:
        routes = self.routes
        values = {
            f"engines.route_{route.replace('-', '_')}_frac": routes.count(route)
            / len(routes)
            for route in PIPELINE_ROUTES
        }
        errors = [
            abs(predicted[route] - charged) / charged
            for predicted, route, charged in zip(
                self.observed["predictions"], routes, self.charged
            )
        ]
        values["engines.hype_err_p50"] = float(np.median(errors))
        return values


class ShardedOltp(Workload):
    """Skewed point traffic on 4 nodes x 8 range shards, with rebalancing.

    A third each of position sums, materialisations and updates over
    16,384 rows; 8/15 of each query's 24 positions fall in the first
    eighth of the rows.  Replication 2, WAL ``group_commit=1`` shipped
    into the DFS, no fault site armed.  Four closed-loop clients think
    100 ms (mean) between queries; after every 125 of them the client
    side runs one detect-plan-migrate round, serving two more queries
    between each migration's copy and cutover.
    """

    name = "sharded-oltp"
    ROWS = 16_384
    NODES = 4
    SHARDS = 8
    REPLICATION = 2
    HOT_FRACTION = 8 / 15
    CLIENTS = 4
    THINK_S = 0.1
    REBALANCE_EVERY = 125
    QUERIES_PER_SECOND = 250

    def __init__(self, seconds: float) -> None:
        super().__init__(seconds)
        self.committed = self.updated_rows = self.flushes = 0

    def setup(self, seed: int) -> None:
        platform = self.platform = Platform.paper_testbed()
        self.hz = platform.cpu.frequency_hz
        injector = FaultInjector(seed=seed)
        injector.install(platform)
        self.cluster = Cluster(self.NODES)
        dfs = BlockStore(
            self.cluster, replication=self.REPLICATION, block_size=64 * 1024,
            injector=injector,
        )
        self.columns = build_columns(self.ROWS)
        self.user_bytes = sum(column.nbytes for column in self.columns.values())
        shard_map = ShardMap(
            "orders", self.columns, self.cluster, dfs, self.SHARDS,
            scheme=ShardingScheme.RANGE,
        )
        replicated = ReplicatedLog(dfs, name="orders")
        self.wal = WriteAheadLog(platform, group_commit=1, replicator=replicated.on_flush)
        loads = MetricsRegistry()
        self.executor = ShardedExecutor(
            Router(shard_map), injector, wal=self.wal, replicated=replicated,
            metrics=loads,
        )
        self.rebalancer = Rebalancer(
            SkewDetector(loads, shard_map, threshold=1.25),
            RebalancePlanner(shard_map, target_ratio=1.15),
            LiveMigrator(shard_map, self.wal, injector, replicated=replicated),
        )
        # Warm-up: one full sum builds every shard's serving state; the
        # skew window it opened is discarded.
        self.executor.run(
            QuerySpec(QueryShape.FULL_SUM, "orders", ("k", "v")),
            ExecutionContext(platform),
        )
        self.rebalancer.skew.snapshot()
        count = max(1, round(self.QUERIES_PER_SECOND * self.seconds))
        with self._generating():
            self.stream = build_skewed_stream(self.ROWS, count, seed, self.HOT_FRACTION)
            self.rng = np.random.default_rng(seed)

    def _held(self) -> int:
        nodes = sum(node.disk.used + node.memory.used for node in self.cluster.nodes)
        return super()._held() + nodes + self.wal.durable_bytes

    def _run(self) -> None:
        platform, executor = self.platform, self.executor
        clients = ClosedLoop(self.CLIENTS, self.THINK_S * self.hz, self.rng)
        flushes = self.wal.flush_count
        pending = iter(self.stream)
        answers = []

        def query(spec: QuerySpec) -> float:
            ctx = ExecutionContext(platform)
            answers.append(executor.run(spec, ctx).encoded())
            self.counters.merge(ctx.counters)
            return ctx.cycles

        def serve_next() -> bool:
            spec = next(pending, None)
            if spec is None:
                return False
            self._request(len(answers))
            self.latencies.append(clients.serve(lambda: query(spec)))
            self._served()
            if spec.shape is QueryShape.POINT_UPDATE:
                self.updated_rows += len(spec.positions)
            return True

        def interleave() -> None:
            for __ in range(2):
                serve_next()

        client_queries = 0
        while serve_next():
            client_queries += 1
            if client_queries % self.REBALANCE_EVERY == 0:
                ctx = ExecutionContext(platform)
                outcome = self.rebalancer.rebalance_once(ctx, interleave=interleave)
                self.committed += outcome.committed
                self.counters.merge(ctx.counters)
                clients.occupy(ctx.cycles)
                self._served()
        self.offered += len(self.stream)
        self.flushes += self.wal.flush_count - flushes
        self._answers = list(zip(self.stream, answers))

    def _mismatches(self, checked) -> int:
        """Every answer against ``SingleNodeOracle``, in service order."""
        oracle = SingleNodeOracle(build_columns(self.ROWS), self.executor.update_value)
        return sum(
            1 for spec, answer in checked if encode_answer(oracle.answer(spec)) != answer
        )

    def watch(self):
        return [
            (ShardedExecutor, "run", self._observe("results")),
            (BlockStore, "write", self._observe("files")),
            (Rebalancer, "rebalance_once", self._observe("rounds")),
        ]

    def layer_values(self) -> dict[str, float]:
        fanouts = [result.fanout for result in self.observed["results"]]
        rounds = self.observed["rounds"]
        return {
            "sharding.fanout_mean": float(np.mean(fanouts)) if fanouts else 0.0,
            "distributed.mb_written": sum(
                block.size * len(block.replicas)
                for dfs_file in self.observed["files"]
                for block in dfs_file.blocks
            ) / 1e6,
            "recovery.flushes_per_updated_row": self.flushes / self.updated_rows
            if self.updated_rows else 0.0,
            "rebalance.ops_committed": self.committed,
            "rebalance.ratio_last": rounds[-1].ratio_before if rounds else 0.0,
        }

    def tables(self) -> dict[str, list[tuple]]:
        rounds = self.observed["rounds"]
        return {
            "rebalance rounds: load ratio before, planned, committed": [
                (round_.ratio_before, len(round_.planned), round_.committed)
                for round_ in rounds
            ]
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (HtapServe, OlapScan, ShardedOltp)
}
