"""Distributed fault sites: DFS block-read errors and node crashes."""

import pytest

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.engines.es2 import ES2Engine
from repro.errors import DistributedError
from repro.execution import ExecutionContext
from repro.faults import SITE_DFS_READ, SITE_NODE_CRASH, FaultInjector
from repro.hardware.event import PerfCounters


@pytest.fixture
def store():
    return BlockStore(Cluster(node_count=4), replication=2, block_size=100)


class TestBlockReadFaults:
    def test_degrades_to_surviving_replica(self, store):
        store.write("/t", b"x" * 100)
        store.injector = FaultInjector(seed=1).arm(SITE_DFS_READ, 1.0, max_faults=1)
        counters = PerfCounters()
        payload, cost = store.read("/t", store.cluster.nodes[0], counters)
        assert payload == b"x" * 100  # degraded read still serves the bytes
        assert store.injector.report.recovered == 1
        assert counters.fault_recoveries == 1
        assert cost > 0  # the replica re-read went over the network

    def test_degraded_read_costs_more_than_clean_read(self, store):
        store.write("/t", b"x" * 100)
        replicas = store.file("/t").blocks[0].replica_nodes
        local = store.cluster.node(replicas[0])
        clean = PerfCounters()
        store.read("/t", local, clean)
        store.injector = FaultInjector(seed=1).arm(SITE_DFS_READ, 1.0, max_faults=1)
        degraded = PerfCounters()
        store.read("/t", local, degraded)
        assert degraded.cycles > clean.cycles

    def test_surfaces_when_no_replica_left(self):
        store = BlockStore(Cluster(node_count=4), replication=1, block_size=100)
        store.write("/t", b"x" * 100)
        store.injector = FaultInjector(seed=1).arm(SITE_DFS_READ, 1.0, max_faults=1)
        with pytest.raises(DistributedError) as excinfo:
            store.read("/t", store.cluster.nodes[0])
        assert excinfo.value.injected is True

    def test_unarmed_store_reads_cleanly(self, store):
        store.write("/t", b"x" * 100)
        store.injector = FaultInjector(seed=1)
        payload, __ = store.read("/t", store.cluster.nodes[0])
        assert payload == b"x" * 100
        assert store.injector.report.injected == 0


class TestNodeCrash:
    def test_crash_triggers_re_replication(self, store):
        store.write("/t", b"x" * 300)
        store.injector = FaultInjector(seed=2).arm(SITE_NODE_CRASH, 1.0, max_faults=1)
        counters = PerfCounters()
        victim = store.inject_node_crash(counters)
        assert victim is not None
        assert store.under_replicated() == []  # repaired immediately
        assert store.injector.report.recovered == 1

    def test_exclusion_protects_the_coordinator(self, store):
        store.write("/t", b"x" * 100)
        protected = store.cluster.nodes[0].name
        store.injector = FaultInjector(seed=2).arm(SITE_NODE_CRASH, 1.0)
        for _ in range(10):
            victim = store.inject_node_crash(exclude=(protected,))
            assert victim != protected

    def test_no_injector_is_a_noop(self, store):
        store.write("/t", b"x" * 100)
        assert store.inject_node_crash() is None

    def test_unfired_site_is_a_noop(self, store):
        store.write("/t", b"x" * 100)
        store.injector = FaultInjector(seed=2)  # nothing armed
        assert store.inject_node_crash() is None
        assert store.under_replicated() == []


class TestES2UnderFaults:
    def test_sum_survives_node_crash(self, loaded_item_engine_factory):
        engine, platform = loaded_item_engine_factory(ES2Engine, partition_rows=128)
        clean_ctx = ExecutionContext(platform)
        expected = engine.sum("item", "i_price", clean_ctx)
        injector = FaultInjector(seed=2).arm(SITE_NODE_CRASH, 1.0, max_faults=1)
        injector.install(platform)
        ctx = ExecutionContext(platform)
        got = engine.sum("item", "i_price", ctx)
        assert got == expected
        assert injector.report.recovered == 1
        assert injector.report.unaccounted == 0
        # Re-replication ships the lost replicas over the network.
        assert ctx.counters.bytes_transferred > clean_ctx.counters.bytes_transferred

    def test_recovery_is_paid_in_cycles(self, loaded_item_engine_factory):
        engine, platform = loaded_item_engine_factory(ES2Engine, partition_rows=128)
        clean_ctx = ExecutionContext(platform)
        engine.sum("item", "i_price", clean_ctx)
        injector = FaultInjector(seed=2).arm(SITE_NODE_CRASH, 1.0, max_faults=1)
        injector.install(platform)
        crash_ctx = ExecutionContext(platform)
        engine.sum("item", "i_price", crash_ctx)
        assert crash_ctx.cycles > clean_ctx.cycles
