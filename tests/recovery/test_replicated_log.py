"""ReplicatedLog tests: segment shipping, lag-by-one, node-loss survival,
decoded-entry read path, corruption detection."""

import ast

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.errors import DistributedError, EngineCrashed
from repro.execution import ExecutionContext
from repro.faults import SITE_DFS_READ, SITE_WAL_TORN_WRITE, FaultInjector
from repro.hardware import Platform
from repro.hardware.event import PerfCounters
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.wal import LogRecordKind, WriteAheadLog


@pytest.fixture
def dfs():
    return BlockStore(Cluster(node_count=4), replication=3)


def replicated_wal(platform, dfs, group_commit=2):
    replicated = ReplicatedLog(dfs, name="item")
    wal = WriteAheadLog(
        platform, group_commit=group_commit, replicator=replicated.on_flush
    )
    return wal, replicated


def commit_txns(wal, ctx, count, start=0):
    for txn in range(start, start + count):
        wal.log_begin(txn, ctx)
        wal.log_commit(txn, ctx)


class TestShipping:
    def test_every_flush_ships_one_segment(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs, group_commit=2)
        commit_txns(wal, ctx, 6)  # 3 group flushes
        assert wal.flush_count == 3
        assert replicated.segments == 3
        assert replicated.shipped_bytes > 0
        assert sorted(dfs.paths()) == [
            "wal/item/00000000",
            "wal/item/00000001",
            "wal/item/00000002",
        ]

    def test_segments_are_replicated_at_store_factor(self, platform, ctx, dfs):
        wal, _ = replicated_wal(platform, dfs)
        commit_txns(wal, ctx, 2)
        for block in dfs.file("wal/item/00000000").blocks:
            assert len(block.replicas) == 3

    def test_read_back_verifies_shipped_bytes(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs)
        commit_txns(wal, ctx, 4)
        payloads = replicated.read_back(dfs.cluster.nodes[0])
        assert len(payloads) == replicated.segments
        assert all(payloads)


class TestSuffix:
    """Six two-record transactions at group commit 2: segments 0, 1
    and 2 hold LSNs 1–4, 5–8 and 9–12."""

    def test_read_entries_reads_only_the_segments_past_since(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs)
        commit_txns(wal, ctx, 6)
        reads = []
        read = dfs.read
        dfs.read = lambda path, *args: reads.append(path) or read(path, *args)
        lsns = lambda since: [
            entry[0]
            for entry in replicated.read_entries(dfs.cluster.nodes[0], None, since)
        ]
        assert lsns(0) == list(range(1, 13)) and len(reads) == 3
        reads.clear()
        assert lsns(4) == list(range(5, 13))
        assert reads == ["wal/item/00000001", "wal/item/00000002"]
        assert lsns(5) == list(range(5, 13))  # a straddled segment comes whole
        assert lsns(12) == []

    def test_truncate_deletes_the_segments_below(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs)
        commit_txns(wal, ctx, 6)
        disk = lambda: sum(node.disk.used for node in dfs.cluster.nodes)
        held = disk()
        assert replicated.truncate(8) == 1  # segment 1 ends at LSN 8: kept
        assert replicated.truncate(9) == 1
        assert sorted(dfs.paths()) == ["wal/item/00000002"]
        assert disk() < held
        assert len(replicated.read_back(dfs.cluster.nodes[0])) == 1
        assert replicated.segments == 3  # shipped, not held
        commit_txns(wal, ctx, 2, start=6)
        entries = replicated.read_entries(dfs.cluster.nodes[0], None, 0)
        assert [entry[0] for entry in entries] == list(range(9, 17))


class TestTornFlush:
    def test_replica_lags_by_at_most_the_torn_segment(self, platform, ctx, dfs):
        """A torn flush dies mid-fsync, before shipping: the replicated
        copy lags the local durable log by exactly that one segment."""
        wal, replicated = replicated_wal(platform, dfs, group_commit=2)
        commit_txns(wal, ctx, 2)  # segment 0 ships cleanly
        FaultInjector(seed=1).arm(
            SITE_WAL_TORN_WRITE, 1.0, max_faults=1
        ).install(platform)
        with pytest.raises(EngineCrashed):
            commit_txns(wal, ctx, 2, start=2)
        assert wal.flush_count == 2  # the torn batch did hit the platter
        assert replicated.segments == 1  # ...but never shipped
        # What did ship is still intact and verifiable.
        replicated.read_back(dfs.cluster.nodes[0])


class TestNodeLoss:
    def test_survives_fail_node_and_re_replicate(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs)
        commit_txns(wal, ctx, 6)
        lost = dfs.fail_node("node1")
        assert lost > 0
        assert dfs.under_replicated()
        created = dfs.re_replicate()
        assert created == lost
        assert not dfs.under_replicated()
        # The re-replicated stream still verifies byte for byte, even
        # read from the node that just lost everything.
        replicated.read_back(dfs.cluster.node("node1"))


class TestES2Wiring:
    def test_make_replicated_wal_ships_into_engine_dfs(self, platform, ctx):
        from repro.engines.es2 import ES2Engine

        engine = ES2Engine(platform, partition_rows=128)
        wal, replicated = engine.make_replicated_wal("item", group_commit=2)
        assert replicated.dfs is engine.dfs
        commit_txns(wal, ctx, 2)
        assert replicated.segments == 1
        assert "wal/item/00000000" in engine.dfs.paths()
        replicated.read_back(engine.coordinator)


REBALANCE_MARKERS = (
    LogRecordKind.REBALANCE_BEGIN,
    LogRecordKind.REBALANCE_COPIED,
    LogRecordKind.REBALANCE_COMMIT,
    LogRecordKind.REBALANCE_ABORT,
)
REORG_MARKERS = (
    LogRecordKind.REORG_BEGIN,
    LogRecordKind.REORG_END,
    LogRecordKind.REORG_ABORT,
)

images = st.one_of(
    st.sampled_from([-0.0, 0.0, -1.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)
labels = st.text(alphabet=list("ab'\"\\\n\t {}é"), max_size=10)
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("txn"),
            st.lists(st.tuples(st.integers(0, 1000), images, images), max_size=3),
            st.sampled_from(["commit", "abort"]),
        ),
        st.tuples(st.just("rebalance"), st.sampled_from(REBALANCE_MARKERS), labels),
        st.tuples(st.just("reorg"), st.sampled_from(REORG_MARKERS), labels),
    ),
    min_size=1,
    max_size=12,
)

MIXED_LOG = [
    ("txn", [(3, -0.0, -2.5), (7, 1e300, -1e-300)], "commit"),
    ("txn", [(4, 0.0, -0.0)], "abort"),
    ("rebalance", LogRecordKind.REBALANCE_BEGIN, 'split "s1" ->\n\'s2\''),
    ("reorg", LogRecordKind.REORG_BEGIN, "a\\nb\n"),
    ("txn", [], "commit"),
    ("rebalance", LogRecordKind.REBALANCE_COMMIT, ""),
]


def build_log(ops, group_commit, fault_seed):
    """A replicated WAL holding *ops*, fully flushed; its DFS optionally
    drawing ``dfs.block-read`` faults from a seeded injector."""
    platform = Platform.paper_testbed()
    ctx = ExecutionContext(platform)
    dfs = BlockStore(Cluster(node_count=4), replication=3)
    if fault_seed is not None:
        dfs.injector = FaultInjector(seed=fault_seed).arm(SITE_DFS_READ, 0.3)
    wal, replicated = replicated_wal(platform, dfs, group_commit)
    for txn, op in enumerate(ops):
        if op[0] == "txn":
            _, updates, outcome = op
            wal.log_begin(txn, ctx)
            for position, before, after in updates:
                wal.log_update(txn, "item", "i_price", position, before, after, ctx)
            if outcome == "commit":
                wal.log_commit(txn, ctx)
            else:
                wal.log_abort(txn, ctx)
        else:
            _, kind, label = op
            log_marker = wal.log_rebalance if op[0] == "rebalance" else wal.log_reorg
            log_marker(kind, label, ctx)
    wal.flush(ctx)
    return wal, replicated, ctx


class TestDecodedEntries:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=operations,
        group_commit=st.integers(1, 3),
        fault_seed=st.one_of(st.none(), st.integers(0, 99)),
    )
    @example(ops=MIXED_LOG, group_commit=2, fault_seed=7)
    @example(ops=MIXED_LOG, group_commit=1, fault_seed=None)
    def test_read_entries_equals_the_shipped_bytes(self, ops, group_commit, fault_seed):
        """The kept entries are what the verified bytes decode to, what
        the local durable prefix holds, and cost exactly a read-back."""
        wal, replicated, _ = build_log(ops, group_commit, fault_seed)
        _, twin, _ = build_log(ops, group_commit, fault_seed)
        byte_counters, entry_counters = PerfCounters(), PerfCounters()
        decoded = [
            ast.literal_eval(line.decode())
            for payload in twin.read_back(twin.dfs.cluster.nodes[1], byte_counters)
            for line in payload.split(b"\n")
        ]
        entries = replicated.read_entries(
            replicated.dfs.cluster.nodes[1], entry_counters, 0
        )
        local = [record.entry for record in wal.durable_records()]
        assert entries == decoded == local
        assert repr(entries) == repr(decoded) == repr(local)  # -0.0 stays -0.0
        assert entry_counters == byte_counters


class TestCorruption:
    def test_a_corrupt_segment_fails_read_entries(self, platform, ctx, dfs):
        """A replica whose bytes changed after shipping fails read-back
        verification even though the decoded entries are kept in memory."""
        wal, replicated = replicated_wal(platform, dfs)
        commit_txns(wal, ctx, 4)
        block = dfs.file("wal/item/00000001").blocks[0]
        block.payload = block.payload.replace(b"commit", b"abort!")
        with pytest.raises(DistributedError, match="segment 1 corrupt"):
            replicated.read_entries(dfs.cluster.nodes[0], PerfCounters(), 0)
