"""ES2 (Cao et al., 2011): the elastic storage engine of epiC.

"ES2 supports relations to be fragmented via both vertical and
horizontal partitioning. ... First (but optional), if columns are
frequently accessed together, then these columns are moved into one new
physical sub-relation. ... Second, each such sub-relation is
automatically split into further fragments (called partitions) by
horizontal partitioning ... by placing certain partitions intentionally
at a certain node.  Record-centric data access is managed with
distributed secondary indexes. ... The backbone for data storage in ES2
is a slightly modified Hadoop distributed file system ... to which
PAX-formatted tuplets are written."

Classification targets (Table 1): built-in multi-layout, constrained
strong flexible, responsive, Host + distributed, fat DSM-fixed
(PAX-inherited), delegation-based scheme, CPU, HTAP.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.adapt.statistics import AttributeStatistics
from repro.distributed.cluster import Cluster, ClusterNode
from repro.engines.base import (
    DelegationPolicy,
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    StorageEngine,
    WorkloadSupport,
    fill_fragment,
)
from repro.distributed.dfs import BlockStore
from repro.errors import EngineError
from repro.execution.access import AccessKind
from repro.execution.context import ExecutionContext
from repro.execution.index import SecondaryIndex
from repro.execution.operators import materialize_rows, sum_at_positions, sum_column
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.partitioning import PartitioningOrder
from repro.layout.region import Region
from repro.model.relation import Relation

__all__ = ["ES2Delegation", "ES2Engine"]

DEFAULT_PARTITION_ROWS = 1 << 14


class ES2Delegation(DelegationPolicy):
    """Partition-to-node ownership: the cell's data lives on one node."""

    def __init__(self) -> None:
        self._owners: dict[str, str] = {}  # fragment label -> node name
        self._fragments: list[Fragment] = []

    def register(self, fragment: Fragment, node: ClusterNode) -> None:
        """Record that *node* owns *fragment*."""
        self._owners[fragment.label] = node.name
        self._fragments.append(fragment)

    def node_of(self, fragment: Fragment) -> str:
        """The owning node's name."""
        try:
            return self._owners[fragment.label]
        except KeyError:
            raise EngineError(f"no owner registered for {fragment.label!r}") from None

    def owner_of(self, position: int, attribute: str) -> str:
        for fragment in self._fragments:
            if fragment.region.contains(position, attribute):
                return self._owners[fragment.label]
        raise EngineError(f"no partition owns ({position}, {attribute!r})")

    def describe(self) -> str:
        return (
            f"partition-to-node delegation over {len(set(self._owners.values()))} "
            "nodes"
        )


class ES2Engine(StorageEngine):
    """Vertical sub-relations, horizontally partitioned across a cluster."""

    name = "ES2"
    year = 2011

    def __init__(
        self,
        platform,
        cluster: Cluster | None = None,
        partition_rows: int = DEFAULT_PARTITION_ROWS,
        dfs_replication: int = 3,
        affinity_threshold: float = 0.5,
    ) -> None:
        super().__init__(platform)
        self.cluster = cluster or Cluster(node_count=4)
        if partition_rows < 1:
            raise EngineError(f"{self.name}: partition_rows must be >= 1")
        self.partition_rows = partition_rows
        self.dfs = BlockStore(
            self.cluster,
            replication=min(dfs_replication, len(self.cluster)),
            injector=platform.injector,
        )
        self.affinity_threshold = affinity_threshold
        self._groups: dict[str, list[tuple[str, ...]]] = {}
        self._delegation: dict[str, ES2Delegation] = {}
        #: relation -> attribute -> per-node SecondaryIndex shards.
        self._secondary: dict[str, dict[str, dict[str, SecondaryIndex]]] = {}
        self.coordinator = self.cluster.nodes[0]

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            fragmentation_choice=FragmentationChoice.BOTH,
            constrained_order=PartitioningOrder.VERTICAL_THEN_HORIZONTAL,
            fat_formats=frozenset({LinearizationKind.DSM}),  # PAX-inherited
            per_fragment_choice=False,
            multi_layout=MultiLayoutSupport.BUILT_IN,
            workload=WorkloadSupport.HTAP,
        )

    # ------------------------------------------------------------------
    def _build_partitioned_layout(
        self,
        relation: Relation,
        groups: Sequence[tuple[str, ...]],
        columns: dict[str, np.ndarray] | None,
        layout_name: str,
        node_shift: int,
        delegation: ES2Delegation | None,
    ) -> Layout:
        fragments: list[Fragment] = []
        partition_key = 0
        for group in groups:
            sub_relation = Region(relation.rows, group)
            for rows in (
                sub_relation.rows.split(self.partition_rows)
                if relation.row_count
                else []
            ):
                region = Region(rows, group)
                node = self.cluster.node_for(partition_key + node_shift)
                partition_key += 1
                fragment = Fragment(
                    region,
                    relation.schema,
                    None if region.is_thin else LinearizationKind.DSM,
                    node.memory,
                    label=f"es2:{layout_name}:{'+'.join(group)}:{rows}",
                    materialize=columns is not None,
                )
                fill_fragment(fragment, columns)
                fragments.append(fragment)
                if delegation is not None:
                    delegation.register(fragment, node)
                if columns is not None:
                    # PAX-formatted tuplets go to the DFS raw-byte device.
                    self.dfs.write(fragment.label, fragment.serialize())
        return Layout(layout_name, relation, fragments)

    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        groups = self._groups.get(relation.name) or [relation.schema.names]
        delegation = ES2Delegation()
        primary = self._build_partitioned_layout(
            relation, groups, columns, f"{relation.name}/partitions", 0, delegation
        )
        # The load-balancing replica layout lives on shifted nodes.
        replica = self._build_partitioned_layout(
            relation, groups, columns, f"{relation.name}/replica", 1, None
        )
        self._delegation[relation.name] = delegation
        return [primary, replica]

    def _drop_extras(self, managed) -> None:
        name = managed.relation.name
        for layout in managed.layouts:
            for fragment in layout.fragments:
                if not fragment.is_phantom and fragment.label in self.dfs.paths():
                    self.dfs.delete(fragment.label)
        self._delegation.pop(name, None)
        self._groups.pop(name, None)

    def delegation_policy(self, name: str):
        return self._delegation.get(name)

    # ------------------------------------------------------------------
    # Distributed secondary indexes (record-centric access)
    # ------------------------------------------------------------------
    def create_secondary_index(
        self, name: str, attribute: str, ctx: ExecutionContext
    ) -> None:
        """Build per-node index shards over *attribute*.

        "Record-centric data access is managed with distributed
        secondary indexes": every node indexes the partitions it owns,
        so a lookup fans out one probe per node shard.
        """
        managed = self.managed(name)
        delegation = self._delegation[name]
        shards: dict[str, SecondaryIndex] = {}
        primary = managed.primary_layout
        for fragment in primary.fragments_for_attribute(attribute):
            node_name = delegation.node_of(fragment)
            shard = shards.setdefault(node_name, SecondaryIndex(attribute))
            start = fragment.region.rows.start
            values = fragment.column(attribute)
            for offset in range(fragment.filled):
                value = values[offset]
                shard.insert(
                    value.item() if hasattr(value, "item") else value,
                    start + offset,
                )
        ctx.charge(
            f"es2-index-build({attribute})",
            managed.relation.row_count * 12.0,
        )
        self._secondary.setdefault(name, {})[attribute] = shards

    def lookup_secondary(
        self, name: str, attribute: str, key, ctx: ExecutionContext
    ) -> tuple[int, ...]:
        """Fan-out equality lookup across the node shards.

        Costs one probe per shard plus one network round trip per
        *remote* shard carrying its position list back.
        """
        indexes = self._secondary.get(name, {}).get(attribute)
        if indexes is None:
            raise EngineError(
                f"{self.name}: no secondary index on {name!r}.{attribute}"
            )
        positions: list[int] = []
        for node_name, shard in indexes.items():
            hits = shard.lookup(key, ctx)
            positions.extend(hits)
            if node_name != self.coordinator.name:
                cost = self.cluster.network.transfer_cost(
                    max(len(hits), 1) * 8, ctx.counters
                )
                ctx.note("es2-network", cost)
        return tuple(sorted(positions))

    # ------------------------------------------------------------------
    # Distributed query paths (network costs from the coordinator)
    # ------------------------------------------------------------------
    def _network_cost_for_fragments(
        self, name: str, fragments: Sequence[Fragment], per_fragment_bytes: int,
        ctx: ExecutionContext,
    ) -> None:
        delegation = self._delegation[name]
        for fragment in fragments:
            try:
                owner = delegation.node_of(fragment)
            except EngineError:
                continue  # replica-layout fragments are not delegated
            if owner != self.coordinator.name:
                cost = self.cluster.network.transfer_cost(
                    per_fragment_bytes, ctx.counters
                )
                ctx.note("es2-network", cost)

    def sum(self, name, attribute, ctx):
        """Distributed aggregation, surviving injected node crashes.

        Long-running analytic scans are where node loss bites, so the
        shared fault injector's ``cluster.node-crash`` site is checked
        here: a crashed node loses its DFS replicas and the store
        re-replicates before the scan proceeds (the in-memory
        partitions keep serving — ES2's replica layout covers reads
        while the DFS backbone heals).
        """
        managed = self.managed(name)
        self.record_access(name, AccessKind.READ, (attribute,), managed.relation.row_count)
        # Keep the store's injector in sync: the injector may have been
        # installed on the platform after this engine was built.
        self.dfs.injector = self.platform.injector
        before = ctx.counters.cycles
        victim = self.dfs.inject_node_crash(
            ctx.counters, exclude=(self.coordinator.name,)
        )
        if victim is not None:
            ctx.note("es2-re-replication", ctx.counters.cycles - before)
        layout = managed.primary_layout
        result = sum_column(layout, attribute, ctx)
        # Each remote partition ships one partial aggregate back.
        self._network_cost_for_fragments(
            name, layout.fragments_for_attribute(attribute), 16, ctx
        )
        return result

    def materialize(self, name, positions, ctx):
        managed = self.managed(name)
        self.record_access(
            name, AccessKind.READ, managed.relation.schema.names, len(positions)
        )
        layout = managed.primary_layout
        rows = materialize_rows(layout, positions, ctx)
        # Distributed secondary index: each remote record is one
        # request/response round trip carrying the record.
        record = managed.relation.schema.record_width
        delegation = self._delegation[name]
        for position in positions:
            owner = delegation.owner_of(position, managed.relation.schema.names[0])
            if owner != self.coordinator.name:
                cost = self.cluster.network.transfer_cost(record, ctx.counters)
                ctx.note("es2-network", cost)
        return rows

    def sum_at(self, name, attribute, positions, ctx):
        managed = self.managed(name)
        self.record_access(name, AccessKind.READ, (attribute,), len(positions))
        layout = managed.primary_layout
        result = sum_at_positions(layout, attribute, positions, ctx)
        delegation = self._delegation[name]
        for position in positions:
            owner = delegation.owner_of(position, attribute)
            if owner != self.coordinator.name:
                cost = self.cluster.network.transfer_cost(16, ctx.counters)
                ctx.note("es2-network", cost)
        return result

    # ------------------------------------------------------------------
    # Elasticity: scale the cluster, re-spread the partitions
    # ------------------------------------------------------------------
    def scale_out(self, name: str, added_nodes: int, ctx: ExecutionContext) -> int:
        """Provision nodes and re-spread *name*'s partitions over them.

        epiC is "an elastic power-aware cloud platform"; the storage
        engine's share of elasticity is re-balancing partition ownership
        when nodes join.  Every partition that moves charges one network
        transfer of its payload; the DFS pages are re-written for the
        new layout generation.  Returns the number of migrated
        partitions.
        """
        if added_nodes < 1:
            raise EngineError(f"{self.name}: added_nodes must be >= 1")
        managed = self.managed(name)
        for __ in range(added_nodes):
            self.cluster.add_node()

        old_delegation = self._delegation[name]
        phantom = any(f.is_phantom for f in managed.primary_layout.fragments)
        if phantom:
            columns = None
        else:
            columns = {
                attr: np.concatenate(
                    [
                        fragment.column(attr)
                        for fragment in managed.primary_layout.fragments_for_attribute(attr)
                    ]
                )
                for attr in managed.relation.schema.names
            }
        old_owner_of = {
            fragment.label: old_delegation.node_of(fragment)
            for fragment in managed.primary_layout.fragments
        }
        for layout in managed.layouts:
            for fragment in layout.fragments:
                if not phantom and fragment.label in self.dfs.paths():
                    self.dfs.delete(fragment.label)
                fragment.free()

        groups = self._groups.get(name) or [managed.relation.schema.names]
        generation = f"{name}/partitions@{len(self.cluster)}nodes"
        delegation = ES2Delegation()
        primary = self._build_partitioned_layout(
            managed.relation, groups, columns, generation, 0, delegation
        )
        replica = self._build_partitioned_layout(
            managed.relation, groups, columns,
            f"{name}/replica@{len(self.cluster)}nodes", 1, None,
        )
        self._delegation[name] = delegation
        managed.layouts = [primary, replica]
        self._secondary.pop(name, None)  # shards must be rebuilt

        migrated = 0
        old_owners = list(old_owner_of.values())
        for index, fragment in enumerate(primary.fragments):
            previous = old_owners[index] if index < len(old_owners) else None
            if previous != delegation.node_of(fragment):
                migrated += 1
                cost = self.cluster.network.transfer_cost(
                    fragment.nbytes, ctx.counters
                )
                ctx.note("es2-migration", cost)
        return migrated

    # ------------------------------------------------------------------
    # Responsive re-adaption from workload traces
    # ------------------------------------------------------------------
    def reorganize(self, name: str, ctx: ExecutionContext) -> bool:
        """Re-group columns by co-access affinity, then re-partition.

        This is ES2's two-step built-in strategy, re-run over the
        recorded trace; returns False when the grouping is unchanged.
        """
        managed = self.managed(name)
        stats = AttributeStatistics.from_events(
            managed.relation.schema, managed.trace.window()
        )
        groups = stats.affinity_groups(self.affinity_threshold)
        current = self._groups.get(name) or [managed.relation.schema.names]
        if [tuple(group) for group in groups] == [tuple(group) for group in current]:
            return False

        phantom = any(f.is_phantom for f in managed.primary_layout.fragments)
        if phantom:
            columns = None
        else:
            columns = {
                attr: np.concatenate(
                    [
                        fragment.column(attr)
                        for fragment in managed.primary_layout.fragments_for_attribute(attr)
                    ]
                )
                for attr in managed.relation.schema.names
            }
        for layout in managed.layouts:
            for fragment in layout.fragments:
                if not phantom:
                    self.dfs.delete(fragment.label)
                fragment.free()
        self._groups[name] = [tuple(group) for group in groups]
        delegation = ES2Delegation()
        primary = self._build_partitioned_layout(
            managed.relation, groups, columns, f"{name}/partitions#2", 0, delegation
        )
        replica = self._build_partitioned_layout(
            managed.relation, groups, columns, f"{name}/replica#2", 1, None
        )
        self._delegation[name] = delegation
        managed.layouts = [primary, replica]
        payload = managed.relation.nsm_bytes
        cost = 2 * ctx.platform.memory_model.sequential(payload)
        ctx.charge(f"es2-readapt({name})", cost)
        return True

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def make_replicated_wal(self, name: str, group_commit: int = 4):
        """A write-ahead log whose segments replicate into this DFS.

        ES²'s durability row in Table 1 is cloud-shaped: the log is not
        a local spindle but a replicated stream, so losing the writer
        node still leaves a recoverable committed prefix.  Returns a
        ``(WriteAheadLog, ReplicatedLog)`` pair wired together: every
        group-commit flush ships the flushed segment into the engine's
        :class:`~repro.distributed.dfs.BlockStore` at the store's
        usual replication factor and network price.
        """
        from repro.recovery.replicated import ReplicatedLog
        from repro.recovery.wal import WriteAheadLog

        replicated = ReplicatedLog(self.dfs, name=name)
        wal = WriteAheadLog(
            self.platform, group_commit=group_commit, replicator=replicated.on_flush
        )
        return wal, replicated
