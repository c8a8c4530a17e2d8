"""HyPer's storage engine (Funke, Kemper & Neumann, 2012/2015).

"In HyPer, a relation is physically organized by a hierarchy of
partitions, chunks and vectors.  A partition ... is a sub-relation,
i.e., HyPer applies first vertical partitioning to a relation.  A
resulting sub-relation is further split into horizontal (inner)
fragments (called chunks). ... a chunk in a sub-relation is organized
as a set of vectors.  Each vector represents exactly one attribute."

Classification targets (Table 1): single layout, constrained strong
flexible (vertical-then-horizontal), responsive, Host + Host
centralized, thin DSM-emulated, no scheme, CPU, HTAP.

Responsiveness is HyPer's *compaction* (the [38] citation): chunks
whose rows have gone cold are merged into larger frozen chunks,
shrinking per-chunk overheads for the OLAP side while the hot tail
keeps small chunks for the OLTP side.  :meth:`insert` appends into the
hot tail chunk, growing the hierarchy the way the real system does.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.engines.base import (
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    StorageEngine,
    WorkloadSupport,
    fill_fragment,
)
from repro.errors import EngineError
from repro.execution.context import ExecutionContext
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.partitioning import PartitioningOrder
from repro.layout.region import Region
from repro.model.relation import Relation, RowRange

__all__ = ["HyperEngine"]

DEFAULT_CHUNK_ROWS = 1 << 16
#: Compaction folds this many cold chunks into one frozen chunk.
COMPACTION_FACTOR = 4


class HyperEngine(StorageEngine):
    """Partitions -> chunks -> vectors, with compaction and appends."""

    name = "HyPer"
    year = 2015

    def __init__(
        self,
        platform,
        partitions: Sequence[Sequence[str]] | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        compress_frozen: bool = False,
    ) -> None:
        super().__init__(platform)
        if chunk_rows < 1:
            raise EngineError(f"{self.name}: chunk_rows must be >= 1")
        self.partitions = [tuple(group) for group in partitions] if partitions else None
        self.chunk_rows = chunk_rows
        #: Funke et al.'s compaction compresses the frozen (cold) data;
        #: when enabled, every merged cold vector is encoded with the
        #: best lightweight codec (and becomes read-only, so subsequent
        #: updates to frozen rows are rejected until de-compaction —
        #: the real system redirects them to versioned deltas).
        self.compress_frozen = compress_frozen

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            fragmentation_choice=FragmentationChoice.BOTH,
            constrained_order=PartitioningOrder.VERTICAL_THEN_HORIZONTAL,
            fat_formats=frozenset(),  # vectors only: everything is thin
            per_fragment_choice=False,
            multi_layout=MultiLayoutSupport.SINGLE,
            workload=WorkloadSupport.HTAP,
        )

    # ------------------------------------------------------------------
    def _partition_groups(self, relation: Relation) -> list[tuple[str, ...]]:
        if self.partitions is not None:
            covered = [name for group in self.partitions for name in group]
            if sorted(covered) != sorted(relation.schema.names):
                raise EngineError(
                    f"{self.name}: partitions {self.partitions} do not cover "
                    f"schema {relation.schema.names}"
                )
            return self.partitions
        return [relation.schema.names]

    def _make_chunk_vectors(
        self,
        relation: Relation,
        group: tuple[str, ...],
        rows: RowRange,
        columns: dict[str, np.ndarray] | None,
        materialize: bool,
        fill: bool,
    ) -> list[Fragment]:
        """One chunk of one partition: a vector per attribute."""
        vectors = []
        for attribute in group:
            fragment = Fragment(
                Region(rows, (attribute,)),
                relation.schema,
                None,
                self.platform.host_memory,
                label=f"hyper:{relation.name}:{attribute}:[{rows.start},{rows.stop})",
                materialize=materialize,
            )
            if fill:
                fill_fragment(fragment, columns)
            vectors.append(fragment)
        return vectors

    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        fragments: list[Fragment] = []
        for group in self._partition_groups(relation):
            for rows in relation.rows.split(self.chunk_rows) or []:
                fragments.extend(
                    self._make_chunk_vectors(
                        relation,
                        group,
                        rows,
                        columns,
                        materialize=columns is not None,
                        fill=True,
                    )
                )
        return [
            Layout(
                f"{relation.name}/partitions-chunks-vectors", relation, fragments
            )
        ]

    # ------------------------------------------------------------------
    # Appends into the hot tail
    # ------------------------------------------------------------------
    def insert(self, name: str, row: Sequence[Any], ctx: ExecutionContext) -> int:
        """Append one row, opening a new chunk when the tail is full."""
        managed = self.managed(name)
        relation = managed.relation
        schema = relation.schema
        if len(row) != schema.arity:
            raise EngineError(
                f"{self.name}: row has {len(row)} values, schema needs {schema.arity}"
            )
        layout = managed.primary_layout
        position = relation.row_count

        # A fresh chunk is needed when no open (non-full) chunk covers
        # the append position — including after a bulk load that ended
        # mid-chunk, whose tail chunk was sized exactly to the load.
        has_open_chunk = any(
            fragment.region.rows.contains(position) and not fragment.is_full
            for fragment in layout.fragments
        )
        if not has_open_chunk:
            rows = RowRange(position, position + self.chunk_rows)
            for group in self._partition_groups(relation):
                for vector in self._make_chunk_vectors(
                    relation, group, rows, None, materialize=True, fill=False
                ):
                    layout.add_fragment(vector)

        value_of = dict(zip(schema.names, row))
        appended = 0
        for fragment in layout.fragments:
            if fragment.region.rows.contains(position) and not fragment.is_full:
                fragment.append_rows([(value_of[fragment.region.attributes[0]],)])
                appended += 1
        if appended != schema.arity:
            raise EngineError(
                f"{self.name}: append wrote {appended} of {schema.arity} vectors"
            )
        managed.relation = relation.resized(position + 1)
        # Re-point every fragment's layout at the grown relation.
        layout.relation = managed.relation
        if managed.primary_index is not None:
            managed.primary_index.insert(row[0], position)
        write_cost = ctx.platform.memory_model.random(
            count=schema.arity, touched=8, footprint=max(relation.nsm_bytes, 1)
        )
        ctx.counters.cycles += write_cost
        ctx.counters.bytes_written += schema.record_width
        return position

    # ------------------------------------------------------------------
    # Responsive adaptability: compaction of cold chunks
    # ------------------------------------------------------------------
    def reorganize(self, name: str, ctx: ExecutionContext) -> bool:
        """Compact cold chunks into frozen mega-chunks.

        All chunks except the hottest (latest) one are cold; groups of
        ``COMPACTION_FACTOR`` consecutive cold chunks per partition are
        merged into one vector per attribute.  Returns False when there
        is nothing to compact.
        """
        managed = self.managed(name)
        relation = managed.relation
        layout = managed.primary_layout
        compacted = False

        for group in self._partition_groups(relation):
            for attribute in group:
                chunks = layout.fragments_for_attribute(attribute)
                cold = chunks[:-1]
                if len(cold) < 2:
                    continue
                for start in range(0, len(cold) - 1, COMPACTION_FACTOR):
                    batch = cold[start : start + COMPACTION_FACTOR]
                    if len(batch) < 2:
                        continue
                    rows = RowRange(
                        batch[0].region.rows.start, batch[-1].region.rows.stop
                    )
                    phantom = any(fragment.is_phantom for fragment in batch)
                    merged = Fragment(
                        Region(rows, (attribute,)),
                        relation.schema,
                        None,
                        self.platform.host_memory,
                        label=f"hyper:{relation.name}:{attribute}:frozen{rows}",
                        materialize=not phantom,
                    )
                    if phantom:
                        merged.fill_phantom(sum(f.filled for f in batch))
                    else:
                        merged.append_columns(
                            {
                                attribute: np.concatenate(
                                    [fragment.column(attribute) for fragment in batch]
                                )
                            }
                        )
                    moved = sum(fragment.nbytes for fragment in batch)
                    cost = 2 * ctx.platform.memory_model.sequential(moved)
                    ctx.counters.cycles += cost
                    if self.compress_frozen and not phantom and merged.is_full:
                        merged.compress()
                    for fragment in batch:
                        layout.remove_fragment(fragment)
                        fragment.free()
                    layout.add_fragment(merged)
                    compacted = True
        if compacted:
            layout.validate()
        return compacted

    def on_recovered(self, name: str, ctx: ExecutionContext) -> bool:
        """Snapshot-based redo epilogue: compact the replayed tail.

        HyPer recovers from a (checkpoint) snapshot plus its redo log;
        the replayed updates land in hot chunks, which this hook
        compacts into frozen mega-chunks so the recovered engine serves
        scans at the same cost profile as before the crash.  A no-op
        (False) when nothing is cold enough to compact.
        """
        return self.reorganize(name, ctx)
