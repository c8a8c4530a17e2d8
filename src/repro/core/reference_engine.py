"""The paper's reference storage-engine design, implemented.

Section IV-C closes the gap analysis with a design sketch; this module
realizes it as a working engine that satisfies all six requirements at
once (the survey shows no existing engine does):

1. **Constrained strong flexible layouts** — a horizontal delta/main
   cut first, then vertical decomposition of the main region into
   columns (delta tiles stay NSM for writes).
2. **Responsive** — :meth:`reorganize` merges the delta into the main
   columns and re-derives device placements from workload statistics.
3. **Mixed location, distributed locality** — hot main columns are
   replicated to device memory as pinned staging replicas
   (all-or-nothing per column), the rest stay on the host.
4. **Linearization covering NSM and DSM** — fat NSM delta tiles plus
   DSM(-emulated) main columns, with both formats available per
   fragment.
5. **Built-in multi layout** — the unified host layout, plus the
   device copies of the placed main columns.
6. **Delegation** — a region policy assigns every row exclusively to
   the delta or the main (no redundancy between them); only the
   device placement is replicated, and each write is recorded on the
   pinned replica and patched into it on its next device read.

Beyond the six requirements, the engine integrates the
:mod:`repro.mvcc` snapshot mechanism for challenge (b.iii): updates
pass through a copy-on-write hook, and :meth:`ReferenceEngine.analytic_snapshot`
hands analytics a consistent view that the OLTP stream cannot disturb.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.adapt.statistics import AttributeStatistics
from repro.engines.base import (
    DelegationPolicy,
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    StorageEngine,
    WorkloadSupport,
    fill_fragment,
)
from repro.errors import EngineError
from repro.execution.access import AccessKind
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.execution.operators import sum_column
from repro.faults.policy import FallbackChain, FallbackStep
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.partitioning import PartitioningOrder
from repro.layout.region import Region
from repro.model.relation import Relation, RowRange
from repro.mvcc.snapshot import Snapshot, SnapshotManager

__all__ = ["RegionDelegation", "ReferenceEngine"]

DEFAULT_DELTA_TILE_ROWS = 1024


class RegionDelegation(DelegationPolicy):
    """Row-range delegation: every row is owned by delta or main."""

    def __init__(self, main_rows: int) -> None:
        self.main_rows = main_rows

    def owner_of(self, position: int, attribute: str) -> str:
        return "main" if position < self.main_rows else "delta"

    def describe(self) -> str:
        return f"delta/main split at row {self.main_rows}"


class ReferenceEngine(StorageEngine):
    """The ideal HTAP CPU/GPU storage engine of Section IV-C."""

    name = "Reference"
    year = 2017

    def __init__(
        self,
        platform,
        delta_tile_rows: int = DEFAULT_DELTA_TILE_ROWS,
        auto_place: bool = True,
        constrained: bool = True,
    ) -> None:
        super().__init__(platform)
        if delta_tile_rows < 1:
            raise EngineError(f"{self.name}: delta_tile_rows must be >= 1")
        self.delta_tile_rows = delta_tile_rows
        self.auto_place = auto_place
        #: The paper asks for "at least constrained" strong flexibility;
        #: the unconstrained variant drops the fixed cut order (clients
        #: may then define arbitrary fragment grids via the layout API).
        self.constrained = constrained
        self._delegations: dict[str, RegionDelegation] = {}
        self._snapshot_managers: dict[str, SnapshotManager] = {}

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            fragmentation_choice=FragmentationChoice.BOTH,
            constrained_order=(
                PartitioningOrder.HORIZONTAL_THEN_VERTICAL
                if self.constrained
                else None
            ),
            fat_formats=frozenset({LinearizationKind.NSM, LinearizationKind.DSM}),
            per_fragment_choice=True,
            multi_layout=MultiLayoutSupport.BUILT_IN,
            workload=WorkloadSupport.HTAP,
            host_execution=True,
            device_execution=True,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _main_column(
        self,
        relation: Relation,
        attribute: str,
        rows: RowRange,
        columns: dict[str, np.ndarray] | None,
    ) -> Fragment:
        fragment = Fragment(
            Region(rows, (attribute,)),
            relation.schema,
            None,
            self.platform.host_memory,
            label=f"ref:{relation.name}:main:{attribute}",
            materialize=columns is not None,
        )
        fill_fragment(fragment, columns)
        return fragment

    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        main_columns = [
            self._main_column(relation, attribute, relation.rows, columns)
            for attribute in relation.schema.names
        ]
        self._delegations[relation.name] = RegionDelegation(relation.row_count)
        unified = Layout(f"{relation.name}/unified", relation, main_columns)
        self._snapshot_managers[relation.name] = SnapshotManager(unified)
        return [unified]

    def _after_load(self, managed) -> None:
        super()._after_load(managed)
        if self.auto_place:
            # Loading charges nothing, and neither does its placement.
            self._place_hottest(
                managed.relation.name, ExecutionContext(self.platform)
            )

    def delegation_policy(self, name: str) -> RegionDelegation:
        return self._delegations[name]

    def _drop_extras(self, managed) -> None:
        name = managed.relation.name
        self._delegations.pop(name, None)
        self._snapshot_managers.pop(name, None)

    # ------------------------------------------------------------------
    # Snapshot isolation (challenge b.iii)
    # ------------------------------------------------------------------
    def analytic_snapshot(self, name: str, ctx: ExecutionContext) -> Snapshot:
        """Fork a consistent read view for a long-running analytic query.

        The snapshot survives any number of concurrent updates (they
        pay copy-on-write faults for the pages they touch); release it
        when the query finishes to stop the faulting.
        """
        return self._snapshot_managers[name].fork(ctx)

    def update(self, name, position, attribute, value, ctx):
        self._snapshot_managers[name].before_update(position, attribute, ctx)
        super().update(name, position, attribute, value, ctx)

    # ------------------------------------------------------------------
    # Device placement (requirement 3)
    # ------------------------------------------------------------------
    def _numeric_attributes(self, relation: Relation) -> list[str]:
        return [
            attribute.name
            for attribute in relation.schema
            if attribute.dtype.numpy_dtype().kind in ("i", "f")
        ]

    def _is_main(self, name: str, fragment: Fragment) -> bool:
        """Whether *fragment* is a main column (it ends at the cut).

        Main columns cover ``[0, main_rows)``, empty when nothing has
        been merged yet; every delta tile ends past the cut.
        """
        return fragment.region.rows.stop <= self._delegations[name].main_rows

    def _main_columns(self, name: str) -> dict[str, Fragment]:
        """The main column of each attribute, by attribute."""
        return {
            fragment.region.attributes[0]: fragment
            for fragment in self.managed(name).primary_layout.fragments
            if self._is_main(name, fragment)
        }

    def placed_columns(self, name: str) -> list[str]:
        """Attributes whose main column is pinned in device memory."""
        staging = self.platform.staging
        return [
            attribute
            for attribute, fragment in self._main_columns(name).items()
            if staging.cache.is_pinned(fragment, attribute)
        ]

    def _place_hottest(
        self, name: str, ctx: ExecutionContext, limit: int | None = None
    ) -> list[str]:
        """Pin the hottest numeric main columns in device memory.

        Ranking comes from the workload trace when it has events, and
        falls back to schema order otherwise.  All-or-nothing per
        column; returns the attributes newly placed (none while the
        main columns are empty).
        """
        if not self._delegations[name].main_rows:
            return []
        managed = self.managed(name)
        relation = managed.relation
        stats = AttributeStatistics.from_events(
            relation.schema, managed.trace.window()
        )
        candidates = self._numeric_attributes(relation)
        if managed.trace.window():
            ranked = [
                attribute
                for attribute in stats.hottest(relation.schema.arity)
                if attribute in candidates
            ]
        else:
            ranked = candidates
        placed: list[str] = []
        already = set(self.placed_columns(name))
        main = self._main_columns(name)
        for attribute in ranked:
            if limit is not None and len(placed) >= limit:
                break
            if attribute not in already and self.platform.staging.pin(
                main[attribute], attribute, ctx
            ):
                placed.append(attribute)
        return placed

    # ------------------------------------------------------------------
    # Writes: OLTP goes to the NSM delta
    # ------------------------------------------------------------------
    def insert(self, name: str, row: Sequence[Any], ctx: ExecutionContext) -> int:
        managed = self.managed(name)
        relation = managed.relation
        schema = relation.schema
        if len(row) != schema.arity:
            raise EngineError(
                f"{self.name}: row has {len(row)} values, schema needs {schema.arity}"
            )
        unified = managed.primary_layout
        position = relation.row_count
        tile = None
        for fragment in unified.fragments:
            if (
                fragment.region.rows.contains(position)
                and fragment.region.arity == schema.arity
                and not fragment.is_full
            ):
                tile = fragment
                break
        if tile is None:
            rows = RowRange(position, position + self.delta_tile_rows)
            region = Region(rows, schema.names)
            tile = Fragment(
                region,
                schema,
                None if region.is_thin else LinearizationKind.NSM,
                self.platform.host_memory,
                label=f"ref:{name}:delta:[{rows.start},{rows.stop})",
            )
            unified.add_fragment(tile)
        tile.append_rows([tuple(row)])
        managed.relation = relation.resized(position + 1)
        unified.relation = managed.relation
        if managed.primary_index is not None:
            managed.primary_index.insert(row[0], position)
        self.record_access(name, AccessKind.WRITE, schema.names, 1)
        cost = ctx.platform.memory_model.random(
            count=1, touched=schema.record_width, footprint=max(tile.nbytes, 1)
        )
        ctx.counters.cycles += cost
        ctx.counters.bytes_written += schema.record_width
        return position

    # ------------------------------------------------------------------
    # Reads: OLAP prefers the device, delegation routes the rest
    # ------------------------------------------------------------------
    def sum(self, name: str, attribute: str, ctx: ExecutionContext) -> float:
        """Main part on the GPU when placed, delta patched on the CPU."""
        managed = self.managed(name)
        self.record_access(
            name, AccessKind.READ, (attribute,), managed.relation.row_count
        )
        unified = managed.primary_layout
        main = self._main_columns(name).get(attribute)
        if main is None or not self.platform.staging.cache.is_pinned(main, attribute):
            return sum_column(unified, attribute, ctx)

        def device_path() -> float:
            view = Layout(
                f"{name}/device-view",
                managed.relation,
                [main],
                allow_overlap=True, validate=False,
            )
            total = device_sum_column(view, attribute, ctx)
            # Patch in the delta rows beyond the main column's range.
            delta_view_fragments = [
                fragment
                for fragment in unified.fragments
                if fragment.region.rows.start >= main.region.rows.stop
                and attribute in fragment.region.attributes
            ]
            if delta_view_fragments:
                delta_view = Layout(
                    f"{name}/delta-view",
                    managed.relation,
                    delta_view_fragments,
                    allow_overlap=True, validate=False,
                )
                total += sum_column(delta_view, attribute, ctx)
            return total

        injector = self.platform.injector
        chain = FallbackChain(
            [
                FallbackStep("device", device_path),
                FallbackStep("host", lambda: sum_column(unified, attribute, ctx)),
            ],
            report=injector.report if injector is not None else None,
        )
        with ctx.span(
            f"ref-sum({attribute})", "operator", placed=True
        ) as span:
            total, served_by = chain.run(ctx)
            if span is not None:
                span.attrs["served_by"] = served_by
        return total

    # ------------------------------------------------------------------
    # Responsive adaptation: delta merge + re-placement (requirement 2)
    # ------------------------------------------------------------------
    def reorganize(self, name: str, ctx: ExecutionContext) -> bool:
        """Merge the delta into the main columns, then re-place.

        Returns False when the delta is empty and placements are
        already optimal for the observed workload.
        """
        managed = self.managed(name)
        relation = managed.relation
        unified = managed.primary_layout
        delegation = self._delegations[name]
        manager = self._snapshot_managers[name]
        if manager.live_snapshots:
            raise EngineError(
                f"{self.name}: cannot re-organize {name!r} while "
                f"{len(manager.live_snapshots)} analytic snapshot(s) are live"
            )
        delta_tiles = [
            fragment
            for fragment in unified.fragments
            if not self._is_main(name, fragment)
        ]
        changed = False
        if delta_tiles:
            schema = relation.schema
            old_columns = [
                fragment
                for fragment in unified.fragments
                if fragment not in delta_tiles
            ]
            merged: dict[str, np.ndarray] = {}
            for attribute in schema.names:
                parts = [
                    fragment.column(attribute)
                    for fragment in old_columns
                    if attribute in fragment.region.attributes
                ]
                for tile in sorted(
                    delta_tiles, key=lambda f: f.region.rows.start
                ):
                    parts.append(np.asarray(tile.column(attribute)))
                merged[attribute] = np.concatenate(parts) if parts else np.empty(0)
            new_columns = [
                self._main_column(relation, attribute, relation.rows, merged)
                for attribute in schema.names
            ]
            cost = 2 * ctx.platform.memory_model.sequential(relation.nsm_bytes)
            ctx.counters.cycles += cost
            # The merge replaces every main column: the old fragments'
            # replicas go with them, pins included.
            ctx.platform.staging.release(unified.fragments)
            for fragment in unified.fragments:
                fragment.free()
            unified.replace_fragments(new_columns)
            unified.validate()
            delegation.main_rows = relation.row_count
            changed = True
        if self._place_hottest(name, ctx):
            changed = True
        return changed
