"""Peloton's tile-based architecture (Arulraj, Pavlo & Menon, 2016).

"In a tile-based architecture, a relation is represented in terms of
tile groups.  A tile group is a horizontal fragment.  Each fragment in
a tile group is further vertically fragmented into (inner) fragments
called logical tiles. ... logical tiles contain references to values
stored in several physical tiles. ... [layout transparency] enables to
abstract from tuplets in a logical tile. ... Tuplets in physical tiles
can be physically formatted using NSM or DSM."

Classification targets (Table 1): built-in multi-layout, constrained
strong flexible (horizontal-then-vertical), responsive, Host + Host
centralized, fat variable, delegation-based scheme, CPU, HTAP.

Mechanisms: per-tile-group physical tiles (fat fragments, NSM or DSM,
chosen per tile — the flexible storage model); a
:class:`LogicalTileCatalog` of logical tiles referencing the physical
tiles (the layout-transparency indirection, and the delegation policy);
an FSM-style :meth:`reorganize` that re-formats *cold* tile groups
toward the analytical layout while hot (recently written) groups stay
write-optimized; and :meth:`insert` appending into the hot tail group.
The second built-in layout is the logical-tile view itself: an
alternative complete layout of the relation whose tiles delegate to the
physical ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

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
from repro.execution.context import ExecutionContext
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.partitioning import PartitioningOrder
from repro.layout.region import Region
from repro.model.relation import Relation, RowRange

__all__ = ["LogicalTile", "LogicalTileCatalog", "PelotonEngine"]

DEFAULT_TILE_GROUP_ROWS = 4096


@dataclass(frozen=True)
class LogicalTile:
    """A logical tile: attribute columns referencing a physical tile.

    The logical tile stores no tuplets; ``physical_label`` names the
    physical tile whose values it exposes, and ``attributes`` the
    columns it projects out of it.
    """

    tile_group: int
    attributes: tuple[str, ...]
    physical_label: str


class LogicalTileCatalog(DelegationPolicy):
    """All logical tiles of one relation (the LT indirection layer)."""

    def __init__(self) -> None:
        self._tiles: list[LogicalTile] = []
        self._physical: dict[str, Fragment] = {}

    def register(self, tile: LogicalTile, physical: Fragment) -> None:
        """Bind one logical tile to its physical tile."""
        self._tiles.append(tile)
        self._physical[tile.physical_label] = physical

    def rebind_tile(
        self, old_label: str, tile: LogicalTile, physical: Fragment
    ) -> None:
        """Repoint one logical tile at a re-formatted physical tile."""
        if old_label not in self._physical:
            raise EngineError(f"no physical tile {old_label!r} to rebind")
        self._tiles = [t for t in self._tiles if t.physical_label != old_label]
        del self._physical[old_label]
        self.register(tile, physical)

    def tiles(self) -> tuple[LogicalTile, ...]:
        """All registered logical tiles."""
        return tuple(self._tiles)

    def physical_for(self, tile: LogicalTile) -> Fragment:
        """The physical tile behind a logical tile."""
        return self._physical[tile.physical_label]

    def owner_of(self, position: int, attribute: str) -> str:
        for tile in self._tiles:
            physical = self._physical[tile.physical_label]
            if attribute in tile.attributes and physical.region.rows.contains(position):
                return tile.physical_label
        raise EngineError(f"no logical tile covers ({position}, {attribute!r})")

    def describe(self) -> str:
        return f"logical-tile catalog over {len(self._physical)} physical tiles"


class PelotonEngine(StorageEngine):
    """Tile groups of physical tiles behind logical-tile transparency."""

    name = "Peloton"
    year = 2016

    def __init__(
        self,
        platform,
        tile_group_rows: int = DEFAULT_TILE_GROUP_ROWS,
        hot_groups: int = 1,
        tile_specs: Sequence[tuple[tuple[str, ...], LinearizationKind]] | None = None,
    ) -> None:
        super().__init__(platform)
        if tile_group_rows < 1:
            raise EngineError(f"{self.name}: tile_group_rows must be >= 1")
        if hot_groups < 1:
            raise EngineError(f"{self.name}: hot_groups must be >= 1")
        self.tile_group_rows = tile_group_rows
        self.hot_groups = hot_groups
        #: Per-tile-group vertical split: (attribute group, format) per
        #: physical tile.  None means one NSM tile over the whole schema
        #: (the write-optimized default the FSM paper starts from).
        self.tile_specs = list(tile_specs) if tile_specs else None
        self._catalogs: dict[str, LogicalTileCatalog] = {}

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            fragmentation_choice=FragmentationChoice.BOTH,
            constrained_order=PartitioningOrder.HORIZONTAL_THEN_VERTICAL,
            fat_formats=frozenset({LinearizationKind.NSM, LinearizationKind.DSM}),
            per_fragment_choice=True,
            multi_layout=MultiLayoutSupport.BUILT_IN,
            workload=WorkloadSupport.HTAP,
        )

    # ------------------------------------------------------------------
    def _make_tile(
        self,
        relation: Relation,
        group_index: int,
        rows: RowRange,
        attributes: tuple[str, ...],
        kind: LinearizationKind,
        columns: dict[str, np.ndarray] | None,
        fill: bool = True,
    ) -> Fragment:
        region = Region(rows, attributes)
        fragment = Fragment(
            region,
            relation.schema,
            None if region.is_thin else kind,
            self.platform.host_memory,
            label=(
                f"peloton:{relation.name}:g{group_index}:"
                f"{'+'.join(attributes)}:{kind.value}"
            ),
            materialize=columns is not None or not fill,
        )
        if fill:
            fill_fragment(fragment, columns)
        return fragment

    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        catalog = LogicalTileCatalog()
        physical: list[Fragment] = []
        group_ranges = relation.rows.split(self.tile_group_rows) if relation.row_count else []
        specs = self.tile_specs or [(relation.schema.names, LinearizationKind.NSM)]
        covered = sorted(name for group, __ in specs for name in group)
        if covered != sorted(relation.schema.names):
            raise EngineError(
                f"{self.name}: tile specs {specs} do not partition the schema"
            )
        for group_index, rows in enumerate(group_ranges):
            for attributes, kind in specs:
                tile = self._make_tile(
                    relation, group_index, rows, tuple(attributes), kind, columns
                )
                physical.append(tile)
                catalog.register(
                    LogicalTile(group_index, tuple(attributes), tile.label), tile
                )
        self._catalogs[relation.name] = catalog
        physical_layout = Layout(f"{relation.name}/physical-tiles", relation, physical)
        # The logical-tile view is the second built-in layout: it covers
        # the relation through the same physical tiles (delegation, not
        # copies — hence allow_overlap with shared fragments).
        logical_layout = Layout(
            f"{relation.name}/logical-tiles",
            relation,
            list(physical),
            allow_overlap=True,
        )
        return [physical_layout, logical_layout]

    def delegation_policy(self, name: str) -> LogicalTileCatalog:
        return self._catalogs[name]

    def fragment_population(self, name: str) -> list[Fragment]:
        # The logical layout shares the physical fragments; report each
        # physical tile once so classification sees mechanisms, not views.
        seen: dict[int, Fragment] = {}
        for layout in self.managed(name).layouts:
            for fragment in layout.fragments:
                seen.setdefault(id(fragment), fragment)
        return list(seen.values())

    # ------------------------------------------------------------------
    # Appends into the hot tail tile group
    # ------------------------------------------------------------------
    def insert(self, name: str, row: Sequence[Any], ctx: ExecutionContext) -> int:
        managed = self.managed(name)
        relation = managed.relation
        schema = relation.schema
        if len(row) != schema.arity:
            raise EngineError(
                f"{self.name}: row has {len(row)} values, schema needs {schema.arity}"
            )
        physical_layout, logical_layout = managed.layouts
        position = relation.row_count
        open_tiles = [
            fragment
            for fragment in physical_layout.fragments
            if fragment.region.rows.contains(position) and not fragment.is_full
        ]
        if not open_tiles:
            group_index = len(
                {f.region.rows.start for f in physical_layout.fragments}
            )
            rows = RowRange(position, position + self.tile_group_rows)
            specs = self.tile_specs or [(schema.names, LinearizationKind.NSM)]
            for attributes, kind in specs:
                tile = self._make_tile(
                    relation, group_index, rows, tuple(attributes), kind, None,
                    fill=False,
                )
                physical_layout.add_fragment(tile)
                logical_layout.add_fragment(tile)
                self._catalogs[name].register(
                    LogicalTile(group_index, tuple(attributes), tile.label), tile
                )
                open_tiles.append(tile)
        value_of = dict(zip(schema.names, row))
        for tile in open_tiles:
            tile.append_rows(
                [tuple(value_of[attribute] for attribute in tile.schema.names)]
            )
        managed.relation = relation.resized(position + 1)
        physical_layout.relation = managed.relation
        logical_layout.relation = managed.relation
        if managed.primary_index is not None:
            managed.primary_index.insert(row[0], position)
        cost = ctx.platform.memory_model.random(
            count=len(open_tiles), touched=schema.record_width,
            footprint=max(sum(tile.nbytes for tile in open_tiles), 1),
        )
        ctx.counters.cycles += cost
        ctx.counters.bytes_written += schema.record_width
        return position

    # ------------------------------------------------------------------
    # FSM-style adaptation: cold tile groups drift to the OLAP layout
    # ------------------------------------------------------------------
    def reorganize(self, name: str, ctx: ExecutionContext) -> bool:
        """Re-format cold tile groups by the observed workload.

        The last ``hot_groups`` tile groups are considered hot and stay
        NSM; colder groups become DSM tiles when the trace is
        attribute-centric-leaning, NSM otherwise.  Returns True when at
        least one tile group changed format.
        """
        managed = self.managed(name)
        trace = managed.trace
        analytical = (
            trace.attribute_centric_fraction() >= trace.record_centric_fraction()
        )
        target = LinearizationKind.DSM if analytical else LinearizationKind.NSM
        physical_layout, logical_layout = managed.layouts
        catalog = self._catalogs[name]
        group_starts = sorted(
            {fragment.region.rows.start for fragment in physical_layout.fragments}
        )
        hot_starts = set(group_starts[-self.hot_groups :])
        group_of = {start: index for index, start in enumerate(group_starts)}
        changed = False
        for tile in list(physical_layout.fragments):
            start = tile.region.rows.start
            if start in hot_starts:
                continue
            if tile.linearization is target or tile.region.is_thin:
                continue
            group_index = group_of[start]
            phantom = tile.is_phantom
            replacement = Fragment(
                tile.region,
                managed.relation.schema,
                target,
                self.platform.host_memory,
                label=f"{tile.label}->{target.value}",
                materialize=not phantom,
            )
            if phantom:
                replacement.fill_phantom(tile.filled)
            else:
                replacement.append_rows(
                    [tile.read_row(local) for local in range(tile.filled)]
                )
            cost = 2 * ctx.platform.memory_model.sequential(tile.nbytes)
            ctx.counters.cycles += cost
            for layout in (physical_layout, logical_layout):
                layout.remove_fragment(tile)
                layout.add_fragment(replacement)
            catalog.rebind_tile(
                tile.label,
                LogicalTile(
                    group_index, replacement.region.attributes, replacement.label
                ),
                replacement,
            )
            tile.free()
            changed = True
        if changed:
            physical_layout.validate()
        return changed
