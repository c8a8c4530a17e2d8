"""Fractured Mirrors (Ramamurthy, DeWitt & Su, 2002).

"The idea is to have two logical copies of a relation with each
possessing its own storage model rather than having two physical copies
of the relation on two disks. ... the pages of both fragments are
distributed on disks such that each disk holds a copy of the relation
but both fragments are equally represented on all disks."

Classification targets (Table 1): built-in multi-layout, inflexible,
static, Host + Disc distributed, fat NSM+DSM-fixed fragments,
replication-based scheme, CPU, HTAP.

The engine keeps one NSM layout and one DSM layout (each a single fat
fragment over the full relation), stripes their pages across two disk
spindles, and routes queries by access shape: record-centric reads to
the NSM mirror, attribute-centric scans to the DSM mirror.  Updates hit
both mirrors (the replication-based coherence cost).
"""

from __future__ import annotations

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
from repro.execution.access import AccessKind
from repro.execution.operators import (
    materialize_rows,
    sum_at_positions,
    sum_column,
)
from repro.hardware.memory import MemoryKind, MemorySpace
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.relation import Relation

__all__ = ["FracturedMirrorsEngine"]

_GiB = 1024 * 1024 * 1024


class FracturedMirrorsEngine(StorageEngine):
    """Two mirrored layouts, one per storage model, striped over disks."""

    name = "Frac. Mirrors"
    year = 2002

    def __init__(self, platform, disk_count: int = 2) -> None:
        super().__init__(platform)
        if disk_count < 2:
            raise EngineError(
                f"{self.name}: fractured mirrors need >= 2 disks for "
                f"mirroring, got {disk_count}"
            )
        self.disks = [
            MemorySpace(f"disk{index}", MemoryKind.DISK, 256 * _GiB)
            for index in range(disk_count)
        ]

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            fragmentation_choice=FragmentationChoice.NONE,
            constrained_order=None,
            fat_formats=frozenset(
                {LinearizationKind.NSM, LinearizationKind.DSM}
            ),
            # Each mirror's format is fixed per layout, not chosen per
            # fragment: NSM-fixed/DSM-fixed, not variable.
            per_fragment_choice=False,
            multi_layout=MultiLayoutSupport.BUILT_IN,
            workload=WorkloadSupport.HTAP,
        )

    # ------------------------------------------------------------------
    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        layouts: list[Layout] = []
        for mirror, (kind, disk) in enumerate(
            ((LinearizationKind.NSM, self.disks[0]), (LinearizationKind.DSM, self.disks[1]))
        ):
            region = Region.full(relation)
            fragment = Fragment(
                region,
                relation.schema,
                kind if region.is_fat else None,
                disk,
                label=f"mirrors:{relation.name}:{kind.value}",
                materialize=columns is not None,
            )
            fill_fragment(fragment, columns)
            layouts.append(
                Layout(f"{relation.name}/{kind.value}-mirror", relation, [fragment])
            )
        return layouts

    # ------------------------------------------------------------------
    # Shape-based mirror routing
    # ------------------------------------------------------------------
    def _mirror(self, name: str, kind: LinearizationKind) -> Layout:
        suffix = f"/{kind.value}-mirror"
        for layout in self.managed(name).layouts:
            if layout.name.endswith(suffix):
                return layout
        raise EngineError(f"{self.name}: {name!r} has no {kind.value} mirror")

    def materialize(self, name, positions, ctx):
        # Record-centric -> the NSM mirror.
        self.record_access(
            name, AccessKind.READ, self.relation(name).schema.names, len(positions)
        )
        return materialize_rows(self._mirror(name, LinearizationKind.NSM), positions, ctx)

    def sum(self, name, attribute, ctx):
        # Attribute-centric -> the DSM mirror.
        self.record_access(
            name, AccessKind.READ, (attribute,), self.relation(name).row_count
        )
        return sum_column(self._mirror(name, LinearizationKind.DSM), attribute, ctx)

    def sum_at(self, name, attribute, positions, ctx):
        self.record_access(name, AccessKind.READ, (attribute,), len(positions))
        return sum_at_positions(
            self._mirror(name, LinearizationKind.NSM), attribute, positions, ctx
        )

    # update: the base already writes through every layout, which is
    # exactly the mirrors' replication cost (two physical writes).
