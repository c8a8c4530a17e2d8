"""HYRISE (Grund et al., 2010): vertical containers, variable formats.

"A relation in HYRISE is laid out by n sub-relations which are called
containers. ... each sub-relation can be formatted using NSM or DSM.
... HYRISE supports an automatic re-adapting of per-sub-partition
widths" — i.e. weak flexibility (vertical only), variable linearization
on fat fragments, responsive adaptability, single layout, host-only.

Classification targets (Table 1): single layout, weak flexible,
responsive, Host + Host centralized, fat variable, no scheme, CPU, HTAP.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.adapt.statistics import AttributeStatistics
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
from repro.layout.linearization import LinearizationKind
from repro.layout.partitioning import vertical_partition
from repro.model.relation import Relation

__all__ = ["HyriseEngine"]

#: A container spec: attribute group + its format (DIRECT = thin column).
ContainerSpec = tuple[tuple[str, ...], LinearizationKind]


class HyriseEngine(StorageEngine):
    """Vertical containers with per-container NSM/DSM choice."""

    name = "HYRISE"
    year = 2010

    def __init__(
        self,
        platform,
        initial_containers: Sequence[ContainerSpec] | None = None,
        affinity_threshold: float = 0.5,
    ) -> None:
        super().__init__(platform)
        self.initial_containers = (
            list(initial_containers) if initial_containers else None
        )
        self.affinity_threshold = affinity_threshold

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            fragmentation_choice=FragmentationChoice.VERTICAL,
            constrained_order=None,
            fat_formats=frozenset({LinearizationKind.NSM, LinearizationKind.DSM}),
            per_fragment_choice=True,
            multi_layout=MultiLayoutSupport.SINGLE,
            workload=WorkloadSupport.HTAP,
        )

    # ------------------------------------------------------------------
    def _container_specs(self, relation: Relation) -> list[ContainerSpec]:
        if self.initial_containers is not None:
            covered = [name for group, __ in self.initial_containers for name in group]
            if sorted(covered) != sorted(relation.schema.names):
                raise EngineError(
                    f"{self.name}: containers {covered} do not partition "
                    f"schema {relation.schema.names}"
                )
            return self.initial_containers
        # Default: one NSM container over the whole schema (the OLTP-
        # friendly starting point; adaptation refines it).
        return [(relation.schema.names, LinearizationKind.NSM)]

    def _build_containers(
        self,
        relation: Relation,
        specs: Sequence[ContainerSpec],
        columns: dict[str, np.ndarray] | None,
    ) -> list[Fragment]:
        regions = vertical_partition(relation, [group for group, __ in specs])
        fragments = []
        for region, (group, kind) in zip(regions, specs):
            linearization = None if region.is_thin else kind
            fragment = Fragment(
                region,
                relation.schema,
                linearization,
                self.platform.host_memory,
                label=f"hyrise:{relation.name}:{'+'.join(group)}",
                materialize=columns is not None,
            )
            fill_fragment(fragment, columns)
            fragments.append(fragment)
        return fragments

    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        fragments = self._build_containers(
            relation, self._container_specs(relation), columns
        )
        return [Layout(f"{relation.name}/containers", relation, fragments)]

    # ------------------------------------------------------------------
    # Responsive adaptation
    # ------------------------------------------------------------------
    def propose_containers(self, name: str) -> list[ContainerSpec]:
        """Container proposal from the recorded workload trace.

        Affinity clusters become containers; a multi-attribute container
        is formatted NSM when the cluster's accesses are predominantly
        record-centric, DSM otherwise; singleton containers are thin.
        """
        managed = self.managed(name)
        stats = AttributeStatistics.from_events(
            managed.relation.schema, managed.trace.window()
        )
        record_heavy = (
            managed.trace.record_centric_fraction()
            >= managed.trace.attribute_centric_fraction()
        )
        specs: list[ContainerSpec] = []
        for group in stats.affinity_groups(self.affinity_threshold):
            if len(group) == 1:
                specs.append((group, LinearizationKind.DIRECT))
            else:
                specs.append(
                    (
                        group,
                        LinearizationKind.NSM if record_heavy else LinearizationKind.DSM,
                    )
                )
        return specs

    def reorganize(self, name: str, ctx: ExecutionContext) -> bool:
        """Re-cut containers per the current affinity statistics.

        Returns False (and does nothing) when the proposal matches the
        current containers.
        """
        managed = self.managed(name)
        specs = self.propose_containers(name)
        layout = managed.primary_layout
        current = [
            (fragment.region.attributes, fragment.linearization)
            for fragment in layout.fragments
        ]
        if current == specs:
            return False
        phantom = any(fragment.is_phantom for fragment in layout.fragments)
        if phantom:
            columns = None
        else:
            columns = {
                name_: np.concatenate(
                    [
                        fragment.column(name_)
                        for fragment in layout.fragments_for_attribute(name_)
                    ]
                )
                for name_ in managed.relation.schema.names
            }
        fragments = self._build_containers(managed.relation, specs, columns)
        payload = managed.relation.nsm_bytes
        cost = 2 * ctx.platform.memory_model.sequential(payload)
        ctx.counters.cycles += cost
        old = list(layout.fragments)
        layout.replace_fragments(fragments)
        layout.validate()
        for fragment in old:
            fragment.free()
        return True
