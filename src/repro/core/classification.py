"""Deriving Table 1's columns from an engine's live mechanisms.

Each of the eight classification columns is computed by its own
function so tests can exercise the derivations independently;
:func:`classify` assembles the full :class:`Classification` row.  The
inputs are (a) the engine's fragment population, layouts and memory
spaces, plus the columns it pinned in device memory through
``platform.staging`` — pure observation — and (b) its
:class:`~repro.engines.base.EngineCapabilities` record for counter-
factual facts, which :func:`check_capability_consistency` cross-checks
against the observations.

A pinned replica is a device copy of its host cells: it puts the
relation in device memory too (a mixed location), it is a second owner
of each cell it copies (replication, unless a delegation policy
decides the scheme), and the pinned columns together are one more
layout (the device-accelerated view CoGaDB and the reference design
route analytics through).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.base import (
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    StorageEngine,
)
from repro.core.taxonomy import (
    FragmentScheme,
    LayoutAdaptability,
    LayoutFlexibility,
    LayoutHandling,
    LocationLocality,
    LocationTarget,
    ProcessorSupport,
)
from repro.errors import ClassificationError
from repro.hardware.memory import MemoryKind
from repro.layout.fragment import Fragment
from repro.layout.properties import (
    LinearizationProperty,
    derive_linearization_property,
)

__all__ = [
    "Classification",
    "classify",
    "derive_layout_handling",
    "derive_flexibility",
    "derive_adaptability",
    "derive_location",
    "derive_scheme",
    "derive_processors",
    "check_capability_consistency",
]


@dataclass(frozen=True)
class Classification:
    """One engine's full Table 1 row."""

    engine: str
    layout_handling: LayoutHandling
    flexibility: LayoutFlexibility
    adaptability: LayoutAdaptability
    location_target: LocationTarget
    location_locality: LocationLocality
    location_label: str
    linearization: LinearizationProperty
    scheme: FragmentScheme
    processors: ProcessorSupport
    workload: str
    year: int

    def row(self) -> tuple[str, ...]:
        """The Table 1 cells as strings (engine name first)."""
        return (
            self.engine,
            self.layout_handling.value,
            self.flexibility.table_label,
            self.adaptability.value,
            self.location_label,
            self.linearization.label,
            self.scheme.value,
            self.processors.value,
            self.workload,
            str(self.year),
        )


# ----------------------------------------------------------------------
# Per-axis derivations
# ----------------------------------------------------------------------
def derive_layout_handling(
    layout_count: int, capabilities: EngineCapabilities
) -> LayoutHandling:
    """Single vs. multi layout, from the live layout count."""
    if layout_count < 1:
        raise ClassificationError("an engine must expose at least one layout")
    if layout_count == 1:
        return LayoutHandling.SINGLE
    if capabilities.multi_layout is MultiLayoutSupport.EMULATED:
        return LayoutHandling.MULTI_EMULATED
    return LayoutHandling.MULTI_BUILT_IN


def derive_flexibility(capabilities: EngineCapabilities) -> LayoutFlexibility:
    """Flexibility from the fragmentation choices the engine offers."""
    choice = capabilities.fragmentation_choice
    if choice is FragmentationChoice.NONE:
        return LayoutFlexibility.INFLEXIBLE
    if choice in (FragmentationChoice.VERTICAL, FragmentationChoice.HORIZONTAL):
        return LayoutFlexibility.WEAK
    if capabilities.constrained_order is not None:
        return LayoutFlexibility.STRONG_CONSTRAINED
    return LayoutFlexibility.STRONG_UNCONSTRAINED


def derive_adaptability(engine: StorageEngine) -> LayoutAdaptability:
    """Responsive iff the engine overrides the re-organization hook."""
    return (
        LayoutAdaptability.RESPONSIVE
        if engine.is_responsive
        else LayoutAdaptability.STATIC
    )


def derive_location(
    engine: StorageEngine, name: str
) -> tuple[LocationTarget, LocationLocality, str]:
    """(target, locality, Table-1 label) from where fragments live.

    Rules (DESIGN.md §3): the *fragments'* spaces decide the target —
    a buffer pool over disk-resident fragments is a cache, not a tuplet
    location; multiple spaces of one kind (cluster memories, mirrored
    spindles) mean distributed locality; host+device is the paper's
    "mixed" with distributed locality by definition.
    """
    population = engine.fragment_population(name)
    if not population:
        raise ClassificationError(f"{engine.name}: no fragments to locate")
    spaces = {id(f.space): f.space for f in population}
    if _pinned(engine, name):
        # Pinned replicas live in the platform's device memory.
        device = engine.platform.device_memory
        spaces[id(device)] = device
    kinds = {space.kind for space in spaces.values()}
    per_kind: dict[MemoryKind, int] = {}
    for space in spaces.values():
        per_kind[space.kind] = per_kind.get(space.kind, 0) + 1

    if kinds == {MemoryKind.HOST}:
        if per_kind[MemoryKind.HOST] > 1:
            return (
                LocationTarget.HOST_MEMORY_ONLY,
                LocationLocality.DISTRIBUTED,
                "Host + distr.",
            )
        return (
            LocationTarget.HOST_MEMORY_ONLY,
            LocationLocality.CENTRALIZED,
            "Host + Host centr.",
        )
    if kinds == {MemoryKind.DEVICE}:
        return (
            LocationTarget.DEVICE_MEMORY_ONLY,
            LocationLocality.CENTRALIZED,
            "Dev. + Dev. centr.",
        )
    if kinds == {MemoryKind.DISK}:
        locality = (
            LocationLocality.DISTRIBUTED
            if per_kind[MemoryKind.DISK] > 1
            else LocationLocality.CENTRALIZED
        )
        return (
            LocationTarget.SECONDARY_MEMORY_ONLY,
            locality,
            f"Host + Disc {locality.value}",
        )
    if MemoryKind.HOST in kinds and MemoryKind.DEVICE in kinds:
        return (LocationTarget.MIXED, LocationLocality.DISTRIBUTED, "Mixed + distr.")
    raise ClassificationError(
        f"{engine.name}: unclassifiable space kinds {sorted(k.value for k in kinds)}"
    )


def derive_scheme(engine: StorageEngine, name: str) -> FragmentScheme:
    """Delegation (a policy object exists) beats replication (copies).

    Replication is detected observationally: some cell of the relation
    is covered by two *distinct* copies — fragment objects across the
    engine's layouts, or a pinned device replica of one (shared
    fragment objects are views, not copies).
    """
    if engine.delegation_policy(name) is not None:
        return FragmentScheme.DELEGATION
    relation = engine.relation(name)
    if relation.row_count == 0:
        return FragmentScheme.NONE
    probe_row = 0
    pins = _pinned(engine, name)
    for attribute in relation.schema.names:
        owners: set[int] = set()
        for layout in engine.layouts(name):
            for fragment in layout.fragments:
                if fragment.region.contains(probe_row, attribute):
                    owners.add(id(fragment))
        copies = sum(
            1
            for fragment, pinned in pins
            if pinned == attribute and fragment.region.contains(probe_row, attribute)
        )
        if len(owners) + copies >= 2:
            return FragmentScheme.REPLICATION
    return FragmentScheme.NONE


def _pinned(engine: StorageEngine, name: str) -> list[tuple[Fragment, str]]:
    """The ``(fragment, attribute)`` columns *engine* pinned in device memory."""
    return engine.platform.staging.cache.pins(engine.fragment_population(name))


def derive_processors(capabilities: EngineCapabilities) -> ProcessorSupport:
    """CPU / GPU / CPU+GPU from the execution capability flags."""
    if capabilities.host_execution and capabilities.device_execution:
        return ProcessorSupport.CPU_GPU
    if capabilities.device_execution:
        return ProcessorSupport.GPU
    return ProcessorSupport.CPU


def derive_linearization(
    engine: StorageEngine, name: str, capabilities: EngineCapabilities
) -> LinearizationProperty:
    """The Figure 3 property over the engine's fragment population."""
    return derive_linearization_property(
        engine.fragment_population(name),
        fat_formats=capabilities.fat_formats,
        per_fragment_choice=capabilities.per_fragment_choice,
        relation_arity=engine.relation(name).schema.arity,
    )


# ----------------------------------------------------------------------
# Consistency between capabilities and observed mechanisms
# ----------------------------------------------------------------------
def check_capability_consistency(engine: StorageEngine, name: str) -> list[str]:
    """Cross-check the capability record against live mechanisms.

    Returns a list of human-readable violations (empty when clean):

    * a non-strong engine must never exhibit a layout combining
      vertical and horizontal cuts;
    * observed fat-fragment formats must be within the declared set;
    * an engine declaring multi-layout support as SINGLE must not
      expose several layouts.
    """
    violations: list[str] = []
    capabilities = engine.capabilities()
    flexibility = derive_flexibility(capabilities)

    if not flexibility.is_strong:
        for layout in engine.layouts(name):
            if layout.combines_partitionings:
                violations.append(
                    f"{engine.name}: layout {layout.name!r} combines vertical "
                    "and horizontal cuts but the engine is not strong flexible"
                )

    declared = capabilities.fat_formats
    for fragment in engine.fragment_population(name):
        if fragment.region.is_fat and fragment.linearization not in declared:
            violations.append(
                f"{engine.name}: fat fragment {fragment.label!r} uses "
                f"{fragment.linearization.value} outside declared {sorted(k.value for k in declared)}"
            )

    if (
        capabilities.multi_layout is MultiLayoutSupport.SINGLE
        and len(engine.layouts(name)) > 1
    ):
        violations.append(
            f"{engine.name}: declares single layout but exposes "
            f"{len(engine.layouts(name))} layouts"
        )
    return violations


def classify(engine: StorageEngine, name: str) -> Classification:
    """Derive the full Table 1 row for one live engine instance."""
    capabilities = engine.capabilities()
    target, locality, label = derive_location(engine, name)
    return Classification(
        engine=engine.name,
        layout_handling=derive_layout_handling(
            len(engine.layouts(name)) + bool(_pinned(engine, name)), capabilities
        ),
        flexibility=derive_flexibility(capabilities),
        adaptability=derive_adaptability(engine),
        location_target=target,
        location_locality=locality,
        location_label=label,
        linearization=derive_linearization(engine, name, capabilities),
        scheme=derive_scheme(engine, name),
        processors=derive_processors(capabilities),
        workload=capabilities.workload.value,
        year=engine.year,
    )
