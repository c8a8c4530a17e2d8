"""Storage engine base: the common API and the classification surface.

Every surveyed system is implemented as a :class:`StorageEngine`
subclass.  The base fixes:

* a **uniform DDL/DML/query API** (create / load / materialize / sum /
  update / point query), with default implementations that run the
  generic operators over the engine's *primary layout* — subclasses
  override exactly where their architecture differs, which keeps each
  mini-engine's code focused on what makes it distinctive;
* the **classification surface**: live layouts and fragments, a
  :class:`DelegationPolicy` hook, and an :class:`EngineCapabilities`
  record for the counterfactual facts fragments alone cannot show
  (which formats *could* be applied, which partitionings *could* be
  chosen).  ``repro.core.classification`` derives all eight Table 1
  columns from this surface; tests assert the capability record is
  consistent with the observed mechanisms.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import EngineError
from repro.execution.context import ExecutionContext
from repro.execution.index import HashIndex, SecondaryIndex
from repro.execution.operators import (
    materialize_rows,
    sum_at_positions,
    sum_column,
    update_field,
)
from repro.hardware.platform import Platform
from repro.layout.layout import Layout
from repro.layout.fragment import Fragment
from repro.layout.linearization import LinearizationKind
from repro.layout.partitioning import PartitioningOrder
from repro.execution.access import AccessDescriptor, AccessKind
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.workload.trace import WorkloadTrace

__all__ = [
    "FragmentationChoice",
    "MultiLayoutSupport",
    "WorkloadSupport",
    "EngineCapabilities",
    "DelegationPolicy",
    "ManagedRelation",
    "StorageEngine",
    "fill_fragment",
]


class FragmentationChoice(enum.Enum):
    """Which partitioning decisions the engine lets a workload drive.

    This is the paper's flexibility notion: PAX *has* many horizontal
    fragments, but their boundaries are dictated by the page size — the
    engine offers no choice, hence "inflexible".
    """

    NONE = "none"
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"
    BOTH = "both"


class MultiLayoutSupport(enum.Enum):
    """How many alternative layouts a relation may have."""

    SINGLE = "single"
    BUILT_IN = "built-in multi"
    EMULATED = "emulated multi"


class WorkloadSupport(enum.Enum):
    """The workload class the engine was designed for (Table 1 column)."""

    OLTP = "OLTP"
    OLAP = "OLAP"
    HTAP = "HTAP"


@dataclass(frozen=True)
class EngineCapabilities:
    """The counterfactual half of the classification surface.

    Attributes
    ----------
    fragmentation_choice:
        Which partitioning technique(s) the workload may choose.
    constrained_order:
        For strong-flexible engines: the pre-defined cut order (None
        means unconstrained).
    fat_formats:
        Linearizations the engine can apply to fat fragments.
    per_fragment_choice:
        Whether the format may differ per fat fragment within one
        layout (HYRISE, Peloton) rather than being fixed per layout
        (Fractured Mirrors).
    multi_layout:
        Single / built-in multi / emulated multi layout handling.
    workload:
        Declared target workload class.
    host_execution / device_execution:
        Which processors run the engine's operators.
    """

    fragmentation_choice: FragmentationChoice
    constrained_order: PartitioningOrder | None
    fat_formats: frozenset[LinearizationKind]
    per_fragment_choice: bool
    multi_layout: MultiLayoutSupport
    workload: WorkloadSupport
    host_execution: bool = True
    device_execution: bool = False

    def __post_init__(self) -> None:
        if self.constrained_order is not None and (
            self.fragmentation_choice is not FragmentationChoice.BOTH
        ):
            raise EngineError(
                "a constrained partitioning order only makes sense for "
                "strong-flexible (BOTH) engines"
            )
        if not self.host_execution and not self.device_execution:
            raise EngineError("an engine must execute somewhere")
        bad = self.fat_formats - {LinearizationKind.NSM, LinearizationKind.DSM}
        if bad:
            raise EngineError(f"fat fragments cannot use {bad}")


class DelegationPolicy(abc.ABC):
    """The mechanism behind a delegation-based fragment scheme.

    "A delegation-based approach restricts the access of certain
    regions from certain layouts, since some tuplets are exclusively
    stored in certain layouts."  Concrete policies (L-Store's page
    directory, Peloton's logical tiles, ES2's partition-to-node map)
    answer: who currently owns this piece of data?
    """

    @abc.abstractmethod
    def owner_of(self, position: int, attribute: str) -> str:
        """A label identifying the owning structure of one cell."""

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line human description of the policy."""


@dataclass
class ManagedRelation:
    """Engine-internal record of one relation and its layouts."""

    relation: Relation
    layouts: list[Layout]
    primary_index: HashIndex | None = None
    secondary_indexes: dict[str, SecondaryIndex] = None  # type: ignore[assignment]
    trace: WorkloadTrace = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.secondary_indexes is None:
            self.secondary_indexes = {}
        if self.trace is None:
            self.trace = WorkloadTrace()

    @property
    def primary_layout(self) -> Layout:
        """The first (default-routing) layout."""
        if not self.layouts:
            raise EngineError(f"{self.relation.name}: relation has no layout")
        return self.layouts[0]


def fill_fragment(
    fragment: Fragment, columns: dict[str, np.ndarray] | None
) -> None:
    """Load one fragment from the bulk-load column dict (or phantom-fill).

    Slices out the fragment's row range and attribute subset; with
    ``columns is None`` the fragment is phantom-filled to capacity.
    """
    if columns is None:
        fragment.fill_phantom(fragment.capacity)
        return
    rows = fragment.region.rows
    fragment.append_columns(
        {
            name: columns[name][rows.start : rows.stop]
            for name in fragment.schema.names
        }
    )


class StorageEngine(abc.ABC):
    """Abstract storage engine over a simulated platform.

    Subclasses must implement :meth:`capabilities` and :meth:`_build`
    (which turns loaded columns or a phantom row count into layouts).
    The default query methods operate on the primary layout; engines
    whose reads must route differently (mirrors, lineage, logical
    tiles) override them.
    """

    #: Engine name as it appears in Table 1.
    name: str = "abstract"
    #: Publication year (Table 1's Date column).
    year: int = 0

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._relations: dict[str, ManagedRelation] = {}

    # ------------------------------------------------------------------
    # Capabilities & classification surface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def capabilities(self) -> EngineCapabilities:
        """The engine's capability record (counterfactual facts)."""

    def managed(self, name: str) -> ManagedRelation:
        """Internal relation record (raises on unknown names)."""
        try:
            return self._relations[name]
        except KeyError:
            raise EngineError(f"{self.name}: unknown relation {name!r}") from None

    def relation(self, name: str) -> Relation:
        """The logical relation."""
        return self.managed(name).relation

    def layouts(self, name: str) -> list[Layout]:
        """All live layouts of a relation."""
        return list(self.managed(name).layouts)

    def fragment_population(self, name: str) -> list[Fragment]:
        """Every fragment across every layout (the classifier's input)."""
        return [
            fragment
            for layout in self.managed(name).layouts
            for fragment in layout.fragments
        ]

    def delegation_policy(self, name: str) -> DelegationPolicy | None:
        """The delegation mechanism, if the engine has one."""
        return None

    @property
    def is_responsive(self) -> bool:
        """Whether the engine wires layout re-organization to workloads.

        Derived from the mechanism itself: an engine is responsive iff
        it overrides :meth:`reorganize` (the base implementation is the
        static engine's refusal).
        """
        return type(self).reorganize is not StorageEngine.reorganize

    # ------------------------------------------------------------------
    # DDL / loading
    # ------------------------------------------------------------------
    def create(self, name: str, schema: Schema) -> None:
        """Register an empty relation."""
        if name in self._relations:
            raise EngineError(f"{self.name}: relation {name!r} already exists")
        self._relations[name] = ManagedRelation(
            relation=Relation(name, schema, 0), layouts=[]
        )

    def load(self, name: str, columns: dict[str, np.ndarray]) -> None:
        """Bulk-load per-column arrays, building the engine's layouts."""
        managed = self.managed(name)
        if managed.layouts:
            raise EngineError(f"{self.name}: relation {name!r} is already loaded")
        counts = {len(values) for values in columns.values()}
        if len(counts) != 1:
            raise EngineError(f"{self.name}: ragged load for {name!r}")
        row_count = counts.pop()
        managed.relation = managed.relation.resized(row_count)
        managed.layouts = self._build(managed.relation, columns)
        self._after_load(managed)

    def load_phantom(self, name: str, row_count: int) -> None:
        """Cost-only load: exact geometry, no payload (benchmark sweeps)."""
        managed = self.managed(name)
        if managed.layouts:
            raise EngineError(f"{self.name}: relation {name!r} is already loaded")
        managed.relation = managed.relation.resized(row_count)
        managed.layouts = self._build(managed.relation, None)
        self._after_load(managed)

    @abc.abstractmethod
    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        """Construct the engine's layouts for *relation*.

        ``columns is None`` requests a phantom build (geometry only).
        """

    def _after_load(self, managed: ManagedRelation) -> None:
        """Post-load hook (primary index construction, placement, ...)."""
        if managed.relation.row_count and not any(
            fragment.is_phantom
            for fragment in managed.primary_layout.fragments
        ):
            key = managed.relation.schema.names[0]
            managed.primary_index = HashIndex.build(managed.primary_layout, key)

    def drop(self, name: str) -> None:
        """Remove a relation, freeing every fragment's simulated memory.

        Engines with auxiliary structures (tails, DFS files, device
        replicas) free them by overriding :meth:`_drop_extras`.
        """
        managed = self.managed(name)
        self._drop_extras(managed)
        freed: set[int] = set()
        for layout in managed.layouts:
            for fragment in layout.fragments:
                if id(fragment) not in freed:
                    fragment.free()
                    freed.add(id(fragment))
        del self._relations[name]

    def _drop_extras(self, managed: ManagedRelation) -> None:
        """Hook: release engine-specific structures before fragments."""

    # ------------------------------------------------------------------
    # Queries (defaults over the primary layout)
    # ------------------------------------------------------------------
    def record_access(
        self,
        name: str,
        kind: AccessKind,
        attributes: Sequence[str],
        row_count: int,
    ) -> None:
        """Log one access into the relation's workload trace.

        Every default query method calls this, so responsive engines'
        :meth:`reorganize` hooks always have fresh statistics.
        """
        managed = self.managed(name)
        managed.trace.record(
            AccessDescriptor(
                kind=kind,
                attributes=tuple(attributes),
                row_count=row_count,
                relation_rows=managed.relation.row_count,
                relation_arity=managed.relation.schema.arity,
            )
        )

    def materialize(
        self, name: str, positions: Sequence[int], ctx: ExecutionContext
    ) -> list[tuple[Any, ...]]:
        """Record-centric: materialize full rows at *positions*."""
        managed = self.managed(name)
        self.record_access(
            name, AccessKind.READ, managed.relation.schema.names, len(positions)
        )
        return materialize_rows(managed.primary_layout, positions, ctx)

    def sum(self, name: str, attribute: str, ctx: ExecutionContext) -> float:
        """Attribute-centric: sum one attribute over all rows (Q2)."""
        managed = self.managed(name)
        self.record_access(
            name, AccessKind.READ, (attribute,), managed.relation.row_count
        )
        return sum_column(managed.primary_layout, attribute, ctx)

    def sum_at(
        self,
        name: str,
        attribute: str,
        positions: Sequence[int],
        ctx: ExecutionContext,
    ) -> float:
        """Record-centric: sum one attribute over a position list."""
        self.record_access(name, AccessKind.READ, (attribute,), len(positions))
        return sum_at_positions(
            self.managed(name).primary_layout, attribute, positions, ctx
        )

    def _check_update_allowed(self, name: str, attribute: str) -> None:
        """Primary keys are immutable: the hash index is keyed on them.

        Engines overriding :meth:`update` call this guard too, so the
        invariant holds across every write path.
        """
        managed = self.managed(name)
        if (
            managed.primary_index is not None
            and attribute == managed.relation.schema.names[0]
        ):
            raise EngineError(
                f"{self.name}: primary-key attribute {attribute!r} is "
                "immutable (delete and re-insert instead)"
            )

    def update(
        self,
        name: str,
        position: int,
        attribute: str,
        value: Any,
        ctx: ExecutionContext,
    ) -> None:
        """Point update of one field (kept coherent across all layouts)."""
        self._check_update_allowed(name, attribute)
        self._maintain_secondary_indexes(name, position, attribute, value)
        self.record_access(name, AccessKind.WRITE, (attribute,), 1)
        for layout in self.managed(name).layouts:
            try:
                update_field(layout, position, attribute, value, ctx)
            except EngineError:  # pragma: no cover - defensive
                raise

    def point_query(
        self, name: str, key: Any, ctx: ExecutionContext
    ) -> tuple[Any, ...] | None:
        """Q1: look up by primary key (first attribute) and materialize.

        Routes the materialization through :meth:`materialize` so
        engines with their own read resolution (L-Store's dictionary,
        GPUTx's result pool, the mirrors' NSM routing) serve consistent
        values on this path too.
        """
        managed = self.managed(name)
        if managed.primary_index is None:
            raise EngineError(
                f"{self.name}: {name!r} has no primary index "
                "(phantom or empty relations cannot serve point queries)"
            )
        position = managed.primary_index.lookup(key, ctx)
        if position is None:
            return None
        return self.materialize(name, [position], ctx)[0]

    # ------------------------------------------------------------------
    # Non-key selection (with optional secondary-index acceleration)
    # ------------------------------------------------------------------
    def create_index(self, name: str, attribute: str, ctx: ExecutionContext) -> None:
        """Build a secondary equality index over *attribute*.

        Subsequent :meth:`select_equals` calls on the attribute probe
        the index instead of scanning.  The index is maintained for
        updates routed through :meth:`update`.
        """
        managed = self.managed(name)
        layout = managed.primary_layout
        if any(fragment.is_phantom for fragment in layout.fragments):
            raise EngineError(
                f"{self.name}: cannot index phantom relation {name!r}"
            )
        managed.secondary_indexes[attribute] = SecondaryIndex.build(
            layout, attribute, ctx
        )

    def select_equals(
        self, name: str, attribute: str, value: Any, ctx: ExecutionContext
    ) -> list[tuple[Any, ...]]:
        """Q1 on a non-key attribute: all rows whose *attribute* == value.

        Uses a secondary index when one exists; otherwise falls back to
        a full filter scan (the cost difference is the point of the
        index — asserted in tests).
        """
        managed = self.managed(name)
        index = managed.secondary_indexes.get(attribute)
        if index is not None:
            positions = list(index.lookup(value, ctx))
        else:
            from repro.execution.operators import filter_scan

            self.record_access(
                name, AccessKind.READ, (attribute,), managed.relation.row_count
            )
            comparable = value.encode() if isinstance(value, str) else value
            positions = filter_scan(
                managed.primary_layout,
                attribute,
                lambda column_values: column_values == comparable,
                ctx,
            )
        if not positions:
            return []
        return self.materialize(name, positions, ctx)

    def _maintain_secondary_indexes(
        self, name: str, position: int, attribute: str, value: Any
    ) -> None:
        """Repoint a secondary index entry after an update."""
        managed = self.managed(name)
        index = managed.secondary_indexes.get(attribute)
        if index is None:
            return
        layout = managed.primary_layout
        fragment = layout.fragment_for(position, attribute)
        if fragment.is_phantom:
            return
        local = position - fragment.region.rows.start
        old_value = fragment.read_field(local, attribute)
        if old_value == value:
            return
        index.remove(old_value, position)
        index.insert(value, position)

    # ------------------------------------------------------------------
    # Writes beyond update
    # ------------------------------------------------------------------
    def insert(self, name: str, row: Sequence[Any], ctx: ExecutionContext) -> int:
        """Append one row, returning its position.

        The base refuses: engines where the append path is
        architecture-defining (HyPer chunks, L-Store tails, Peloton tile
        groups, GPUTx bulk transactions) implement it; the others are
        bulk-load-only in this reproduction (DESIGN.md §6).
        """
        raise EngineError(
            f"{self.name}: single-row insert is not part of this engine's "
            "reproduction; use load()"
        )

    # ------------------------------------------------------------------
    # Adaptability
    # ------------------------------------------------------------------
    def reorganize(self, name: str, ctx: ExecutionContext) -> bool:
        """Re-organize *name*'s layout in response to the workload.

        The base implementation is the static engine's behaviour:
        a refusal.  Responsive engines override this; returning True
        means a re-organization actually happened.
        """
        raise EngineError(
            f"{self.name}: static layout adaptability — the engine cannot "
            "re-organize layouts at runtime"
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def on_recovered(self, name: str, ctx: ExecutionContext) -> bool:
        """Epilogue hook after crash recovery replayed *name*'s log.

        Called by :class:`~repro.recovery.RecoveryManager` once the
        checkpoint image is loaded and redo/undo have run through the
        ordinary write path.  Engines whose durability story involves
        post-replay housekeeping override this — L-Store merges the
        replayed tail records through its lineage, HyPer compacts the
        redo-touched hot tail — and return True when they did work.
        The default is a no-op: for most engines the replayed state
        *is* the recovered state.
        """
        return False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"
