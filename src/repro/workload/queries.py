"""The paper's query families, as parameterized specifications.

Q1 (record-centric): ``SELECT * FROM R WHERE pk = c`` — a point lookup
materializing all fields of one record.  Q2 (attribute-centric):
``SELECT sum(a) FROM R`` — a full-column aggregation.  Figure 2 also
uses the intermediate record-centric forms over position lists (150
customers / 150 items).  A :class:`QuerySpec` names the shape and its
parameters; executors in :mod:`repro.execution` carry them out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
import numpy as np

from repro.errors import WorkloadError
from repro.execution.access import AccessDescriptor, AccessKind
from repro.model.relation import Relation

__all__ = ["QueryShape", "QuerySpec", "random_positions"]


class QueryShape(enum.Enum):
    """The access shapes Figure 2 measures (plus the OLTP write)."""

    POINT_MATERIALIZE = "point-materialize"  # Q1 tail / panel 1
    POSITION_SUM = "position-sum"  # panel 2: sum field at positions
    FULL_SUM = "full-sum"  # Q2 / panels 3-4
    POINT_UPDATE = "point-update"  # OLTP write


@dataclass(frozen=True)
class QuerySpec:
    """One query instance: shape + target attribute(s) + positions.

    Attributes
    ----------
    shape:
        Which access shape to run.
    relation_name:
        The relation the query targets.
    attributes:
        Touched attributes (all of them for materialization).
    positions:
        Row positions (for point/position shapes); empty for full scans.
    index:
        The query's position in the stream that issued it.  The sharded
        write path derives the values an update stores from it, so a
        re-issued query writes the same values and two queries write
        different ones.
    """

    shape: QueryShape
    relation_name: str
    attributes: tuple[str, ...]
    positions: tuple[int, ...] = ()
    index: int = 0

    def __post_init__(self) -> None:
        if not self.attributes:
            raise WorkloadError("a query must touch at least one attribute")
        if self.shape in (QueryShape.POINT_MATERIALIZE, QueryShape.POSITION_SUM,
                          QueryShape.POINT_UPDATE) and not self.positions:
            raise WorkloadError(f"{self.shape.value} queries need positions")
        if self.shape is QueryShape.FULL_SUM and self.positions:
            raise WorkloadError("full-sum queries take no positions")

    def describe(self, relation: Relation) -> AccessDescriptor:
        """The query's access descriptor against *relation*."""
        kind = (
            AccessKind.WRITE
            if self.shape is QueryShape.POINT_UPDATE
            else AccessKind.READ
        )
        row_count = (
            relation.row_count
            if self.shape is QueryShape.FULL_SUM
            else len(self.positions)
        )
        return AccessDescriptor(
            kind=kind,
            attributes=self.attributes,
            row_count=row_count,
            relation_rows=relation.row_count,
            relation_arity=relation.schema.arity,
        )


def random_positions(
    row_count: int, sample: int, seed: int = 42, sort: bool = True
) -> tuple[int, ...]:
    """*sample* distinct random positions in ``[0, row_count)``.

    Sorted by default, matching the paper's "sorted position lists"
    emitted by the preceding join operator.
    """
    if sample < 0 or row_count < 0:
        raise WorkloadError("sample and row_count must be >= 0")
    if sample > row_count:
        raise WorkloadError(
            f"cannot sample {sample} distinct positions from {row_count} rows"
        )
    rng = np.random.default_rng(seed)
    positions = rng.choice(row_count, size=sample, replace=False)
    if sort:
        positions.sort()
    return tuple(int(position) for position in positions)
