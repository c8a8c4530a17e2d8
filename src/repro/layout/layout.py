"""Layouts: complete divisions of a relation into fragments.

Section III: "relations can have multiple alternative layouts; a layout
is a complete relation divided into a set of possibly overlapping
fragments."  A :class:`Layout` therefore owns a set of fragments, can
validate that they cover the relation, routes cell accesses to the
owning fragment, and reports the structural facts (weak/strong
flexibility, sub-relation shape) that the taxonomy classifier derives
engine properties from.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.errors import LayoutError
from repro.layout.fragment import Fragment
from repro.model.relation import Relation

__all__ = ["Layout"]


class Layout:
    """A named set of fragments materializing one relation.

    Parameters
    ----------
    name:
        Layout name, unique per engine-relation.
    relation:
        The logical relation this layout materializes.
    fragments:
        The fragments; call :meth:`validate` (or construct with
        ``validate=True``, the default) to check coverage.
    allow_overlap:
        The paper permits "possibly overlapping fragments"; engines that
        want the common disjoint case set this to ``False`` to get
        overlap checking for free.
    """

    def __init__(
        self,
        name: str,
        relation: Relation,
        fragments: Iterable[Fragment] = (),
        allow_overlap: bool = False,
        validate: bool = True,
    ) -> None:
        self.name = name
        self.relation = relation
        self.fragments: list[Fragment] = list(fragments)
        self.allow_overlap = allow_overlap
        if validate and self.fragments:
            self.validate()

    # ------------------------------------------------------------------
    # Structure maintenance
    # ------------------------------------------------------------------
    def add_fragment(self, fragment: Fragment) -> None:
        """Attach a fragment (no coverage re-check until :meth:`validate`)."""
        self.fragments.append(fragment)

    def remove_fragment(self, fragment: Fragment) -> None:
        """Detach a fragment (does not free its memory)."""
        try:
            self.fragments.remove(fragment)
        except ValueError:
            raise LayoutError(f"{self.name}: fragment {fragment.label!r} not in layout") from None

    def replace_fragments(self, fragments: Iterable[Fragment]) -> None:
        """Swap in a new fragment set (used by responsive re-organization)."""
        self.fragments = list(fragments)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check completeness (and disjointness unless overlap is allowed).

        Completeness means every cell ``(row, attribute)`` of the
        relation falls in at least one fragment.  The check runs on
        region arithmetic, not per cell: for each attribute we collect
        the row ranges of the fragments covering it and verify they tile
        ``[0, row_count)``.
        """
        relation_rows = self.relation.rows
        for attribute in self.relation.schema.names:
            ranges = sorted(
                (
                    fragment.region.rows
                    for fragment in self.fragments
                    if attribute in fragment.region.attributes
                ),
                key=lambda rows: rows.start,
            )
            cursor = relation_rows.start
            for rows in ranges:
                if rows.start > cursor:
                    raise LayoutError(
                        f"{self.name}: attribute {attribute!r} uncovered in "
                        f"rows [{cursor}, {rows.start})"
                    )
                cursor = max(cursor, rows.stop)
            if cursor < relation_rows.stop:
                raise LayoutError(
                    f"{self.name}: attribute {attribute!r} uncovered in "
                    f"rows [{cursor}, {relation_rows.stop})"
                )
        if not self.allow_overlap:
            self._check_disjoint()

    def _check_disjoint(self) -> None:
        for index, first in enumerate(self.fragments):
            for second in self.fragments[index + 1 :]:
                if first.region.overlaps(second.region):
                    raise LayoutError(
                        f"{self.name}: fragments {first.label!r} and "
                        f"{second.label!r} overlap at {first.region} / {second.region}"
                    )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def fragment_for(self, row: int, attribute: str) -> Fragment:
        """The fragment owning cell ``(row, attribute)``.

        With overlapping fragments the first match (insertion order)
        wins, which engines exploit to prioritize e.g. a device replica.
        """
        for fragment in self.fragments:
            if fragment.region.contains(row, attribute):
                return fragment
        raise LayoutError(
            f"{self.name}: no fragment covers ({row}, {attribute!r})"
        )

    def fragments_for_attribute(self, attribute: str) -> list[Fragment]:
        """All fragments covering *attribute*, in row order."""
        matches = [
            fragment
            for fragment in self.fragments
            if attribute in fragment.region.attributes
        ]
        matches.sort(key=lambda fragment: fragment.region.rows.start)
        if not matches:
            if attribute in self.relation.schema and self.relation.row_count == 0:
                return []  # an empty relation legitimately has no fragments
            raise LayoutError(f"{self.name}: no fragment covers attribute {attribute!r}")
        return matches

    def owners(self, rows: Iterable[int]) -> list[tuple[Fragment, ...]]:
        """Each row's owning fragment per attribute (schema order).

        The rule of :meth:`fragment_for`, raising as it does for an
        uncovered cell, with each attribute's candidates found once for
        all *rows*.
        """
        names = self.relation.schema.names
        covering = [
            [fragment for fragment in self.fragments if name in fragment.region.attributes]
            for name in names
        ]
        owners: list[tuple[Fragment, ...]] = []
        for row in rows:
            row_owners: list[Fragment] = []
            for name, fragments in zip(names, covering):
                for fragment in fragments:
                    if fragment.region.rows.contains(row):
                        row_owners.append(fragment)
                        break
                else:
                    raise LayoutError(f"{self.name}: no fragment covers ({row}, {name!r})")
            owners.append(tuple(row_owners))
        return owners

    def read_rows(
        self, rows: Sequence[int], owners: Sequence[tuple[Fragment, ...]]
    ) -> list[tuple[Any, ...]]:
        """Materialize *rows* from their :meth:`owners` (schema order)."""
        names = self.relation.schema.names
        return [
            tuple(
                fragment.read_field(row - fragment.region.rows.start, name)
                for fragment, name in zip(row_owners, names)
            )
            for row, row_owners in zip(rows, owners)
        ]

    def read_row(self, row: int) -> tuple[Any, ...]:
        """Materialize a full logical row across fragments (schema order)."""
        return self.read_rows((row,), self.owners((row,)))[0]

    # ------------------------------------------------------------------
    # Structural predicates (feed the taxonomy classifier)
    # ------------------------------------------------------------------
    @property
    def is_sub_relation_layout(self) -> bool:
        """True when the layout is managed by pure vertical fragmentation.

        "A sub-relation is a fragment of a relation R where all layouts
        in R are exclusively managed by vertical fragmentation" — i.e.
        every fragment spans the full row range.
        """
        full = self.relation.rows
        return all(
            fragment.region.rows == full for fragment in self.fragments
        )

    @property
    def is_horizontal_only(self) -> bool:
        """True when every fragment spans the full attribute set."""
        names = set(self.relation.schema.names)
        return all(
            set(fragment.region.attributes) == names for fragment in self.fragments
        )

    @property
    def combines_partitionings(self) -> bool:
        """True when the layout mixes vertical and horizontal cuts.

        This is the structural signature of *strong* flexibility: at
        least one fragment covers a proper subset of the attributes
        *and* at least one fragment covers a proper sub-range of rows.
        """
        full_rows = self.relation.rows
        names = set(self.relation.schema.names)
        has_vertical_cut = any(
            set(fragment.region.attributes) != names for fragment in self.fragments
        )
        has_horizontal_cut = any(
            fragment.region.rows != full_rows for fragment in self.fragments
        )
        return has_vertical_cut and has_horizontal_cut

    @property
    def spaces(self) -> tuple[str, ...]:
        """Names of the distinct memory spaces the fragments live in."""
        seen: dict[str, None] = {}
        for fragment in self.fragments:
            seen.setdefault(fragment.space.name, None)
        return tuple(seen)

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self.fragments)

    def __len__(self) -> int:
        return len(self.fragments)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Layout({self.name}, {len(self.fragments)} fragments)"
