"""Layout tests: coverage validation, routing, structural predicates."""

import pytest

from repro.errors import LayoutError
from repro.hardware.memory import MemoryKind, MemorySpace
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.datatypes import INT32
from repro.model.relation import Relation, RowRange
from repro.model.schema import Schema


@pytest.fixture
def space():
    return MemorySpace("host", MemoryKind.HOST, 1 << 20)


@pytest.fixture
def relation():
    return Relation("r", Schema.of(("a", INT32), ("b", INT32), ("c", INT32)), 6)


def make_fragment(relation, space, rows, attributes, kind=None):
    region = Region(rows, attributes)
    if kind is None and region.is_fat:
        kind = LinearizationKind.NSM
    return Fragment(region, relation.schema, kind if region.is_fat else None, space)


class TestValidation:
    def test_complete_vertical_layout(self, relation, space):
        fragments = [
            make_fragment(relation, space, relation.rows, ("a", "b")),
            make_fragment(relation, space, relation.rows, ("c",)),
        ]
        Layout("ok", relation, fragments)  # must not raise

    def test_uncovered_attribute_rejected(self, relation, space):
        fragments = [make_fragment(relation, space, relation.rows, ("a", "b"))]
        with pytest.raises(LayoutError):
            Layout("bad", relation, fragments)

    def test_row_gap_rejected(self, relation, space):
        fragments = [
            make_fragment(relation, space, RowRange(0, 2), ("a", "b", "c")),
            make_fragment(relation, space, RowRange(3, 6), ("a", "b", "c")),
        ]
        with pytest.raises(LayoutError):
            Layout("gap", relation, fragments)

    def test_overlap_rejected_by_default(self, relation, space):
        fragments = [
            make_fragment(relation, space, relation.rows, ("a", "b", "c")),
            make_fragment(relation, space, relation.rows, ("a",)),
        ]
        with pytest.raises(LayoutError):
            Layout("dup", relation, fragments)

    def test_overlap_allowed_when_opted_in(self, relation, space):
        fragments = [
            make_fragment(relation, space, relation.rows, ("a", "b", "c")),
            make_fragment(relation, space, relation.rows, ("a",)),
        ]
        layout = Layout("dup", relation, fragments, allow_overlap=True)
        assert len(layout) == 2

    def test_fragments_beyond_relation_allowed(self, relation, space):
        """Version-space fragments (L-Store tails) sit past the rows."""
        fragments = [
            make_fragment(relation, space, relation.rows, ("a", "b", "c")),
            make_fragment(relation, space, RowRange(6, 10), ("a",)),
        ]
        Layout("tails", relation, fragments)  # must not raise


class TestRouting:
    def test_fragment_for_routes_by_cell(self, relation, space):
        left = make_fragment(relation, space, RowRange(0, 3), ("a", "b", "c"))
        right = make_fragment(relation, space, RowRange(3, 6), ("a", "b", "c"))
        layout = Layout("h", relation, [left, right])
        assert layout.fragment_for(2, "a") is left
        assert layout.fragment_for(3, "a") is right

    def test_fragment_for_unknown_cell(self, relation, space):
        layout = Layout(
            "v", relation, [make_fragment(relation, space, relation.rows, ("a", "b", "c"))]
        )
        with pytest.raises(LayoutError):
            layout.fragment_for(99, "a")

    def test_insertion_order_priority_on_overlap(self, relation, space):
        preferred = make_fragment(relation, space, relation.rows, ("a",))
        fallback = make_fragment(relation, space, relation.rows, ("a", "b", "c"))
        layout = Layout("o", relation, [preferred, fallback], allow_overlap=True)
        assert layout.fragment_for(0, "a") is preferred
        assert layout.fragment_for(0, "b") is fallback

    def test_fragments_for_attribute_sorted(self, relation, space):
        late = make_fragment(relation, space, RowRange(3, 6), ("a", "b", "c"))
        early = make_fragment(relation, space, RowRange(0, 3), ("a", "b", "c"))
        layout = Layout("s", relation, [late, early])
        assert layout.fragments_for_attribute("a") == [early, late]

    def test_read_row_across_fragments(self, relation, space):
        ab = make_fragment(relation, space, relation.rows, ("a", "b"))
        c = make_fragment(relation, space, relation.rows, ("c",))
        ab.append_rows([(i, i * 10) for i in range(6)])
        c.append_rows([(i * 100,) for i in range(6)])
        layout = Layout("v", relation, [ab, c])
        assert layout.read_row(4) == (4, 40, 400)

    def test_owners_follow_fragment_for(self, relation, space):
        preferred = make_fragment(relation, space, RowRange(2, 5), ("b",))
        left = make_fragment(relation, space, RowRange(0, 3), ("a", "b", "c"))
        right = make_fragment(relation, space, RowRange(3, 6), ("a", "b", "c"))
        layout = Layout("o", relation, [preferred, left, right], allow_overlap=True)
        rows = [5, 0, 2, 3]
        assert layout.owners(rows) == [
            tuple(layout.fragment_for(row, name) for name in relation.schema.names)
            for row in rows
        ]

    def test_owners_reject_an_uncovered_row(self, relation, space):
        layout = Layout(
            "v", relation, [make_fragment(relation, space, relation.rows, ("a", "b", "c"))]
        )
        with pytest.raises(LayoutError, match=r"\(99, 'a'\)"):
            layout.owners([0, 99])


class TestPredicates:
    def test_sub_relation_layout(self, relation, space):
        fragments = [
            make_fragment(relation, space, relation.rows, ("a", "b")),
            make_fragment(relation, space, relation.rows, ("c",)),
        ]
        layout = Layout("v", relation, fragments)
        assert layout.is_sub_relation_layout
        assert not layout.is_horizontal_only
        assert not layout.combines_partitionings

    def test_horizontal_only(self, relation, space):
        fragments = [
            make_fragment(relation, space, RowRange(0, 3), ("a", "b", "c")),
            make_fragment(relation, space, RowRange(3, 6), ("a", "b", "c")),
        ]
        layout = Layout("h", relation, fragments)
        assert layout.is_horizontal_only
        assert not layout.is_sub_relation_layout

    def test_combined_partitioning(self, relation, space):
        fragments = [
            make_fragment(relation, space, RowRange(0, 3), ("a", "b")),
            make_fragment(relation, space, RowRange(3, 6), ("a", "b")),
            make_fragment(relation, space, relation.rows, ("c",)),
        ]
        layout = Layout("g", relation, fragments)
        assert layout.combines_partitionings

    def test_spaces_lists_distinct(self, relation, space):
        other = MemorySpace("dev", MemoryKind.DEVICE, 1 << 20)
        fragments = [
            make_fragment(relation, space, relation.rows, ("a", "b")),
            make_fragment(relation, other, relation.rows, ("c",)),
        ]
        layout = Layout("m", relation, fragments)
        assert layout.spaces == ("host", "dev")


class TestMutation:
    def test_remove_unknown_fragment(self, relation, space):
        fragment = make_fragment(relation, space, relation.rows, ("a", "b", "c"))
        layout = Layout("x", relation, [fragment])
        other = make_fragment(relation, space, relation.rows, ("a", "b", "c"))
        with pytest.raises(LayoutError):
            layout.remove_fragment(other)

    def test_replace_fragments(self, relation, space):
        original = make_fragment(relation, space, relation.rows, ("a", "b", "c"))
        layout = Layout("x", relation, [original])
        replacement = [
            make_fragment(relation, space, relation.rows, ("a", "b")),
            make_fragment(relation, space, relation.rows, ("c",)),
        ]
        layout.replace_fragments(replacement)
        layout.validate()
        assert len(layout) == 2
