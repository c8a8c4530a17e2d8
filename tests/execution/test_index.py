"""Hash index and Q1 point-query tests."""

import pytest

from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.execution.index import HashIndex, point_query
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT64
from repro.model.relation import Relation, RowRange
from repro.model.schema import Schema


@pytest.fixture
def layout(platform):
    relation = Relation("t", Schema.of(("pk", INT64), ("v", FLOAT64)), 50)
    fragment = Fragment.from_rows(
        Region.full(relation), relation.schema, LinearizationKind.NSM,
        platform.host_memory, [(i * 3, float(i)) for i in range(50)],
    )
    return Layout("t", relation, [fragment])


class TestHashIndex:
    def test_build_and_lookup(self, layout, ctx):
        index = HashIndex.build(layout, "pk", ctx)
        assert len(index) == 50
        assert index.lookup(9) == 3
        assert index.lookup(10) is None
        assert ctx.cycles > 0

    def test_duplicate_key_rejected(self):
        index = HashIndex("pk")
        index.insert(1, 0)
        with pytest.raises(ExecutionError):
            index.insert(1, 5)

    def test_delete_and_move(self):
        index = HashIndex("pk")
        index.insert(1, 0)
        index.move(1, 9)
        assert index.lookup(1) == 9
        index.delete(1)
        assert 1 not in index
        with pytest.raises(ExecutionError):
            index.delete(1)
        with pytest.raises(ExecutionError):
            index.move(1, 2)

    def test_probe_charges_cycles(self, layout, platform):
        index = HashIndex.build(layout, "pk")
        ctx = ExecutionContext(platform)
        index.lookup(9, ctx)
        assert ctx.cycles > 0


def multi_fragment_layout(platform, keys):
    """A PAX-style layout: *keys* cut into fragments of 7 rows, out of order."""
    relation = Relation("m", Schema.of(("pk", INT64), ("v", FLOAT64)), len(keys))
    fragments = []
    for start in range(0, len(keys), 7):
        stop = min(start + 7, len(keys))
        fragment = Fragment.from_rows(
            Region(RowRange(start, stop), ("pk", "v")),
            relation.schema, LinearizationKind.NSM, platform.host_memory,
            [(keys[row], float(row)) for row in range(start, stop)],
        )
        fragments.append(fragment)
    return Layout("m", relation, fragments[::-1])


class TestBulkBuild:
    def test_equals_the_per_row_build_on_many_fragments(self, platform, ctx):
        keys = [(row * 7_919) % 1_000 for row in range(40)]
        layout = multi_fragment_layout(platform, keys)
        bulk = HashIndex.build(layout, "pk", ctx)
        rowwise = HashIndex("pk")
        for fragment in layout.fragments_for_attribute("pk"):
            start = fragment.region.rows.start
            for offset in range(fragment.filled):
                rowwise.insert(fragment.read_field(offset, "pk"), start + offset)
        assert list(bulk._positions.items()) == list(rowwise._positions.items())
        assert ctx.cycles == 40 * 12.0

    def test_duplicate_key_across_fragments_raises(self, platform):
        keys = list(range(20)) + [3]
        layout = multi_fragment_layout(platform, keys)
        with pytest.raises(ExecutionError, match="duplicate key 3 on indexed"):
            HashIndex.build(layout, "pk")


class TestPointQuery:
    def test_q1_semantics(self, layout, ctx):
        """Q1: SELECT * FROM R WHERE pk = c materializes all fields."""
        index = HashIndex.build(layout, "pk")
        assert point_query(layout, index, 9, ctx) == (9, 3.0)

    def test_missing_key_returns_none(self, layout, ctx):
        index = HashIndex.build(layout, "pk")
        assert point_query(layout, index, 10, ctx) is None

    def test_point_query_cheaper_than_scan(self, layout, platform):
        """The paper's premise: the pk index avoids scanning."""
        from repro.execution.operators import filter_scan

        index = HashIndex.build(layout, "pk")
        indexed = ExecutionContext(platform)
        scanned = ExecutionContext(platform)
        point_query(layout, index, 9, indexed)
        filter_scan(layout, "pk", lambda v: v == 9, scanned)
        assert indexed.cycles < scanned.cycles
