"""Fragment tests: data plane, address plane, phantoms, copies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError, LayoutError, StorageError
from repro.hardware.memory import MemoryKind, MemorySpace
from repro.layout.fragment import Fragment
from repro.layout.linearization import (
    LinearizationKind,
    dsm_serialize,
    nsm_serialize,
)
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT32, char
from repro.model.relation import RowRange
from repro.model.schema import Schema


@pytest.fixture
def space():
    return MemorySpace("host", MemoryKind.HOST, 1 << 20)


@pytest.fixture
def schema():
    return Schema.of(("id", INT32), ("tag", char(4)), ("price", FLOAT64))


@pytest.fixture
def rows():
    return [(1, "aa", 1.5), (2, "bb", 2.5), (3, "cc", 3.5)]


def fat_region(schema, count=3):
    return Region(RowRange(0, count), schema.names)


class TestConstruction:
    def test_fat_requires_format(self, schema, space):
        with pytest.raises(LayoutError):
            Fragment(fat_region(schema), schema, None, space)

    def test_thin_rejects_format(self, schema, space):
        with pytest.raises(LayoutError):
            Fragment(Region(RowRange(0, 3), ("id",)), schema, LinearizationKind.NSM, space)

    def test_thin_auto_direct(self, schema, space):
        fragment = Fragment(Region(RowRange(0, 3), ("id",)), schema, None, space)
        assert fragment.linearization is LinearizationKind.DIRECT

    def test_allocation_size(self, schema, space):
        fragment = Fragment(fat_region(schema), schema, LinearizationKind.NSM, space)
        assert fragment.nbytes == 3 * schema.record_width
        assert space.used == fragment.nbytes

    def test_capacity_error_propagates(self, schema):
        tiny = MemorySpace("tiny", MemoryKind.DEVICE, 8)
        with pytest.raises(CapacityError):
            Fragment(fat_region(schema), schema, LinearizationKind.NSM, tiny)


class TestDataPlane:
    @pytest.mark.parametrize("kind", [LinearizationKind.NSM, LinearizationKind.DSM])
    def test_roundtrip(self, schema, space, rows, kind):
        fragment = Fragment.from_rows(fat_region(schema), schema, kind, space, rows)
        assert [fragment.read_row(i) for i in range(3)] == rows

    def test_read_field(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.DSM, space, rows
        )
        assert fragment.read_field(1, "price") == 2.5
        assert fragment.read_field(2, "tag") == "cc"

    def test_update_field(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.NSM, space, rows
        )
        fragment.update_field(0, "price", 9.0)
        assert fragment.read_field(0, "price") == 9.0

    def test_column_values(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.DSM, space, rows
        )
        assert list(fragment.column("price")) == [1.5, 2.5, 3.5]

    def test_column_on_nsm_is_view(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.NSM, space, rows
        )
        assert list(fragment.column("id")) == [1, 2, 3]

    def test_overfill_rejected(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.NSM, space, rows
        )
        with pytest.raises(StorageError):
            fragment.append_rows([(4, "dd", 4.5)])

    def test_read_beyond_fill_rejected(self, schema, space):
        fragment = Fragment(fat_region(schema), schema, LinearizationKind.NSM, space)
        fragment.append_rows([(1, "aa", 1.0)])
        with pytest.raises(StorageError):
            fragment.read_row(1)

    def test_append_columns_bulk(self, schema, space):
        fragment = Fragment(fat_region(schema), schema, LinearizationKind.DSM, space)
        fragment.append_columns(
            {
                "id": np.array([1, 2, 3], dtype="<i4"),
                "tag": np.array([b"aa", b"bb", b"cc"], dtype="S4"),
                "price": np.array([1.5, 2.5, 3.5]),
            }
        )
        assert fragment.read_row(2) == (3, "cc", 3.5)

    def test_append_columns_ragged_rejected(self, schema, space):
        fragment = Fragment(fat_region(schema), schema, LinearizationKind.DSM, space)
        with pytest.raises(StorageError):
            fragment.append_columns(
                {
                    "id": np.array([1, 2], dtype="<i4"),
                    "tag": np.array([b"aa"], dtype="S4"),
                    "price": np.array([1.5, 2.5]),
                }
            )

    def test_wrong_arity_row_rejected(self, schema, space):
        fragment = Fragment(fat_region(schema), schema, LinearizationKind.NSM, space)
        with pytest.raises(StorageError):
            fragment.append_rows([(1, "aa")])


class TestPhysicalFormat:
    def test_nsm_serialize_pinned(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.NSM, space, rows
        )
        assert fragment.serialize() == nsm_serialize(schema, rows)

    def test_dsm_serialize_pinned(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.DSM, space, rows
        )
        assert fragment.serialize() == dsm_serialize(schema, rows)

    def test_nsm_and_dsm_differ(self, schema, space, rows):
        nsm = Fragment.from_rows(fat_region(schema), schema, LinearizationKind.NSM, space, rows)
        dsm = Fragment.from_rows(fat_region(schema), schema, LinearizationKind.DSM, space, rows)
        assert nsm.serialize() != dsm.serialize()


class TestAddressPlane:
    def test_nsm_field_addresses_strided(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.NSM, space, rows
        )
        first, width = fragment.field_address(0, "price")
        second, _ = fragment.field_address(1, "price")
        assert width == 8
        assert second - first == schema.record_width

    def test_dsm_field_addresses_contiguous(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.DSM, space, rows
        )
        first, width = fragment.field_address(0, "price")
        second, _ = fragment.field_address(1, "price")
        assert second - first == width == 8

    def test_record_address_nsm(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.NSM, space, rows
        )
        address, size = fragment.record_address(1)
        assert size == schema.record_width
        assert address == fragment.allocation.base + schema.record_width

    def test_record_address_rejected_on_dsm(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.DSM, space, rows
        )
        with pytest.raises(LayoutError):
            fragment.record_address(0)

    def test_column_range_nsm_spans_records(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.NSM, space, rows
        )
        __, span = fragment.column_address_range("price")
        assert span == 2 * schema.record_width + 8

    def test_column_range_dsm_exact(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.DSM, space, rows
        )
        __, span = fragment.column_address_range("price")
        assert span == 3 * 8

    def test_empty_column_range(self, schema, space):
        fragment = Fragment(fat_region(schema), schema, LinearizationKind.DSM, space)
        __, span = fragment.column_address_range("price")
        assert span == 0


class TestPhantom:
    def test_phantom_has_geometry_no_data(self, schema, space):
        fragment = Fragment(
            fat_region(schema), schema, LinearizationKind.NSM, space, materialize=False
        )
        assert fragment.is_phantom
        fragment.fill_phantom(3)
        assert fragment.filled == 3
        with pytest.raises(StorageError):
            fragment.read_row(0)
        with pytest.raises(StorageError):
            fragment.column("price")
        # Address plane still works.
        address, size = fragment.field_address(2, "price")
        assert size == 8

    def test_phantom_overfill_rejected(self, schema, space):
        fragment = Fragment(
            fat_region(schema), schema, LinearizationKind.NSM, space, materialize=False
        )
        with pytest.raises(StorageError):
            fragment.fill_phantom(4)

    def test_fill_phantom_on_materialized_rejected(self, schema, space):
        fragment = Fragment(fat_region(schema), schema, LinearizationKind.NSM, space)
        with pytest.raises(StorageError):
            fragment.fill_phantom(1)


class TestCopy:
    def test_free_returns_memory(self, schema, space, rows):
        fragment = Fragment.from_rows(
            fat_region(schema), schema, LinearizationKind.NSM, space, rows
        )
        used = space.used
        fragment.free()
        assert space.used == used - fragment.nbytes


@given(
    st.lists(
        st.tuples(st.integers(-1000, 1000), st.floats(0, 100, allow_nan=False)),
        min_size=2,
        max_size=30,
    ),
    st.sampled_from([LinearizationKind.NSM, LinearizationKind.DSM]),
)
@settings(max_examples=40)
def test_fragment_roundtrip_property(pairs, kind):
    schema = Schema.of(("x", INT32), ("y", FLOAT64))
    space = MemorySpace("h", MemoryKind.HOST, 1 << 22)
    region = Region(RowRange(0, len(pairs)), ("x", "y"))
    fragment = Fragment.from_rows(region, schema, kind, space, pairs)
    for index, (x, y) in enumerate(pairs):
        got = fragment.read_row(index)
        assert got[0] == x and got[1] == pytest.approx(y)
