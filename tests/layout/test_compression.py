"""Compression codec and compressed-fragment tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.hardware.memory import MemoryKind, MemorySpace
from repro.layout.compression import (
    ALL_CODECS,
    DictionaryCodec,
    FrameOfReferenceCodec,
    RunLengthCodec,
    choose_codec,
)
from repro.layout.fragment import Fragment
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT64
from repro.model.relation import Relation
from repro.model.schema import Schema


class TestDictionary:
    def test_roundtrip(self):
        values = np.array([5, 5, 9, 5, 9, 9, 1], dtype="<i8")
        column = DictionaryCodec().encode(values)
        assert np.array_equal(column.decode(), values)

    def test_random_access(self):
        values = np.array([5, 5, 9, 5], dtype="<i8")
        column = DictionaryCodec().encode(values)
        assert column.decode_at(2) == 9

    def test_low_cardinality_compresses(self):
        values = np.zeros(1000, dtype="<i8")
        values[::7] = 1
        column = DictionaryCodec().encode(values)
        assert column.ratio > 6  # 8-byte values -> 1-byte codes

    def test_code_width_grows_with_cardinality(self):
        small = DictionaryCodec().encode(np.arange(200, dtype="<i8") % 10)
        large = DictionaryCodec().encode(np.arange(600, dtype="<i8") % 300)
        assert small.payload[1].dtype.itemsize == 1
        assert large.payload[1].dtype.itemsize == 2

    def test_strings(self):
        values = np.array([b"DE", b"US", b"DE", b"DE"], dtype="S2")
        column = DictionaryCodec().encode(values)
        assert np.array_equal(column.decode(), values)
        assert column.decode_at(1) == b"US"


class TestRunLength:
    def test_roundtrip(self):
        values = np.repeat(np.array([3, 1, 4], dtype="<i8"), (5, 1, 3))
        column = RunLengthCodec().encode(values)
        assert np.array_equal(column.decode(), values)

    def test_random_access_hits_right_run(self):
        values = np.repeat(np.array([3, 1, 4], dtype="<i8"), (5, 1, 3))
        column = RunLengthCodec().encode(values)
        assert column.decode_at(0) == 3
        assert column.decode_at(4) == 3
        assert column.decode_at(5) == 1
        assert column.decode_at(8) == 4

    def test_sorted_column_compresses_hard(self):
        values = np.repeat(np.arange(10, dtype="<i8"), 100)
        column = RunLengthCodec().encode(values)
        assert column.ratio > 50

    def test_empty(self):
        column = RunLengthCodec().encode(np.empty(0, dtype="<i8"))
        assert column.count == 0
        assert len(column.decode()) == 0


class TestFrameOfReference:
    def test_roundtrip(self):
        values = np.array([10_000, 10_003, 10_001], dtype="<i8")
        column = FrameOfReferenceCodec().encode(values)
        assert np.array_equal(column.decode(), values)
        assert column.decode_at(1) == 10_003

    def test_small_range_uses_one_byte(self):
        values = (np.arange(1000) % 200 + 5_000_000).astype("<i8")
        column = FrameOfReferenceCodec().encode(values)
        assert column.payload[1].dtype.itemsize == 1
        assert column.ratio > 7

    def test_rejects_floats(self):
        with pytest.raises(StorageError):
            FrameOfReferenceCodec().encode(np.ones(4, dtype="<f8"))

    def test_negative_values(self):
        values = np.array([-50, -48, -49], dtype="<i8")
        column = FrameOfReferenceCodec().encode(values)
        assert np.array_equal(column.decode(), values)


class TestChooseCodec:
    def test_picks_smallest(self):
        sorted_runs = np.repeat(np.arange(5, dtype="<i8"), 200)
        best = choose_codec(sorted_runs)
        assert best is not None and best.codec.name == "run-length"

    def test_incompressible_returns_none(self):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal(64)  # float64 white noise
        assert choose_codec(noise) is None

    def test_all_codecs_registered(self):
        assert {codec.name for codec in ALL_CODECS} == {
            "dictionary", "run-length", "frame-of-reference",
        }


class TestCompressedFragment:
    @pytest.fixture
    def space(self):
        return MemorySpace("host", MemoryKind.HOST, 1 << 22)

    @pytest.fixture
    def fragment(self, space):
        relation = Relation("t", Schema.of(("v", INT64)), 1000)
        fragment = Fragment(
            Region.full(relation), relation.schema, None, space
        )
        fragment.append_columns(
            {"v": (np.arange(1000) % 8).astype("<i8")}
        )
        return fragment

    def test_compress_shrinks_allocation(self, fragment, space):
        before = space.used
        assert fragment.compress()
        assert space.used < before
        assert fragment.is_compressed
        assert fragment.nbytes < 8000

    def test_values_unchanged(self, fragment):
        expected = list(fragment.column("v"))
        fragment.compress()
        assert list(fragment.column("v")) == expected
        assert fragment.read_field(13, "v") == expected[13]
        assert fragment.read_row(13) == (expected[13],)

    def test_read_only_after_compress(self, fragment):
        fragment.compress()
        with pytest.raises(StorageError):
            fragment.update_field(0, "v", 99)
        with pytest.raises(StorageError):
            fragment.append_rows([(1,)])

    def test_double_compress_rejected(self, fragment):
        fragment.compress()
        with pytest.raises(StorageError):
            fragment.compress()

    def test_fat_fragment_rejected(self, space):
        from repro.layout.linearization import LinearizationKind

        relation = Relation("t", Schema.of(("a", INT64), ("b", INT64)), 10)
        fat = Fragment(
            Region.full(relation), relation.schema,
            LinearizationKind.DSM, space,
        )
        fat.append_rows([(i, i) for i in range(10)])
        with pytest.raises(StorageError):
            fat.compress()

    def test_partial_fragment_rejected(self, space):
        relation = Relation("t", Schema.of(("v", INT64)), 10)
        partial = Fragment(Region.full(relation), relation.schema, None, space)
        partial.append_rows([(1,)])
        with pytest.raises(StorageError):
            partial.compress()

    def test_incompressible_stays_raw(self, space):
        relation = Relation("t", Schema.of(("v", FLOAT64)), 64)
        fragment = Fragment(Region.full(relation), relation.schema, None, space)
        rng = np.random.default_rng(3)
        fragment.append_columns({"v": rng.standard_normal(64)})
        assert not fragment.compress()
        assert not fragment.is_compressed
        fragment.update_field(0, "v", 1.0)  # still writable

    def test_scan_cost_drops(self, fragment, platform, space):
        from repro.execution.context import ExecutionContext
        from repro.execution.operators import column_scan_cost

        ctx = ExecutionContext(platform)
        raw_memory, __ = column_scan_cost(fragment, "v", ctx)
        fragment.compress()
        compressed_memory, compressed_compute = column_scan_cost(fragment, "v", ctx)
        assert compressed_memory < raw_memory
        assert compressed_compute > 0


@given(
    st.lists(st.integers(-100, 100), min_size=1, max_size=300),
    st.sampled_from(["dictionary", "run-length", "frame-of-reference"]),
)
@settings(max_examples=60)
def test_codec_roundtrip_property(values, codec_name):
    codec = next(codec for codec in ALL_CODECS if codec.name == codec_name)
    array = np.array(values, dtype="<i8")
    column = codec.encode(array)
    assert np.array_equal(column.decode(), array)
    for index in range(0, len(values), max(len(values) // 7, 1)):
        assert column.decode_at(index) == array[index]
