"""AccessDescriptor and ExecutionContext tests."""

import pytest

from repro.errors import WorkloadError
from repro.execution.access import AccessDescriptor, AccessKind
from repro.execution.context import ExecutionContext


class TestAccessDescriptor:
    def make(self, rows, attrs, total_rows=10_000, arity=21):
        return AccessDescriptor(
            kind=AccessKind.READ,
            attributes=tuple(f"a{i}" for i in range(attrs)),
            row_count=rows,
            relation_rows=total_rows,
            relation_arity=arity,
        )

    def test_record_centric_shape(self):
        descriptor = self.make(rows=1, attrs=21)
        assert descriptor.is_record_centric
        assert not descriptor.is_attribute_centric

    def test_attribute_centric_shape(self):
        descriptor = self.make(rows=10_000, attrs=1)
        assert descriptor.is_attribute_centric
        assert not descriptor.is_record_centric

    def test_selectivities(self):
        descriptor = self.make(rows=100, attrs=7)
        assert descriptor.row_selectivity == pytest.approx(0.01)
        assert descriptor.attribute_selectivity == pytest.approx(7 / 21)

    def test_empty_relation_selectivity(self):
        descriptor = self.make(rows=0, attrs=1, total_rows=0)
        assert descriptor.row_selectivity == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(WorkloadError):
            AccessDescriptor(AccessKind.READ, (), 1, 10, 5)
        with pytest.raises(WorkloadError):
            AccessDescriptor(AccessKind.READ, ("a",), -1, 10, 5)


class TestExecutionContext:
    def test_seconds(self, platform):
        ctx = ExecutionContext(platform)
        ctx.counters.cycles += platform.cpu.frequency_hz
        assert ctx.seconds() == pytest.approx(1.0)

    def test_fork_resets_counters_keeps_policy(self, platform):
        from repro.execution.threading import MULTI_THREADED_8

        ctx = ExecutionContext(platform, threading=MULTI_THREADED_8)
        ctx.counters.cycles += 10
        fork = ctx.fork()
        assert fork.cycles == 0
        assert fork.threading is MULTI_THREADED_8
        assert fork.platform is platform
