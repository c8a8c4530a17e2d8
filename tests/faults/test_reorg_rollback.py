"""Transactional re-organization: interruption rolls back cleanly.

An injected ``reorg.interrupt`` mid-migration must leave the layout
exactly as it was (same fragments, same values, still valid), free the
partially-built fragments, and still charge the wasted copy work.
"""

import pytest

from repro.adapt.advisor import GroupProposal, LayoutProposal
from repro.adapt.reorganizer import reorganize_layout
from repro.errors import ReorganizationAborted
from repro.execution.context import ExecutionContext
from repro.faults import SITE_REORG_INTERRUPT, FaultInjector
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.obs import Tracer

ROWS = 64


@pytest.fixture
def relation():
    return Relation("t", Schema.of(("a", INT64), ("p", FLOAT64)), ROWS)


@pytest.fixture
def rows():
    return [(i, float(i) * 1.5) for i in range(ROWS)]


@pytest.fixture
def layout(relation, platform, rows):
    fragment = Fragment.from_rows(
        Region.full(relation),
        relation.schema,
        LinearizationKind.NSM,
        platform.host_memory,
        rows,
    )
    return Layout("t", relation, [fragment])


def columnar_proposal():
    return LayoutProposal(
        (
            GroupProposal(("a",), LinearizationKind.DIRECT),
            GroupProposal(("p",), LinearizationKind.DIRECT),
        ),
        0.0,
    )


class TestRollback:
    def arm(self, platform, probability=1.0, max_faults=1):
        injector = FaultInjector(seed=3).arm(
            SITE_REORG_INTERRUPT, probability, max_faults=max_faults
        )
        injector.install(platform)
        return injector

    def test_interrupted_reorg_raises_and_rolls_back(
        self, layout, platform, rows
    ):
        self.arm(platform)
        ctx = ExecutionContext(platform)
        old_fragments = list(layout.fragments)
        with pytest.raises(ReorganizationAborted) as excinfo:
            reorganize_layout(layout, columnar_proposal(), platform.host_memory, ctx)
        assert excinfo.value.injected is True
        # Layout untouched: same fragment objects, same values, valid.
        assert list(layout.fragments) == old_fragments
        layout.validate()
        assert [layout.read_row(i) for i in range(ROWS)] == rows

    def test_partial_fragments_freed(self, layout, platform):
        """Mid-migration memory is released on abort (no leak)."""
        # Abort after some rows have migrated, not on the first check.
        injector = FaultInjector(seed=3).arm(
            SITE_REORG_INTERRUPT, 0.05, max_faults=1
        )
        injector.install(platform)
        ctx = ExecutionContext(platform)
        before = platform.host_memory.used
        with pytest.raises(ReorganizationAborted):
            reorganize_layout(layout, columnar_proposal(), platform.host_memory, ctx)
        assert platform.host_memory.used == before

    def test_wasted_work_is_charged(self, layout, platform):
        injector = FaultInjector(seed=3).arm(
            SITE_REORG_INTERRUPT, 0.05, max_faults=1
        )
        injector.install(platform)
        tracer = platform.tracer = Tracer()
        ctx = ExecutionContext(platform)
        with pytest.raises(ReorganizationAborted):
            reorganize_layout(layout, columnar_proposal(), platform.host_memory, ctx)
        assert ctx.cycles > 0
        (span,) = tracer.roots
        assert span.attrs["outcome"] == "aborted"
        assert span.cycles == ctx.cycles

    def test_retry_after_abort_succeeds(self, layout, platform, rows):
        """Exactly-once fault: the second attempt completes the reorg."""
        self.arm(platform, max_faults=1)
        ctx = ExecutionContext(platform)
        with pytest.raises(ReorganizationAborted):
            reorganize_layout(layout, columnar_proposal(), platform.host_memory, ctx)
        reorganize_layout(layout, columnar_proposal(), platform.host_memory, ctx)
        assert len(layout) == 2
        assert [layout.read_row(i) for i in range(ROWS)] == rows

    def test_phantom_reorg_abort_keeps_geometry(self, relation, platform):
        fragment = Fragment(
            Region.full(relation),
            relation.schema,
            LinearizationKind.NSM,
            platform.host_memory,
            materialize=False,
        )
        fragment.fill_phantom(ROWS)
        layout = Layout("t", relation, [fragment])
        self.arm(platform)
        ctx = ExecutionContext(platform)
        with pytest.raises(ReorganizationAborted):
            reorganize_layout(layout, columnar_proposal(), platform.host_memory, ctx)
        assert layout.fragments == (fragment,) or list(layout.fragments) == [fragment]
        assert fragment.is_phantom and fragment.filled == ROWS

    def test_uninterrupted_reorg_unaffected(self, layout, platform, rows):
        """An installed but unarmed injector changes nothing."""
        FaultInjector(seed=3).install(platform)
        ctx = ExecutionContext(platform)
        reorganize_layout(layout, columnar_proposal(), platform.host_memory, ctx)
        assert len(layout) == 2
        assert [layout.read_row(i) for i in range(ROWS)] == rows
