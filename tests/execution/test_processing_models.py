"""Volcano vs. bulk processing model tests."""

import numpy as np
import pytest

from repro.execution.bulk import BulkPipeline, bulk_sum
from repro.execution.context import ExecutionContext
from repro.execution.operators import CALL_OVERHEAD_CYCLES
from repro.execution.volcano import (
    VolcanoScan,
    VolcanoSelect,
    VolcanoSum,
    run_volcano,
)
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT64
from repro.model.relation import Relation
from repro.model.schema import Schema


@pytest.fixture
def layout(platform):
    relation = Relation("t", Schema.of(("id", INT64), ("price", FLOAT64)), 200)
    fragments = []
    for name in relation.schema.names:
        fragment = Fragment(
            Region(relation.rows, (name,)), relation.schema, None, platform.host_memory
        )
        if name == "id":
            fragment.append_columns({"id": np.arange(200)})
        else:
            fragment.append_columns({"price": np.arange(200, dtype=np.float64) / 4})
        fragments.append(fragment)
    return Layout("t", relation, fragments)


class TestVolcano:
    def test_scan_produces_all_rows(self, layout, ctx):
        rows = run_volcano(VolcanoScan(layout, ["id"]), ctx)
        assert len(rows) == 200
        assert rows[7] == (7,)

    def test_select_filters(self, layout, ctx):
        plan = VolcanoSelect(VolcanoScan(layout, ["id"]), lambda row: row[0] < 5)
        assert run_volcano(plan, ctx) == [(i,) for i in range(5)]

    def test_sum_aggregates(self, layout, ctx):
        plan = VolcanoSum(VolcanoScan(layout, ["price"]))
        (result,) = run_volcano(plan, ctx)
        assert result[0] == pytest.approx(sum(i / 4 for i in range(200)))

    def test_call_overhead_charged_per_tuple(self, layout, platform):
        ctx = ExecutionContext(platform)
        run_volcano(VolcanoSum(VolcanoScan(layout, ["price"])), ctx)
        scan = ExecutionContext(platform)
        VolcanoScan(layout, ["price"]).open(scan)
        # What is left after the scan and one 1-cycle add per tuple is
        # call overhead: at least one pull per tuple through the Sum.
        calls = ctx.cycles - scan.cycles - 200 * 1.0
        assert calls >= 200 * CALL_OVERHEAD_CYCLES


class TestBulk:
    def test_bulk_sum_value(self, layout, ctx):
        assert bulk_sum(layout, "price", ctx) == pytest.approx(
            sum(i / 4 for i in range(200))
        )

    def test_pipeline_stages_compose(self, layout, ctx):
        doubled = (
            BulkPipeline(layout, "price", vector_size=64)
            .map(lambda v: v * 2, name="double")
            .collect(ctx)
        )
        assert doubled[10] == pytest.approx(5.0)

    def test_bulk_beats_volcano(self, layout, platform):
        """Bulk pays call overhead per vector, Volcano per tuple."""
        volcano_ctx = ExecutionContext(platform)
        bulk_ctx = ExecutionContext(platform)
        run_volcano(VolcanoSum(VolcanoScan(layout, ["price"])), volcano_ctx)
        bulk_sum(layout, "price", bulk_ctx)
        assert bulk_ctx.cycles < volcano_ctx.cycles


class TestVolcanoOnRowStore:
    """The classic pairing: Volcano over NSM (Section II-A)."""

    @pytest.fixture
    def nsm_layout(self, platform):
        from repro.layout.linearization import LinearizationKind
        from repro.layout.region import Region

        relation = Relation("t", Schema.of(("id", INT64), ("price", FLOAT64)), 100)
        fragment = Fragment.from_rows(
            Region.full(relation), relation.schema, LinearizationKind.NSM,
            platform.host_memory, [(i, float(i)) for i in range(100)],
        )
        return Layout("t", relation, [fragment])

    def test_select_star_semantics(self, nsm_layout, ctx):
        rows = run_volcano(VolcanoScan(nsm_layout), ctx)
        assert rows[42] == (42, 42.0)

    def test_projection_reorders(self, nsm_layout, ctx):
        rows = run_volcano(VolcanoScan(nsm_layout, ["price", "id"]), ctx)
        assert rows[7] == (7.0, 7)

    def test_pipeline_select_sum(self, nsm_layout, ctx):
        plan = VolcanoSum(
            VolcanoSelect(VolcanoScan(nsm_layout, ["price"]), lambda r: r[0] < 10),
        )
        (result,) = run_volcano(plan, ctx)
        assert result[0] == pytest.approx(sum(range(10)))

    def test_operator_use_before_open_rejected(self, nsm_layout):
        from repro.errors import ExecutionError

        scan = VolcanoScan(nsm_layout)
        with pytest.raises(ExecutionError):
            scan.ctx
