"""The explain() report, ASCII span trees and per-layer attribution."""

import pytest

from repro.execution.context import ExecutionContext
from repro.hardware.platform import Platform
from repro.obs.profile import explain, layer_attribution, render_span_tree
from repro.obs.tracer import Tracer


def traced_context() -> tuple[ExecutionContext, Tracer]:
    """A context whose tracer saw a query -> operator -> kernel stack."""
    platform = Platform.paper_testbed()
    tracer = Tracer()
    platform.tracer = tracer
    ctx = ExecutionContext(platform)
    with ctx.span("q1", "query"):
        ctx.counters.cycles += 1_000_000
        with ctx.span("device-sum(i_price)", "operator", hits=1):
            ctx.counters.cycles += 2_000_000
            with ctx.span("gpu-reduce", "kernel"):
                ctx.counters.cycles += 1_000_000
        tracer.instant("staging-hit", "staging", ctx.counters)
    return ctx, tracer


class TestRenderSpanTree:
    def test_tree_shows_names_layers_and_shares(self):
        _, tracer = traced_context()
        root = tracer.roots[0]
        lines = render_span_tree(root, root.cycles)
        assert "q1 [query]" in lines[0] and "100.0%" in lines[0]
        assert lines[1].startswith("├─ ") or lines[1].startswith("└─ ")
        assert any("gpu-reduce [kernel]" in line and "25.0%" in line for line in lines)

    def test_shown_attrs_are_inlined(self):
        _, tracer = traced_context()
        root = tracer.roots[0]
        lines = render_span_tree(root, root.cycles)
        assert any("{hits=1}" in line for line in lines)

    def test_zero_total_renders_zero_share(self):
        from repro.obs.tracer import Span

        span = Span(name="empty", category="query", begin=0.0, end=0.0)
        assert "0.0%" in render_span_tree(span, 0.0)[0]


class TestLayerAttribution:
    def test_self_time_partitions_the_total(self):
        _, tracer = traced_context()
        attribution = layer_attribution(tracer)
        assert attribution == {
            "query": 1_000_000.0,
            "operator": 2_000_000.0,
            "kernel": 1_000_000.0,
        }
        assert sum(attribution.values()) == tracer.roots[0].cycles

    def test_empty_tracer_attributes_nothing(self):
        assert layer_attribution(Tracer()) == {}


class TestExplain:
    def test_report_heads_with_total_and_dominant_part(self):
        ctx, tracer = traced_context()
        report = explain(ctx, tracer)
        assert "query profile: 4000000 simulated cycles" in report
        attribution = layer_attribution(tracer)
        assert max(attribution, key=attribution.get) == "operator"
        assert report.splitlines()[1] == (
            "dominant layer: operator — 50.0% of traced cycles"
        )
        assert "per-layer attribution (self time):" in report
        assert "instant events: 1" in report

    def test_uses_platform_tracer_when_not_passed(self):
        ctx, tracer = traced_context()
        assert explain(ctx) == explain(ctx, tracer)

    def test_untraced_context_raises(self):
        ctx = ExecutionContext(Platform.paper_testbed())
        with pytest.raises(ValueError):
            explain(ctx)

    def test_real_device_query_explains_transfer_dominance(self):
        """The paper's Fig. 2 headline — transfer dominates a cold device
        sum — falls straight out of the generated report."""
        from repro.bench.figure2 import build_column_store
        from repro.execution.device import device_sum_column
        from repro.workload.tpcc import item_relation

        platform = Platform.paper_testbed()
        tracer = Tracer()
        platform.tracer = tracer
        ctx = ExecutionContext(platform)
        store = build_column_store(platform, item_relation(100_000))
        device_sum_column(store, "i_price", ctx)
        report = explain(ctx)
        assert "device-sum(i_price) [operator]" in report
        assert "pcie-burst [pcie]" in report
        assert "gpu-reduce(i_price) [kernel]" in report
        attribution = layer_attribution(tracer)
        assert attribution["pcie"] > attribution["kernel"]


class TestOperandOrigins:
    """``stage`` tells each device operator's span where its operands came from."""

    def traced(self):
        from tests.fusion.stores import dsm_store, fusion_columns, fusion_relation

        platform = Platform.paper_testbed()
        platform.tracer = Tracer()
        store = dsm_store(platform, fusion_relation(), fusion_columns())
        return platform, store, ExecutionContext(platform)

    @staticmethod
    def span_named(tracer, prefix):
        (span,) = [span for span in tracer.spans() if span.name.startswith(prefix)]
        return span

    def test_a_placed_sum_reports_one_pinned_hit(self):
        from repro.execution.device import device_sum_column

        platform, store, ctx = self.traced()
        (fragment,) = store.fragments_for_attribute("price")
        assert platform.staging.pin(fragment, "price", ExecutionContext(platform))
        device_sum_column(store, "price", ctx)
        assert self.span_named(platform.tracer, "device-sum(price)").attrs == {
            "hits": 1,
            "pinned": 1,
        }
        report = explain(ctx)
        assert "{hits=1, pinned=1}" in report
        assert "on_device" not in report

    def test_an_unfused_plan_adds_up_its_two_stagings(self):
        from repro.fusion import Pipeline, compile_pipeline
        from repro.fusion.oracle import run_unfused_device

        platform, store, ctx = self.traced()
        platform.staging.capacity_bytes = 0
        plan = compile_pipeline(
            Pipeline.scan("key").filter(lambda values: values < 400).aggregate(
                "sum", on="price"
            )
        )
        run_unfused_device(plan, store, ctx)
        attrs = self.span_named(platform.tracer, "device-unfused(").attrs
        assert (attrs["misses"], attrs["uncached"]) == (2, 2)
        assert "hits" not in attrs and "resident" not in attrs
