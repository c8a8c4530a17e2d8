"""The zero-observer-effect contract: tracing changes no simulated cycle.

These tests run real drivers twice — once traced, once untraced — and
compare the simulated results byte for byte.  Any divergence means an
instrumentation hook charged cycles, drew randomness or otherwise
perturbed the run, which the observability layer forbids outright.
"""

import json

from repro.obs.tracer import Tracer, nesting_violations


class TestWorkloadIdentity:
    def test_probe_workload_snapshots_are_byte_identical(self):
        from repro.obs.verifier import run_figure2_workload

        tracer = Tracer()
        traced = run_figure2_workload(rows=50_000, tracer=tracer)
        untraced = run_figure2_workload(rows=50_000, tracer=None)
        assert json.dumps(traced["snapshot"], sort_keys=True) == json.dumps(
            untraced["snapshot"], sort_keys=True
        )
        # The traced run actually recorded something.
        assert tracer.roots and tracer.events

    def test_probe_workload_covers_all_required_layers(self):
        from repro.obs.verifier import REQUIRED_SPAN_LAYERS, run_figure2_workload

        tracer = Tracer()
        run_figure2_workload(rows=50_000, tracer=tracer)
        span_layers = {span.category for span in tracer.spans()}
        assert set(REQUIRED_SPAN_LAYERS) <= span_layers
        instant_layers = {event.category for event in tracer.events}
        assert {"staging", "fault"} <= instant_layers
        for root in tracer.roots:
            assert nesting_violations(root) == []

    def test_untraced_run_records_nothing(self):
        from repro.obs.verifier import run_figure2_workload
        from repro.obs.tracer import default_tracer

        before = default_tracer()
        run_figure2_workload(rows=50_000, tracer=None)
        assert default_tracer() is before


class TestFigure2DriverIdentity:
    def test_panel3_traced_equals_untraced(self):
        """The Fig. 2 panel 3 driver builds its own platforms per point;
        the process-wide default tracer reaches them — without changing
        a single measured cycle."""
        from repro.bench.figure2 import panel3_sum_all_transfer_included
        from repro.obs.tracer import tracing

        rows = (100_000,)
        baseline = panel3_sum_all_transfer_included(row_counts=rows)
        with tracing() as tracer:
            traced = panel3_sum_all_transfer_included(row_counts=rows)
        assert traced == baseline
        assert any(span.category == "pcie" for span in tracer.spans())
