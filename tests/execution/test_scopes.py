"""CounterScope accounting: exactly-once roll-ups under interleaving."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.execution import CounterScope, ExecutionContext
from repro.hardware.event import PerfCounters
from repro.hardware.platform import Platform


def _fresh_ctx() -> ExecutionContext:
    return ExecutionContext(Platform.paper_testbed())


class TestScopeMechanics:
    def test_open_scope_seeds_the_timeline_position(self, ctx):
        scope = ctx.open_scope("q1", at_cycles=1000.0)
        assert scope.counters.cycles == 1000.0
        assert scope.baseline_cycles == 1000.0
        assert scope.cycles == 0.0
        assert scope.delta().cycles == 0.0

    def test_open_scope_defaults_to_current_position(self, ctx):
        ctx.charge("warmup", 250.0)
        scope = ctx.open_scope("q1")
        assert scope.baseline_cycles == 250.0

    def test_activate_routes_charges_into_the_scope(self, ctx):
        scope = ctx.open_scope("q1", at_cycles=0.0)
        with ctx.activate(scope):
            ctx.charge("work", 40.0)
            ctx.counters.pcie_bytes += 64
        # Nothing reached the root yet.
        assert ctx.counters.cycles == 0.0
        assert ctx.counters.pcie_bytes == 0
        assert scope.cycles == 40.0
        delta = ctx.settle(scope)
        assert delta.cycles == 40.0
        assert delta.pcie_bytes == 64
        assert ctx.counters.cycles == 40.0
        assert ctx.counters.pcie_bytes == 64
        assert ctx.breakdown.parts["work"] == 40.0

    def test_nested_activation_restores_and_settles_to_root(self, ctx):
        outer = ctx.open_scope("outer", at_cycles=0.0)
        with ctx.activate(outer):
            ctx.charge("outer-work", 50.0)
            inner = ctx.open_scope("inner")
            with ctx.activate(inner):
                ctx.charge("inner-work", 7.0)
            # Inner settles to the ROOT, not into the outer scope.
            ctx.settle(inner)
            assert outer.cycles == 50.0
        ctx.settle(outer)
        assert ctx.counters.cycles == 57.0
        assert ctx.breakdown.parts == {"outer-work": 50.0, "inner-work": 7.0}

    def test_settle_twice_is_an_error(self, ctx):
        scope = ctx.open_scope("q")
        ctx.settle(scope)
        with pytest.raises(ExecutionError):
            ctx.settle(scope)

    def test_settle_while_active_is_an_error(self, ctx):
        scope = ctx.open_scope("q")
        with ctx.activate(scope):
            with pytest.raises(ExecutionError):
                ctx.settle(scope)

    def test_activating_a_settled_scope_is_an_error(self, ctx):
        scope = ctx.open_scope("q")
        ctx.settle(scope)
        with pytest.raises(ExecutionError):
            with ctx.activate(scope):
                pass  # pragma: no cover - activation must raise first

    def test_activation_restores_on_exception(self, ctx):
        scope = ctx.open_scope("q")
        root = ctx.counters
        with pytest.raises(RuntimeError):
            with ctx.activate(scope):
                raise RuntimeError("operator died")
        assert ctx.counters is root

    def test_delta_is_a_copy(self, ctx):
        scope = ctx.open_scope("q", at_cycles=100.0)
        with ctx.activate(scope):
            ctx.charge("work", 5.0)
        before = scope.delta()
        with ctx.activate(scope):
            ctx.charge("work", 5.0)
        assert before.cycles == 5.0
        assert scope.delta().cycles == 10.0


# One interleaving event: (scope id, cycles, pcie bytes, nest flag).
EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=512),
        st.booleans(),
    ),
    max_size=40,
)


class TestRollUpProperty:
    """Satellite invariant: root totals == sum of scope deltas, always."""

    @given(events=EVENTS)
    def test_totals_equal_sum_of_deltas_under_any_interleaving(self, events):
        ctx = _fresh_ctx()
        scopes: dict[int, CounterScope] = {}
        nested: list[CounterScope] = []
        for index, (scope_id, cycles, pcie, nest) in enumerate(events):
            scope = scopes.setdefault(
                scope_id,
                # Deliberately varied (and nonzero) timeline seeds: the
                # baseline must never leak into the roll-up.
                ctx.open_scope(f"s{scope_id}", at_cycles=float(scope_id * 10_000)),
            )
            with ctx.activate(scope):
                ctx.charge(f"work.{scope_id}", float(cycles))
                ctx.counters.pcie_bytes += pcie
                if nest:
                    inner = ctx.open_scope(f"nested.{index}")
                    with ctx.activate(inner):
                        ctx.charge(f"nested.{index}", float(index))
                    nested.append(inner)
        deltas = [ctx.settle(scope) for scope in scopes.values()]
        deltas.extend(ctx.settle(scope) for scope in nested)
        total = PerfCounters()
        for delta in deltas:
            total.merge(delta)
        assert ctx.counters.snapshot() == total.snapshot()
        assert ctx.breakdown.total == total.cycles

    @given(events=EVENTS)
    def test_registry_attribution_matches_root(self, events):
        from repro.obs.metrics import MetricsRegistry

        ctx = _fresh_ctx()
        registry = MetricsRegistry()
        for scope_id, cycles, pcie, __ in events:
            scope = ctx.open_scope(f"s{scope_id}")
            with ctx.activate(scope):
                ctx.charge("work", float(cycles))
                ctx.counters.pcie_bytes += pcie
            registry.observe_query(ctx.settle(scope), ctx.cycles)
        assert registry.verify_closure(ctx.counters) == []
