"""HyPE's remembered pricings: exact, and forgotten when an operand changes.

``HypeScheduler.raw_predict_pipeline`` takes a plan's route costs from
the first operand's staged replica while every operand is a clean
replica, and prices afresh through ``predicted_route_costs`` otherwise.
These tests pin that a warm repeat prices nothing, that an engine
reusing pricings routes, learns and charges exactly like one that
prices every request afresh, and that after every step that can change
a pricing — writes, patches, evictions, invalidation, a reload, new
plans, another selectivity — the answer equals a fresh pricing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engines.cogadb as cogadb
from repro import Pipeline, compile_pipeline
from repro.engines.cogadb import CoGaDBEngine
from repro.execution import ExecutionContext
from repro.fusion.costs import predicted_route_costs
from repro.hardware import Platform
from repro.workload import generate_items, item_schema

#: Small enough to load in milliseconds, large enough that a warm
#: device route wins (so runs stage and patch their operands).
ROWS = 20_000
COLUMNS = generate_items(ROWS)

#: The selectivities every check prices: the plan's hint and two others.
SELECTIVITIES = (None, 0.1, 0.9)

#: An ``i_im_id`` value outside every frame: the replica is dropped and
#: re-stages wider, so its plans' device terms change.
OUTSIDE_FRAME = 2_000_000_000


def pipelines():
    """Three plans: scan and aggregate on other columns both ways, and a sum."""
    return [
        Pipeline.scan("i_price")
        .filter(lambda v: v < 50.0, selectivity_hint=0.5)
        .aggregate("sum", on="i_im_id"),
        Pipeline.scan("i_im_id")
        .filter(lambda v: v < 5_000, selectivity_hint=0.5)
        .project(lambda v: v * 1.07, name="tax")
        .aggregate("sum", on="i_price"),
        Pipeline.scan("i_price").aggregate("sum"),
    ]


class Store:
    """A loaded CoGaDB engine, its plans, and the steps that change a pricing."""

    def __init__(self) -> None:
        self.platform = Platform.paper_testbed()
        self.engine = CoGaDBEngine(self.platform)
        self.pipelines = pipelines()
        self.plans = [compile_pipeline(p) for p in self.pipelines]
        self.load()

    def load(self) -> None:
        self.engine.create("item", item_schema())
        self.engine.load("item", COLUMNS)

    @property
    def layout(self):
        return self.engine.layouts("item")[0]

    def ctx(self) -> ExecutionContext:
        return ExecutionContext(self.platform)

    def replica(self, attribute):
        (fragment,) = self.layout.fragments_for_attribute(attribute)
        return self.platform.staging.cache.peek(fragment, attribute)

    # --- the steps ----------------------------------------------------
    def device_read(self) -> None:
        """Stage every plan's operands, patching pending writes."""
        layout = self.layout
        self.platform.staging.stage(
            [
                (fragment, attribute, fragment.schema.attribute(attribute).width)
                for plan in self.plans
                for attribute in plan.attributes
                for fragment in layout.fragments_for_attribute(attribute)
            ],
            self.ctx(),
        )

    def run(self) -> None:
        for plan in self.plans:
            self.engine.run_pipeline("item", plan, self.ctx())

    def write_scan(self) -> None:
        """A point write to the first plan's scan column: pending."""
        self.engine.update("item", 7, "i_price", 77.5, self.ctx())

    def write_outside_frame(self) -> None:
        self.engine.update("item", 11, "i_im_id", OUTSIDE_FRAME, self.ctx())

    def write_unread(self) -> None:
        """A write to a column no plan reads."""
        self.engine.update("item", 13, "i_data", "ZZ", self.ctx())

    def evict(self) -> None:
        """Stage ``i_id`` with the cache squeezed to what it holds now."""
        staging = self.platform.staging
        staging.capacity_bytes = staging.cache.resident_bytes
        (fragment,) = self.layout.fragments_for_attribute("i_id")
        staging.stage([(fragment, "i_id", 8)], self.ctx())
        staging.capacity_bytes = None

    def invalidate(self) -> None:
        self.platform.staging.invalidate_all()

    def reload(self) -> None:
        self.engine.drop("item")
        self.load()

    def recompile(self) -> None:
        """The same pipelines compiled again: new plans, the same stages."""
        self.plans = [compile_pipeline(p) for p in self.pipelines]

    def fresh_lambdas(self) -> None:
        self.pipelines = pipelines()
        self.recompile()

    STEPS = (
        "device_read",
        "run",
        "write_scan",
        "write_outside_frame",
        "write_unread",
        "evict",
        "invalidate",
        "reload",
        "recompile",
        "fresh_lambdas",
    )

    # --- the check ------------------------------------------------------
    def assert_exact(self) -> None:
        """Every plan's pricing at every selectivity equals a fresh one."""
        layout = self.layout
        for plan in self.plans:
            for selectivity in SELECTIVITIES:
                assert self.engine.scheduler.raw_predict_pipeline(
                    plan, layout, selectivity
                ) == predicted_route_costs(plan, layout, self.platform, selectivity)


@pytest.fixture
def pricings(monkeypatch):
    """Pricings the engine makes afresh, one entry per call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return predicted_route_costs(*args)

    monkeypatch.setattr(cogadb, "predicted_route_costs", counting)
    return calls


@pytest.fixture
def store():
    return Store()


def priced(store, pricings, plan, selectivity=None) -> int:
    """How many fresh pricings one ``raw_predict_pipeline`` call made."""
    before = len(pricings)
    raw = store.engine.scheduler.raw_predict_pipeline(plan, store.layout, selectivity)
    assert raw == predicted_route_costs(plan, store.layout, store.platform, selectivity)
    return len(pricings) - before


class TestWarmRepeat:
    def test_a_warm_repeat_prices_nothing(self, store, pricings):
        store.device_read()
        store.run()
        plan = store.plans[0]
        store.engine.run_pipeline("item", plan, store.ctx())
        assert store.engine.scheduler.decisions[-1] == "fused-gpu"
        before = len(pricings)
        for __ in range(3):
            store.engine.run_pipeline("item", plan, store.ctx())
        assert len(pricings) == before
        assert store.engine.scheduler.raw_predict_pipeline(
            plan, store.layout
        ) == predicted_route_costs(plan, store.layout, store.platform)

    def test_a_run_leaves_the_remembered_pricing_unchanged(self, store):
        store.device_read()
        plan = store.plans[1]
        raw = store.engine.scheduler.raw_predict_pipeline(plan, store.layout)
        kept = dict(raw)
        for __ in range(2):
            store.engine.run_pipeline("item", plan, store.ctx())
        assert raw == kept
        assert store.engine.scheduler.raw_predict_pipeline(plan, store.layout) is raw

    def test_reuse_routes_learns_and_charges_as_fresh_pricing(self, monkeypatch, pricings):
        reusing, fresh = Store(), Store()
        monkeypatch.setattr(
            fresh.engine.scheduler,
            "raw_predict_pipeline",
            lambda plan, layout, selectivity=None: predicted_route_costs(
                plan, layout, fresh.platform, selectivity
            ),
        )
        requests = 0
        for round_index in range(6):
            for twin in (reusing, fresh):
                twin.device_read()
                if round_index == 2:
                    twin.write_scan()
            for plan_index in range(len(reusing.plans)):
                for selectivity in SELECTIVITIES:
                    observed = []
                    for twin in (reusing, fresh):
                        ctx = twin.ctx()
                        answer = twin.engine.run_pipeline(
                            "item", twin.plans[plan_index], ctx, selectivity
                        )
                        scheduler = twin.engine.scheduler
                        observed.append(
                            (
                                answer,
                                scheduler.decisions[-1],
                                scheduler.cpu_calibration,
                                scheduler.gpu_calibration,
                                ctx.cycles,
                                ctx.counters.snapshot(),
                            )
                        )
                    assert observed[0] == observed[1]
                    requests += 1
        assert reusing.engine.scheduler.decisions == fresh.engine.scheduler.decisions
        assert "fused-gpu" in reusing.engine.scheduler.decisions
        assert len(pricings) < requests / 2  # the reusing engine did reuse


class TestEachStep:
    def test_every_step_is_followed_by_an_exact_pricing(self, store, pricings):
        plan, other, total = store.plans
        # Nothing staged: every call prices afresh.
        assert priced(store, pricings, plan) == priced(store, pricings, plan) == 1
        store.device_read()
        assert priced(store, pricings, plan) == 1
        assert priced(store, pricings, plan) == 0

        # A pending write to the scan column: priced afresh, every time.
        store.write_scan()
        assert store.replica("i_price").pending
        assert priced(store, pricings, plan) == priced(store, pricings, plan) == 1
        assert priced(store, pricings, other) == 1  # i_price is its 2nd operand
        # The run that patches it: a new stamp, priced once more.
        stamp = store.replica("i_price").stamp
        store.run()
        assert store.replica("i_price").stamp != stamp
        assert priced(store, pricings, plan) == 1
        assert priced(store, pricings, plan) == 0

        # A write to a column the plans do not read: still reused.
        store.write_unread()
        assert priced(store, pricings, plan) == priced(store, pricings, other) == 0

        # A write outside its frame drops the aggregate's replica; it
        # re-stages wider, and the scan replica's pricing is not reused.
        nbytes = store.replica("i_im_id").nbytes
        store.write_outside_frame()
        assert store.replica("i_im_id") is None
        assert priced(store, pricings, plan) == 1
        store.device_read()
        assert store.replica("i_im_id").nbytes != nbytes
        assert priced(store, pricings, plan) == 1
        assert priced(store, pricings, plan) == 0

        # An eviction under a capacity squeeze.
        store.evict()
        assert store.platform.staging.cache.evictions
        store.assert_exact()
        store.device_read()
        store.assert_exact()

        # invalidate_all drops every replica: priced afresh until staged.
        store.invalidate()
        assert priced(store, pricings, total) == priced(store, pricings, total) == 1
        store.device_read()
        assert priced(store, pricings, total) == 1
        assert priced(store, pricings, total) == 0

        # A drop and a reload: new fragments, priced afresh until staged.
        store.reload()
        assert priced(store, pricings, plan) == 1
        store.device_read()
        assert priced(store, pricings, plan) == 1
        assert priced(store, pricings, plan) == 0

        # A recompiled plan with the same stages: reused.
        store.recompile()
        assert store.plans[0] is not plan
        assert priced(store, pricings, store.plans[0]) == 0

        # A plan with a fresh lambda: priced afresh, then reused.
        store.fresh_lambdas()
        assert priced(store, pricings, store.plans[0]) == 1
        assert priced(store, pricings, store.plans[0]) == 0

        # Another selectivity: priced afresh, then reused.
        assert priced(store, pricings, store.plans[0], 0.25) == 1
        assert priced(store, pricings, store.plans[0], 0.25) == 0
        assert priced(store, pricings, store.plans[0]) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(Store.STEPS), max_size=10))
def test_any_interleaving_prices_exactly(steps):
    store = Store()
    store.assert_exact()
    for step in steps:
        getattr(store, step)()
        store.assert_exact()
