"""CoGaDB (Bress, 2014): a cross-device CPU/GPU OLAP engine.

"CoGaDB allows thin fragment sub-relations of a relation to be kept on
host-memory, device-memory, or on both memory locations using a
replication-based approach. ... CoGaDB follows an 'all or nothing'
approach for moving a thin fragment ... either there is enough space
for the column in the device memory, or not."  Operator placement is
decided by HyPE, "a self-adapting query optimizer that learns cost
models and balances the workload between all compute devices".

Classification targets (Table 1): built-in multi-layout, weak flexible,
static, Mixed + distributed, thin DSM-emulated, replication-based
scheme, CPU/GPU, OLAP.

Mechanisms here: the host layout (one thin column per attribute),
device replicas of placed columns, pinned in the platform's staging
cache by :meth:`place_columns` (all-or-nothing per column), and
:class:`HypeScheduler`, which predicts CPU and GPU cost per operator
from the platform's analytic models, corrects each prediction with a
learned per-device calibration factor, and routes to the cheaper
device.  A pipeline is priced once per operand contents: while its
operands are clean staged replicas, the replicas remember its route
costs.  Every device operator reads the host columns through
``platform.staging``, so a placed column serves from its pinned
replica and a write to it is patched there on the next device read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engines.base import (
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    StorageEngine,
    WorkloadSupport,
    fill_fragment,
)
from repro.errors import EngineError
from repro.execution.access import AccessKind
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.faults.policy import (
    TRANSIENT_DEVICE_ERRORS,
    CircuitBreaker,
    FallbackChain,
    FallbackStep,
)
from repro.execution.operators import sum_column
from repro.fusion.compiler import FusedPipeline, compile_pipeline
from repro.fusion.costs import PIPELINE_ROUTES, predicted_route_costs
from repro.fusion.device import run_fused_device
from repro.fusion.host import run_fused_host
from repro.fusion.oracle import run_unfused_device, run_unfused_host
from repro.fusion.pipeline import Pipeline
from repro.hardware.platform import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.partitioning import one_region_per_attribute
from repro.model.relation import Relation
from repro.staging.manager import Stream

__all__ = ["HypeScheduler", "CoGaDBEngine", "PlacementReport"]


@dataclass
class HypeScheduler:
    """A learning cost-based device scheduler (the HyPE mechanism).

    Predictions come from the platform's analytic models; each device
    keeps an exponentially-smoothed calibration factor
    (observed / predicted) so systematic model error is learned away —
    the "learns cost models" half of HyPE, with the analytic model as
    the feature extractor.  Calibration applies on top of the raw
    predictions, so a remembered raw pricing
    (:meth:`raw_predict_pipeline`) serves whatever the factors are.
    """

    platform: Platform
    smoothing: float = 0.3
    cpu_calibration: float = 1.0
    gpu_calibration: float = 1.0
    decisions: list[str] = field(default_factory=list)

    def raw_predict_sum(
        self,
        count: int,
        width: int,
        fragment: Fragment | None = None,
        attribute: str | None = None,
    ) -> tuple[float, float]:
        """Uncalibrated (cpu_cycles, gpu_cycles) model predictions.

        When the column's *fragment* and *attribute* are given, the
        device terms price the bytes its device copy holds
        (``platform.staging.stream``), and the transfer term is
        cache-aware: a column with a fresh replica in the staging cache
        (a placed column's pinned replica included) is predicted to pay
        only the patch of its pending writes, none when it is clean —
        the device looks exactly as cheap as it will actually be on the
        warm path.  Without them the column is priced raw, from *count*
        and *width* alone, transfer included.  Predictions stay
        side-effect-free (no cache stats, no fault draws).
        """
        staging = self.platform.staging
        cpu = self.platform.memory_model.sequential(count * width) + count
        if fragment is None or attribute is None:
            column = Stream(count, width, count * width, 0)
            transfer = staging.scheduler.predicted_cost(column.nbytes)
        else:
            column = staging.stream([fragment], attribute)
            transfer = staging.predicted_transfer_cost(fragment, attribute)
        gpu = self.platform.gpu.reduction_cost(
            column.count, column.width, nbytes=column.nbytes, decoded=column.decoded
        )
        return cpu, gpu + transfer

    def predict_sum(self, raw: tuple[float, float]) -> tuple[float, float]:
        """Calibrated (cpu_cycles, gpu_cycles) from a :meth:`raw_predict_sum`."""
        cpu, gpu = raw
        return cpu * self.cpu_calibration, gpu * self.gpu_calibration

    def choose_sum_device(self, raw: tuple[float, float]) -> str:
        """'cpu' or 'gpu', whichever the calibrated *raw* prediction favors."""
        cpu, gpu = self.predict_sum(raw)
        choice = "gpu" if gpu < cpu else "cpu"
        self.decisions.append(choice)
        return choice

    # ------------------------------------------------------------------
    # Fused-operator cost features (pipeline routing)
    # ------------------------------------------------------------------
    def raw_predict_pipeline(
        self,
        plan: FusedPipeline,
        layout: Layout,
        selectivity: float | None = None,
    ) -> dict[str, float]:
        """Uncalibrated predicted cycles per pipeline route (pure).

        The pricing is :func:`repro.fusion.costs.predicted_route_costs`,
        so the features HyPE learns from are the same expressions the
        fused and unfused executors charge — cache-aware transfer
        terms included.  When every operand (each fragment of each
        attribute the plan reads) is a staged replica with no pending
        cells, the pricing depends only on those replicas' contents, so
        it is the first replica's remembered answer
        (:meth:`~repro.staging.cache.StagedColumn.remembered_answer`),
        keyed like the fused answer on the plan's stages and the other
        replicas' content stamps, plus *selectivity*.  Otherwise — an
        operand unstaged, or a write pending whose patch the transfer
        term prices — the plan is priced afresh.  Probing uses
        ``peek``: no cache stats, no LRU movement.  The mapping
        returned may be shared with later calls; callers must not
        mutate it.
        """
        cache = self.platform.staging.cache
        replicas = [
            cache.peek(fragment, attribute)
            for attribute in plan.attributes
            for fragment in layout.fragments_for_attribute(attribute)
        ]

        def price() -> dict[str, float]:
            return predicted_route_costs(plan, layout, self.platform, selectivity)

        if not replicas or any(
            replica is None or replica.pending for replica in replicas
        ):
            return price()
        return replicas[0].remembered_answer(
            ("routes", plan.scan_attribute, plan.op, plan.aggregate_attribute, selectivity),
            price,
            anchors=plan.stages,
            stamps=tuple(replica.stamp for replica in replicas[1:]),
        )

    def predict_pipeline(self, raw: dict[str, float]) -> dict[str, float]:
        """Calibrated predictions: each route's *raw* price scaled by its device's factor.

        *raw* is a :meth:`raw_predict_pipeline` result.  A route's calibration is decided by its placement suffix — the
        ``*-cpu`` routes share the host factor, the ``*-gpu`` routes the
        device factor — so observations from the scalar operators
        (:meth:`observe`) transfer to pipelines and vice versa.
        """
        return {
            route: cost
            * (
                self.gpu_calibration
                if route.endswith("-gpu")
                else self.cpu_calibration
            )
            for route, cost in raw.items()
        }

    def choose_pipeline_route(self, raw: dict[str, float]) -> str:
        """The cheapest calibrated route of *raw* (recorded in decisions)."""
        predictions = self.predict_pipeline(raw)
        route = min(PIPELINE_ROUTES, key=lambda name: predictions[name])
        self.decisions.append(route)
        return route

    def observe(self, device: str, raw_predicted: float, observed: float) -> None:
        """Fold one (raw prediction, observation) pair into the calibration.

        *raw_predicted* must be the uncalibrated model output; the
        calibration factor is an exponential moving average of
        ``observed / raw_predicted``, so it converges to the model's
        systematic error ratio.
        """
        if raw_predicted <= 0:
            raise EngineError("HyPE cannot learn from a non-positive prediction")
        ratio = observed / raw_predicted
        if device == "cpu":
            self.cpu_calibration += self.smoothing * (ratio - self.cpu_calibration)
        elif device == "gpu":
            self.gpu_calibration += self.smoothing * (ratio - self.gpu_calibration)
        else:
            raise EngineError(f"unknown device {device!r}")


@dataclass(frozen=True)
class PlacementReport:
    """Outcome of one all-or-nothing column placement attempt."""

    attribute: str
    placed: bool
    reason: str


class CoGaDBEngine(StorageEngine):
    """Thin host columns, device replicas, HyPE-routed operators."""

    name = "CoGaDB"
    year = 2016

    def __init__(self, platform) -> None:
        super().__init__(platform)
        self.scheduler = HypeScheduler(platform)
        #: Stops routing to a persistently-failing device: after 3
        #: consecutive GPU-path failures the next 8 GPU choices degrade
        #: straight to the host without paying the failed attempt.
        self.gpu_breaker = CircuitBreaker(failure_threshold=3, cooldown_calls=8)

    def _device_chain(self, device_operation, host_operation) -> FallbackChain:
        """The engine's degradation ladder: GPU, then the host columns.

        This is Bress et al.'s robustness fallback expressed as shared
        machinery — transfer faults, device faults and capacity
        exhaustion all take the same path, and injected faults are
        attributed in the platform injector's resilience report.
        """
        injector = self.platform.injector
        return FallbackChain(
            [
                FallbackStep("gpu", device_operation, breaker=self.gpu_breaker),
                FallbackStep("cpu", host_operation),
            ],
            catch=TRANSIENT_DEVICE_ERRORS,
            report=injector.report if injector is not None else None,
        )

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            fragmentation_choice=FragmentationChoice.VERTICAL,
            constrained_order=None,
            fat_formats=frozenset(),
            per_fragment_choice=False,
            multi_layout=MultiLayoutSupport.BUILT_IN,
            workload=WorkloadSupport.OLAP,
            host_execution=True,
            device_execution=True,
        )

    # ------------------------------------------------------------------
    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        host_fragments = []
        for region in one_region_per_attribute(relation):
            fragment = Fragment(
                region,
                relation.schema,
                None,
                self.platform.host_memory,
                label=f"cogadb:{relation.name}:{region.attributes[0]}@host",
                materialize=columns is not None,
            )
            fill_fragment(fragment, columns)
            host_fragments.append(fragment)
        return [Layout(f"{relation.name}/host-columns", relation, host_fragments)]

    # ------------------------------------------------------------------
    # All-or-nothing device placement (replication-based)
    # ------------------------------------------------------------------
    def place_columns(
        self, name: str, attributes: tuple[str, ...], ctx: ExecutionContext
    ) -> list[PlacementReport]:
        """Try to replicate whole columns into device memory.

        Each column either fits entirely — its replica is staged and
        pinned in the staging cache beside the host copy — or the
        fallback leaves it in host memory.
        """
        layout = self.managed(name).primary_layout
        staging = self.platform.staging
        reports = []
        for attribute in attributes:
            fragment = next(
                (f for f in layout.fragments if f.region.attributes == (attribute,)),
                None,
            )
            if fragment is None:
                raise EngineError(f"{self.name}: no column {attribute!r} in {name!r}")
            if staging.cache.is_pinned(fragment, attribute):
                reports.append(PlacementReport(attribute, False, "already placed"))
            elif staging.pin(fragment, attribute, ctx):
                reports.append(PlacementReport(attribute, True, "placed on device"))
            else:
                reports.append(
                    PlacementReport(
                        attribute,
                        False,
                        f"fallback: column of "
                        f"{staging.payload_bytes(fragment, attribute)} B does not "
                        f"fit free device memory "
                        f"({self.platform.device_memory.available} B)",
                    )
                )
        return reports

    # ------------------------------------------------------------------
    # HyPE-routed aggregation
    # ------------------------------------------------------------------
    def sum(self, name: str, attribute: str, ctx: ExecutionContext) -> float:
        managed = self.managed(name)
        self.record_access(name, AccessKind.READ, (attribute,), managed.relation.row_count)
        if managed.relation.row_count == 0:
            return 0.0
        layout = managed.primary_layout
        fragment = layout.fragments_for_attribute(attribute)[0]
        width = fragment.schema.attribute(attribute).width
        count = managed.relation.row_count
        before = ctx.counters.cycles
        cpu_prediction, gpu_prediction = self.scheduler.raw_predict_sum(
            count, width, fragment, attribute
        )
        choice = self.scheduler.choose_sum_device((cpu_prediction, gpu_prediction))
        # The span annotates HyPE's decision inputs and outcome; the
        # routed operator's own span nests underneath it.
        with ctx.span(
            f"cogadb-sum({attribute})",
            "operator",
            hype_choice=choice,
            cpu_predicted=cpu_prediction,
            gpu_predicted=gpu_prediction,
        ) as span:
            if choice == "gpu":
                chain = self._device_chain(
                    lambda: device_sum_column(layout, attribute, ctx),
                    lambda: sum_column(layout, attribute, ctx),
                )
                result, served_by = chain.run(ctx)
                if span is not None:
                    span.attrs["served_by"] = served_by
                if served_by == "gpu":
                    self.scheduler.observe(
                        "gpu", gpu_prediction, ctx.counters.cycles - before
                    )
                else:
                    # Robustness fallback (Bress et al. 2016): the device
                    # path failed or was circuit-broken.  Record the
                    # fallback as its own decision event — never rewrite
                    # history — so HyPE trains on what was actually
                    # attempted, and learn the host episode.
                    self.scheduler.decisions.append("cpu-fallback")
                    self.scheduler.observe(
                        "cpu", cpu_prediction, ctx.counters.cycles - before
                    )
            else:
                result = sum_column(layout, attribute, ctx)
                if span is not None:
                    span.attrs["served_by"] = "cpu"
                self.scheduler.observe(
                    "cpu", cpu_prediction, ctx.counters.cycles - before
                )
        return result

    def run_pipeline(
        self,
        name: str,
        pipeline: "Pipeline | FusedPipeline",
        ctx: ExecutionContext,
        selectivity: float | None = None,
    ) -> float:
        """Compile and HyPE-route a scan→filter→project→aggregate chain.

        The scheduler ranks the four placements of
        :data:`~repro.fusion.costs.PIPELINE_ROUTES` with calibrated
        fused-operator features and runs the winner; device routes
        degrade through the engine's fallback chain to their host
        counterpart (fused-gpu falls back to fused execution on the
        host columns), and HyPE learns from whichever placement
        actually served — fallbacks train the host factor, never
        rewrite the decision log.
        """
        plan = compile_pipeline(pipeline)
        managed = self.managed(name)
        self.record_access(
            name, AccessKind.READ, plan.attributes, managed.relation.row_count
        )
        if managed.relation.row_count == 0:
            return plan.identity
        layout = managed.primary_layout
        before = ctx.counters.cycles
        # Priced once: the route and HyPE's observation both derive from it.
        raw = self.scheduler.raw_predict_pipeline(plan, layout, selectivity)
        route = self.scheduler.choose_pipeline_route(raw)
        with ctx.span(
            f"cogadb-pipeline({plan.describe()})",
            "operator",
            hype_route=route,
        ) as span:
            if route.endswith("-gpu"):
                fused = route == "fused-gpu"
                device_run = run_fused_device if fused else run_unfused_device
                host_run = run_fused_host if fused else run_unfused_host
                chain = self._device_chain(
                    lambda: device_run(plan, layout, ctx),
                    lambda: host_run(plan, layout, ctx),
                )
                result, served_by = chain.run(ctx)
                if span is not None:
                    span.attrs["served_by"] = served_by
                if served_by == "gpu":
                    self.scheduler.observe(
                        "gpu", raw[route], ctx.counters.cycles - before
                    )
                else:
                    self.scheduler.decisions.append("cpu-fallback")
                    self.scheduler.observe(
                        "cpu",
                        raw[route.replace("-gpu", "-cpu")],
                        ctx.counters.cycles - before,
                    )
            else:
                runner = run_fused_host if route == "fused-cpu" else run_unfused_host
                result = runner(plan, layout, ctx)
                if span is not None:
                    span.attrs["served_by"] = "cpu"
                self.scheduler.observe(
                    "cpu", raw[route], ctx.counters.cycles - before
                )
        return result
