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

Mechanisms here: the host layout (one thin column per attribute), a
second *mixed* layout whose placed columns are device replicas (built
by :meth:`place_columns`, all-or-nothing per column), and
:class:`HypeScheduler`, which predicts CPU and GPU cost per operator
from the platform's analytic models, corrects each prediction with a
learned per-device calibration factor, and routes to the cheaper
device.
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
from repro.execution.device import (
    device_count_where,
    device_sum_column,
    ensure_resident,
    is_device_resident,
)
from repro.faults.policy import (
    TRANSIENT_DEVICE_ERRORS,
    CircuitBreaker,
    FallbackChain,
    FallbackStep,
)
from repro.execution.operators import materialize_rows, sum_at_positions, sum_column
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

__all__ = ["HypeScheduler", "CoGaDBEngine", "PlacementReport"]


@dataclass
class HypeScheduler:
    """A learning cost-based device scheduler (the HyPE mechanism).

    Predictions come from the platform's analytic models; each device
    keeps an exponentially-smoothed calibration factor
    (observed / predicted) so systematic model error is learned away —
    the "learns cost models" half of HyPE, with the analytic model as
    the feature extractor.
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
        on_device: bool,
        fragment: Fragment | None = None,
        attribute: str | None = None,
    ) -> tuple[float, float]:
        """Uncalibrated (cpu_cycles, gpu_cycles) model predictions.

        When the column's *fragment* and *attribute* are given, the
        transfer term is cache-aware: a column with a fresh replica in
        the staging cache (``platform.staging``) is predicted to pay
        only the patch of its pending writes, none when it is clean —
        the device looks exactly as cheap as it will actually be on the
        warm path.  Predictions stay side-effect-free (no cache stats,
        no fault draws).
        """
        cpu = self.platform.memory_model.sequential(count * width) + count
        gpu = self.platform.gpu.reduction_cost(count, width)
        if not on_device:
            gpu += self.platform.staging.predicted_transfer_cost(
                count * width, fragment, attribute
            )
        return cpu, gpu

    def predict_sum(
        self,
        count: int,
        width: int,
        on_device: bool,
        fragment: Fragment | None = None,
        attribute: str | None = None,
    ) -> tuple[float, float]:
        """Calibrated (cpu_cycles, gpu_cycles) predictions for a column sum."""
        cpu, gpu = self.raw_predict_sum(count, width, on_device, fragment, attribute)
        return cpu * self.cpu_calibration, gpu * self.gpu_calibration

    def choose_sum_device(
        self,
        count: int,
        width: int,
        on_device: bool,
        fragment: Fragment | None = None,
        attribute: str | None = None,
    ) -> str:
        """'cpu' or 'gpu', whichever the calibrated prediction favors."""
        cpu, gpu = self.predict_sum(count, width, on_device, fragment, attribute)
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

        Delegates to :func:`repro.fusion.costs.predicted_route_costs`,
        so the features HyPE learns from are the same expressions the
        fused and unfused executors charge — cache-aware transfer
        terms included.
        """
        return predicted_route_costs(plan, layout, self.platform, selectivity)

    def predict_pipeline(
        self,
        plan: FusedPipeline,
        layout: Layout,
        selectivity: float | None = None,
    ) -> dict[str, float]:
        """Calibrated predictions: each route scaled by its device's factor.

        A route's calibration is decided by its placement suffix — the
        ``*-cpu`` routes share the host factor, the ``*-gpu`` routes the
        device factor — so observations from the scalar operators
        (:meth:`observe`) transfer to pipelines and vice versa.
        """
        raw = self.raw_predict_pipeline(plan, layout, selectivity)
        return {
            route: cost
            * (
                self.gpu_calibration
                if route.endswith("-gpu")
                else self.cpu_calibration
            )
            for route, cost in raw.items()
        }

    def choose_pipeline_route(
        self,
        plan: FusedPipeline,
        layout: Layout,
        selectivity: float | None = None,
    ) -> str:
        """The cheapest calibrated route for *plan* (recorded in decisions)."""
        predictions = self.predict_pipeline(plan, layout, selectivity)
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
        host_layout = Layout(f"{relation.name}/host-columns", relation, host_fragments)
        # The mixed layout starts as a second view of the host columns;
        # place_columns swaps device replicas in, column by column.
        mixed_layout = Layout(
            f"{relation.name}/mixed-columns",
            relation,
            list(host_fragments),
            allow_overlap=True,
        )
        return [mixed_layout, host_layout]

    # ------------------------------------------------------------------
    # All-or-nothing device placement (replication-based)
    # ------------------------------------------------------------------
    def place_columns(
        self, name: str, attributes: tuple[str, ...], ctx: ExecutionContext
    ) -> list[PlacementReport]:
        """Try to replicate whole columns into device memory.

        Each column either fits entirely (a device replica is created
        and routed ahead of the host copy in the mixed layout) or the
        fallback leaves it in host memory.
        """
        managed = self.managed(name)
        mixed = managed.primary_layout
        device = self.platform.device_memory
        reports = []
        for attribute in attributes:
            host_fragment = None
            for fragment in mixed.fragments:
                if fragment.region.attributes == (attribute,):
                    host_fragment = fragment
                    break
            if host_fragment is None:
                raise EngineError(f"{self.name}: no column {attribute!r} in {name!r}")
            if is_device_resident(host_fragment):
                reports.append(PlacementReport(attribute, False, "already placed"))
                continue
            if not device.fits(host_fragment.nbytes):
                reports.append(
                    PlacementReport(
                        attribute,
                        False,
                        f"fallback: column of {host_fragment.nbytes} B does not "
                        f"fit free device memory ({device.available} B)",
                    )
                )
                continue
            replica = ensure_resident(
                host_fragment, device, ctx, f"cogadb:{name}:{attribute}@device"
            )
            mixed.replace_fragments(
                [replica]
                + [f for f in mixed.fragments if f is not host_fragment]
                + [host_fragment]
            )
            reports.append(PlacementReport(attribute, True, "placed on device"))
        return reports

    # ------------------------------------------------------------------
    # HyPE-routed aggregation
    # ------------------------------------------------------------------
    def sum(self, name: str, attribute: str, ctx: ExecutionContext) -> float:
        managed = self.managed(name)
        self.record_access(name, AccessKind.READ, (attribute,), managed.relation.row_count)
        if managed.relation.row_count == 0:
            return 0.0
        mixed = managed.primary_layout
        fragment = mixed.fragments_for_attribute(attribute)[0]
        on_device = is_device_resident(fragment)
        width = fragment.schema.attribute(attribute).width
        count = managed.relation.row_count
        before = ctx.counters.cycles
        cpu_prediction, gpu_prediction = self.scheduler.raw_predict_sum(
            count, width, on_device, fragment, attribute
        )
        choice = self.scheduler.choose_sum_device(
            count, width, on_device, fragment, attribute
        )
        host_layout = managed.layouts[1]
        # The span annotates HyPE's decision inputs and outcome; the
        # routed operator's own span nests underneath it.
        with ctx.span(
            f"cogadb-sum({attribute})",
            "operator",
            hype_choice=choice,
            cpu_predicted=cpu_prediction,
            gpu_predicted=gpu_prediction,
            on_device=on_device,
        ) as span:
            if choice == "gpu":
                # A single-fragment view: the mixed layout holds both the
                # device replica and the host fallback for placed columns,
                # and summing both would double-count.
                view = Layout(
                    f"{name}/gpu-view", managed.relation, [fragment],
                    allow_overlap=True, validate=False,
                )
                chain = self._device_chain(
                    lambda: device_sum_column(view, attribute, ctx),
                    lambda: sum_column(host_layout, attribute, ctx),
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
                result = sum_column(host_layout, attribute, ctx)
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
        mixed = managed.primary_layout
        host_layout = managed.layouts[1]
        # One fragment per operand attribute: the mixed layout keeps the
        # device replica routed ahead of its host fallback, and a fused
        # kernel reading both copies would double-count.
        view_fragments = [
            mixed.fragments_for_attribute(attribute)[0]
            for attribute in plan.attributes
        ]
        gpu_view = Layout(
            f"{name}/gpu-view", managed.relation, view_fragments,
            allow_overlap=True, validate=False,
        )
        on_device = all(is_device_resident(f) for f in view_fragments)
        before = ctx.counters.cycles
        raw = self.scheduler.raw_predict_pipeline(plan, gpu_view, selectivity)
        route = self.scheduler.choose_pipeline_route(plan, gpu_view, selectivity)
        with ctx.span(
            f"cogadb-pipeline({plan.describe()})",
            "operator",
            hype_route=route,
            on_device=on_device,
        ) as span:
            if route.endswith("-gpu"):
                fused = route == "fused-gpu"
                device_run = run_fused_device if fused else run_unfused_device
                host_run = run_fused_host if fused else run_unfused_host
                chain = self._device_chain(
                    lambda: device_run(plan, gpu_view, ctx),
                    lambda: host_run(plan, host_layout, ctx),
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
                result = runner(plan, host_layout, ctx)
                if span is not None:
                    span.attrs["served_by"] = "cpu"
                self.scheduler.observe(
                    "cpu", raw[route], ctx.counters.cycles - before
                )
        return result

    def count_where(self, name, attribute, predicate, ctx) -> int:
        """Selection + count, HyPE-routed like :meth:`sum`.

        *predicate* is a vectorized numpy function; on the GPU path the
        selection and the count fuse into one streamed kernel.
        """
        managed = self.managed(name)
        self.record_access(
            name, AccessKind.READ, (attribute,), managed.relation.row_count
        )
        if managed.relation.row_count == 0:
            return 0
        mixed = managed.primary_layout
        fragment = mixed.fragments_for_attribute(attribute)[0]
        on_device = is_device_resident(fragment)
        width = fragment.schema.attribute(attribute).width
        count = managed.relation.row_count
        choice = self.scheduler.choose_sum_device(
            count, width, on_device, fragment, attribute
        )
        from repro.execution.bulk import bulk_count_where

        host_layout = managed.layouts[1]
        with ctx.span(
            f"cogadb-count-where({attribute})",
            "operator",
            hype_choice=choice,
            on_device=on_device,
        ) as span:
            if choice == "gpu":
                view = Layout(
                    f"{name}/gpu-view", managed.relation, [fragment],
                    allow_overlap=True, validate=False,
                )
                chain = self._device_chain(
                    lambda: device_count_where(view, attribute, predicate, ctx),
                    lambda: bulk_count_where(
                        host_layout, attribute, predicate, ctx
                    ),
                )
                result, served_by = chain.run(ctx)
                if span is not None:
                    span.attrs["served_by"] = served_by
                if served_by != "gpu":
                    self.scheduler.decisions.append("cpu-fallback")
                return result
            if span is not None:
                span.attrs["served_by"] = "cpu"
            return bulk_count_where(host_layout, attribute, predicate, ctx)

    # ------------------------------------------------------------------
    # Record-centric paths stay on the host copy (the mixed layout's
    # device replicas would otherwise be priced as host accesses).
    # ------------------------------------------------------------------
    def materialize(self, name, positions, ctx):
        managed = self.managed(name)
        self.record_access(
            name, AccessKind.READ, managed.relation.schema.names, len(positions)
        )
        return materialize_rows(managed.layouts[1], positions, ctx)

    def sum_at(self, name, attribute, positions, ctx):
        managed = self.managed(name)
        self.record_access(name, AccessKind.READ, (attribute,), len(positions))
        return sum_at_positions(managed.layouts[1], attribute, positions, ctx)
