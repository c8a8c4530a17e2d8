"""The pipeline compiler: :class:`Pipeline` specs → :class:`FusedPipeline` plans.

``compile_pipeline`` validates a declarative spec against the fusable
grammar once, up front, and freezes it into a :class:`FusedPipeline` —
an immutable plan that knows its referenced attributes.  The four
executors take the plan as their first argument:

* :func:`~repro.fusion.host.run_fused_host` — ONE layout traversal, no
  intermediate position list;
* :func:`~repro.fusion.device.run_fused_device` — ONE fused kernel
  launch, operands staged in one burst;
* :func:`~repro.fusion.oracle.run_unfused_host` /
  :func:`~repro.fusion.oracle.run_unfused_device` — the materializing
  operator chains, kept as the always-on byte-identical correctness
  oracle.

Anything outside the grammar raises
:class:`~repro.errors.UnsupportedPipelineError` here, never at run
time, so the fused path and the oracle always agree on plan meaning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedPipelineError
from repro.execution.operators import (
    ADD_CYCLES_PER_VALUE,
    PREDICATE_CYCLES_PER_VALUE,
    aggregate_reducer,
)
from repro.fusion.pipeline import FilterStage, Pipeline, ProjectStage

__all__ = ["FusedPipeline", "compile_pipeline"]


@dataclass(frozen=True)
class FusedPipeline:
    """A compiled, immutable scan→filter→project→aggregate plan."""

    scan_attribute: str
    filter: FilterStage | None
    projects: tuple[ProjectStage, ...]
    op: str
    aggregate_attribute: str

    @property
    def attributes(self) -> tuple[str, ...]:
        """Distinct referenced attributes, scan column first.

        This is the fused operand set: each is traversed exactly once
        on the host and staged exactly once (in one burst) on the
        device, no matter how many stages touch it.  Without a filter
        the scan column is never read (nothing tests it), so only the
        aggregated column is an operand.
        """
        if self.filter is None or self.aggregate_attribute == self.scan_attribute:
            return (self.aggregate_attribute,)
        return (self.scan_attribute, self.aggregate_attribute)

    @property
    def stages(self) -> tuple[FilterStage | ProjectStage, ...]:
        """The filter (when there is one) and the projections, in order.

        These are the functions the plan closes over, so a remembered
        answer or pricing of the plan is anchored on them by identity.
        """
        return self.projects if self.filter is None else (self.filter, *self.projects)

    @property
    def identity(self) -> float | int | None:
        """The aggregate's empty-input answer (the zero-size contract)."""
        return aggregate_reducer(self.op)[1]

    @property
    def ops_per_element(self) -> float:
        """Fused ALU work per scanned element, for the device roofline."""
        ops = ADD_CYCLES_PER_VALUE
        if self.filter is not None:
            ops += PREDICATE_CYCLES_PER_VALUE
        ops += sum(project.cycles_per_value for project in self.projects)
        return ops

    def describe(self) -> str:
        """Compact plan signature for spans, charges and reports."""
        parts = [f"scan({self.scan_attribute})"]
        if self.filter is not None:
            parts.append("filter")
        for project in self.projects:
            parts.append(project.name)
        parts.append(f"{self.op}({self.aggregate_attribute})")
        return "|".join(parts)


def compile_pipeline(pipeline: Pipeline | FusedPipeline) -> FusedPipeline:
    """Validate *pipeline* and freeze it into a :class:`FusedPipeline`.

    Idempotent on already-compiled plans.  Raises
    :class:`~repro.errors.UnsupportedPipelineError` for shapes outside
    the fusable grammar and :class:`~repro.errors.ExecutionError` for
    unknown aggregate names (the same error the unfused
    ``aggregate_column`` raises, so both planes reject identically).
    """
    if isinstance(pipeline, FusedPipeline):
        return pipeline
    if pipeline.aggregate_stage is None:
        raise UnsupportedPipelineError(
            "pipeline must terminate in an aggregate stage"
        )
    op = pipeline.aggregate_stage.op
    aggregate_reducer(op)  # rejects unknown ops like the oracle does
    aggregate_attribute = (
        pipeline.aggregate_stage.attribute or pipeline.scan_attribute
    )
    if pipeline.projects and pipeline.filter_stage is None:
        # The builder already forbids this, but specs can be hand-built.
        raise UnsupportedPipelineError(
            "projection without a preceding filter is a plain map chain"
        )
    return FusedPipeline(
        scan_attribute=pipeline.scan_attribute,
        filter=pipeline.filter_stage,
        projects=tuple(pipeline.projects),
        op=op,
        aggregate_attribute=aggregate_attribute,
    )
