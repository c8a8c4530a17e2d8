"""Declarative scan→filter→project→aggregate pipeline specifications.

A :class:`Pipeline` describes a one-pass analytic chain over a layout:

* **scan** one attribute (the predicate column),
* optionally **filter** it with a vectorized predicate,
* optionally **project** the aggregated values through elementwise
  numpy functions (each with an ALU cost per value),
* **aggregate** with a named reducer (``sum | min | max | mean |
  count``), by default over the scanned attribute, optionally over a
  second attribute (the attribute-centric "filter on A, aggregate B"
  shape of Figure 2's Q2 family).

The builder only records *what* to compute; the fusion compiler
(:func:`repro.fusion.compile_pipeline`) decides *how* — one fused
traversal/kernel, or the unfused operator chain used as the
correctness oracle.  Validation happens at build/compile time so a
plan never fails halfway between operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import FusionError, UnsupportedPipelineError

__all__ = [
    "Pipeline",
    "FilterStage",
    "ProjectStage",
    "AggregateStage",
]


@dataclass(frozen=True)
class FilterStage:
    """A vectorized predicate over the scanned attribute.

    ``predicate`` must be a pure function of its input array: a device
    replica reuses a fused answer for as long as this stage object and
    the operand contents are unchanged, so a predicate that reads
    mutable state would see its later changes ignored on that route.

    ``selectivity_hint`` is the planner's estimate of the match
    fraction — HyPE's pipeline cost features use it; the executors
    never do (they see the true matches).
    """

    predicate: Callable[[np.ndarray], np.ndarray]
    selectivity_hint: float = 0.5

    def __post_init__(self) -> None:
        if not callable(self.predicate):
            raise FusionError("filter predicate must be callable")
        if not 0.0 <= self.selectivity_hint <= 1.0:
            raise FusionError(
                f"selectivity_hint must be in [0, 1], got {self.selectivity_hint}"
            )


@dataclass(frozen=True)
class ProjectStage:
    """An elementwise map over the aggregated values.

    ``fn`` must be a pure function of its input array, as
    :class:`FilterStage` explains.

    ``cycles_per_value`` is the host ALU charge per projected value
    (and the per-element op count the device roofline sees).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    cycles_per_value: float = 1.0
    name: str = "project"

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise FusionError("projection must be callable")
        if self.cycles_per_value < 0:
            raise FusionError(
                f"cycles_per_value must be >= 0, got {self.cycles_per_value}"
            )


@dataclass(frozen=True)
class AggregateStage:
    """The terminal reducer; ``attribute`` None means the scanned one."""

    op: str
    attribute: str | None = None


class Pipeline:
    """Chainable builder for one scan→filter→project→aggregate spec.

    ::

        plan = compile_pipeline(
            Pipeline.scan("i_im_id")
            .filter(lambda v: v < 500, selectivity_hint=0.05)
            .aggregate("sum", on="i_price")
        )

    The builder enforces the fusable grammar eagerly: at most one
    filter, projections only after a filter (a filterless map chain is
    :class:`~repro.execution.bulk.BulkPipeline` territory — it has no
    intermediate position list to fuse away), and nothing after the
    terminal aggregate.
    """

    def __init__(self, scan_attribute: str) -> None:
        if not scan_attribute:
            raise FusionError("pipeline needs a scan attribute")
        self.scan_attribute = scan_attribute
        self.filter_stage: FilterStage | None = None
        self.projects: tuple[ProjectStage, ...] = ()
        self.aggregate_stage: AggregateStage | None = None

    @classmethod
    def scan(cls, attribute: str) -> "Pipeline":
        """Start a pipeline scanning *attribute*."""
        return cls(attribute)

    def _check_open(self, stage: str) -> None:
        if self.aggregate_stage is not None:
            raise UnsupportedPipelineError(
                f"cannot add {stage} after the terminal aggregate"
            )

    def filter(
        self,
        predicate: Callable[[np.ndarray], np.ndarray],
        selectivity_hint: float = 0.5,
    ) -> "Pipeline":
        """Keep rows whose scanned value satisfies *predicate*.

        *predicate* must be pure (see :class:`FilterStage`): build a new
        pipeline to change it, never mutate what it reads.
        """
        self._check_open("a filter")
        if self.filter_stage is not None:
            raise UnsupportedPipelineError(
                "one filter per pipeline; compose predicates into one "
                "vectorized function instead"
            )
        if self.projects:
            raise UnsupportedPipelineError("filter must precede projections")
        self.filter_stage = FilterStage(predicate, selectivity_hint)
        return self

    def project(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        cycles_per_value: float = 1.0,
        name: str = "project",
    ) -> "Pipeline":
        """Map the aggregated values elementwise through *fn*.

        *fn* must be pure (see :class:`FilterStage`).
        """
        self._check_open("a projection")
        if self.filter_stage is None:
            raise UnsupportedPipelineError(
                "projection without a preceding filter is a plain map chain; "
                "use repro.execution.bulk.BulkPipeline for that shape"
            )
        self.projects += (ProjectStage(fn, cycles_per_value, name),)
        return self

    def aggregate(self, op: str, on: str | None = None) -> "Pipeline":
        """Terminate with the named reducer, optionally over attribute *on*."""
        self._check_open("an aggregate")
        self.aggregate_stage = AggregateStage(op, on)
        return self
