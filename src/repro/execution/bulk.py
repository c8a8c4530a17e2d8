"""Bulk (vector-at-a-time) processing with late materialization.

Section II-A: "DSM combined with a Bulk-style processing model is a
good match for analytic processing in main-memory databases due to
improved CPU data cache efficiency."  A bulk pipeline moves vectors of
``vector_size`` positions/values between stages, so the per-call
interface overhead is paid once per *vector* instead of once per tuple
— the structural advantage over Volcano that the processing-model
ablation benchmark quantifies.

Since the fusion layer landed there is exactly **one** vector-at-a-time
code path in the tree: :func:`repro.fusion.host.vector_pass`.  The
classes and helpers here are thin declarative wrappers over it — same
charge sequence, same labels, same outputs as the historical
implementation (the processing-model tests pin that byte-for-byte).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.execution.operators import ADD_CYCLES_PER_VALUE
from repro.fusion.host import DEFAULT_VECTOR_SIZE, vector_pass
from repro.layout.layout import Layout

__all__ = ["BulkPipeline", "bulk_sum", "DEFAULT_VECTOR_SIZE"]


class BulkPipeline:
    """A chain of vectorized stages over one attribute of a layout.

    Stages are numpy functions ``array -> array``; the pipeline charges
    the scan's data-access cost, each stage's per-value compute, and one
    interface-call overhead per (stage, vector) pair.  Execution
    delegates to the shared fused vector core
    (:func:`repro.fusion.host.vector_pass`).
    """

    def __init__(
        self,
        layout: Layout,
        attribute: str,
        vector_size: int = DEFAULT_VECTOR_SIZE,
    ) -> None:
        if vector_size < 1:
            raise ExecutionError(f"vector_size must be >= 1, got {vector_size}")
        self.layout = layout
        self.attribute = attribute
        self.vector_size = vector_size
        self._stages: list[tuple[str, Callable[[np.ndarray], np.ndarray], float]] = []

    def map(
        self,
        stage: Callable[[np.ndarray], np.ndarray],
        name: str = "map",
        cycles_per_value: float = 1.0,
    ) -> "BulkPipeline":
        """Append a vectorized stage (returns self for chaining)."""
        self._stages.append((name, stage, cycles_per_value))
        return self

    def collect(self, ctx: ExecutionContext) -> np.ndarray:
        """Run the pipeline and concatenate all output vectors."""
        return vector_pass(
            self.layout, self.attribute, self._stages, ctx, self.vector_size
        )


def bulk_sum(layout: Layout, attribute: str, ctx: ExecutionContext,
             vector_size: int = DEFAULT_VECTOR_SIZE) -> float:
    """Vectorized full-column sum (Q2 under the bulk model)."""
    pipeline = BulkPipeline(layout, attribute, vector_size)
    values = pipeline.collect(ctx)
    count = len(values)
    ctx.counters.cycles += math.ceil(count / max(vector_size, 1)) * ADD_CYCLES_PER_VALUE
    return float(np.sum(values)) if count else 0.0
