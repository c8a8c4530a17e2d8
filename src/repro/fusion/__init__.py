"""repro.fusion: the pipeline compiler for fused analytic data paths.

Declarative scan→filter→project→aggregate chains
(:class:`~repro.fusion.pipeline.Pipeline`) compile into
:class:`~repro.fusion.compiler.FusedPipeline` plans executing as

* one vectorized numpy pass on the host (no intermediate position
  list, no random point accesses), or
* one fused kernel launch on the device (operands staged in a single
  coalesced burst, no intermediate device buffers),

with the pre-fusion operator chain kept as the always-on,
byte-identical correctness oracle (:mod:`repro.fusion.oracle`) and the
pure route predictors (:mod:`repro.fusion.costs`) feeding CoGaDB's
HyPE scheduler.  ``python -m repro.verify fusion`` gates the ≥3x
end-to-end win and the byte-identity contract into
``BENCH_fusion.json``.
"""

from repro.errors import FusionError, UnsupportedPipelineError
from repro.fusion.compiler import FusedPipeline, compile_pipeline
from repro.fusion.costs import PIPELINE_ROUTES, predicted_route_costs
from repro.fusion.device import run_fused_device
from repro.fusion.host import DEFAULT_VECTOR_SIZE, run_fused_host, vector_pass
from repro.fusion.oracle import (
    aggregate_at_positions,
    run_unfused_device,
    run_unfused_host,
)
from repro.fusion.pipeline import (
    AggregateStage,
    FilterStage,
    Pipeline,
    ProjectStage,
)

__all__ = [
    "Pipeline",
    "FilterStage",
    "ProjectStage",
    "AggregateStage",
    "FusedPipeline",
    "compile_pipeline",
    "FusionError",
    "UnsupportedPipelineError",
    "run_fused_host",
    "run_fused_device",
    "run_unfused_host",
    "run_unfused_device",
    "aggregate_at_positions",
    "vector_pass",
    "DEFAULT_VECTOR_SIZE",
    "PIPELINE_ROUTES",
    "predicted_route_costs",
]
