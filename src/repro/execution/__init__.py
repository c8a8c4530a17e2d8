"""Execution engine: operators, processing models, threading, device."""

from repro.execution.access import AccessDescriptor, AccessKind
from repro.execution.bulk import BulkPipeline, bulk_sum
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column, is_device_resident, run_device_batch
from repro.execution.index import HashIndex, SecondaryIndex, point_query
from repro.execution.operators import (
    aggregate_column,
    filter_scan,
    materialize_rows,
    sum_at_positions,
    sum_column,
    update_field,
)
from repro.execution.threading import (
    MULTI_THREADED_8,
    SINGLE_THREADED,
    ThreadingPolicy,
    blockwise_partition,
)
from repro.execution.volcano import (
    VolcanoOperator,
    VolcanoScan,
    VolcanoSelect,
    VolcanoSum,
    run_volcano,
)

__all__ = [
    "ExecutionContext",
    "ThreadingPolicy",
    "SINGLE_THREADED",
    "MULTI_THREADED_8",
    "blockwise_partition",
    "AccessKind",
    "AccessDescriptor",
    "sum_column",
    "aggregate_column",
    "sum_at_positions",
    "materialize_rows",
    "filter_scan",
    "update_field",
    "device_sum_column",
    "is_device_resident",
    "run_device_batch",
    "HashIndex",
    "SecondaryIndex",
    "point_query",
    "BulkPipeline",
    "bulk_sum",
    "VolcanoOperator",
    "VolcanoScan",
    "VolcanoSelect",
    "VolcanoSum",
    "run_volcano",
]
