"""repro: a storage-engine construction kit reproducing Pinnecke et al.,
"Are Databases Fit for Hybrid Workloads on GPUs? A Storage Engine's
Perspective" (ICDE 2017).

The package turns the paper's conceptual machinery into executable
code: Section III's terminology (:mod:`repro.layout`), the Figure 4
taxonomy and Table 1 survey (:mod:`repro.core`), working mini-engines
for all ten surveyed systems (:mod:`repro.engines`), the Section IV-C
reference HTAP CPU/GPU engine (:class:`repro.core.ReferenceEngine`),
and a simulated heterogeneous platform (:mod:`repro.hardware`) on which
the Figure 2 experiments are regenerated (``benchmarks/``).

Quickstart::

    from repro import Platform, ExecutionContext, ReferenceEngine
    from repro.workload import item_schema, generate_items

    platform = Platform.paper_testbed()
    engine = ReferenceEngine(platform)
    engine.create("item", item_schema())
    engine.load("item", generate_items(100_000))
    ctx = ExecutionContext(platform)
    total = engine.sum("item", "i_price", ctx)
    print(total, ctx.seconds(), "simulated seconds")
"""

from repro.core import (
    PAPER_TABLE_1,
    REFERENCE_REQUIREMENTS,
    Classification,
    ReferenceEngine,
    classify,
    run_survey,
    satisfies_all,
)
from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    DeviceError,
    EngineCrashed,
    FusionError,
    MigrationInProgress,
    NodeUnavailable,
    RebalanceAborted,
    RecoveryError,
    ReorganizationAborted,
    ReproError,
    ShardRetryExhausted,
    TransferError,
    UnsupportedPipelineError,
    WalError,
)
from repro.execution import (
    MULTI_THREADED_8,
    SINGLE_THREADED,
    ExecutionContext,
    ThreadingPolicy,
)
from repro.faults import (
    CircuitBreaker,
    FallbackChain,
    FaultInjector,
    ResilienceReport,
    RetryPolicy,
)
from repro.fusion import FusedPipeline, Pipeline, compile_pipeline
from repro.hardware import Platform
from repro.layout import Fragment, Layout, LinearizationKind, Region
from repro.model import Relation, Schema
from repro.mvcc import Snapshot, SnapshotManager
from repro.rebalance import (
    LiveMigrator,
    RebalancePlanner,
    Rebalancer,
    SkewDetector,
    run_rebalance_chaos,
)
from repro.recovery import (
    CheckpointStore,
    RecoveryManager,
    ReplicatedLog,
    WriteAheadLog,
    run_crash_recover,
)
from repro.serving import (
    AdmissionQueue,
    BatchPolicy,
    ServingLoop,
    TenantSpec,
    WorkloadGenerator,
)
from repro.sharding import (
    FailureDetector,
    Router,
    ShardedExecutor,
    ShardingScheme,
    ShardMap,
    run_chaos,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "TransferError",
    "DeviceError",
    "ReorganizationAborted",
    "EngineCrashed",
    "WalError",
    "RecoveryError",
    "NodeUnavailable",
    "ShardRetryExhausted",
    "DeadlineExceeded",
    "AdmissionRejected",
    "RebalanceAborted",
    "MigrationInProgress",
    "FusionError",
    "UnsupportedPipelineError",
    "Pipeline",
    "FusedPipeline",
    "compile_pipeline",
    "FaultInjector",
    "RetryPolicy",
    "CircuitBreaker",
    "FallbackChain",
    "ResilienceReport",
    "Platform",
    "ExecutionContext",
    "ThreadingPolicy",
    "SINGLE_THREADED",
    "MULTI_THREADED_8",
    "Schema",
    "Relation",
    "Region",
    "Fragment",
    "Layout",
    "LinearizationKind",
    "Classification",
    "classify",
    "run_survey",
    "satisfies_all",
    "PAPER_TABLE_1",
    "REFERENCE_REQUIREMENTS",
    "ReferenceEngine",
    "Snapshot",
    "SnapshotManager",
    "WriteAheadLog",
    "CheckpointStore",
    "RecoveryManager",
    "ReplicatedLog",
    "run_crash_recover",
    "ShardingScheme",
    "ShardMap",
    "Router",
    "FailureDetector",
    "ShardedExecutor",
    "run_chaos",
    "SkewDetector",
    "RebalancePlanner",
    "LiveMigrator",
    "Rebalancer",
    "run_rebalance_chaos",
    "TenantSpec",
    "WorkloadGenerator",
    "AdmissionQueue",
    "BatchPolicy",
    "ServingLoop",
]
