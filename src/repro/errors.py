"""Exception hierarchy for the ``repro`` library.

Every exception raised intentionally by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while still distinguishing the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class SchemaError(ReproError):
    """A schema definition or schema lookup is invalid.

    Raised for duplicate attribute names, unknown attributes, empty
    schemas, and type/width mismatches.
    """


class LayoutError(ReproError):
    """A layout or fragment definition violates Section III's rules.

    Examples: fragments that do not cover the relation, fragments that
    span non-gapless regions, overlapping fragments within a layout that
    forbids overlap, or a linearization requested on a fragment shape
    that does not support it.
    """


class StorageError(ReproError):
    """A storage operation failed (allocation, out-of-bounds access)."""


class CapacityError(StorageError):
    """A memory space cannot satisfy an allocation request.

    This is the error behind CoGaDB's "all or nothing" device placement
    fallback: when the device memory cannot hold a column, placement
    falls back to host memory instead of splitting the column.
    """


class EngineError(ReproError):
    """A storage engine was used outside its declared capabilities.

    Raised, for example, when asking a static engine to re-organize its
    layout, or asking a single-layout engine to add a second layout.
    """


class TransactionError(EngineError):
    """A transactional operation failed (conflict, unknown record)."""


class DelegationError(EngineError):
    """A delegation policy was violated.

    Delegation-based fragment schemes restrict which layout may serve
    which data region; accessing a region through a layout that does not
    own it (and has no delegate) is undefined behaviour in the paper's
    terms — here it is a hard error.
    """


class ExecutionError(ReproError):
    """Query execution failed (bad plan, operator misuse)."""


class TransferError(ExecutionError):
    """A host<->device transfer failed mid-flight.

    Raised by the interconnect model when a PCIe fault is injected (or,
    in a real system, on a DMA/CRC error).  The cycles of the failed
    attempt are already charged when this is raised — a broken transfer
    still burns wire time before it is detected.  Retryable: resilience
    policies (:mod:`repro.faults`) re-issue the copy or degrade to a
    host-only path.
    """


class DeviceError(ExecutionError):
    """A device-side operation failed (allocation or kernel launch).

    Covers the two device hazards the GPU-database literature calls
    out: device memory allocation failure (OOM beyond the capacity
    model's reach) and kernel launch failure.  Like
    :class:`TransferError` it is retryable and is the trigger for
    GPU -> CPU degradation chains.
    """


class FusionError(ExecutionError):
    """A fused pipeline was built or executed incorrectly.

    Raised for malformed pipeline specifications (missing terminal
    aggregate, out-of-range selectivity hints) and for fused executions
    that cannot produce a data-plane answer (a filter over phantom
    fragments has no values to test, exactly like ``filter_scan``).
    """


class UnsupportedPipelineError(FusionError):
    """A pipeline shape the fusion compiler refuses to compile.

    The compiler fuses scan→[filter]→[project…]→aggregate chains only;
    shapes outside that grammar (a second filter, a projection with no
    preceding filter, stages after the terminal aggregate) raise this
    at :func:`~repro.fusion.compile_pipeline` time — never at run time —
    so the unfused oracle and the fused path always agree on what a
    plan means.
    """


class ReorganizationAborted(ExecutionError):
    """An online layout re-organization was interrupted mid-flight.

    The re-organizer guarantees roll-back: when this escapes, the
    engine's layout is the untouched pre-reorganization layout and every
    partially-built fragment has been freed.  Callers may simply retry
    the re-organization later.
    """


class RebalanceAborted(ExecutionError):
    """An elastic shard rebalance operation was aborted and rolled back.

    The live-migration protocol guarantees the abort is clean: when this
    escapes, the shard map still serves the *pre-migration* placement at
    the pre-migration epoch, every partially-copied destination file has
    been deleted from the DFS, and a ``rebalance-abort`` marker is in
    the WAL so recovery never resumes the dead migration.  The absorbed
    fault (if the abort was injected) is already tallied as *recovered*
    in the resilience report — callers must not re-attribute it.  The
    operation may simply be re-planned and retried later.
    """


class EngineCrashed(ReproError):
    """The simulated process died: volatile state is gone.

    Unlike the retryable execution errors, a crash cannot be absorbed by
    an in-process policy — the run is over.  Durable state (the
    write-ahead log's flushed prefix, checkpoints) survives; the
    :mod:`repro.recovery` subsystem rebuilds an engine from it.  Crash
    fault sites (``wal.torn-append``, ``crash.post-commit``,
    ``crash.during-reorg``) raise this with ``injected = True``.
    """


class WalError(ReproError):
    """The write-ahead log was misused (append after crash, bad config)."""


class RecoveryError(ReproError):
    """Crash recovery could not restore a committed-prefix state.

    Raised when the durable log has no complete checkpoint to start
    from, or when replay meets a record the engine cannot apply.
    """


class WorkloadError(ReproError):
    """A workload specification is invalid."""


class ClassificationError(ReproError):
    """An engine's mechanisms could not be classified against the taxonomy."""


class DistributedError(ReproError):
    """A simulated cluster operation failed (unknown node, under-replication)."""


class NodeUnavailable(DistributedError):
    """A cluster node cannot serve: it crashed or its lease expired.

    Raised by the sharded scatter-gather executor when the node a
    sub-query was dispatched to dies mid-flight (the
    ``node.crash-mid-query`` fault site) or when the failure detector
    refuses a node whose heartbeat lease has lapsed.  Absorbable: the
    failover path re-runs the sub-query on a surviving DFS replica.
    """


class ShardRetryExhausted(DistributedError):
    """A shard sub-query failed on every surviving replica.

    The failover state machine tried the shard's primary and every
    remaining replica candidate without success — either the cluster
    lost too many nodes at once or the shard's blocks lost every
    replica (true data loss below the replication factor).  The
    ``__cause__`` chain carries the final per-node error.
    """


class MigrationInProgress(DistributedError):
    """A shard already has an in-flight live migration.

    The migration protocol is single-writer per shard: the copy /
    catch-up / cutover phases assume no concurrent rebalance touches the
    same shard's base file or serving state.  Raised by
    :meth:`~repro.sharding.placement.ShardMap.begin_migration` when a
    second operation names a shard whose first migration has neither
    committed nor aborted.  Queries are unaffected — only the competing
    migration is refused; retry after the in-flight one settles.
    """


class AdmissionRejected(ExecutionError):
    """A query was shed by admission control instead of being queued.

    The serving tier's bounded backlog refuses work it cannot serve
    within its latency budget: when the queue is full (and no
    lower-priority entry can be displaced), the newcomer is rejected
    with this error rather than letting the backlog — and therefore
    every tenant's tail latency — grow without bound.  Carries
    ``injected = True`` when raised by the ``serving.queue-overflow``
    fault site; an open-loop client treats both forms the same way:
    count the shed query and keep the arrival process running.
    """


class DeadlineExceeded(ExecutionError):
    """A retry policy's total-backoff deadline was hit before success.

    :class:`~repro.faults.RetryPolicy` raises this when the next
    backoff delay would push the cumulative backoff of one ``run()``
    past ``max_total_cycles`` — bounded-latency paths (shard failover,
    hedged dispatch) prefer surfacing over waiting forever.  Carries
    ``injected = True`` when the final absorbed error was injected, so
    chaos accounting attributes the surfaced fault correctly.
    """
