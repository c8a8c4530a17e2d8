"""Durability and crash recovery for the simulated storage engines.

PR 1 gave the platform the ability to *inject* crashes; this package
gives the engines the ability to *survive* them.  Four pieces, all
cycle-charged and deterministic:

* :mod:`repro.recovery.wal` — a write-ahead log with LSNs, group
  commit (fsync batching priced by the disk model), torn-write
  semantics, and a volatile tail that dies with the process;
* :mod:`repro.recovery.checkpoint` — fuzzy checkpoints of a relation's
  logical image plus MVCC snapshot metadata, bracketed by log markers
  so an incomplete checkpoint is silently ignored;
* :mod:`repro.recovery.manager` — ARIES-lite restart (analysis, redo
  by repeating history, undo of losers by before-image), ending in the
  engine's ``on_recovered`` hook and a staging-cache invalidation;
* :mod:`repro.recovery.replicated` — a WAL replicator shipping flushed
  segments into the :class:`~repro.distributed.dfs.BlockStore` for
  ES²-style engines;
* :mod:`repro.recovery.verifier` — the crash/recover harness: seeded
  HTAP workload, injector-chosen crash, recovery, committed-prefix
  oracle comparison, resilience accounting.  ``python -m repro.verify
  recovery`` runs it across the CI seed/site matrix.

See ``docs/RECOVERY.md`` for the log format, the checkpoint protocol
and the recovery invariants.
"""

from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.manager import RecoveryManager, RecoveryResult
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.verifier import (
    CRASH_SITES,
    CrashRecoveryResult,
    run_crash_recover,
    run_durable_stream,
    state_digest,
)
from repro.recovery.wal import LogRecord, LogRecordKind, WriteAheadLog

__all__ = [
    "LogRecord",
    "LogRecordKind",
    "WriteAheadLog",
    "Checkpoint",
    "CheckpointStore",
    "RecoveryManager",
    "RecoveryResult",
    "ReplicatedLog",
    "CRASH_SITES",
    "CrashRecoveryResult",
    "run_durable_stream",
    "run_crash_recover",
    "state_digest",
]
