"""Device staging: a memory manager between engines and the interconnect.

The paper's Figure 2 finding (iv) is that the GPU only wins when the
column is already device-resident — every query over a host-resident
column otherwise re-pays the full PCIe transfer.  This package turns
that qualitative "keep it resident" advice into machinery:

* :class:`StagingCache` — an LRU cache of device replicas of staged
  host columns, keyed by fragment identity + version, so repeated OLAP
  queries over the same column pay the transfer once
  (:doc:`docs/STAGING.md <../../docs/STAGING>` describes the policy);
* :class:`TransferScheduler` — the single choke point for PCIe cost
  accounting: coalesced DMA bursts (one latency charge per burst);
* :class:`StagingManager` — the per-:class:`~repro.hardware.Platform`
  façade (``platform.staging``) gluing the two together:
  :meth:`~StagingManager.stage`, the one path by which every device
  operator's operand set reaches the device (patching replicas that
  have pending writes), residency checks for HyPE's predictions,
  capacity-pressure eviction, the write hook fired by
  ``update_field``, and the invalidation hook fired by the re-organizer
  and :class:`~repro.recovery.RecoveryManager`.

Every module that moves fragment payloads across the link routes
through this package: ``tests/staging/test_lint_transfer_sites.py``
enforces that no other module calls ``interconnect.transfer_cost``
directly, and ``tests/staging/test_lint_staging_calls.py`` that none
calls the manager's ``lookup``/``acquire_set`` around ``stage``.
"""

from repro.staging.cache import StagedColumn, StagingCache
from repro.staging.manager import StagingManager
from repro.staging.scheduler import TransferScheduler

__all__ = [
    "StagedColumn",
    "StagingCache",
    "StagingManager",
    "TransferScheduler",
]
