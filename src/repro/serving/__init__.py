"""Concurrent multi-tenant serving: arrivals, admission, batch scheduling.

The serving tier puts the storage engine under the load shape the
paper's motivation describes — "millions of users" issuing mixed HTAP
streams concurrently — on the simulated cycle timeline:

* :mod:`repro.serving.arrivals` — seeded open-loop Poisson arrivals and
  the multi-tenant workload generator;
* :mod:`repro.serving.admission` — bounded backlog with priority
  classes and weighted fair queueing, shedding with a typed
  :class:`~repro.errors.AdmissionRejected` (and the
  ``serving.queue-overflow`` chaos site);
* :mod:`repro.serving.server` — the discrete-event loop tying them
  together, running each dispatched unit on its own forked
  :class:`~repro.execution.ExecutionContext` and keeping write
  barriers for serial equivalence; its batches of compatible device
  queries go to :func:`~repro.execution.device.run_device_batch`, the
  one device dispatch for column sums (re-exported here), so K queries
  share one coalesced PCIe burst, one kernel grid and one result copy;
* :mod:`repro.serving.verifier` — the gates ``python -m repro.verify
  serving`` runs (byte identity against a host-column replay, >=2x
  batched throughput, bounded p99/p50, exactly-once attribution).
"""

from repro.execution.device import run_device_batch
from repro.serving.admission import SITE_QUEUE_OVERFLOW, AdmissionQueue
from repro.serving.arrivals import (
    PoissonArrivals,
    QueryArrival,
    TenantSpec,
    WorkloadGenerator,
)
from repro.serving.server import (
    BATCH_16,
    SERIAL_DISPATCH,
    BatchPolicy,
    ExecutedQuery,
    LayoutBackend,
    ServingLoop,
    ServingReport,
    ShedQuery,
)

__all__ = [
    "PoissonArrivals",
    "TenantSpec",
    "QueryArrival",
    "WorkloadGenerator",
    "AdmissionQueue",
    "SITE_QUEUE_OVERFLOW",
    "run_device_batch",
    "BatchPolicy",
    "SERIAL_DISPATCH",
    "BATCH_16",
    "LayoutBackend",
    "ServingLoop",
    "ServingReport",
    "ExecutedQuery",
    "ShedQuery",
]
