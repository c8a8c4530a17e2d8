"""Concurrent multi-tenant serving: arrivals, admission, batch scheduling.

The serving tier puts the storage engine under the load shape the
paper's motivation describes — "millions of users" issuing mixed HTAP
streams concurrently — on the simulated cycle timeline:

* :mod:`repro.serving.arrivals` — seeded open-loop arrival processes
  (Poisson, bursty, diurnal) and the multi-tenant workload generator;
* :mod:`repro.serving.admission` — bounded backlog with priority
  classes and weighted fair queueing, shedding with a typed
  :class:`~repro.errors.AdmissionRejected` (and the
  ``serving.queue-overflow`` chaos site);
* :mod:`repro.serving.batch` — the GPU batch path: K compatible device
  queries share one coalesced PCIe burst, one batched kernel grid, and
  one result copy;
* :mod:`repro.serving.server` — the discrete-event loop tying them
  together with per-query :class:`~repro.execution.CounterScope`
  accounting, write barriers for serial equivalence, and the
  rebalancer cadence trigger;
* :mod:`repro.serving.verifier` — the gates ``python -m repro.verify
  serving`` runs (byte identity, >=2x batched throughput, bounded
  p99/p50, exactly-once attribution).
"""

from repro.serving.admission import SITE_QUEUE_OVERFLOW, AdmissionQueue
from repro.serving.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    QueryArrival,
    TenantSpec,
    WorkloadGenerator,
)
from repro.serving.batch import run_device_batch
from repro.serving.server import (
    BATCH_16,
    SERIAL_DISPATCH,
    BatchPolicy,
    ExecutedQuery,
    LayoutBackend,
    RebalanceTick,
    ServingLoop,
    ServingReport,
    ShardedBackend,
    ShedQuery,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
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
    "ShardedBackend",
    "ServingLoop",
    "ServingReport",
    "ExecutedQuery",
    "ShedQuery",
    "RebalanceTick",
]
