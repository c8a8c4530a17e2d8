"""Deterministic, seeded fault injection for the simulated platform.

The GPU-database literature (Bress, Funke & Teubner's robustness work;
the "Comprehensive Overview of GPU Accelerated Databases" survey) names
transfer failures, device OOM and co-processor unavailability as the
dominant operational hazards for GPU-resident data.  This module gives
the whole simulated platform one shared mechanism for exercising those
hazards: a :class:`FaultInjector` draws from a single seeded RNG, so a
(seed, fault schedule) pair produces a byte-identical fault sequence —
and therefore byte-identical resilience counters — on every run.

Components do not import this module at runtime; they accept an
injector through :meth:`FaultInjector.install` (hardware models) or
read it off ``platform.injector`` (engines), keeping the dependency
one-directional.  Each component declares where it can fail by checking
a registered *fault site*; the built-in sites cover the hazards the
paper's platform exhibits, and :func:`register_fault_site` lets new
subsystems add their own.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence, TypeVar

from repro.errors import (
    DeviceError,
    DistributedError,
    EngineCrashed,
    ExecutionError,
    ReorganizationAborted,
    ReproError,
    TransferError,
)
from repro.faults.report import ResilienceReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.event import PerfCounters
    from repro.hardware.platform import Platform

__all__ = [
    "SITE_PCIE_TRANSFER",
    "SITE_DEVICE_ALLOC",
    "SITE_KERNEL_LAUNCH",
    "SITE_NODE_CRASH",
    "SITE_DFS_READ",
    "SITE_REORG_INTERRUPT",
    "SITE_WAL_TORN_WRITE",
    "SITE_CRASH_POST_COMMIT",
    "SITE_CRASH_REORG",
    "FAULT_SITES",
    "register_fault_site",
    "FaultSpec",
    "FaultInjector",
]

T = TypeVar("T")

#: PCIe transfer error: a host<->device copy fails after burning its
#: wire time (raises :class:`~repro.errors.TransferError`).
SITE_PCIE_TRANSFER = "pcie.transfer"
#: Device allocation failure: a device-memory allocation request fails
#: even though the capacity model says it fits (device OOM; raises
#: :class:`~repro.errors.DeviceError`).
SITE_DEVICE_ALLOC = "device.alloc"
#: Kernel launch failure: a launched kernel dies mid-flight after its
#: cycles are spent (raises :class:`~repro.errors.DeviceError`).
SITE_KERNEL_LAUNCH = "device.kernel"
#: Cluster node crash: one non-coordinator node loses its disk
#: contents; engines recover via DFS re-replication.
SITE_NODE_CRASH = "cluster.node-crash"
#: DFS block read error: one replica of a block fails to read; the
#: store degrades to another replica (raises
#: :class:`~repro.errors.DistributedError` only when none is left).
SITE_DFS_READ = "dfs.block-read"
#: Reorganization interruption: an online re-layout is killed
#: mid-migration (raises :class:`~repro.errors.ReorganizationAborted`
#: after the re-organizer rolls back).
SITE_REORG_INTERRUPT = "reorg.interrupt"
#: Torn log write: the machine dies mid-fsync, leaving the *last*
#: record of the flushed batch torn.  Recovery's durable prefix stops
#: just before the torn record (raises
#: :class:`~repro.errors.EngineCrashed`).
SITE_WAL_TORN_WRITE = "wal.torn-append"
#: Post-commit crash: the machine dies right after a group-commit
#: flush made a batch of commits durable, before the next checkpoint
#: (raises :class:`~repro.errors.EngineCrashed`).
SITE_CRASH_POST_COMMIT = "crash.post-commit"
#: Crash during reorganization: the machine dies mid-migration — unlike
#: ``reorg.interrupt`` there is no in-process rollback; the partial
#: fragments simply vanish with the process and recovery restores the
#: pre-reorganization layout from the log (raises
#: :class:`~repro.errors.EngineCrashed`).
SITE_CRASH_REORG = "crash.during-reorg"

#: Registry of declared fault sites: name -> (description, error type).
FAULT_SITES: dict[str, tuple[str, type[ReproError]]] = {
    SITE_PCIE_TRANSFER: ("host<->device transfer error", TransferError),
    SITE_DEVICE_ALLOC: ("device memory allocation failure", DeviceError),
    SITE_KERNEL_LAUNCH: ("kernel launch failure", DeviceError),
    SITE_NODE_CRASH: ("cluster node crash", DistributedError),
    SITE_DFS_READ: ("DFS block read error", DistributedError),
    SITE_REORG_INTERRUPT: ("re-organization interruption", ReorganizationAborted),
    SITE_WAL_TORN_WRITE: ("torn write on the tail log record", EngineCrashed),
    SITE_CRASH_POST_COMMIT: ("crash after commit, before checkpoint", EngineCrashed),
    SITE_CRASH_REORG: ("crash mid-reorganization, no rollback", EngineCrashed),
}


def register_fault_site(
    name: str, description: str, error: type[ReproError] = ExecutionError
) -> str:
    """Declare a new fault site so injectors can arm it.

    Components outside the built-in set call this once at import time;
    re-registering an existing name with a different contract is an
    error (sites are a global, append-only vocabulary).  Returns the
    site name so the call can double as a module-level constant.
    """
    known = FAULT_SITES.get(name)
    if known is not None and known != (description, error):
        raise ExecutionError(
            f"fault site {name!r} already registered as {known[0]!r}"
        )
    FAULT_SITES[name] = (description, error)
    return name


@dataclass
class FaultSpec:
    """One armed fault site: where, how often, and how many times.

    Attributes
    ----------
    site:
        A registered fault-site name.
    probability:
        Per-check firing probability in ``[0, 1]``.
    max_faults:
        Cap on total fires for this site (``None`` = unlimited); used by
        tests that want exactly-once faults at a deterministic point.
    """

    site: str
    probability: float
    max_faults: int | None = None
    fired: int = 0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ExecutionError(
                f"unknown fault site {self.site!r}; register it first "
                f"(known: {sorted(FAULT_SITES)})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ExecutionError(
                f"fault probability must be in [0,1], got {self.probability}"
            )
        if self.max_faults is not None and self.max_faults < 0:
            raise ExecutionError("max_faults must be >= 0")

    @property
    def exhausted(self) -> bool:
        """Whether the fire cap has been reached."""
        return self.max_faults is not None and self.fired >= self.max_faults


@dataclass
class FaultInjector:
    """Seeded fault source shared by every component of one platform.

    A single ``random.Random(seed)`` drives all sites, and unarmed
    sites never consume randomness, so the fault sequence is a pure
    function of ``(seed, schedule, workload)``.  The injector owns the
    run's :class:`~repro.faults.report.ResilienceReport`; every
    component that injects, retries, falls back, recovers or surfaces a
    fault records the outcome there, which is how the chaos harness can
    assert that every injected fault is accounted for.
    """

    seed: int = 0
    specs: dict[str, FaultSpec] = field(default_factory=dict)
    report: ResilienceReport = field(default_factory=ResilienceReport)
    #: Back-reference set by :meth:`install`; lets injections surface as
    #: instant events on the platform's tracer (when one is attached).
    platform: "Platform | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    # Schedule construction
    # ------------------------------------------------------------------
    def arm(
        self, site: str, probability: float, max_faults: int | None = None
    ) -> "FaultInjector":
        """Arm *site* with a per-check probability (chainable).

        Arming a site that is already armed is rejected: a silent
        overwrite would discard the first schedule's fire counter and
        quietly change the RNG consumption pattern, breaking the
        (seed, schedule) -> fault-sequence determinism contract.  Call
        :meth:`disarm` first to re-arm deliberately.
        """
        existing = self.specs.get(site)
        if existing is not None:
            raise ExecutionError(
                f"fault site {site!r} is already armed "
                f"(probability={existing.probability}, "
                f"max_faults={existing.max_faults}, fired={existing.fired}); "
                "disarm() it before re-arming"
            )
        self.specs[site] = FaultSpec(site, probability, max_faults)
        return self

    def disarm(self, site: str) -> "FaultInjector":
        """Remove *site* from the schedule (chainable; unknown = no-op)."""
        self.specs.pop(site, None)
        return self

    def arm_all(
        self, probability: float, sites: Sequence[str] | None = None
    ) -> "FaultInjector":
        """Arm every (or the given) registered site at one probability."""
        for site in sites if sites is not None else sorted(FAULT_SITES):
            self.arm(site, probability)
        return self

    def install(self, platform: "Platform") -> "Platform":
        """Hook this injector into *platform*'s fault-capable models.

        The hardware models are frozen dataclasses, so installation
        swaps them for copies carrying the injector; the platform
        itself also exposes the injector (``platform.injector``) for
        engines and the re-organizer.  Returns the platform.
        """
        platform.interconnect = dataclasses.replace(
            platform.interconnect, injector=self
        )
        platform.gpu = dataclasses.replace(platform.gpu, injector=self)
        platform.injector = self
        self.platform = platform
        return platform

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def fires(self, site: str, counters: "PerfCounters | None" = None) -> bool:
        """Draw whether *site* faults now, recording the injection.

        Unarmed or exhausted sites return False without consuming
        randomness.  When the fault fires it is tallied in the report
        (and in *counters* when given); the caller decides what the
        fault means — raising, crashing a node, aborting a migration.
        """
        spec = self.specs.get(site)
        if spec is None or spec.exhausted or spec.probability == 0.0:
            return False
        if self._rng.random() >= spec.probability:
            return False
        spec.fired += 1
        self.report.record_injected(site)
        if counters is not None:
            counters.faults_injected += 1
            # ``platform`` stays None until install(); the instant event
            # is purely observational and changes nothing.
            tracer = self.platform.tracer if self.platform is not None else None
            if tracer is not None:
                tracer.instant(f"fault({site})", "fault", counters, site=site)
        return True

    def check(self, site: str, counters: "PerfCounters | None" = None) -> None:
        """Raise the site's error if the site fires (else do nothing).

        The raised exception carries ``injected = True`` so resilience
        policies can distinguish injected faults from organic errors
        (e.g. a genuine :class:`~repro.errors.CapacityError`) when
        attributing outcomes in the report.
        """
        if not self.fires(site, counters):
            return
        description, error_type = FAULT_SITES[site]
        error = error_type(f"injected fault at {site!r}: {description}")
        error.injected = True
        raise error

    def choice(self, options: Sequence[T]) -> T:
        """Deterministically pick one victim among *options*."""
        if not options:
            raise ExecutionError("cannot pick a fault victim from no options")
        return options[self._rng.randrange(len(options))]

    # ------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        """Faults fired so far across all sites."""
        return sum(spec.fired for spec in self.specs.values())
