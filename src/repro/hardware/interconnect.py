"""PCIe interconnect model: the host<->device transfer cost.

Challenge (a.i) of the paper — "expensive data transfer to and from the
device memory" — reduces to this model.  Figure 2's panels 3 and 4
differ only in whether this cost is charged, and that difference flips
which platform wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ExecutionError
from repro.hardware.event import Cycles, PerfCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["InterconnectModel"]

#: Fault-site name checked on every accounted transfer (kept as a
#: literal so the hardware layer never imports the faults package at
#: runtime; must match ``repro.faults.injector.SITE_PCIE_TRANSFER``).
_SITE_PCIE_TRANSFER = "pcie.transfer"


@dataclass(frozen=True)
class InterconnectModel:
    """Latency + bandwidth model of the host<->device link.

    Attributes
    ----------
    bandwidth:
        Effective transfer bandwidth in bytes/second (PCIe 3.0 on a
        mobile platform delivers well under its nominal rate; 6 GB/s is
        a representative effective figure).
    latency_s:
        Per-transfer setup latency in seconds (driver + DMA setup).
    host_frequency_hz:
        Host clock used to express costs in host cycles.
    injector:
        Optional fault injector (installed by
        :meth:`repro.faults.FaultInjector.install`); when armed, an
        accounted transfer may fail with
        :class:`~repro.errors.TransferError` *after* its cycles are
        charged — a broken transfer still burns wire time.
    """

    bandwidth: float = 6.0e9
    latency_s: float = 10.0e-6
    host_frequency_hz: float = 2.6e9
    injector: "FaultInjector | None" = field(default=None, compare=False)

    def transfer_seconds(self, nbytes: int) -> float:
        """Wall time of moving *nbytes* across the link once."""
        if nbytes < 0:
            raise ExecutionError(f"transfer size must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency_s + nbytes / self.bandwidth

    def transfer_cost(self, nbytes: int, counters: PerfCounters | None = None) -> Cycles:
        """Host-cycle cost of one host->device (or device->host) copy.

        Fault injection only applies to *accounted* transfers
        (``counters`` given, ``nbytes > 0``): cost-model *predictions*
        (HyPE, the placement advisor) call this without counters and
        must stay side-effect-free.
        """
        cost = self.transfer_seconds(nbytes) * self.host_frequency_hz
        if counters is not None and nbytes > 0:
            counters.cycles += cost
            counters.bytes_transferred += nbytes
            if self.injector is not None:
                self.injector.check(_SITE_PCIE_TRANSFER, counters)
        return cost
