"""Cost accounting primitives for the simulated platform.

All simulated costs are expressed in **host CPU cycles** so that results
from the CPU model, the GPU model and the interconnect model compose
into a single timeline.  :class:`PerfCounters` accumulates both the
cycle total and the explanatory event counts (cache misses, bytes
moved, kernel launches, ...) that the benchmark reports print next to
each series.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["COUNTER_NAMES", "Cycles", "PerfCounters"]

#: Simulated cost unit: host CPU cycles (float to allow sub-cycle rates).
Cycles = float


@dataclass
class PerfCounters:
    """Mutable bundle of simulated performance counters.

    The ``cycles`` field is the headline cost; the remaining fields
    explain where it came from.  Bundles add in place with :meth:`merge`.
    """

    cycles: Cycles = 0.0
    instructions: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l3_hits: int = 0
    l3_misses: int = 0
    tlb_misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_transferred: int = 0  # host <-> device traffic
    pcie_bytes: int = 0  # payload bytes moved by the transfer scheduler
    transfers: int = 0  # DMA bursts issued (coalesced transfers count once)
    staging_hits: int = 0  # column reads served from the device staging cache
    staging_misses: int = 0  # column reads that had to re-stage over PCIe
    threads_spawned: int = 0
    kernel_launches: int = 0
    device_cycles: Cycles = 0.0
    faults_injected: int = 0
    fault_retries: int = 0
    fault_fallbacks: int = 0
    fault_recoveries: int = 0
    degraded_queries: int = 0

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Add *other*'s counts into ``self`` and return ``self``."""
        mine = self.__dict__
        for name, value in other.__dict__.items():
            mine[name] += value
        return self

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of all counters (for reports and tests)."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}


#: Every counter field's name, in declaration order, computed once.
COUNTER_NAMES = tuple(spec.name for spec in fields(PerfCounters))

