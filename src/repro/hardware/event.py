"""Cost accounting primitives for the simulated platform.

All simulated costs are expressed in **host CPU cycles** so that results
from the CPU model, the GPU model and the interconnect model compose
into a single timeline.  :class:`PerfCounters` accumulates both the
cycle total and the explanatory event counts (cache misses, bytes
moved, kernel launches, ...) that the benchmark reports print next to
each series.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["Cycles", "PerfCounters"]

#: Simulated cost unit: host CPU cycles (float to allow sub-cycle rates).
Cycles = float


@dataclass
class PerfCounters:
    """Mutable bundle of simulated performance counters.

    The ``cycles`` field is the headline cost; the remaining fields
    explain where it came from.  Counters add with ``+`` and support
    in-place merge via :meth:`merge`.
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
        for spec in fields(self):
            setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name))
        return self

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        result = PerfCounters()
        result.merge(self)
        result.merge(other)
        return result

    def charge(self, cycles: Cycles) -> None:
        """Add raw cycles with no associated event."""
        self.cycles += cycles

    def seconds(self, frequency_hz: float) -> float:
        """Convert the cycle total to wall-clock seconds at *frequency_hz*."""
        return self.cycles / frequency_hz

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of all counters (for reports and tests)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def reset(self) -> None:
        """Zero every counter, preserving each field's declared type.

        Under ``from __future__ import annotations`` a field's ``type``
        is the *string* ``"int"``, so comparing it against the ``int``
        class would silently reset integer counters to floats; deriving
        the zero from the field's default keeps int counters int.
        """
        for spec in fields(self):
            setattr(self, spec.name, type(spec.default)())


@dataclass
class CostBreakdown:
    """A labelled decomposition of a cost for explanatory reports.

    Benchmarks attach one of these per series point so EXPERIMENTS.md can
    show *why* a configuration won (e.g. "transfer: 83% of total").
    """

    parts: dict[str, Cycles] = field(default_factory=dict)

    def add(self, label: str, cycles: Cycles) -> None:
        """Accumulate *cycles* under *label*."""
        self.parts[label] = self.parts.get(label, 0.0) + cycles

    @property
    def total(self) -> Cycles:
        """Sum of all parts."""
        return sum(self.parts.values())

    def share(self, label: str) -> float:
        """Fraction of the total contributed by *label* (0 when empty)."""
        total = self.total
        if total == 0:
            return 0.0
        return self.parts.get(label, 0.0) / total


__all__.append("CostBreakdown")
