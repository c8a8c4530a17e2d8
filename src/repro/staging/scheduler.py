"""The transfer scheduler: the one place PCIe cycles are charged.

Every fragment-payload transfer in the simulation routes through a
:class:`TransferScheduler` (the lint test under ``tests/staging/``
enforces it), which refines raw per-fragment
:meth:`~repro.hardware.interconnect.InterconnectModel.transfer_cost`
calls by **coalescing**: small same-direction transfers issued
together are charged as one DMA burst — one link latency for the whole
burst plus the bandwidth term of the summed payload.  Because
``transfer_seconds(a + b) == latency + (a + b) / bandwidth``, a burst
of one is float-for-float identical to the historical single-transfer
charge — the cold-path byte-identity ``tests/staging/test_scheduler.py``
pins.

Fault semantics: an accounted burst charges its wire time, then checks
the ``pcie.transfer`` fault site, and only counts its bytes once the
burst survived — so a retried burst charges cycles per attempt (wire
time is really burned) but never double-counts payload bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import ExecutionError
from repro.faults.injector import SITE_PCIE_TRANSFER
from repro.hardware.event import Cycles, PerfCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.platform import Platform

__all__ = ["TransferScheduler"]


class TransferScheduler:
    """Charges coalesced PCIe transfers.

    Stateless apart from its platform reference: all accumulation goes
    into the :class:`~repro.hardware.event.PerfCounters` the caller
    passes (``pcie_bytes``, ``transfers``), so forked contexts see
    exactly what they charge.
    """

    def __init__(self, platform: "Platform") -> None:
        self._platform = platform

    @property
    def platform(self) -> "Platform":
        """The owning simulated machine."""
        return self._platform

    # ------------------------------------------------------------------
    # Pure predictions (no counters, no fault draws)
    # ------------------------------------------------------------------
    def predicted_cost(self, nbytes: int) -> Cycles:
        """Host-cycle cost of one transfer, side-effect-free.

        This is what HyPE and the placement advisor price with; it is
        numerically identical to the accounted charge of
        :meth:`transfer` for the same size.
        """
        return self._platform.interconnect.transfer_cost(nbytes)

    # ------------------------------------------------------------------
    # Accounted transfers
    # ------------------------------------------------------------------
    def transfer(self, nbytes: int, counters: PerfCounters | None = None) -> Cycles:
        """Charge one host<->device copy (a burst of one).

        Drop-in replacement for the historical
        ``interconnect.transfer_cost(nbytes, counters)`` call sites:
        same cycles, same ``bytes_transferred``, same fault site — plus
        the new ``pcie_bytes`` / ``transfers`` tallies.
        """
        return self.burst((nbytes,), counters)

    def burst(self, sizes: Sequence[int], counters: PerfCounters | None = None) -> Cycles:
        """Charge a coalesced same-direction DMA burst.

        The whole burst pays **one** link latency plus the bandwidth
        term of the summed payload — the coalescing identity
        ``burst([a, b, ...]) == transfer_cost(a + b + ...)`` holds
        exactly (integer byte sums are exact in float64).

        Without *counters* the call is a pure prediction.  With
        counters, cycles are charged first (wire time is burned even by
        a transfer that then faults), the ``pcie.transfer`` fault site
        is checked, and payload-byte accounting happens only after the
        burst survived — a retried burst never double-counts its bytes.
        """
        for size in sizes:
            if size < 0:
                raise ExecutionError(f"transfer size must be >= 0, got {size}")
        total = sum(sizes)
        interconnect = self._platform.interconnect
        cost = interconnect.transfer_seconds(total) * interconnect.host_frequency_hz
        if counters is not None and total > 0:
            # Each accounted attempt is one span on the simulated
            # timeline — a retried burst therefore shows up once per
            # attempt, exactly like its cycles.  Tracing reads the
            # counters but never charges them (zero observer effect).
            tracer = self._platform.tracer
            span = (
                tracer.begin(
                    "pcie-burst", "pcie", counters, bytes=total, chunks=len(sizes)
                )
                if tracer is not None
                else None
            )
            try:
                counters.cycles += cost
                injector = self._platform.injector
                if injector is not None:
                    injector.check(SITE_PCIE_TRANSFER, counters)
            except BaseException:
                if span is not None:
                    span.attrs["faulted"] = True
                raise
            finally:
                if span is not None:
                    tracer.end(span, counters)
            counters.bytes_transferred += total
            counters.pcie_bytes += total
            counters.transfers += 1
        return cost
