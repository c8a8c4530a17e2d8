"""Analytic GPU model: occupancy, launches, tree reduction, bandwidth.

Substitutes for the paper's CUDA capability-5.0 device (5 SMs x 128
cores, 2 MB L2, 4044 MB global memory).  The only device workload in
Figure 2 is the Harris-style parallel reduction (sum of the item
table's price column), launched with >= 1024 blocks of 512 threads and
a final 1-block/1024-thread pass — so the model focuses on what decides
that kernel's runtime: device memory bandwidth, occupancy-limited
compute throughput, and per-launch latency.

All returned costs are **host cycles** (converted via the host clock)
so they compose with the CPU and PCIe models on one timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import ExecutionError
from repro.hardware.event import Cycles, PerfCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["GPUModel", "KernelLaunch"]

#: Fault-site name checked on every accounted kernel (a literal so the
#: hardware layer never imports the faults package at runtime; must
#: match ``repro.faults.injector.SITE_KERNEL_LAUNCH``).
_SITE_KERNEL_LAUNCH = "device.kernel"


@dataclass(frozen=True)
class KernelLaunch:
    """Geometry of one kernel launch (for reports and validation)."""

    blocks: int
    threads_per_block: int

    def __post_init__(self) -> None:
        if self.blocks < 1 or self.threads_per_block < 1:
            raise ExecutionError(
                f"invalid launch geometry {self.blocks}x{self.threads_per_block}"
            )

    @property
    def total_threads(self) -> int:
        """Threads across all blocks."""
        return self.blocks * self.threads_per_block


@dataclass(frozen=True)
class GPUModel:
    """Cost model of the discrete graphics device.

    Attributes
    ----------
    sms:
        Streaming multiprocessors.
    cores_per_sm:
        CUDA cores per SM.
    clock_hz:
        Device core clock.
    device_bandwidth:
        Global-memory bandwidth in bytes/second.
    launch_latency_s:
        Host-visible latency of one kernel launch in seconds.
    max_threads_per_block:
        Hardware limit (1024 on the paper's device).
    host_frequency_hz:
        Host clock used to convert device time into host cycles.
    injector:
        Optional fault injector (installed by
        :meth:`repro.faults.FaultInjector.install`); when armed, an
        accounted kernel may die with
        :class:`~repro.errors.DeviceError` after its cycles are
        charged — a crashed launch still occupied the device.
    """

    sms: int = 5
    cores_per_sm: int = 128
    clock_hz: float = 1.1e9
    device_bandwidth: float = 80.0e9
    launch_latency_s: float = 5.0e-6
    max_threads_per_block: int = 1024
    host_frequency_hz: float = 2.6e9
    injector: "FaultInjector | None" = field(default=None, compare=False)

    @property
    def total_cores(self) -> int:
        """CUDA cores across the device."""
        return self.sms * self.cores_per_sm

    @property
    def launch_latency_cycles(self) -> Cycles:
        """One launch's latency in host cycles."""
        return self.launch_latency_s * self.host_frequency_hz

    def seconds_to_host_cycles(self, seconds: float) -> Cycles:
        """Convert device wall time into host cycles."""
        return seconds * self.host_frequency_hz

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def streaming_kernel_seconds(self, nbytes: int, ops: int, ops_per_element: float = 1.0) -> float:
        """Device time of a kernel streaming *nbytes* and doing *ops* adds.

        The kernel is modelled as the max of its bandwidth time and its
        occupancy-limited compute time (classic roofline): reductions on
        8-byte elements are bandwidth-bound on this device.
        """
        bandwidth_time = nbytes / self.device_bandwidth
        compute_time = (ops * ops_per_element) / (self.total_cores * self.clock_hz)
        return max(bandwidth_time, compute_time)

    def reduction_cost(
        self,
        count: int,
        element_width: int,
        counters: PerfCounters | None = None,
        min_blocks: int = 1024,
        threads_per_block: int = 512,
    ) -> Cycles:
        """Host-cycle cost of the paper's two-pass parallel reduction.

        Pass 1 launches ``max(min_blocks, ceil(count / (2*threads)))``
        blocks that reduce the input to one partial per block; pass 2
        reduces the partials with a single 1024-thread block.  Each pass
        pays one kernel-launch latency.  Returns 0 for an empty input
        (no launch is issued).
        """
        if count < 0:
            raise ExecutionError(f"count must be >= 0, got {count}")
        if count == 0:
            return 0.0
        if threads_per_block > self.max_threads_per_block:
            raise ExecutionError(
                f"{threads_per_block} threads/block exceeds device limit "
                f"{self.max_threads_per_block}"
            )
        blocks = max(min_blocks, math.ceil(count / (2 * threads_per_block)))
        pass1 = KernelLaunch(blocks, threads_per_block)
        pass2 = KernelLaunch(1, self.max_threads_per_block)

        pass1_seconds = self.streaming_kernel_seconds(
            nbytes=count * element_width, ops=count
        )
        pass2_seconds = self.streaming_kernel_seconds(
            nbytes=pass1.blocks * element_width, ops=pass1.blocks
        )
        total_seconds = pass1_seconds + pass2_seconds + 2 * self.launch_latency_s
        cost = self.seconds_to_host_cycles(total_seconds)
        if counters is not None:
            counters.cycles += cost
            counters.device_cycles += total_seconds * self.clock_hz
            counters.kernel_launches += 2
            counters.bytes_read += count * element_width
            # Prediction calls (no counters) must stay side-effect-free,
            # so injection only applies to accounted launches.
            if self.injector is not None:
                self.injector.check(_SITE_KERNEL_LAUNCH, counters)
        return cost

    def batched_reduction_cost(
        self,
        columns: "Sequence[tuple[int, int]]",
        counters: PerfCounters | None = None,
        min_blocks: int = 1024,
        threads_per_block: int = 512,
    ) -> Cycles:
        """Host-cycle cost of ONE batched two-pass reduction over many columns.

        *columns* is one ``(count, element_width)`` pair per **distinct**
        operand column of the batch.  A batch scheduler that groups K
        compatible full-column sums launches a single fused grid whose
        blocks stream every distinct column once (pass 1) and a single
        second pass that folds all block partials — so the whole batch
        pays **two** kernel-launch latencies, where serial dispatch pays
        two per query.  Streaming time still scales with the distinct
        bytes touched (bandwidth is not amortizable), which is exactly
        why the win comes from sharing: K queries over D distinct
        columns cost D column streams + 2 launches instead of K streams
        + 2K launches.

        Zero-count columns are skipped (nothing to stream); an empty or
        all-empty *columns* returns 0 and issues no launch, matching
        :meth:`reduction_cost`'s zero-size contract.  Counter
        side-effects (and the ``device.kernel`` fault draw) happen only
        on accounted calls, like every other kernel costing.
        """
        if threads_per_block > self.max_threads_per_block:
            raise ExecutionError(
                f"{threads_per_block} threads/block exceeds device limit "
                f"{self.max_threads_per_block}"
            )
        streamed = []
        for count, width in columns:
            if count < 0:
                raise ExecutionError(f"count must be >= 0, got {count}")
            if width <= 0:
                raise ExecutionError(f"invalid element width {width}")
            if count:
                streamed.append((count, width))
        if not streamed:
            return 0.0
        pass_seconds = 0.0
        total_bytes = 0
        for count, width in streamed:
            blocks = max(min_blocks, math.ceil(count / (2 * threads_per_block)))
            pass1 = KernelLaunch(blocks, threads_per_block)
            pass_seconds += self.streaming_kernel_seconds(
                nbytes=count * width, ops=count
            )
            pass_seconds += self.streaming_kernel_seconds(
                nbytes=pass1.blocks * width, ops=pass1.blocks
            )
            total_bytes += count * width
        total_seconds = pass_seconds + 2 * self.launch_latency_s
        cost = self.seconds_to_host_cycles(total_seconds)
        if counters is not None:
            counters.cycles += cost
            counters.device_cycles += total_seconds * self.clock_hz
            counters.kernel_launches += 2
            counters.bytes_read += total_bytes
            # Prediction calls (no counters) must stay side-effect-free,
            # so injection only applies to accounted launches.
            if self.injector is not None:
                self.injector.check(_SITE_KERNEL_LAUNCH, counters)
        return cost

    def scatter_cost(
        self, count: int, nbytes: int, counters: PerfCounters | None = None
    ) -> Cycles:
        """Host-cycle cost of ONE scatter kernel patching device replicas.

        The kernel streams the *nbytes* of a patch burst — an offset and
        a value per cell, possibly for several columns of different
        widths — and writes each of the *count* cells into its replica:
        one launch latency plus the streaming time.  Zero cells return 0
        and issue no launch (the zero-size contract).
        """
        if count < 0 or nbytes < 0:
            raise ExecutionError(
                f"scatter of {count} cells / {nbytes} B must be >= 0"
            )
        if count == 0:
            return 0.0
        total_seconds = (
            self.streaming_kernel_seconds(nbytes=nbytes, ops=count)
            + self.launch_latency_s
        )
        cost = self.seconds_to_host_cycles(total_seconds)
        if counters is not None:
            counters.cycles += cost
            counters.device_cycles += total_seconds * self.clock_hz
            counters.kernel_launches += 1
            counters.bytes_read += nbytes
            # Prediction calls (no counters) must stay side-effect-free,
            # so injection only applies to accounted launches.
            if self.injector is not None:
                self.injector.check(_SITE_KERNEL_LAUNCH, counters)
        return cost

    def fused_pipeline_cost(
        self,
        count: int,
        element_widths: "tuple[int, ...] | list[int]",
        ops_per_element: float = 1.0,
        counters: PerfCounters | None = None,
        min_blocks: int = 1024,
        threads_per_block: int = 512,
    ) -> Cycles:
        """Host-cycle cost of ONE fused scan→filter→project→aggregate kernel.

        A fused pipeline streams every operand column exactly once
        (``count`` elements of each width in *element_widths*), keeps
        intermediates in registers, and folds the final reduction into
        the same grid-stride pass (block partials combined with an
        atomic tail, the modern single-pass shape of the Harris
        reduction) — so the whole chain pays **one** launch latency and
        never writes an intermediate to global memory.  Compare
        :meth:`reduction_cost`: two launches for the *last* stage alone,
        before the unfused plan's per-step transfers.

        ``ops_per_element`` scales the compute roofline for the fused
        ALU work (predicate + projections + accumulate).  An empty
        input returns 0 and issues no launch (the zero-size contract);
        a negative count or a non-positive width is a hard error.
        """
        if count < 0:
            raise ExecutionError(f"count must be >= 0, got {count}")
        if not element_widths:
            raise ExecutionError("fused pipeline needs at least one operand column")
        if any(width <= 0 for width in element_widths):
            raise ExecutionError(f"invalid element widths {tuple(element_widths)}")
        if count == 0:
            return 0.0
        if threads_per_block > self.max_threads_per_block:
            raise ExecutionError(
                f"{threads_per_block} threads/block exceeds device limit "
                f"{self.max_threads_per_block}"
            )
        # Same grid-stride geometry as the reduction's first pass; the
        # KernelLaunch constructor validates it.
        blocks = max(min_blocks, math.ceil(count / (2 * threads_per_block)))
        launch = KernelLaunch(blocks, threads_per_block)
        nbytes = count * sum(element_widths)
        seconds = self.streaming_kernel_seconds(
            nbytes=nbytes, ops=count, ops_per_element=ops_per_element
        )
        total_seconds = seconds + self.launch_latency_s
        cost = self.seconds_to_host_cycles(total_seconds)
        if counters is not None:
            counters.cycles += cost
            counters.device_cycles += total_seconds * self.clock_hz
            counters.kernel_launches += 1
            counters.bytes_read += nbytes
            # Prediction calls (no counters) must stay side-effect-free,
            # so injection only applies to accounted launches.
            if self.injector is not None:
                self.injector.check(_SITE_KERNEL_LAUNCH, counters)
        return cost
