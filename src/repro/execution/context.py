"""Execution contexts: where operator costs are charged.

An :class:`ExecutionContext` binds a simulated platform to a counter
bundle and a threading policy.  Operators read data out of fragments
(the data plane) and charge the platform's models (the cost plane)
through this object, so a benchmark series is just "same plan, different
context".

A query that needs its own counters runs on its own context:
:meth:`ExecutionContext.fork` shares the platform, policy, retry policy
and log and starts fresh counters.  The serving loop
(:mod:`repro.serving.server`) forks one per dispatched unit and merges
each unit's counters into its root context once.

Counters say how many cycles a query cost; only the traced spans it
opened (:meth:`ExecutionContext.span`) say where they went.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hardware.event import Cycles, PerfCounters
from repro.hardware.platform import Platform
from repro.execution.threading import SINGLE_THREADED, ThreadingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.policy import RetryPolicy
    from repro.recovery.wal import WriteAheadLog

__all__ = ["ExecutionContext"]


@dataclass
class ExecutionContext:
    """Per-query execution state.

    Attributes
    ----------
    platform:
        The simulated machine.
    threading:
        Host threading policy for parallelizable operators.
    counters:
        Accumulates cycles and explanatory events across the query.
    retry:
        Optional :class:`~repro.faults.RetryPolicy` applied by
        fault-aware operators (device staging transfers); ``None``
        means transient failures propagate on first occurrence.
    wal:
        Optional :class:`~repro.recovery.WriteAheadLog` carried for
        durability-aware components: the re-organizer logs its
        begin/end/abort markers here when present, so a crash
        mid-reorganization is visible to recovery.  ``None`` (the
        default) means the run is not durable and nothing is logged.
    """

    platform: Platform
    threading: ThreadingPolicy = SINGLE_THREADED
    counters: PerfCounters = field(default_factory=PerfCounters)
    retry: "RetryPolicy | None" = None
    wal: "WriteAheadLog | None" = None

    @property
    def cycles(self) -> Cycles:
        """Total cycles charged so far."""
        return self.counters.cycles

    # ------------------------------------------------------------------
    # Tracing hooks (no-ops when the platform carries no tracer)
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "operator", **attrs):
        """A traced region on this context's simulated timeline.

        Context manager yielding the open
        :class:`~repro.obs.Span` — or ``None`` when the platform has no
        tracer, so instrumented code can guard annotations with
        ``if span is not None``.  Purely observational: entering or
        exiting a span never charges a cycle (the zero-observer-effect
        contract of :mod:`repro.obs`).
        """
        tracer = self.platform.tracer
        if tracer is None:
            return nullcontext(None)
        return tracer.span(name, category, self.counters, **attrs)

    def instant(self, name: str, category: str = "operator", **attrs) -> None:
        """Record a zero-duration trace event at the current cycle."""
        tracer = self.platform.tracer
        if tracer is not None:
            tracer.instant(name, category, self.counters, **attrs)

    def seconds(self) -> float:
        """Wall-clock seconds of the charged total on this platform."""
        return self.platform.seconds(self.counters.cycles)

    def fork(self) -> "ExecutionContext":
        """A context sharing platform, policies and log, with fresh counters.

        The serving loop runs each dispatched unit on one, so the unit's
        charges stay its own until the loop merges them.
        """
        return ExecutionContext(
            platform=self.platform,
            threading=self.threading,
            retry=self.retry,
            wal=self.wal,
        )
