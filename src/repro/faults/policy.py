"""Composable resilience policies: retry, circuit-break, degrade.

These are the handlers on the other side of
:mod:`repro.faults.injector`: a :class:`RetryPolicy` re-issues
transient operations (charging exponential backoff in **simulated
cycles**, so resilience shows up in measured cost, not wall time), a
:class:`CircuitBreaker` stops hammering a path that keeps failing, and
a :class:`FallbackChain` realizes the paper's Figure-2-style
degradation ladder — GPU, then multi-threaded CPU, then single-threaded
CPU — recording which rung actually served each query.

All three work with or without an armed injector: engines wire them
unconditionally, and in a fault-free run they are pass-throughs.  When
an exception carries ``injected = True`` (set by the injector) its
outcome is attributed in the shared
:class:`~repro.faults.report.ResilienceReport`, which is how the chaos
harness proves no injected fault went unhandled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import (
    CapacityError,
    DeadlineExceeded,
    DeviceError,
    ExecutionError,
    TransferError,
)
from repro.faults.report import ResilienceReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext

__all__ = [
    "TRANSIENT_DEVICE_ERRORS",
    "RetryPolicy",
    "CircuitBreaker",
    "FallbackStep",
    "FallbackChain",
]

#: The errors a device path may reasonably retry or degrade around:
#: transfer faults, device faults, and capacity exhaustion (CoGaDB's
#: all-or-nothing trigger).
TRANSIENT_DEVICE_ERRORS: tuple[type[Exception], ...] = (
    TransferError,
    DeviceError,
    CapacityError,
)


def _is_injected(error: BaseException) -> bool:
    return bool(getattr(error, "injected", False))


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (must be >= 1).
    backoff_cycles:
        Simulated-cycle delay charged before the first retry.
    multiplier:
        Backoff growth factor per retry.
    jitter:
        Fractional jitter: each delay is scaled by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]`` using the policy's
        own seeded RNG (so runs stay deterministic).
    retry_on:
        Exception types worth retrying; anything else propagates
        immediately.
    report:
        Where absorbed injected faults are tallied (optional).
    seed:
        Seed of the jitter RNG.
    max_total_cycles:
        Deadline cap on the *cumulative* backoff charged by one
        :meth:`run` call (``None`` = unbounded, the historical
        behaviour).  When the next jittered delay would push the total
        to or past the cap, the policy stops retrying and raises
        :class:`~repro.errors.DeadlineExceeded` chaining the last
        failure — bounded-latency callers (the shard-failover path)
        cannot tolerate unbounded exponential backoff.
    """

    max_attempts: int = 3
    backoff_cycles: float = 50_000.0
    multiplier: float = 2.0
    jitter: float = 0.1
    retry_on: tuple[type[Exception], ...] = (TransferError, DeviceError)
    report: ResilienceReport | None = None
    seed: int = 0
    max_total_cycles: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecutionError("max_attempts must be >= 1")
        if self.backoff_cycles < 0 or self.multiplier < 1.0:
            raise ExecutionError("backoff must be >= 0 and multiplier >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ExecutionError(f"jitter must be in [0,1), got {self.jitter}")
        if self.max_total_cycles is not None and self.max_total_cycles < 0:
            raise ExecutionError(
                f"max_total_cycles must be >= 0, got {self.max_total_cycles}"
            )
        self._rng = random.Random(self.seed)

    def run(
        self,
        label: str,
        operation: Callable[[], Any],
        ctx: "ExecutionContext | None" = None,
    ) -> Any:
        """Run *operation*, retrying transient failures.

        Each absorbed failure charges one backoff delay to *ctx* (when
        given); *label* names the operation in a deadline error.
        The final failure — attempts exhausted — propagates to the
        caller un-tallied, so a downstream fallback chain (or the
        harness) attributes its outcome exactly once.  When
        ``max_total_cycles`` is set and the next delay would *reach or*
        exceed it, :class:`~repro.errors.DeadlineExceeded` is raised
        instead (also un-tallied, carrying the last error's ``injected``
        mark).  The boundary is inclusive: the deadline is a budget, and
        a retry whose cumulative backoff lands exactly on it has no
        budget left to run in — ``elapsed == deadline`` surfaces rather
        than retrying.
        """
        delay = self.backoff_cycles
        total_backoff = 0.0
        for attempt in range(1, self.max_attempts + 1):
            try:
                return operation()
            except self.retry_on as error:
                if attempt == self.max_attempts:
                    raise
                jittered = delay * (
                    1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
                )
                if (
                    self.max_total_cycles is not None
                    and total_backoff + jittered >= self.max_total_cycles
                ):
                    deadline = DeadlineExceeded(
                        f"retry deadline for {label!r} exceeded: "
                        f"{total_backoff + jittered:.0f} > "
                        f"{self.max_total_cycles:.0f} backoff cycles "
                        f"after {attempt} attempt(s)"
                    )
                    deadline.injected = _is_injected(error)
                    raise deadline from error
                total_backoff += jittered
                if self.report is not None:
                    self.report.retry_attempts += 1
                    self.report.backoff_cycles += jittered
                    if _is_injected(error):
                        self.report.record_retried()
                if ctx is not None:
                    ctx.counters.fault_retries += 1
                    ctx.counters.cycles += jittered
                delay *= self.multiplier
        raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class CircuitBreaker:
    """Trip after consecutive failures; probe again after a cooldown.

    A classic three-state breaker counted in *calls*, not wall time
    (the simulation has no clock): ``failure_threshold`` consecutive
    failures open the circuit, the next ``cooldown_calls`` calls to
    :meth:`allow` are refused outright, then one half-open probe is
    admitted — success closes the circuit, failure re-opens it.
    Engines consult the breaker before taking an expensive device path
    so a persistently faulty device stops being tried at all.
    """

    failure_threshold: int = 3
    cooldown_calls: int = 8
    consecutive_failures: int = 0
    opens: int = 0
    _cooldown_left: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1 or self.cooldown_calls < 1:
            raise ExecutionError(
                "failure_threshold and cooldown_calls must be >= 1"
            )

    @property
    def is_open(self) -> bool:
        """Whether calls are currently refused."""
        return self._cooldown_left > 0

    def allow(self) -> bool:
        """Whether the protected path may be attempted right now."""
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return False
        return True

    def record_success(self) -> None:
        """Note a successful call (closes the circuit)."""
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        """Note a failed call (may open the circuit)."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self.opens += 1
            self.consecutive_failures = 0
            self._cooldown_left = self.cooldown_calls


@dataclass(frozen=True)
class FallbackStep:
    """One rung of a degradation ladder.

    Attributes
    ----------
    name:
        Label recorded as the serving path (e.g. ``"gpu"``, ``"cpu"``).
    operation:
        Zero-argument callable computing the result on this path.
    retry:
        Optional per-step retry policy wrapped around the operation.
    breaker:
        Optional circuit breaker consulted before attempting the step
        and informed of the outcome.
    """

    name: str
    operation: Callable[[], Any]
    retry: RetryPolicy | None = None
    breaker: CircuitBreaker | None = None


class FallbackChain:
    """Try each step in order; the first success serves the query.

    The chain realizes graceful degradation (e.g. GPU -> CPU-multi ->
    CPU-single): a step that raises one of *catch* passes the baton to
    the next step, and only the last step's failure propagates.  When a
    non-preferred step serves, the query is counted as degraded.
    """

    def __init__(
        self,
        steps: Sequence[FallbackStep],
        catch: tuple[type[Exception], ...] = TRANSIENT_DEVICE_ERRORS,
        report: ResilienceReport | None = None,
    ) -> None:
        if not steps:
            raise ExecutionError("a fallback chain needs at least one step")
        self.steps = list(steps)
        self.catch = catch
        self.report = report

    def run(
        self, ctx: "ExecutionContext | None" = None
    ) -> tuple[Any, str]:
        """Execute the chain; returns ``(result, serving_step_name)``.

        The final step is always attempted even when its breaker is
        open — refusing every rung would turn a degradation mechanism
        into an outage.
        """
        for index, step in enumerate(self.steps):
            is_last = index == len(self.steps) - 1
            if step.breaker is not None and not step.breaker.allow() and not is_last:
                continue
            try:
                if step.retry is not None:
                    result = step.retry.run(step.name, step.operation, ctx)
                else:
                    result = step.operation()
            except self.catch as error:
                if step.breaker is not None:
                    step.breaker.record_failure()
                if is_last:
                    raise
                if self.report is not None and _is_injected(error):
                    self.report.record_fallback()
                if ctx is not None:
                    ctx.counters.fault_fallbacks += 1
                continue
            if step.breaker is not None:
                step.breaker.record_success()
            if index > 0:
                if self.report is not None:
                    self.report.record_degraded_query()
                if ctx is not None:
                    ctx.counters.degraded_queries += 1
            return result, step.name
        raise AssertionError("unreachable: the last step always runs")  # pragma: no cover
