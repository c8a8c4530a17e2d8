"""RetryPolicy, CircuitBreaker and FallbackChain unit tests."""

import pytest

from repro.errors import (
    CapacityError,
    DeadlineExceeded,
    DeviceError,
    EngineError,
    ExecutionError,
    TransferError,
)
from repro.execution import ExecutionContext
from repro.faults import (
    CircuitBreaker,
    FallbackChain,
    FallbackStep,
    FaultInjector,
    ResilienceReport,
    RetryPolicy,
)


def injected_transfer_error() -> TransferError:
    error = TransferError("injected transfer fault")
    error.injected = True
    return error


class Flaky:
    """Callable failing a fixed number of times before succeeding."""

    def __init__(self, failures: int, error_factory=injected_transfer_error):
        self.failures = failures
        self.error_factory = error_factory
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error_factory()
        return "served"


class TestRetryPolicy:
    def test_transient_failure_absorbed(self, ctx: ExecutionContext):
        report = ResilienceReport()
        policy = RetryPolicy(max_attempts=3, report=report)
        flaky = Flaky(failures=2)
        assert policy.run("op", flaky, ctx) == "served"
        assert flaky.calls == 3
        assert report.retried == 2
        assert ctx.counters.fault_retries == 2

    def test_backoff_charged_in_cycles(self, ctx: ExecutionContext):
        report = ResilienceReport()
        policy = RetryPolicy(max_attempts=2, backoff_cycles=10_000.0, report=report)
        policy.run("op", Flaky(failures=1), ctx)
        assert ctx.counters.cycles >= 9_000.0  # one jittered backoff
        assert ctx.counters.cycles == report.backoff_cycles

    def test_exhausted_attempts_propagate_untallied(self, ctx: ExecutionContext):
        report = ResilienceReport()
        policy = RetryPolicy(max_attempts=3, report=report)
        with pytest.raises(TransferError):
            policy.run("op", Flaky(failures=99), ctx)
        # Two absorbed failures tallied; the final one is the caller's
        # to attribute (fallback or surfaced), never double-counted.
        assert report.retried == 2

    def test_organic_errors_not_counted_as_injected(self, ctx: ExecutionContext):
        def organic_error():
            return TransferError("organic wire fault")

        report = ResilienceReport()
        policy = RetryPolicy(max_attempts=2, report=report)
        policy.run("op", Flaky(failures=1, error_factory=organic_error), ctx)
        assert report.retried == 0  # retried, but not an injected fault
        assert report.retry_attempts == 1

    def test_non_retryable_propagates_immediately(self, ctx: ExecutionContext):
        def fatal():
            raise EngineError("not transient")

        with pytest.raises(EngineError):
            RetryPolicy(max_attempts=5).run("op", fatal, ctx)

    def test_jitter_is_seed_deterministic(self):
        def charge_pattern(seed: int) -> list[float]:
            policy = RetryPolicy(max_attempts=4, seed=seed, report=ResilienceReport())
            try:
                policy.run("op", Flaky(failures=99), None)
            except TransferError:
                pass
            return policy.report.backoff_cycles

        assert charge_pattern(3) == charge_pattern(3)

    def test_validation(self):
        with pytest.raises(ExecutionError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExecutionError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ExecutionError):
            RetryPolicy(jitter=1.0)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_calls=2)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.is_open
        assert breaker.opens == 1

    def test_cooldown_then_half_open_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=2)
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()  # half-open probe admitted
        breaker.record_success()
        assert not breaker.is_open
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_calls=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.is_open

    def test_validation(self):
        with pytest.raises(ExecutionError):
            CircuitBreaker(failure_threshold=0)


class TestFallbackChain:
    def gpu_then_cpu(self, gpu, report=None, breaker=None):
        return FallbackChain(
            [
                FallbackStep("gpu", gpu, breaker=breaker),
                FallbackStep("cpu", lambda: "cpu-served"),
            ],
            report=report,
        )

    def test_first_step_serves_when_healthy(self, ctx: ExecutionContext):
        chain = self.gpu_then_cpu(lambda: "gpu-served")
        assert chain.run(ctx) == ("gpu-served", "gpu")
        assert ctx.counters.degraded_queries == 0

    def test_degrades_on_transient_error(self, ctx: ExecutionContext):
        report = ResilienceReport()
        chain = self.gpu_then_cpu(Flaky(failures=99), report=report)
        assert chain.run(ctx) == ("cpu-served", "cpu")
        assert report.fallen_back == 1
        assert report.degraded_queries == 1
        assert ctx.counters.fault_fallbacks == 1
        assert ctx.counters.degraded_queries == 1

    def test_capacity_error_degrades_too(self, ctx: ExecutionContext):
        def oom():
            raise CapacityError("device full")

        assert self.gpu_then_cpu(oom).run(ctx) == ("cpu-served", "cpu")

    def test_last_step_failure_propagates(self, ctx: ExecutionContext):
        def always_fails():
            raise DeviceError("boom")

        chain = FallbackChain([FallbackStep("only", always_fails)])
        with pytest.raises(DeviceError):
            chain.run(ctx)

    def test_open_breaker_skips_step(self, ctx: ExecutionContext):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=10)
        breaker.record_failure()
        gpu = Flaky(failures=0)
        chain = self.gpu_then_cpu(gpu, breaker=breaker)
        assert chain.run(ctx) == ("cpu-served", "cpu")
        assert gpu.calls == 0  # never attempted: circuit is open

    def test_last_step_runs_even_with_open_breaker(self, ctx: ExecutionContext):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=10)
        breaker.record_failure()
        chain = FallbackChain(
            [FallbackStep("only", lambda: "served", breaker=breaker)]
        )
        assert chain.run(ctx) == ("served", "only")

    def test_breaker_learns_from_chain_outcomes(self, ctx: ExecutionContext):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_calls=4)
        gpu = Flaky(failures=2)
        chain = self.gpu_then_cpu(gpu, breaker=breaker)
        chain.run(ctx)
        chain.run(ctx)
        assert breaker.is_open

    def test_per_step_retry_is_consulted(self, ctx: ExecutionContext):
        report = ResilienceReport()
        chain = FallbackChain(
            [
                FallbackStep(
                    "gpu",
                    Flaky(failures=1),
                    retry=RetryPolicy(max_attempts=2, report=report),
                ),
                FallbackStep("cpu", lambda: "cpu-served"),
            ],
            report=report,
        )
        assert chain.run(ctx) == ("served", "gpu")
        assert report.retried == 1
        assert report.fallen_back == 0

    def test_empty_chain_rejected(self):
        with pytest.raises(ExecutionError):
            FallbackChain([])

    def test_report_counts_only_injected_fallbacks(self, ctx: ExecutionContext):
        def organic():
            raise TransferError("organic")

        report = ResilienceReport()
        chain = self.gpu_then_cpu(organic, report=report)
        chain.run(ctx)
        assert report.fallen_back == 0
        assert ctx.counters.fault_fallbacks == 1  # still visible in counters


class TestReportInvariants:
    def test_unaccounted_tracks_outcomes(self):
        report = ResilienceReport()
        injector = FaultInjector(seed=1, report=report).arm(
            "pcie.transfer", 1.0, max_faults=3
        )
        for _ in range(3):
            injector.fires("pcie.transfer")
        assert report.unaccounted == 3
        report.record_retried()
        report.record_fallback()
        report.record_surfaced()
        assert report.unaccounted == 0
        assert report.injected == report.handled == 3

    def test_snapshot_and_render_are_stable(self):
        report = ResilienceReport()
        report.record_injected("pcie.transfer")
        report.record_retried()
        snapshot = report.snapshot()
        assert snapshot["injected[pcie.transfer]"] == 1
        assert snapshot["retried"] == 1
        assert "resilience report" in report.render()
        assert "unaccounted" in report.render()


class TestRetryDeadline:
    """`max_total_cycles`: a hard cap on cumulative backoff."""

    def test_deadline_raises_deadline_exceeded(self, ctx: ExecutionContext):
        policy = RetryPolicy(
            max_attempts=10, backoff_cycles=10_000.0, max_total_cycles=15_000.0
        )
        flaky = Flaky(failures=99)
        with pytest.raises(DeadlineExceeded):
            policy.run("op", flaky, ctx)
        # First backoff (~10k) fits; the second (~20k) would blow the
        # 15k budget, so the policy gives up after two attempts.
        assert flaky.calls == 2

    def test_deadline_chains_and_marks_the_last_error(
        self, ctx: ExecutionContext
    ):
        policy = RetryPolicy(
            max_attempts=10, backoff_cycles=10_000.0, max_total_cycles=0.0
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            policy.run("op", Flaky(failures=99), ctx)
        assert isinstance(excinfo.value.__cause__, TransferError)
        assert excinfo.value.injected  # propagated from the last error

    def test_deadline_propagates_untallied(self, ctx: ExecutionContext):
        report = ResilienceReport()
        policy = RetryPolicy(
            max_attempts=10,
            backoff_cycles=10_000.0,
            max_total_cycles=0.0,
            report=report,
        )
        with pytest.raises(DeadlineExceeded):
            policy.run("op", Flaky(failures=99), ctx)
        # The deadline error is the caller's to attribute — the report
        # saw no retry and stays balanced once the caller surfaces it.
        assert report.retried == 0
        assert report.retry_attempts == 0

    def test_organic_deadline_is_not_marked_injected(
        self, ctx: ExecutionContext
    ):
        def organic_error():
            return TransferError("organic wire fault")

        policy = RetryPolicy(
            max_attempts=10, backoff_cycles=10_000.0, max_total_cycles=0.0
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            policy.run("op", Flaky(failures=99, error_factory=organic_error), ctx)
        assert not excinfo.value.injected

    def test_deadline_boundary_is_inclusive(self, ctx: ExecutionContext):
        # Regression: with jitter off, the very first backoff lands
        # *exactly* on the budget.  The deadline is a budget, not a
        # threshold — elapsed == deadline leaves no budget to retry in,
        # so the policy must surface DeadlineExceeded, not sleep-retry.
        policy = RetryPolicy(
            max_attempts=10,
            backoff_cycles=10_000.0,
            jitter=0.0,
            max_total_cycles=10_000.0,
        )
        flaky = Flaky(failures=99)
        with pytest.raises(DeadlineExceeded):
            policy.run("op", flaky, ctx)
        assert flaky.calls == 1
        assert ctx.counters.fault_retries == 0

    def test_unbounded_when_unset(self, ctx: ExecutionContext):
        policy = RetryPolicy(max_attempts=6, backoff_cycles=50_000.0)
        assert policy.run("op", Flaky(failures=5), ctx) == "served"

    def test_negative_deadline_rejected(self):
        with pytest.raises(ExecutionError):
            RetryPolicy(max_total_cycles=-1.0)
