"""FaultInjector unit tests: sites, specs, determinism, installation."""

import pytest

from repro.errors import (
    DeviceError,
    ExecutionError,
    ReproError,
    TransferError,
)
from repro.execution import ExecutionContext
from repro.faults import (
    FAULT_SITES,
    SITE_DEVICE_ALLOC,
    SITE_KERNEL_LAUNCH,
    SITE_PCIE_TRANSFER,
    FaultInjector,
    FaultSpec,
    register_fault_site,
)
from repro.hardware import Platform
from repro.hardware.event import PerfCounters


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ExecutionError):
            FaultSpec("no.such.site", 0.5)

    def test_probability_bounds(self):
        with pytest.raises(ExecutionError):
            FaultSpec(SITE_PCIE_TRANSFER, 1.5)
        with pytest.raises(ExecutionError):
            FaultSpec(SITE_PCIE_TRANSFER, -0.1)

    def test_negative_cap_rejected(self):
        with pytest.raises(ExecutionError):
            FaultSpec(SITE_PCIE_TRANSFER, 0.5, max_faults=-1)

    def test_exhaustion(self):
        spec = FaultSpec(SITE_PCIE_TRANSFER, 1.0, max_faults=2)
        assert not spec.exhausted
        spec.fired = 2
        assert spec.exhausted


class TestRegistry:
    def test_builtin_sites_registered(self):
        for site in (SITE_PCIE_TRANSFER, SITE_DEVICE_ALLOC, SITE_KERNEL_LAUNCH):
            description, error = FAULT_SITES[site]
            assert description
            assert issubclass(error, ReproError)

    def test_register_new_site(self):
        name = register_fault_site("test.flaky-cache", "cache line flip")
        try:
            assert name in FAULT_SITES
            with pytest.raises(ExecutionError):
                FaultInjector(seed=1).arm(name, 1.0).check(name)
        finally:
            del FAULT_SITES["test.flaky-cache"]

    def test_conflicting_reregistration_rejected(self):
        with pytest.raises(ExecutionError):
            register_fault_site(SITE_PCIE_TRANSFER, "something else entirely")

    def test_idempotent_reregistration_allowed(self):
        description, error = FAULT_SITES[SITE_PCIE_TRANSFER]
        assert register_fault_site(SITE_PCIE_TRANSFER, description, error) == (
            SITE_PCIE_TRANSFER
        )


class TestInjection:
    def test_unarmed_site_never_fires(self):
        injector = FaultInjector(seed=1)
        assert not any(injector.fires(SITE_PCIE_TRANSFER) for _ in range(100))

    def test_armed_site_fires_eventually(self):
        injector = FaultInjector(seed=1).arm(SITE_PCIE_TRANSFER, 0.5)
        assert any(injector.fires(SITE_PCIE_TRANSFER) for _ in range(100))

    def test_unarmed_checks_consume_no_randomness(self):
        """The fault sequence only depends on draws at armed sites."""
        plain = FaultInjector(seed=9).arm(SITE_PCIE_TRANSFER, 0.3)
        noisy = FaultInjector(seed=9).arm(SITE_PCIE_TRANSFER, 0.3)
        pattern_plain = []
        pattern_noisy = []
        for _ in range(60):
            pattern_plain.append(plain.fires(SITE_PCIE_TRANSFER))
            noisy.fires(SITE_DEVICE_ALLOC)  # unarmed: must not perturb
            pattern_noisy.append(noisy.fires(SITE_PCIE_TRANSFER))
        assert pattern_plain == pattern_noisy

    def test_max_faults_cap(self):
        injector = FaultInjector(seed=1).arm(SITE_PCIE_TRANSFER, 1.0, max_faults=3)
        fired = sum(injector.fires(SITE_PCIE_TRANSFER) for _ in range(10))
        assert fired == 3
        assert injector.total_injected == 3

    def test_check_raises_registered_error_marked_injected(self):
        injector = FaultInjector(seed=1).arm(SITE_DEVICE_ALLOC, 1.0)
        counters = PerfCounters()
        with pytest.raises(DeviceError) as excinfo:
            injector.check(SITE_DEVICE_ALLOC, counters)
        assert excinfo.value.injected is True
        assert counters.faults_injected == 1
        assert injector.report.injected_by_site[SITE_DEVICE_ALLOC] == 1

    def test_arm_all(self):
        injector = FaultInjector(seed=1).arm_all(0.2)
        assert set(injector.specs) == set(FAULT_SITES)

    def test_duplicate_arm_rejected(self):
        """Re-arming silently overwrote the schedule before; now it errors."""
        injector = FaultInjector(seed=1).arm(SITE_PCIE_TRANSFER, 0.3)
        with pytest.raises(ExecutionError, match="already armed"):
            injector.arm(SITE_PCIE_TRANSFER, 0.9)
        # The original schedule survives the rejected re-arm.
        assert injector.specs[SITE_PCIE_TRANSFER].probability == 0.3

    def test_disarm_then_rearm(self):
        injector = FaultInjector(seed=1).arm(SITE_PCIE_TRANSFER, 0.3)
        injector.disarm(SITE_PCIE_TRANSFER)
        assert SITE_PCIE_TRANSFER not in injector.specs
        injector.arm(SITE_PCIE_TRANSFER, 0.9)
        assert injector.specs[SITE_PCIE_TRANSFER].probability == 0.9

    def test_disarm_unknown_site_is_noop(self):
        FaultInjector(seed=1).disarm("never.armed.site")

    def test_choice_is_deterministic(self):
        options = ["a", "b", "c", "d"]
        picks_one = [FaultInjector(seed=4).choice(options) for _ in range(1)]
        picks_two = [FaultInjector(seed=4).choice(options) for _ in range(1)]
        assert picks_one == picks_two

    def test_choice_requires_options(self):
        with pytest.raises(ExecutionError):
            FaultInjector(seed=1).choice([])


class TestInstallation:
    def test_install_hooks_platform_models(self, platform: Platform):
        injector = FaultInjector(seed=1)
        injector.install(platform)
        assert platform.injector is injector
        assert platform.interconnect.injector is injector
        assert platform.gpu.injector is injector

    def test_transfer_fault_charges_before_raising(self, platform: Platform):
        FaultInjector(seed=1).arm(SITE_PCIE_TRANSFER, 1.0).install(platform)
        counters = PerfCounters()
        with pytest.raises(TransferError):
            platform.interconnect.transfer_cost(1 << 20, counters)
        assert counters.cycles > 0  # the wire time was burned anyway
        assert counters.bytes_transferred == 1 << 20
        assert counters.faults_injected == 1

    def test_prediction_calls_never_fault(self, platform: Platform):
        """Cost-model *predictions* pass no counters and stay pure."""
        FaultInjector(seed=1).arm_all(1.0).install(platform)
        assert platform.interconnect.transfer_cost(1 << 20) > 0
        assert platform.gpu.reduction_cost(1000, 4) > 0

    def test_kernel_fault_raises_device_error(self, platform: Platform):
        FaultInjector(seed=1).arm(SITE_KERNEL_LAUNCH, 1.0).install(platform)
        counters = PerfCounters()
        with pytest.raises(DeviceError):
            platform.gpu.reduction_cost(1000, 4, counters)
        assert counters.cycles > 0

    def test_uninstalled_platform_is_fault_free(self, platform: Platform):
        ctx = ExecutionContext(platform)
        cost = platform.interconnect.transfer_cost(1 << 20, ctx.counters)
        assert cost > 0
        assert ctx.counters.faults_injected == 0
