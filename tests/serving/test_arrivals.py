"""Open-loop arrival processes and the multi-tenant generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.serving.arrivals import PoissonArrivals, TenantSpec, WorkloadGenerator
from repro.workload.tpcc import item_relation

HORIZON = 2_000_000.0


def _rng(seed: int = 3) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestProcesses:
    def test_poisson_mean_gap_is_roughly_the_mean(self):
        cycles = PoissonArrivals(10_000.0).cycles_until(_rng(), 10_000_000.0, 10_000)
        gaps = np.diff([0.0, *cycles])
        assert 8_000.0 < float(np.mean(gaps)) < 12_000.0

    def test_arrivals_are_sorted_and_within_horizon(self):
        cycles = PoissonArrivals(5_000.0).cycles_until(_rng(), HORIZON, 10_000)
        assert cycles
        assert cycles == sorted(cycles)
        assert all(0.0 < cycle <= HORIZON for cycle in cycles)

    def test_limit_caps_the_stream(self):
        cycles = PoissonArrivals(10.0).cycles_until(_rng(), HORIZON, 17)
        assert len(cycles) == 17

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(0.0)
        with pytest.raises(WorkloadError):
            PoissonArrivals(100.0).cycles_until(_rng(), 0.0, 10)


class TestTenantSpec:
    def test_rejects_nonpositive_weight_and_negative_priority(self):
        process = PoissonArrivals(100.0)
        with pytest.raises(WorkloadError):
            TenantSpec("t", process, weight=0.0)
        with pytest.raises(WorkloadError):
            TenantSpec("t", process, priority=-1)


class TestWorkloadGenerator:
    def _generator(self, seed: int = 0, tenant_count: int = 3) -> WorkloadGenerator:
        tenants = tuple(
            TenantSpec(
                f"t{index}",
                PoissonArrivals(50_000.0),
                weight=1.0 + index,
                priority=index % 2,
                seed_offset=index,
            )
            for index in range(tenant_count)
        )
        return WorkloadGenerator(item_relation(10_000), tenants, seed=seed)

    def test_merged_stream_is_time_sorted_with_dense_seqs(self):
        arrivals = self._generator().arrivals(HORIZON)
        assert arrivals
        assert [a.seq for a in arrivals] == list(range(len(arrivals)))
        cycles = [a.cycle for a in arrivals]
        assert cycles == sorted(cycles)

    def test_same_seed_is_byte_identical_different_seed_is_not(self):
        first = self._generator(seed=5).arrivals(HORIZON)
        second = self._generator(seed=5).arrivals(HORIZON)
        other = self._generator(seed=6).arrivals(HORIZON)
        assert first == second
        assert first != other

    def test_arrivals_carry_tenant_identity_and_rights(self):
        arrivals = self._generator().arrivals(HORIZON)
        by_tenant = {a.tenant for a in arrivals}
        assert by_tenant == {"t0", "t1", "t2"}
        for arrival in arrivals:
            index = int(arrival.tenant[1:])
            assert arrival.weight == 1.0 + index
            assert arrival.priority == index % 2
            assert arrival.spec.relation_name == "item"

    def test_duplicate_tenant_names_are_rejected(self):
        process = PoissonArrivals(100.0)
        with pytest.raises(WorkloadError):
            WorkloadGenerator(
                item_relation(100),
                (TenantSpec("t", process), TenantSpec("t", process)),
            )

    def test_no_tenants_is_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(item_relation(100), ())
