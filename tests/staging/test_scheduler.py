"""TransferScheduler properties: coalescing and cold-path byte-identity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.hardware import Platform
from repro.hardware.event import PerfCounters
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64
from repro.model.relation import Relation
from repro.model.schema import Schema

SIZES = st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8)


class TestCoalescing:
    @given(sizes=SIZES)
    def test_burst_equals_one_transfer_of_the_sum(self, sizes):
        # The coalescing identity, compared exactly: a burst charges the
        # same float the historical single transfer of the summed
        # payload charged.
        platform = Platform.paper_testbed()
        scheduler = platform.staging.scheduler
        assert scheduler.burst(sizes) == platform.interconnect.transfer_cost(
            sum(sizes)
        )

    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=10**8), min_size=2, max_size=8
        )
    )
    def test_burst_of_n_pays_one_latency(self, sizes):
        # N coalesced transfers: N bandwidth terms, ONE link latency —
        # versus N latencies for N separate transfers.
        platform = Platform.paper_testbed()
        interconnect = platform.interconnect
        scheduler = platform.staging.scheduler
        burst = scheduler.burst(sizes)
        latency_cycles = interconnect.latency_s * interconnect.host_frequency_hz
        bandwidth_cycles = (
            sum(sizes) / interconnect.bandwidth * interconnect.host_frequency_hz
        )
        assert burst == pytest.approx(latency_cycles + bandwidth_cycles)
        singles = sum(interconnect.transfer_cost(size) for size in sizes)
        assert burst == pytest.approx(
            singles - (len(sizes) - 1) * latency_cycles
        )

    def test_accounted_transfer_is_dropin_for_legacy_call(self):
        platform = Platform.paper_testbed()
        legacy, staged = PerfCounters(), PerfCounters()
        expected = platform.interconnect.transfer_cost(4096, legacy)
        actual = platform.staging.scheduler.transfer(4096, staged)
        assert actual == expected
        assert staged.cycles == legacy.cycles
        assert staged.bytes_transferred == legacy.bytes_transferred == 4096
        assert staged.pcie_bytes == 4096
        assert staged.transfers == 1

    def test_zero_byte_burst_charges_nothing(self):
        platform = Platform.paper_testbed()
        counters = PerfCounters()
        assert platform.staging.scheduler.burst((0, 0), counters) == 0.0
        assert counters.cycles == 0.0
        assert counters.transfers == 0

    def test_negative_size_rejected(self):
        platform = Platform.paper_testbed()
        with pytest.raises(ExecutionError):
            platform.staging.scheduler.burst((8, -1))


class TestColdByteIdentity:
    def test_cold_device_sum_matches_legacy_charge_sequence(self):
        # A cold staging cache must reproduce the pre-cache costs float
        # for float: one column transfer, the two-pass reduction, one
        # result copy — compared with ==, not a tolerance.
        platform = Platform.paper_testbed()
        rows = 10_000
        relation = Relation("prices", Schema.of(("price", FLOAT64)), rows)
        fragment = Fragment(
            Region.full(relation), relation.schema, None, platform.host_memory
        )
        fragment.append_columns({"price": np.arange(rows, dtype=np.float64)})
        ctx = ExecutionContext(platform)
        device_sum_column(Layout("c", relation, [fragment]), "price", ctx)
        legacy = PerfCounters()
        platform.interconnect.transfer_cost(rows * 8, legacy)
        platform.gpu.reduction_cost(rows, 8, legacy)
        platform.interconnect.transfer_cost(8, legacy)
        assert ctx.counters.cycles == legacy.cycles
        assert ctx.counters.bytes_transferred == legacy.bytes_transferred
