"""The instant events the staging and fault sites emit, pinned exactly.

Driven through the real sites: a cold then warm ``device_sum_column``
with one forced ``pcie.transfer`` fault, an acquire that evicts because
``capacity_bytes`` is too small, and an armed ``device.alloc`` fault
recovered by evicting the LRU replica.  The obs plane checks only the
instant categories; this test pins names, order and attributes.
"""

import numpy as np

from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.faults.injector import (
    SITE_DEVICE_ALLOC,
    SITE_PCIE_TRANSFER,
    FaultInjector,
)
from repro.faults.policy import RetryPolicy
from repro.hardware import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.obs.tracer import Tracer

ROWS = 500


def price_store(platform, label):
    relation = Relation(label, Schema.of(("price", FLOAT64)), ROWS)
    fragment = Fragment(
        Region.full(relation), relation.schema, None, platform.host_memory,
        label=label,
    )
    fragment.append_columns({"price": np.arange(ROWS, dtype=np.float64)})
    return Layout(label, relation, [fragment])


def test_staging_and_fault_sites_emit_the_pinned_instants():
    platform = Platform.paper_testbed()
    platform.tracer = Tracer()
    injector = FaultInjector(seed=7)
    injector.arm(SITE_PCIE_TRANSFER, 1.0, max_faults=1)
    injector.install(platform)
    ctx = ExecutionContext(platform, retry=RetryPolicy(report=injector.report))
    first, second, third = (
        price_store(platform, label) for label in ("first", "second", "third")
    )

    # Cold (miss, one retried PCIe fault), then warm (hit).
    device_sum_column(first, "price", ctx)
    device_sum_column(first, "price", ctx)
    # Room for one column only: staging the second evicts the first.
    platform.staging.capacity_bytes = ROWS * 8
    device_sum_column(second, "price", ctx)
    # An injected device OOM is absorbed by evicting the LRU replica.
    injector.arm(SITE_DEVICE_ALLOC, 1.0, max_faults=1)
    device_sum_column(third, "price", ctx)

    events = [
        (event.name, event.category, event.attrs)
        for event in platform.tracer.events
    ]
    assert events == [
        ("staging-miss", "staging", {"column": "first.price"}),
        ("fault(pcie.transfer)", "fault", {"site": "pcie.transfer"}),
        ("staging-hit", "staging", {"column": "first.price"}),
        ("staging-miss", "staging", {"column": "second.price"}),
        ("staging-evict", "staging", {"reason": "capacity"}),
        ("staging-miss", "staging", {"column": "third.price"}),
        ("fault(device.alloc)", "fault", {"site": "device.alloc"}),
        ("staging-evict", "staging", {"reason": "device-oom"}),
    ]
    report = injector.report
    assert report.injected == 2
    assert report.retried == 1 and report.recovered == 1
