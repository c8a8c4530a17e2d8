"""One point write is charged once per copy of the written cell.

A copy is a distinct fragment object covering the cell: layouts that
share a fragment object are two views of one copy, and a write through
both must not be charged twice.  Device-resident copies (GPUTx's) are
written by a transaction kernel, charged as kernel traffic rather than
host ``bytes_written``; a placed column's pinned replica is not a
fragment and is charged on its next device read, as a patch.
"""

import pytest

from repro.core.reference_engine import ReferenceEngine
from repro.core.survey import build_reference_instances
from repro.execution import ExecutionContext
from repro.hardware import Platform
from repro.hardware.memory import MemoryKind
from repro.workload import generate_items, item_schema

ROWS = 600
POSITION = 7


#: The ten survey instances and the reference design, by engine name.
NAMES = (
    "PAX", "Frac. Mirrors", "HYRISE", "ES2", "GPUTx", "H2O", "HyPer",
    "CoGaDB", "L-Store", "Peloton", "Reference",
)

@pytest.fixture(scope="module")
def instances():
    built = build_reference_instances(ROWS)
    platform = Platform.paper_testbed()
    reference = ReferenceEngine(platform)
    reference.create("item", item_schema())
    reference.load("item", generate_items(ROWS))
    engines = {engine.name: engine for engine, __ in built + [(reference, "item")]}
    assert tuple(engines) == NAMES
    return engines


@pytest.mark.parametrize("name", NAMES)
def test_a_point_update_is_charged_once_per_host_copy(instances, name):
    engine = instances[name]
    copies = {
        id(fragment): fragment
        for layout in engine.layouts("item")
        for fragment in layout.fragments
        if fragment.region.contains(POSITION, "i_price")
    }.values()
    host_copies = [f for f in copies if f.space.kind is not MemoryKind.DEVICE]
    ctx = ExecutionContext(engine.platform)
    engine.update("item", POSITION, "i_price", 3.5, ctx)
    assert ctx.counters.bytes_written == 8 * len(host_copies)
