"""The Figure 2 experiment harness: all four panels, paper-scale sweeps.

Each panel sweeps the paper's x-axis (table row counts in the tens of
millions) over the paper's series (storage model x threading policy x
compute platform) and reports simulated milliseconds per point.  The
stores are built as *phantom* fragment populations — exact geometry and
addresses, no payload — because 85M x 96 B of real numpy would need
~8 GB per point (DESIGN.md §6); the cost plane is payload-independent,
which ``tests/engines/test_common.py::TestPhantomLoads`` verifies.

Shape checkers encode the paper's findings (i)-(iv) as assertions, so
both the test suite and the benchmark harness validate that the
regenerated curves have the published shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.execution.context import ExecutionContext
from repro.execution.device import device_sum_column
from repro.execution.operators import materialize_rows, sum_at_positions, sum_column
from repro.execution.threading import (
    MULTI_THREADED_8,
    SINGLE_THREADED,
    ThreadingPolicy,
)
from repro.hardware.event import PerfCounters
from repro.hardware.platform import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.partitioning import one_region_per_attribute
from repro.layout.region import Region
from repro.model.relation import Relation
from repro.workload.queries import random_positions
from repro.workload.tpcc import customer_relation, item_relation

__all__ = [
    "SeriesPoint",
    "PanelResult",
    "PAPER_PANEL1_ROWS",
    "PAPER_PANEL2_ROWS",
    "PAPER_PANEL34_ROWS",
    "build_row_store",
    "build_column_store",
    "build_device_column_store",
    "panel1_materialize_customers",
    "panel2_sum_selected_items",
    "panel3_sum_all_transfer_included",
    "panel4_sum_all_device_resident",
    "check_panel1_shapes",
    "check_panel2_shapes",
    "check_panel3_shapes",
    "check_panel4_shapes",
    "trace_crosscheck",
    "render_panel",
]

#: The paper's x-axes (#records), scaled to the published ranges.
PAPER_PANEL1_ROWS = (5_000_000, 25_000_000, 45_000_000, 65_000_000, 85_000_000)
PAPER_PANEL2_ROWS = (10_000_000, 20_000_000, 30_000_000, 40_000_000, 50_000_000, 60_000_000)
PAPER_PANEL34_ROWS = (
    5_000_000, 15_000_000, 25_000_000, 35_000_000, 45_000_000, 55_000_000, 65_000_000,
)

#: Figure 2 touches exactly 150 customers / items in the point panels.
SELECTED_RECORDS = 150


@dataclass(frozen=True)
class SeriesPoint:
    """One (x, y) measurement of one series."""

    rows: int
    cycles: float
    milliseconds: float


@dataclass(frozen=True)
class PanelResult:
    """All series of one panel: series name -> points in x order."""

    title: str
    series: dict[str, tuple[SeriesPoint, ...]]

    def y_at(self, series_name: str, rows: int) -> float:
        """Milliseconds of one series at one x (for shape checks)."""
        for point in self.series[series_name]:
            if point.rows == rows:
                return point.milliseconds
        raise KeyError(f"{series_name} has no point at {rows}")


# ----------------------------------------------------------------------
# Store builders (phantom populations)
# ----------------------------------------------------------------------
def build_row_store(platform: Platform, relation: Relation) -> Layout:
    """One fat NSM fragment over the whole relation (the row store)."""
    fragment = Fragment(
        Region.full(relation),
        relation.schema,
        LinearizationKind.NSM,
        platform.host_memory,
        label=f"{relation.name}/nsm",
        materialize=False,
    )
    fragment.fill_phantom(relation.row_count)
    return Layout(f"{relation.name}/row-store", relation, [fragment])


def build_column_store(platform: Platform, relation: Relation) -> Layout:
    """One thin fragment per attribute (the column store)."""
    fragments = []
    for region in one_region_per_attribute(relation):
        fragment = Fragment(
            region,
            relation.schema,
            None,
            platform.host_memory,
            label=f"{relation.name}/{region.attributes[0]}",
            materialize=False,
        )
        fragment.fill_phantom(relation.row_count)
        fragments.append(fragment)
    return Layout(f"{relation.name}/column-store", relation, fragments)


def build_device_column_store(
    platform: Platform, relation: Relation, device_attributes: tuple[str, ...]
) -> Layout:
    """A column store whose *device_attributes* live in device memory."""
    fragments = []
    for region in one_region_per_attribute(relation):
        space = (
            platform.device_memory
            if region.attributes[0] in device_attributes
            else platform.host_memory
        )
        fragment = Fragment(
            region,
            relation.schema,
            None,
            space,
            label=f"{relation.name}/{region.attributes[0]}@{space.name}",
            materialize=False,
        )
        fragment.fill_phantom(relation.row_count)
        fragments.append(fragment)
    return Layout(f"{relation.name}/device-column-store", relation, fragments)


# ----------------------------------------------------------------------
# Panels
# ----------------------------------------------------------------------
def _host_series() -> dict[str, tuple[str, ThreadingPolicy]]:
    return {
        "row-store / host & single-threaded": ("row", SINGLE_THREADED),
        "row-store / host & multi-threaded": ("row", MULTI_THREADED_8),
        "column-store / host & single-threaded": ("column", SINGLE_THREADED),
        "column-store / host & multi-threaded": ("column", MULTI_THREADED_8),
    }


def _host_panel(
    title: str,
    row_counts: tuple[int, ...],
    make_relation,
    run_query,
) -> PanelResult:
    series: dict[str, list[SeriesPoint]] = {name: [] for name in _host_series()}
    for rows in row_counts:
        relation = make_relation(rows)
        platform = Platform.paper_testbed()
        stores = {
            "row": build_row_store(platform, relation),
            "column": build_column_store(platform, relation),
        }
        for name, (store_kind, threading) in _host_series().items():
            ctx = ExecutionContext(platform, threading=threading)
            run_query(stores[store_kind], relation, ctx)
            series[name].append(
                SeriesPoint(rows, ctx.cycles, ctx.seconds() * 1e3)
            )
    return PanelResult(
        title, {name: tuple(points) for name, points in series.items()}
    )


def panel1_materialize_customers(
    row_counts: tuple[int, ...] = PAPER_PANEL1_ROWS,
    selected: int = SELECTED_RECORDS,
) -> PanelResult:
    """Fig. 2 panel 1: materialize 150 customers (record-centric)."""

    def run(store, relation, ctx):
        positions = random_positions(relation.row_count, selected)
        materialize_rows(store, positions, ctx)

    return _host_panel(
        "materialize 150 customers", row_counts, customer_relation, run
    )


def panel2_sum_selected_items(
    row_counts: tuple[int, ...] = PAPER_PANEL2_ROWS,
    selected: int = SELECTED_RECORDS,
) -> PanelResult:
    """Fig. 2 panel 2: record-centric sum over 150 selected items.

    The record-centric variant accesses the items' *records* (the paper
    measures the record-centric data access pattern on the item table):
    the row store pulls each record in one access, the column store one
    access per attribute, then the price is aggregated.
    """

    def run(store, relation, ctx):
        positions = random_positions(relation.row_count, selected)
        materialize_rows(store, positions, ctx)
        sum_at_positions(store, "i_price", positions, ctx)

    return _host_panel("sum prices of 150 items", row_counts, item_relation, run)


def panel3_sum_all_transfer_included(
    row_counts: tuple[int, ...] = PAPER_PANEL34_ROWS,
) -> PanelResult:
    """Fig. 2 panel 3: sum ALL prices; device pays the PCIe transfer."""
    result = _host_panel(
        "sum all prices in items table",
        row_counts,
        item_relation,
        lambda store, relation, ctx: sum_column(store, "i_price", ctx),
    )
    device_points = []
    for rows in row_counts:
        relation = item_relation(rows)
        platform = Platform.paper_testbed()
        store = build_column_store(platform, relation)  # host-resident
        ctx = ExecutionContext(platform)
        device_sum_column(store, "i_price", ctx)
        device_points.append(SeriesPoint(rows, ctx.cycles, ctx.seconds() * 1e3))
    series = dict(result.series)
    series["column-store / device"] = tuple(device_points)
    return PanelResult(result.title, series)


def panel4_sum_all_device_resident(
    row_counts: tuple[int, ...] = PAPER_PANEL34_ROWS,
) -> PanelResult:
    """Fig. 2 panel 4: as panel 3, but 'transfer costs to device excluded'
    — the price column is device-resident."""
    result = _host_panel(
        "sum all prices in items table (transfer excluded)",
        row_counts,
        item_relation,
        lambda store, relation, ctx: sum_column(store, "i_price", ctx),
    )
    device_points = []
    for rows in row_counts:
        relation = item_relation(rows)
        platform = Platform.paper_testbed()
        store = build_device_column_store(platform, relation, ("i_price",))
        ctx = ExecutionContext(platform)
        device_sum_column(store, "i_price", ctx)
        device_points.append(SeriesPoint(rows, ctx.cycles, ctx.seconds() * 1e3))
    series = dict(result.series)
    series["column-store / device"] = tuple(device_points)
    return PanelResult(result.title, series)


# ----------------------------------------------------------------------
# Shape checks: the paper's findings (i)-(iv) as assertions
# ----------------------------------------------------------------------
def _violations_single_beats_multi(panel: PanelResult) -> list[str]:
    problems = []
    for store in ("row-store", "column-store"):
        single = f"{store} / host & single-threaded"
        multi = f"{store} / host & multi-threaded"
        for point_s, point_m in zip(panel.series[single], panel.series[multi]):
            if point_s.milliseconds >= point_m.milliseconds:
                problems.append(
                    f"(i) violated: {store} single {point_s.milliseconds:.4f} ms "
                    f">= multi {point_m.milliseconds:.4f} ms at {point_s.rows}"
                )
    return problems


def check_panel1_shapes(panel: PanelResult) -> list[str]:
    """Finding (i) single < multi for 150 records; (ii) NSM < DSM."""
    problems = _violations_single_beats_multi(panel)
    for threads in ("single-threaded", "multi-threaded"):
        row = panel.series[f"row-store / host & {threads}"]
        column = panel.series[f"column-store / host & {threads}"]
        for point_r, point_c in zip(row, column):
            if point_r.milliseconds >= point_c.milliseconds:
                problems.append(
                    f"(ii) violated: row {point_r.milliseconds:.4f} ms >= "
                    f"column {point_c.milliseconds:.4f} ms at {point_r.rows}"
                )
    return problems


def check_panel2_shapes(panel: PanelResult) -> list[str]:
    """Same orderings as panel 1 (record-centric on the item table)."""
    return check_panel1_shapes(panel)


def check_panel3_shapes(panel: PanelResult) -> list[str]:
    """(iii) DSM < NSM for full scans; multi < single at these sizes;
    with transfer included the device does NOT beat the best host run."""
    problems = []
    for threads in ("single-threaded", "multi-threaded"):
        column = panel.series[f"column-store / host & {threads}"]
        row = panel.series[f"row-store / host & {threads}"]
        for point_c, point_r in zip(column, row):
            if point_c.milliseconds >= point_r.milliseconds:
                problems.append(
                    f"(iii) violated: column {point_c.milliseconds:.3f} ms >= "
                    f"row {point_r.milliseconds:.3f} ms at {point_c.rows}"
                )
    for store in ("row-store", "column-store"):
        multi = panel.series[f"{store} / host & multi-threaded"]
        single = panel.series[f"{store} / host & single-threaded"]
        for point_m, point_s in zip(multi, single):
            if point_m.milliseconds >= point_s.milliseconds:
                problems.append(
                    f"threading violated: {store} multi {point_m.milliseconds:.3f} "
                    f">= single {point_s.milliseconds:.3f} at {point_m.rows}"
                )
    device = panel.series["column-store / device"]
    best_host = panel.series["column-store / host & multi-threaded"]
    for point_d, point_h in zip(device, best_host):
        if point_d.milliseconds <= point_h.milliseconds:
            problems.append(
                f"transfer accounting violated: device-with-transfer "
                f"{point_d.milliseconds:.3f} ms <= host {point_h.milliseconds:.3f} ms "
                f"at {point_d.rows}"
            )
    return problems


def check_panel4_shapes(panel: PanelResult) -> list[str]:
    """(iv) once the column is device-resident, the GPU beats every host
    series."""
    problems = []
    device = panel.series["column-store / device"]
    for name, points in panel.series.items():
        if name == "column-store / device":
            continue
        for point_d, point_h in zip(device, points):
            if point_d.milliseconds >= point_h.milliseconds:
                problems.append(
                    f"(iv) violated: device {point_d.milliseconds:.3f} ms >= "
                    f"{name} {point_h.milliseconds:.3f} ms at {point_d.rows}"
                )
    return problems


def trace_crosscheck(
    row_count: int = 200_000, attribute: str = "i_price"
) -> dict[str, dict[str, float]]:
    """Batched trace-vs-analytic agreement at benchmark-relevant scale.

    Builds the panel stores' two canonical access shapes — the DSM
    column stream and the NSM whole-record strided walk — as address
    arrays (:func:`~repro.layout.linearization.dsm_column_addresses`,
    :func:`~repro.layout.linearization.nsm_record_addresses`), replays
    them through the platform's exact trace-driven hierarchy with
    :meth:`~repro.hardware.cache.CacheHierarchy.access_batch`, and
    returns per shape the traced cycles, the analytic model's cycles
    and their ratio.  This is the same cross-check the agreement tests
    run, packaged for the benchmark drivers: the batch path is what
    makes running it at paper-relevant sizes affordable.
    """
    import numpy as np

    from repro.layout.linearization import (
        dsm_column_addresses,
        nsm_record_addresses,
    )
    from repro.workload.tpcc import customer_relation

    platform = Platform.paper_testbed()
    model = platform.memory_model
    results: dict[str, dict[str, float]] = {}

    # DSM: one contiguous column stream (panels 3/4's scan shape).  The
    # per-value addresses are coalesced to line granularity before
    # tracing — the analytic model prices lines, and the agreement
    # convention (tests/hardware/test_cache.py) traces one access per
    # line for streams.
    items = item_relation(row_count)
    column_store = build_column_store(platform, items)
    fragment = column_store.fragments_for_attribute(attribute)[0]
    base, __ = fragment.column_address_range(attribute)
    width = fragment.schema.attribute(attribute).width
    addresses, sizes = dsm_column_addresses(
        base, fragment.schema, fragment.capacity, attribute, range(row_count)
    )
    step = max(model.line // width, 1)
    line_addresses = addresses[::step]
    line_sizes = np.full(line_addresses.shape, width * step, dtype=np.int64)
    hierarchy = platform.make_trace_hierarchy()
    traced = hierarchy.access_batch(line_addresses, line_sizes, PerfCounters())
    analytic = model.sequential(row_count * width)
    results["dsm_stream"] = {
        "traced_cycles": traced,
        "analytic_cycles": analytic,
        # Streams are bandwidth-bound in both views: ratio ~ 1.
        "ratio": traced / analytic if analytic else 1.0,
    }

    # NSM: one field per record, strided by the record width (panel 2's
    # scan-over-rows shape; customer records are 96 bytes, so the
    # stride survives line granularity).  The trace serializes misses
    # the analytic model overlaps by mlp, so the agreement ratio is
    # traced / (mlp * analytic) ~ 1 (same convention as the tests).
    customers = customer_relation(row_count)
    row_store = build_row_store(platform, customers)
    nsm = row_store.fragments[0]
    base, __ = nsm.record_address(0)
    record_addresses, __ = nsm_record_addresses(
        base, nsm.schema, range(row_count)
    )
    field_addresses = record_addresses + nsm.schema.offset_of(attribute_nsm(nsm))
    field_width = nsm.schema.attribute(attribute_nsm(nsm)).width
    field_sizes = np.full(field_addresses.shape, field_width, dtype=np.int64)
    hierarchy = platform.make_trace_hierarchy()
    traced = hierarchy.access_batch(field_addresses, field_sizes, PerfCounters())
    analytic = model.strided(
        count=row_count,
        stride=nsm.schema.record_width,
        touched=field_width,
        footprint=nsm.nbytes,
    )
    serialized = model.mlp * analytic
    results["nsm_strided"] = {
        "traced_cycles": traced,
        "analytic_cycles": analytic,
        "ratio": traced / serialized if serialized else 1.0,
    }
    return results


def attribute_nsm(fragment: Fragment) -> str:
    """The widest attribute of a fragment's schema (the scan target)."""
    return max(fragment.schema, key=lambda attribute: attribute.width).name


def render_panel(panel: PanelResult) -> str:
    """A plain-text table of the panel (rows on the x-axis)."""
    from repro.core.report import render_table

    names = sorted(panel.series)
    row_counts = [point.rows for point in panel.series[names[0]]]
    rows = []
    for index, count in enumerate(row_counts):
        rows.append(
            (
                f"{count / 1e6:.0f}M",
                *(
                    f"{panel.series[name][index].milliseconds:.4f}"
                    for name in names
                ),
            )
        )
    return (
        f"{panel.title} (milliseconds, simulated)\n"
        + render_table(rows, ("#records", *names))
    )
