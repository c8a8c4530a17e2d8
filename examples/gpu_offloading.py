#!/usr/bin/env python3
"""GPU offloading, CoGaDB-style: placement, HyPE routing, and the
transfer-cost cliff.

Demonstrates the paper's heterogeneous-platform challenges on the
simulated device: the all-or-nothing column placement rule, HyPE's
calibrated CPU/GPU choice per query, and how Figure 2's panels 3 vs 4
emerge from one accounting switch (is the column already resident?).

Run:  python examples/gpu_offloading.py
"""

from repro.core.report import render_table
from repro.engines import CoGaDBEngine
from repro.execution import ExecutionContext
from repro.hardware import Platform
from repro.obs import Tracer, explain
from repro.workload import generate_items, item_schema

ROWS = 1_000_000


def main() -> None:
    platform = Platform.paper_testbed()
    engine = CoGaDBEngine(platform)
    engine.create("item", item_schema())
    engine.load("item", generate_items(ROWS))

    # Before placement, HyPE keeps the scan on the CPU: the transfer
    # would cost more than it saves.
    ctx = ExecutionContext(platform)
    engine.sum("item", "i_price", ctx)
    print(f"unplaced sum: HyPE chose {engine.scheduler.decisions[-1]!r}, "
          f"{ctx.seconds() * 1e3:.3f} simulated ms")

    # All-or-nothing placement: whole columns or nothing.
    ctx = ExecutionContext(platform)
    reports = engine.place_columns("item", ("i_price", "i_im_id"), ctx)
    for report in reports:
        print(f"place {report.attribute}: {report.reason}")
    print(f"device memory used: {platform.device_memory.used / 1e6:.1f} MB; "
          f"placement moved {ctx.counters.bytes_transferred / 1e6:.1f} MB over PCIe")

    # Resident columns flip HyPE's decision; tracing this one run says
    # where its time went.
    tracer = platform.tracer = Tracer()
    ctx = ExecutionContext(platform)
    total = engine.sum("item", "i_price", ctx)
    platform.tracer = None
    print(f"\nresident sum = {total:,.2f}: HyPE chose "
          f"{engine.scheduler.decisions[-1]!r}, {ctx.seconds() * 1e3:.3f} simulated ms")
    print("where the time went:")
    print(explain(ctx, tracer))

    # The panel 3 vs 4 story, as one table.
    from repro.bench import (
        panel3_sum_all_transfer_included,
        panel4_sum_all_device_resident,
    )

    rows_axis = (5_000_000, 25_000_000, 45_000_000, 65_000_000)
    panel3 = panel3_sum_all_transfer_included(rows_axis)
    panel4 = panel4_sum_all_device_resident(rows_axis)
    table = []
    for count in rows_axis:
        host = panel3.y_at("column-store / host & multi-threaded", count)
        staged = panel3.y_at("column-store / device", count)
        resident = panel4.y_at("column-store / device", count)
        table.append(
            (
                f"{count / 1e6:.0f}M",
                f"{host:.2f}",
                f"{staged:.2f}",
                f"{resident:.2f}",
                "host" if host < staged else "device",
                "device" if resident < host else "host",
            )
        )
    print("\nFigure 2 panels 3 vs 4 (simulated ms, full price-column sum):")
    print(
        render_table(
            table,
            (
                "#records",
                "CPU (8 threads)",
                "GPU + transfer",
                "GPU resident",
                "winner w/ transfer",
                "winner resident",
            ),
        )
    )
    print(
        "\nThe device wins if and only if the column already lives there — "
        "the paper's data-placement argument in one table."
    )


if __name__ == "__main__":
    main()
