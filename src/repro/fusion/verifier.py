"""The fusion plane: ``python -m repro.verify fusion``.

Builds ``BENCH_fusion.json`` — the pipeline compiler's acceptance
record — and gates the tentpole claims:

* the **speedup gate**: on the attribute-centric probe query
  (``sum(i_price) where i_im_id < t`` at selectivity 0.5), the fused
  path must run at least **3x** cheaper end-to-end than the unfused
  operator chain, on the host columns *and* on the device (warm
  staging — the placement an engine actually repeats queries on);
* the **byte-identity gate**: every fused answer across the ablation
  grid must equal the unfused host oracle's, compared with ``==``,
  not a tolerance — fusion is an optimization, never a semantics
  change;
* the **ranking gate**: HyPE's uncalibrated route features must rank
  fused vs. unfused correctly on every grid cell, on both placements —
  including the low-selectivity cells where the unfused host path
  genuinely wins.

All three gate the record's ``ok``.
"""

from __future__ import annotations

from typing import Any

from repro.bench.ablations import SWEEPS, fusion_sweep
from repro.obs.bench import make_bench_record
from repro.obs.logging import get_logger

__all__ = ["verify"]

logger = get_logger(__name__)

#: The gated selectivity cell: half the rows match — squarely in the
#: regime the paper's hybrid workloads live in.
GATE_SELECTIVITY = 0.5

#: Required end-to-end advantage of the fused path on both placements.
GATE_SPEEDUP = 3.0


def _speedup_record(row_count: int) -> dict[str, Any]:
    """The gated cell, measured directly (not via the sweep grid)."""
    (point,) = fusion_sweep(
        selectivities=(GATE_SELECTIVITY,), row_count=row_count
    )
    host = point.outcomes["host_speedup"]
    device = point.outcomes["device_speedup"]
    return {
        "row_count": row_count,
        "selectivity": GATE_SELECTIVITY,
        "host_speedup": host,
        "device_warm_speedup": device,
        "identical": bool(point.outcomes["identical"]),
        "passed": (
            host >= GATE_SPEEDUP
            and device >= GATE_SPEEDUP
            and point.outcomes["identical"] == 1.0
        ),
    }


def verify(seeds: list[int], sites: list[str], smoke: bool) -> dict[str, Any]:
    """The ``fusion`` plane: the ablation grid plus the three gates.

    The plane is seedless and declares no fault sites; *seeds* and
    *sites* are unused.
    """
    if smoke:
        sweep_kwargs = dict(SWEEPS["fusion"].smoke_kwargs)
        gate_rows = 200_000
    else:
        sweep_kwargs = {}
        gate_rows = 2_000_000

    points = fusion_sweep(**sweep_kwargs)
    speedup = _speedup_record(gate_rows)
    identical = all(point.outcomes["identical"] == 1.0 for point in points)
    identical = identical and speedup["identical"]
    ranked = all(point.outcomes["hype_rank_correct"] == 1.0 for point in points)
    logger.info(
        "speedup gate (sel %s, %d rows): host %.2fx, device warm %.2fx (%s)",
        GATE_SELECTIVITY,
        gate_rows,
        speedup["host_speedup"],
        speedup["device_warm_speedup"],
        "ok" if speedup["passed"] else f"FAILED: expected >= {GATE_SPEEDUP}x",
    )
    logger.info(
        "byte-identity across the grid: %s", "ok" if identical else "FAILED"
    )
    logger.info(
        "HyPE fused-vs-unfused ranking: %s (%d cells, both placements)",
        "ok" if ranked else "FAILED",
        len(points),
    )
    return make_bench_record(
        "fusion",
        ok=speedup["passed"] and identical and ranked,
        metrics={
            "host_speedup": speedup["host_speedup"],
            "device_warm_speedup": speedup["device_warm_speedup"],
        },
        tolerances={
            "host_speedup": {"rel": 0.15, "direction": "higher_better"},
            "device_warm_speedup": {"rel": 0.15, "direction": "higher_better"},
        },
        smoke=smoke,
        grid=[
            {"selectivity": point.knob, **point.outcomes} for point in points
        ],
        speedup_gate=speedup,
        byte_identity={"passed": identical},
        hype_ranking={"passed": ranked},
    )
