"""Ablation sweep runner.

Runs the sweeps registered in :data:`repro.bench.ablations.SWEEPS`
inline, one call of the sweep function per sweep, and times each.
Every sweep seeds its own generators, so its points are a pure
function of its keyword arguments.

:func:`verify` is the ``sweeps`` plane of ``python -m repro.verify``:
``python -m repro.verify sweeps --smoke --output BENCH_sweeps.json``
runs the reduced CI grid, gates every numeric outcome of every point
at zero tolerance, and records wall-clock and rows/s per sweep
(docs/PERFORMANCE.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.obs.bench import make_bench_record
from repro.obs.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.ablations import SweepPoint

__all__ = [
    "SweepResult",
    "run_sweep",
    "run_sweeps",
    "verify",
]

logger = get_logger(__name__)


@dataclass(frozen=True)
class SweepResult:
    """One completed sweep: its points plus runner metadata."""

    name: str
    points: tuple["SweepPoint", ...]
    wall_seconds: float
    rows_processed: int

    @property
    def rows_per_second(self) -> float:
        """Simulated rows costed per real second of sweep wall-clock."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.rows_processed / self.wall_seconds

    def as_record(self) -> dict[str, Any]:
        """JSON-ready summary (what BENCH_sweeps.json stores per sweep)."""
        return {
            "points": [
                {"knob": point.knob, "outcomes": point.outcomes}
                for point in self.points
            ],
            "point_count": len(self.points),
            "wall_seconds": self.wall_seconds,
            "rows_processed": self.rows_processed,
            "rows_per_second": self.rows_per_second,
        }


def run_sweep(
    name: str,
    smoke: bool = False,
    overrides: dict[str, Any] | None = None,
) -> SweepResult:
    """Run one registered sweep inline and time it.

    *smoke* starts from the sweep's reduced CI grid; *overrides* are
    extra keyword arguments for the sweep function (applied after the
    smoke defaults), letting drivers resize a sweep without registering
    a new spec.
    """
    from repro.bench.ablations import SWEEPS

    if name not in SWEEPS:
        raise KeyError(f"unknown sweep {name!r}; choose from {sorted(SWEEPS)}")
    spec = SWEEPS[name]
    kwargs = dict(spec.smoke_kwargs) if smoke else {}
    if overrides:
        kwargs.update(overrides)
    started = time.perf_counter()
    points = tuple(spec.func(**kwargs))
    wall = time.perf_counter() - started
    result = SweepResult(
        name=name,
        points=points,
        wall_seconds=wall,
        rows_processed=spec.rows_processed(kwargs, len(points)),
    )
    logger.info(
        "%s: %d points, %.2fs wall, %s rows/s",
        name,
        len(points),
        wall,
        f"{result.rows_per_second:,.0f}",
    )
    return result


def run_sweeps(
    names: Sequence[str] | None = None, smoke: bool = False
) -> dict[str, SweepResult]:
    """Run several sweeps (all registered ones by default), in order."""
    from repro.bench.ablations import SWEEPS

    if names is None:
        names = list(SWEEPS)
    return {name: run_sweep(name, smoke=smoke) for name in names}


def _outcome_metrics(results: dict[str, SweepResult]) -> dict[str, float]:
    """``outcome.<sweep>.<index>.<key>`` for every numeric point outcome.

    String outcomes (A7's chosen ``codec``) stay in the payload only.
    """
    return {
        f"outcome.{name}.{index}.{key}": float(value)
        for name, result in results.items()
        for index, point in enumerate(result.points)
        for key, value in point.outcomes.items()
        if isinstance(value, (int, float))
    }


def verify(seeds: list[int], sites: list[str], smoke: bool) -> dict[str, Any]:
    """The ``sweeps`` plane: every registered sweep, gated per outcome.

    Each sweep seeds itself, so the plane ignores *seeds*; it declares
    no fault sites.  Every numeric outcome is a simulated figure and
    gates at zero tolerance in either direction: any drift in an
    ablation's numbers must be intended and its baseline regenerated.
    """
    results = run_sweeps(smoke=smoke)
    outcomes = _outcome_metrics(results)
    return make_bench_record(
        "sweeps",
        ok=True,
        # Only deterministic figures are regression-comparable; the
        # wall-clock and rows/s numbers stay in the payload.
        metrics={
            **{
                f"points.{name}": float(len(result.points))
                for name, result in results.items()
            },
            **outcomes,
        },
        tolerances={
            name: {"rel": 0.0, "direction": "two_sided"} for name in outcomes
        },
        smoke=smoke,
        sweeps={name: result.as_record() for name, result in results.items()},
    )
