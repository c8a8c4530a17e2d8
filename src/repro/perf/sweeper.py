"""Parallel ablation sweep runner.

The ablation sweeps in :mod:`repro.bench.ablations` are embarrassingly
parallel: every grid point builds its own platform and relation and
measures in its own :class:`~repro.execution.ExecutionContext`, so
points can run on separate ``multiprocessing`` workers and be merged in
grid order.  This module fans them out:

* each splittable sweep (``SweepSpec.grid_kwarg``) becomes one task per
  grid point, calling the sweep function with a single-element grid;
* non-splittable sweeps (whose points share loaded engine state) run as
  one task;
* every task carries a **deterministic per-point seed** derived with
  :func:`point_seed` (SHA-256 of sweep name, grid index and knob — not
  Python's ``hash``, which is randomized per process), installed into
  ``random`` and numpy's legacy global RNG before the sweep function
  runs.  Results are therefore identical whatever the worker count,
  including ``workers=1`` which runs everything inline.

:func:`verify` is the ``sweeps`` plane of ``python -m repro.verify``:
``python -m repro.verify sweeps --smoke --output BENCH_sweeps.json``
runs the reduced CI grid and records wall-clock and rows/s per sweep
(docs/PERFORMANCE.md).
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import TYPE_CHECKING, Any, Sequence

from repro.obs.bench import make_bench_record
from repro.obs.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.ablations import SweepPoint

__all__ = [
    "SweepResult",
    "point_seed",
    "run_sweep",
    "run_sweeps",
    "verify",
]

logger = get_logger(__name__)


@dataclass(frozen=True)
class SweepResult:
    """One completed sweep: merged points plus runner metadata."""

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


def point_seed(sweep: str, index: int, knob: Any = None) -> int:
    """Deterministic 63-bit seed for one grid point of one sweep.

    Derived with SHA-256 so it is stable across processes and Python
    invocations (``hash()`` is salted per process and would make worker
    assignment visible in the results).
    """
    payload = f"{sweep}\x1f{index}\x1f{knob!r}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


def _execute_task(task: tuple[str, int, dict[str, Any]]) -> list["SweepPoint"]:
    """Run one sweep task (whole sweep or single grid point) in-process.

    Top-level so it pickles for ``multiprocessing``; seeds the global
    RNGs from the task's deterministic seed before calling the sweep.
    """
    name, index, kwargs = task
    from repro.bench.ablations import SWEEPS

    spec = SWEEPS[name]
    grid = spec.grid(kwargs)
    knob = grid[0] if grid else None
    seed = point_seed(name, index, knob)
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed % (2**32))
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        pass
    return spec.func(**kwargs)


def _sweep_kwargs(
    name: str, smoke: bool, overrides: dict[str, Any] | None
) -> dict[str, Any]:
    """Effective call kwargs for one sweep: smoke grid, then overrides."""
    from repro.bench.ablations import SWEEPS

    kwargs = dict(SWEEPS[name].smoke_kwargs) if smoke else {}
    if overrides:
        kwargs.update(overrides)
    return kwargs


def _sweep_tasks(
    name: str, smoke: bool, overrides: dict[str, Any] | None = None
) -> list[tuple[str, int, dict[str, Any]]]:
    """Split one sweep into independent tasks, in grid order."""
    from repro.bench.ablations import SWEEPS

    spec = SWEEPS[name]
    kwargs = _sweep_kwargs(name, smoke, overrides)
    grid = spec.grid(kwargs)
    if grid is None:
        return [(name, 0, kwargs)]
    tasks = []
    for index, value in enumerate(grid):
        point_kwargs = dict(kwargs)
        point_kwargs[spec.grid_kwarg] = (value,)
        tasks.append((name, index, point_kwargs))
    return tasks


def run_sweep(
    name: str,
    workers: int | None = None,
    smoke: bool = False,
    overrides: dict[str, Any] | None = None,
) -> SweepResult:
    """Run one registered sweep, fanning grid points across *workers*.

    ``workers=None`` uses the CPU count; ``workers<=1`` runs inline
    (no subprocesses), producing identical results — parallelism only
    changes wall-clock, never points (pinned by the sweeper tests).
    *overrides* are extra keyword arguments for the sweep function
    (applied after the smoke defaults), letting drivers resize a sweep
    without registering a new spec.
    """
    from repro.bench.ablations import SWEEPS

    if name not in SWEEPS:
        raise KeyError(f"unknown sweep {name!r}; choose from {sorted(SWEEPS)}")
    spec = SWEEPS[name]
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1:
        # One worker: splitting would only repeat per-sweep setup, so
        # run the whole grid as a single inline call.  Identical points
        # either way — the sweeps are deterministic in their inputs
        # (pinned by tests/perf/test_sweeper.py).
        tasks = [(name, 0, _sweep_kwargs(name, smoke, overrides))]
    else:
        tasks = _sweep_tasks(name, smoke, overrides)
    started = time.perf_counter()
    if len(tasks) <= 1:
        chunks = [_execute_task(task) for task in tasks]
    else:
        with Pool(processes=min(workers, len(tasks))) as pool:
            chunks = pool.map(_execute_task, tasks)
    wall = time.perf_counter() - started
    points = tuple(point for chunk in chunks for point in chunk)
    kwargs = _sweep_kwargs(name, smoke, overrides)
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
    names: Sequence[str] | None = None,
    workers: int | None = None,
    smoke: bool = False,
) -> dict[str, SweepResult]:
    """Run several sweeps (all registered ones by default), in order."""
    from repro.bench.ablations import SWEEPS

    if names is None:
        names = list(SWEEPS)
    return {name: run_sweep(name, workers=workers, smoke=smoke) for name in names}


def verify(seeds: list[int], sites: list[str], smoke: bool) -> dict[str, Any]:
    """The ``sweeps`` plane: every registered sweep on all CPUs.

    Each sweep's points are seeded per grid point (:func:`point_seed`),
    so the plane ignores *seeds*; it declares no fault sites.
    """
    workers = os.cpu_count() or 1
    results = run_sweeps(workers=workers, smoke=smoke)
    return make_bench_record(
        "sweeps",
        ok=True,
        # Only deterministic figures are regression-comparable; the
        # wall-clock and rows/s numbers stay in the payload.
        metrics={
            f"points.{name}": float(len(result.points))
            for name, result in results.items()
        },
        smoke=smoke,
        workers=workers,
        sweeps={name: result.as_record() for name, result in results.items()},
    )
