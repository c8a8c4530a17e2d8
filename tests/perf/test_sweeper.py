"""Sweep-runner guarantees: determinism across worker counts, seeding,
grid splitting, and the BENCH_sweeps.json record."""

import json
import logging

import pytest

from repro.bench.ablations import SWEEPS
from repro.perf.sweeper import (
    SweepResult,
    point_seed,
    run_sweep,
    run_sweeps,
)

# A cheap splittable sweep and a non-splittable one, exercised in smoke
# shape so the whole file stays inside the tier-1 budget.
SPLITTABLE = "fault_probability"
WHOLE = "compression"


class TestPointSeed:
    def test_deterministic_across_calls(self):
        assert point_seed("s", 0, 0.5) == point_seed("s", 0, 0.5)

    def test_distinct_per_point(self):
        seeds = {
            point_seed("s", index, knob)
            for index in range(4)
            for knob in (0.0, 0.5)
        }
        assert len(seeds) == 8

    def test_sweep_name_matters(self):
        assert point_seed("a", 0, 1) != point_seed("b", 0, 1)

    def test_fits_numpy_seed_range(self):
        seed = point_seed("s", 3, 1e9)
        assert 0 <= seed < 2**63


class TestRunSweep:
    def test_unknown_sweep_rejected(self):
        with pytest.raises(KeyError):
            run_sweep("no_such_sweep")

    def test_parallel_equals_serial(self):
        serial = run_sweep(SPLITTABLE, workers=1, smoke=True)
        parallel = run_sweep(SPLITTABLE, workers=2, smoke=True)
        assert serial.points == parallel.points

    def test_split_equals_whole_sweep(self):
        # workers=1 runs the grid as one call; the split path must
        # produce the same points (the sweeps are deterministic in
        # their inputs, which is what licenses fanning them out).
        spec = SWEEPS[SPLITTABLE]
        whole = tuple(spec.func(**dict(spec.smoke_kwargs)))
        assert run_sweep(SPLITTABLE, workers=1, smoke=True).points == whole

    def test_non_splittable_sweep_runs_whole(self):
        result = run_sweep(WHOLE, workers=2, smoke=True)
        assert isinstance(result, SweepResult)
        assert len(result.points) > 0

    def test_overrides_resize_the_sweep(self):
        result = run_sweep(
            SPLITTABLE,
            workers=1,
            smoke=True,
            overrides={"probabilities": (0.0,)},
        )
        assert len(result.points) == 1
        assert result.points[0].knob == 0.0

    def test_result_record_shape(self):
        result = run_sweep(SPLITTABLE, workers=1, smoke=True)
        record = result.as_record()
        assert record["point_count"] == len(result.points)
        assert record["rows_processed"] == result.rows_processed
        assert record["rows_per_second"] >= 0.0
        assert all({"knob", "outcomes"} <= set(p) for p in record["points"])


class TestSweepRegistry:
    def test_every_spec_has_smoke_shape(self):
        for name, spec in SWEEPS.items():
            assert spec.name == name
            assert spec.rows_processed(dict(spec.smoke_kwargs), 2) > 0

    def test_grid_splitting_covers_grid(self):
        spec = SWEEPS[SPLITTABLE]
        kwargs = dict(spec.smoke_kwargs)
        grid = spec.grid(kwargs)
        assert grid is not None and len(grid) >= 2


class TestCli:
    def test_smoke_run_writes_bench_record(self, tmp_path, caplog):
        from repro.verify import main

        output = tmp_path / "BENCH_sweeps.json"
        with caplog.at_level(logging.INFO, logger="repro"):
            code = main(["sweeps", "--smoke", "--output", str(output)])
        assert code == 0
        record = json.loads(output.read_text())
        assert record["bench"] == "sweeps" and record["smoke"] is True
        assert sorted(record["sweeps"]) == sorted(SWEEPS)
        sweep = record["sweeps"][SPLITTABLE]
        assert sweep["wall_seconds"] > 0.0
        assert sweep["rows_per_second"] > 0.0
        # Progress goes through the structured logger, not print().
        assert f"{SPLITTABLE}: " in caplog.text


def test_run_sweeps_preserves_registry_order():
    results = run_sweeps([SPLITTABLE, WHOLE], workers=1, smoke=True)
    assert list(results) == [SPLITTABLE, WHOLE]
