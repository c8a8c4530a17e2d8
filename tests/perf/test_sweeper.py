"""Sweep-runner guarantees: inline runs equal direct sweep calls,
overrides resize a sweep, and the BENCH_sweeps.json record gates every
numeric outcome."""

import json
import logging

import pytest

from repro.bench.ablations import SWEEPS
from repro.perf.sweeper import SweepResult, run_sweep, run_sweeps

# A cheap sweep over a knob grid and one whose points share loaded
# engines, exercised in smoke shape so the whole file stays inside the
# tier-1 budget.
SPLITTABLE = "fault_probability"
WHOLE = "compression"


class TestRunSweep:
    def test_unknown_sweep_rejected(self):
        with pytest.raises(KeyError):
            run_sweep("no_such_sweep")

    def test_split_equals_whole_sweep(self):
        # The runner's points are exactly one direct call of the sweep
        # function (the sweeps are deterministic in their inputs).
        spec = SWEEPS[SPLITTABLE]
        whole = tuple(spec.func(**dict(spec.smoke_kwargs)))
        assert run_sweep(SPLITTABLE, smoke=True).points == whole

    def test_non_splittable_sweep_runs_whole(self):
        result = run_sweep(WHOLE, smoke=True)
        assert isinstance(result, SweepResult)
        assert len(result.points) > 0

    def test_overrides_resize_the_sweep(self):
        result = run_sweep(
            SPLITTABLE,
            smoke=True,
            overrides={"probabilities": (0.0,)},
        )
        assert len(result.points) == 1
        assert result.points[0].knob == 0.0

    def test_result_record_shape(self):
        result = run_sweep(SPLITTABLE, smoke=True)
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
        # Every numeric outcome of every point is a zero-tolerance
        # metric; A7's string codec stays in the payload only.
        expected = {
            f"outcome.{name}.{index}.{key}": value
            for name, summary in record["sweeps"].items()
            for index, point in enumerate(summary["points"])
            for key, value in point["outcomes"].items()
            if not isinstance(value, str)
        }
        gated = {
            name: value
            for name, value in record["metrics"].items()
            if name.startswith("outcome.")
        }
        assert gated == expected
        codecs = [p["outcomes"]["codec"] for p in record["sweeps"][WHOLE]["points"]]
        assert codecs and all(isinstance(codec, str) for codec in codecs)
        assert not any(name.endswith(".codec") for name in record["metrics"])
        for metric in gated:
            assert record["tolerances"][metric] == {
                "rel": 0.0,
                "direction": "two_sided",
            }
        # Progress goes through the structured logger, not print().
        assert f"{SPLITTABLE}: " in caplog.text


def test_run_sweeps_preserves_registry_order():
    results = run_sweeps([SPLITTABLE, WHOLE], smoke=True)
    assert list(results) == [SPLITTABLE, WHOLE]
