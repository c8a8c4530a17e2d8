"""Bench schema + cross-run regression detection."""

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    make_bench_record,
    validate_bench_record,
)
from repro.obs.regress import compare_records
from repro.obs.regress.__main__ import main as regress_main


def record(metrics, tolerances=None, bench="demo", ok=True):
    return make_bench_record(bench, ok=ok, metrics=metrics, tolerances=tolerances)


class TestBenchSchema:
    def test_make_bench_record_shape(self):
        made = record({"speedup": 3.0}, {"speedup": {"direction": "higher_better"}})
        assert made["schema"] == BENCH_SCHEMA
        assert made["bench"] == "demo"
        assert made["ok"] is True
        assert made["metrics"] == {"speedup": 3.0}
        assert validate_bench_record(made) == []

    def test_payload_lands_at_top_level(self):
        made = make_bench_record(
            "demo", ok=True, metrics={}, grid=[1, 2], seeds=[5]
        )
        assert made["grid"] == [1, 2] and made["seeds"] == [5]

    def test_payload_collision_is_an_error(self):
        with pytest.raises(ValueError, match="collides"):
            make_bench_record("demo", ok=True, metrics={}, schema="x")

    def test_non_finite_metric_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_bench_record("demo", ok=True, metrics={"x": float("inf")})

    def test_validate_flags_each_violation(self):
        assert validate_bench_record([]) != []
        broken = {
            "schema": "other/9",
            "bench": "",
            "ok": "yes",
            "smoke": False,
            "metrics": {"m": "fast", "n": 1.0},
            "tolerances": {
                "ghost": {"direction": "sideways"},
                # compare_records reads only rel and direction.
                "n": {"rel": 0.1, "abs": 5},
            },
        }
        problems = "\n".join(validate_bench_record(broken))
        for needle in ("schema", "bench", "ok", "metric 'm'", "ghost",
                       "tolerance 'n': unknown keys ['abs']"):
            assert needle in problems

    def test_all_checked_in_writers_use_the_schema(self):
        """One module writes records, and every plane it runs assembles
        its record through make_bench_record — grep-level pin that
        nothing regressed to an ad-hoc dict or a private writer."""
        import importlib
        import inspect
        import pathlib

        from repro.verify import PLANES

        root = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        writers = [
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if "json.dump(" in path.read_text(encoding="utf-8")
            and "BENCH_" in path.read_text(encoding="utf-8")
        ]
        assert writers == ["verify.py"]
        for module_name in PLANES.values():
            source = inspect.getsource(importlib.import_module(module_name))
            assert "make_bench_record(" in source, module_name


class TestCompareRecords:
    def test_identical_artifacts_pass(self):
        base = record({"speedup": 3.0, "cycles": 1000.0})
        report = compare_records(base, json.loads(json.dumps(base)))
        assert report.ok
        assert report.regressions == []

    def test_twenty_percent_regression_flags(self):
        base = record({"speedup": 3.0}, {"speedup": {"rel": 0.10,
                                                     "direction": "higher_better"}})
        curr = record({"speedup": 2.4}, {"speedup": {"rel": 0.10,
                                                     "direction": "higher_better"}})
        report = compare_records(base, curr)
        assert not report.ok
        (delta,) = report.regressions
        assert delta.name == "speedup"
        assert delta.rel_change == pytest.approx(-0.2)

    def test_direction_awareness(self):
        tolerances = {
            "speedup": {"rel": 0.10, "direction": "higher_better"},
            "cycles": {"rel": 0.10, "direction": "lower_better"},
            "count": {"rel": 0.10, "direction": "two_sided"},
        }
        base = record({"speedup": 2.0, "cycles": 100.0, "count": 50.0}, tolerances)
        # Improvements in the good direction never flag...
        better = record(
            {"speedup": 4.0, "cycles": 50.0, "count": 50.0}, tolerances
        )
        assert compare_records(base, better).ok
        # ...drift in the bad direction flags each metric its own way.
        worse = record(
            {"speedup": 1.0, "cycles": 200.0, "count": 80.0}, tolerances
        )
        flagged = {d.name for d in compare_records(base, worse).regressions}
        assert flagged == {"speedup", "cycles", "count"}

    def test_missing_metric_flags_as_shape_problem(self):
        base = record({"speedup": 2.0, "cycles": 100.0})
        curr = record({"speedup": 2.0})
        report = compare_records(base, curr)
        (delta,) = report.regressions
        assert delta.name == "cycles"
        assert "missing" in delta.reason

    def test_bench_mismatch_is_a_problem(self):
        report = compare_records(
            record({}, bench="serving"), record({}, bench="staging")
        )
        assert not report.ok
        assert any("mismatch" in problem for problem in report.problems)

    def test_malformed_artifact_is_a_problem_not_a_crash(self):
        report = compare_records({"schema": "nope"}, record({}))
        assert not report.ok
        assert any(problem.startswith("baseline:") for problem in report.problems)

    def test_zero_baseline_to_nonzero_flags(self):
        report = compare_records(record({"faults": 0.0}), record({"faults": 3.0}))
        assert not report.ok

    def test_render_mentions_verdict(self):
        report = compare_records(record({"x": 1.0}), record({"x": 1.0}))
        assert "verdict: OK" in report.render()


class TestCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_diff_exit_codes(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", record({"speedup": 3.0}))
        same = self._write(tmp_path, "same.json", record({"speedup": 3.0}))
        bad = self._write(
            tmp_path,
            "bad.json",
            record({"speedup": 1.0}, {"speedup": {"rel": 0.10,
                                                  "direction": "higher_better"}}),
        )
        assert regress_main([base, same]) == 0
        assert regress_main([base, bad]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_validate_mode(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.json", record({}))
        broken = self._write(tmp_path, "broken.json", {"schema": "nope"})
        assert regress_main(["--validate", good]) == 0
        assert regress_main(["--validate", good, broken]) == 1
        capsys.readouterr()
