"""Checks of the end-to-end benchmark itself, at tiny sizes.

Run with ``python -m pytest benchmarks/e2e/test_e2e.py``.  Each workload
is shrunk through its class constants so the whole module takes well
under a minute; the checks are the benchmark's own invariants:
simulated metrics repeat exactly (across runs and with tracing on), a
wrong answer fails the run, host self times close against the traced
wall time with every child span inside its parent, and every emitted
metric is declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import workloads  # noqa: E402  (needs the checkout's src on sys.path)
from repro.engines.cogadb import CoGaDBEngine  # noqa: E402
from repro.obs.export import validate_chrome_trace  # noqa: E402
from repro.sharding.executor import ShardedResult  # noqa: E402

SEED = 3
#: Per-workload ``--seconds`` and class-constant overrides.
TINY = {
    "htap-serve": (0.3, {"ROWS": 20_000, "LADDER_ARRIVALS": 200}),
    "olap-scan": (0.3, {"ROWS": 40_000}),
    "sharded-oltp": (1.0, {"ROWS": 2_048, "REBALANCE_EVERY": 20}),
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _shrink(patch: pytest.MonkeyPatch) -> None:
    """Two rounds per run and the tiny sizes of :data:`TINY`."""
    patch.setattr(run, "ROUNDS", 2)
    for name, (__, constants) in TINY.items():
        for constant, value in constants.items():
            patch.setattr(workloads.WORKLOADS[name], constant, value)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    _shrink(monkeypatch)


@pytest.fixture(scope="module")
def results():
    """Per workload: two untraced runs and one traced run, same seed."""
    patch = pytest.MonkeyPatch()
    _shrink(patch)
    try:
        return {
            name: [
                run.run_workload(name, SEED, seconds, trace)
                for trace in (False, False, True)
            ]
            for name, (seconds, __) in TINY.items()
        }
    finally:
        patch.undo()


@pytest.mark.parametrize("workload", sorted(TINY))
def test_simulated_metrics_repeat_exactly(results, workload):
    runs = results[workload]
    assert all(result["correct"] for result in runs)
    for result in runs[1:]:
        for name in run.SIM_END_TO_END:
            assert result["end_to_end"][name] == runs[0]["end_to_end"][name], name
        assert result["attempted"] == runs[0]["attempted"]
        assert result["failed"] == runs[0]["failed"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_host_spans_close_and_nest(results, workload):
    traced = results[workload][2]
    assert sum(traced["host_layers"].values()) <= traced["host_wall_s"]
    events = traced["host_events"]
    assert validate_chrome_trace(events) == []
    spans = {
        event["args"]["span"]: event for event in events if event["ph"] == "X"
    }
    nested = 0
    for span in spans.values():
        parent = spans.get(span["args"]["parent"])
        if parent is None:
            continue
        nested += 1
        assert parent["ts"] <= span["ts"]
        assert span["ts"] + span["dur"] <= parent["ts"] + parent["dur"] + 1e-3
    assert nested > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_declared(results, workload):
    sections = {"end_to_end": False, "per_layer": True}
    for section, trace in sections.items():
        result = results[workload][2 if trace else 0]
        line = json.loads(run._result_line(result))
        declared = {metric["name"]: metric for metric in run.SPEC[section]}
        assert set(line["metrics"]) == set(declared)
        for name, metric in line["metrics"].items():
            assert NAME.fullmatch(name), name
            assert metric["unit"] == declared[name]["unit"]
            assert declared[name]["better"] in ("lower", "higher")


def _corrupt_nth(owner, attribute, monkeypatch, nth):
    """Make the *nth* call of ``owner.attribute`` return a wrong answer."""
    original = getattr(owner, attribute)
    calls = []

    def corrupted(*args, **kwargs):
        answer = original(*args, **kwargs)
        calls.append(answer)
        return "corrupted" if len(calls) == nth else answer

    monkeypatch.setattr(owner, attribute, corrupted)


@pytest.mark.parametrize(
    "workload, owner, attribute, nth",
    [
        ("htap-serve", workloads.UnitHooks, "run", 1),
        ("sharded-oltp", ShardedResult, "encoded", 5),
        ("olap-scan", CoGaDBEngine, "run_pipeline", 20),
    ],
)
def test_a_wrong_answer_fails_the_run(monkeypatch, capsys, workload, owner, attribute, nth):
    _corrupt_nth(owner, attribute, monkeypatch, nth)
    seconds = TINY[workload][0]
    code = run.main(
        ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds)]
    )
    assert code != 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "htap-serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
