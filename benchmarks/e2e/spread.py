"""Run-to-run spread of the end-to-end benchmark: ``python3 benchmarks/e2e/spread.py``.

Runs ``BENCHMARK.json``'s command ``--runs`` times per workload (one
run at a time, each seed in turn unless ``--seed`` fixes one) and
prints, per metric, the median, the quartiles and the spread — the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  A metric is flagged
when its spread reaches a third of its bound, the steadiness the
benchmark keeps.  ``setup_s`` is reported but never flagged: it is
gated on its median only.

With ``--sets 2`` the whole measurement repeats and each metric's
second median is compared with the first; a move in the worse
direction by more than the bound is flagged too.  The bounds in
``BENCHMARK.json`` are set from this tool's output.  Exits non-zero
when anything is flagged or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {metric["name"]: metric for metric in SPEC["end_to_end"]}


def measure(workload: str, seeds: list[int], seconds: float) -> dict[str, list[float]]:
    """Each end-to-end metric's values over one run per seed."""
    values: dict[str, list[float]] = {name: [] for name in METRICS}
    for seed in seeds:
        command = SPEC["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=False
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(
                f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}"
            )
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            raise RuntimeError(f"{workload} seed {seed}: {lines[-1]}")
        for name in METRICS:
            values[name].append(result["metrics"][name]["value"])
    return values


def summarize(values: dict[str, list[float]]) -> dict[str, tuple[float, float]]:
    """``name -> (median, spread)`` with the spread as a share of the median."""
    summary = {}
    for name, series in values.items():
        first, __, third = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        summary[name] = (median, (third - first) / median)
    return summary


def worse_by(name: str, before: float, after: float) -> float:
    """How much *after* is worse than *before*, as a share of *before*."""
    change = (after - before) / before
    return change if METRICS[name]["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed", type=int, help="use this seed for every run")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    options = parser.parse_args()
    if options.runs < 2:
        parser.error("--runs must be at least 2")
    seeds = (
        [options.seed] * options.runs
        if options.seed is not None
        else list(range(options.first_seed, options.first_seed + options.runs))
    )
    workloads = options.workload or [entry["name"] for entry in SPEC["workloads"]]
    flagged = 0
    for workload in workloads:
        medians = []
        for index in range(options.sets):
            summary = summarize(measure(workload, seeds, options.seconds))
            medians.append(summary)
            print(f"== {workload} set {index + 1}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
            for name, (median, spread) in summary.items():
                bound = METRICS[name]["bound"]
                flag = name != "setup_s" and spread >= bound / 3
                flagged += flag
                print(
                    f"  {name:<18s} median {median:14.6g} {METRICS[name]['unit']:<6s} "
                    f"spread {spread:7.2%} bound {bound:5.0%}"
                    f"{'  FLAG: spread >= bound/3' if flag else ''}"
                )
        if options.sets == 2:
            print(f"== {workload}: second set against the first")
            for name in METRICS:
                drift = worse_by(name, medians[0][name][0], medians[1][name][0])
                flag = drift > METRICS[name]["bound"]
                flagged += flag
                print(
                    f"  {name:<18s} worse by {drift:+7.2%} bound {METRICS[name]['bound']:5.0%}"
                    f"{'  FLAG' if flag else ''}"
                )
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
