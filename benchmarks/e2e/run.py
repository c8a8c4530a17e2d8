"""End-to-end benchmark: three HTAP workloads on the simulated and host clocks.

Run one workload (the form ``BENCHMARK.json``'s command takes)::

    python3 benchmarks/e2e/run.py --workload htap-serve --seed 5 --seconds 15 --trace 0

or every workload, untraced then traced, each in its own child process,
writing ``BENCH_e2e.json``, ``trace.<workload>.json`` and the per-run
results into ``--out``::

    python3 benchmarks/e2e/run.py --seed 5 --out e2e-out

A single-workload run prints every metric by name and unit, checks
every answer against an oracle, and ends its standard output with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its ``per_layer``
metrics traced.  It exits non-zero on any wrong answer.  The program
under test is the ``src/`` tree of the checkout holding this file; the
run refuses to start without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from hosttrace import HostTracer, public_methods

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
HERE = Path(__file__).resolve().parent

#: Rounds per run.  Each sets up from scratch with its own seed and
#: times its own phase; ``setup_s`` is the median set-up and
#: ``host_qps`` the best round's rate, the round least slowed by other
#: load on the machine.
ROUNDS = 5

#: End-to-end metrics on the simulated clock: exactly deterministic.
SIM_END_TO_END = ("sim_p50_us", "sim_p99_us", "sim_capacity_qps", "space_amp")

#: Simulated span categories reported per layer, in milliseconds.
SIM_LAYERS = {
    "execution.operator_sim_ms": "operator",
    "hardware.kernel_sim_ms": "kernel",
    "staging.pcie_sim_ms": "pcie",
    "fusion.fused_sim_ms": "fused-pipeline",
    "recovery.wal_sim_ms": "wal",
    "sharding.sim_ms": "sharding",
    "rebalance.sim_ms": "rebalance",
}


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {SRC / 'repro'} is missing")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def shim_table() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, key)`` for every public entry point timed.

    Class methods are wrapped on the class; module functions at the
    binding their caller uses.
    """
    import repro.engines.cogadb as cogadb
    import repro.serving.server as server
    from repro.distributed.dfs import BlockStore
    from repro.hardware.cache import AnalyticMemoryModel
    from repro.hardware.cpu import CPUModel
    from repro.hardware.disk import DiskModel
    from repro.hardware.gpu import GPUModel
    from repro.hardware.interconnect import InterconnectModel
    from repro.obs.metrics import MetricsRegistry
    from repro.rebalance.driver import Rebalancer
    from repro.rebalance.migrator import LiveMigrator
    from repro.rebalance.planner import RebalancePlanner
    from repro.rebalance.skew import SkewDetector
    from repro.recovery.wal import WriteAheadLog
    from repro.serving.admission import AdmissionQueue
    from repro.serving.server import ServingLoop
    from repro.sharding.executor import ShardedExecutor
    from repro.staging.manager import StagingManager

    table = [
        (ServingLoop, "run", "serving.loop"),
        (AdmissionQueue, "admit", "serving.admit"),
        (AdmissionQueue, "ordered", "serving.order"),
        (server, "run_device_batch", "serving.batch_sum"),
        (MetricsRegistry, "observe_query", "obs.observe"),
        (server, "device_sum_column", "execution.device_sum"),
        (StagingManager, "lookup", "staging.lookup"),
        (StagingManager, "acquire_set", "staging.acquire"),
        (cogadb, "compile_pipeline", "fusion.compile"),
        (cogadb, "run_fused_host", "fusion.fused_host"),
        (cogadb, "run_fused_device", "fusion.fused_device"),
        (cogadb, "run_unfused_host", "fusion.unfused"),
        (cogadb, "run_unfused_device", "fusion.unfused"),
        (cogadb.CoGaDBEngine, "run_pipeline", "engines.run_pipeline"),
        (ShardedExecutor, "run", "sharding.run"),
        (BlockStore, "read", "distributed.io"),
        (BlockStore, "write", "distributed.io"),
        (Rebalancer, "rebalance_once", "rebalance.round"),
        (SkewDetector, "snapshot", "rebalance.detect"),
        (RebalancePlanner, "plan", "rebalance.plan"),
        (LiveMigrator, "begin", "rebalance.migrate"),
        (LiveMigrator, "finish", "rebalance.migrate"),
    ]
    table += [
        (server, name, "execution.host_ops")
        for name in ("sum_column", "sum_at_positions", "materialize_rows", "update_field")
    ]
    table += [
        (cogadb.HypeScheduler, name, "engines.hype")
        for name in public_methods(cogadb.HypeScheduler)
    ]
    table += [
        (WriteAheadLog, name, "recovery.wal") for name in public_methods(WriteAheadLog)
    ]
    for model in (
        GPUModel, InterconnectModel, AnalyticMemoryModel, CPUModel, DiskModel
    ):
        table += [(model, name, "hardware.model") for name in public_methods(model)]
    return table


def _sim_tracer():
    """A simulated-clock tracer that keeps only per-layer self cycles.

    Every finished root span is folded into ``totals`` with
    :func:`repro.obs.profile.layer_attribution` and dropped, so tracing
    a long run holds one span tree at a time.
    """
    from repro.obs import Tracer, layer_attribution

    class AttributingTracer(Tracer):
        def __init__(self) -> None:
            super().__init__()
            self.totals: dict[str, float] = {}

        def end(self, span, counters):
            closed = super().end(span, counters)
            if self.current is None:
                for layer, cycles in layer_attribution(self).items():
                    self.totals[layer] = self.totals.get(layer, 0.0) + cycles
                self.roots.clear()
                self.events.clear()
            return closed

    return AttributingTracer()


def _percentile_us(cycles: Sequence[float], q: float, hz: float) -> float:
    return float(np.percentile(cycles, q)) / hz * 1e6


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up, time, and check one workload in this process.

    Runs :data:`ROUNDS` rounds of ``seconds / ROUNDS`` worth of work,
    round ``r`` with seed ``seed * ROUNDS + r``.  Returns every computed
    figure: ``end_to_end`` always, ``per_layer`` plus the host span data
    when *trace* is set.
    """
    from repro.obs import tracing

    from workloads import WORKLOADS

    workload = WORKLOADS[name](seconds / ROUNDS)
    host = HostTracer() if trace else None
    sim = _sim_tracer() if trace else None
    sim_cycles: Counter = Counter()
    if host is not None:
        workload.tracer = host
        hooks = {(owner, attr): hook for owner, attr, hook in workload.watch()}
        for owner, attr, key in shim_table():
            host.wrap(owner, attr, key, hooks.get((owner, attr)))
    setups, rates = [], []
    wall = 0.0
    wrong = 0
    try:
        for round_index in range(ROUNDS):
            started = time.perf_counter()
            with tracing(sim) if sim is not None else nullcontext():
                with host.span("bench.setup", "bench") if host else nullcontext():
                    workload.setup(seed * ROUNDS + round_index)
            setups.append(time.perf_counter() - started)
            if sim is not None:
                sim.totals.clear()
            done = workload.completed
            gc.collect()
            timed = time.perf_counter()
            with host.span("bench.timed", "bench") if host else nullcontext():
                workload.run()
            finished = time.perf_counter()
            rates.append((workload.completed - done) / (finished - timed))
            wall += finished - started
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if sim is not None:
                sim_cycles.update(sim.totals)
            with host.pause() if host else nullcontext():
                wrong += workload.check()
    finally:
        if host is not None:
            host.unwrap_all()

    hz = workload.hz
    end_to_end = {
        "setup_s": statistics.median(setups),
        "host_qps": max(rates),
        "sim_p50_us": _percentile_us(workload.latencies, 50, hz),
        "sim_p99_us": _percentile_us(workload.latencies, 99, hz),
        "sim_capacity_qps": workload.completed / (workload.counters.cycles / hz),
        "peak_rss_mb": peak_rss_mb,
        "space_amp": workload.peak_held / workload.user_bytes,
    }
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": wrong == 0,
        "wrong": wrong,
        "attempted": workload.offered,
        "completed": workload.completed,
        "failed": workload.shed,
        "round_qps": rates,
        "end_to_end": end_to_end,
    }
    if trace:
        result.update(_layer_results(workload, host, sim_cycles, wall))
    return result


def _layer_results(workload, host, sim_cycles, wall) -> dict[str, Any]:
    """Per-layer metrics, the self-time table and the host span events."""
    counters = workload.counters
    staging = workload.staging
    lookups = staging["hits"] + staging["misses"]
    layer: dict[str, float] = {}
    for key in sorted({key for __, __, key in shim_table()} | {"workload.gen"}):
        layer[f"{key}_s"] = host.self_seconds.get(key, 0.0)
        layer[f"{key}_calls"] = host.calls.get(key, 0)
    layer.update(
        {
            metric: sim_cycles[category] / workload.hz * 1e3
            for metric, category in SIM_LAYERS.items()
        }
    )
    layer.update(
        {
            "staging.hit_ratio": staging["hits"] / lookups if lookups else 0.0,
            "staging.lookups": lookups,
            "staging.evictions": staging["evictions"],
            "staging.invalidations": staging["invalidations"],
            "staging.transfers": counters.transfers,
            "staging.pcie_mb_per_query": counters.pcie_bytes / 1e6 / workload.completed,
            "hardware.kernel_launches": counters.kernel_launches,
        }
    )
    declared = {metric["name"] for metric in SPEC["per_layer"]}
    layer.update({name: 0.0 for name in declared - set(layer)})
    layer.update(workload.layer_values())
    return {
        "per_layer": layer,
        "host_layers": dict(host.layer_seconds),
        "host_wall_s": wall,
        "host_events": host.chrome_events(),
        "sim_layers": dict(sim_cycles),
        "tables": workload.tables(),
    }


def _units(section: str) -> dict[str, dict[str, str]]:
    return {metric["name"]: metric for metric in SPEC[section]}


def _print_result(result: dict[str, Any]) -> None:
    """Every metric by name and unit, plus the traced run's tables."""
    print(
        f"== {result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={int(result['trace'])}: {result['completed']}/{result['attempted']} "
        f"completed, {result['failed']} failed, {result['wrong']} wrong answers"
    )
    sections = [("end_to_end", result["end_to_end"])]
    if result["trace"]:
        sections.append(("per_layer", result["per_layer"]))
    for section, values in sections:
        units = _units(section)
        for name in sorted(values):
            print(f"  {name:<40s} {values[name]:>16.6g} {units[name]['unit']}")
    if not result["trace"]:
        return
    wall = result["host_wall_s"]
    print(f"  host self time by layer (traced wall {wall:.3f} s):")
    for layer, seconds in sorted(result["host_layers"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<14s} {seconds:9.3f} s {seconds / wall:7.1%}")
    for title, rows in result["tables"].items():
        print(f"  {title}:")
        for row in rows:
            print("    " + " ".join(f"{value:>10.4g}" for value in row))


def _result_line(result: dict[str, Any]) -> str:
    """The final stdout line: correct, attempted, failed and the metrics."""
    section = "per_layer" if result["trace"] else "end_to_end"
    units = _units(section)
    values = result[section]
    if set(values) != set(units):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": float(values[name]), "unit": units[name]["unit"]}
                for name in sorted(values)
            },
        }
    )


def run_one(options) -> int:
    """One workload in this process, as ``BENCHMARK.json``'s command runs it."""
    from repro.obs.export import validate_chrome_trace

    result = run_workload(options.workload, options.seed, options.seconds, bool(options.trace))
    _print_result(result)
    if result["trace"]:
        events = result.pop("host_events")
        problems = validate_chrome_trace(events)
        if problems:
            raise RuntimeError(f"host trace is malformed: {problems[:3]}")
        if options.out:
            _write_json(
                Path(options.out) / f"trace.{options.workload}.json",
                {"traceEvents": events, "displayTimeUnit": "ms"},
                indent=None,
            )
    if options.out:
        _write_json(
            Path(options.out) / f"result.{options.workload}.{options.trace}.json", result
        )
    print(_result_line(result))
    return 0 if result["correct"] else 1


def _write_json(path: Path, payload: Any, indent: int | None = 1) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True), encoding="utf-8")


def run_all(options) -> int:
    """Every workload untraced then traced, each in a child process."""
    from repro.obs.bench import make_bench_record

    out = Path(options.out)
    results: dict[tuple[str, int], dict[str, Any]] = {}
    failures = []
    for workload in [entry["name"] for entry in SPEC["workloads"]]:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(options.seed),
                "--seconds", str(options.seconds), "--trace", str(trace),
                "--out", str(out),
            ]
            if subprocess.run(command, check=False).returncode != 0:
                failures.append(f"{workload} trace={trace} exited non-zero")
                continue
            path = out / f"result.{workload}.{trace}.json"
            results[workload, trace] = json.loads(path.read_text(encoding="utf-8"))

    bounds = {metric["name"]: metric for metric in SPEC["end_to_end"]}
    layer_spec = _units("per_layer")
    metrics: dict[str, float] = {}
    tolerances: dict[str, dict[str, Any]] = {}
    host: dict[str, dict[str, Any]] = {}
    print("== summary")
    for workload in [entry["name"] for entry in SPEC["workloads"]]:
        plain, traced = results.get((workload, 0)), results.get((workload, 1))
        if plain is None or traced is None:
            continue
        same = all(
            plain["end_to_end"][name] == traced["end_to_end"][name]
            for name in SIM_END_TO_END
        ) and (plain["attempted"], plain["failed"]) == (traced["attempted"], traced["failed"])
        if not same:
            failures.append(f"{workload}: simulated metrics differ traced vs untraced")
        overhead = plain["end_to_end"]["host_qps"] / traced["end_to_end"]["host_qps"] - 1
        print(f"  {workload}: trace_overhead {overhead:.3f}, simulated metrics "
              f"{'identical' if same else 'DIFFER'} traced vs untraced")
        for name in SIM_END_TO_END:
            key = f"{workload}.{name}"
            metrics[key] = plain["end_to_end"][name]
            tolerances[key] = {
                "rel": bounds[name]["bound"],
                "direction": f"{bounds[name]['better']}_better",
            }
        metrics[f"{workload}.fail_frac"] = plain["failed"] / plain["attempted"]
        tolerances[f"{workload}.fail_frac"] = {"rel": 0.0, "direction": "lower_better"}
        for name, value in traced["per_layer"].items():
            if layer_spec[name]["unit"] != "s":
                metrics[f"{workload}.{name}"] = value
                tolerances[f"{workload}.{name}"] = {"rel": 0.0, "direction": "two_sided"}
        host[workload] = {
            **{name: plain["end_to_end"][name] for name in bounds if name not in SIM_END_TO_END},
            "trace_overhead": overhead,
            "self_seconds": {
                name: value for name, value in traced["per_layer"].items()
                if layer_spec[name]["unit"] == "s"
            },
        }
    record = make_bench_record(
        "e2e",
        ok=not failures,
        metrics=metrics,
        tolerances=tolerances,
        config={"seed": options.seed, "seconds": options.seconds},
        host=host,
    )
    _write_json(out / "BENCH_e2e.json", record)
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"wrote {out / 'BENCH_e2e.json'}")
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[entry["name"] for entry in SPEC["workloads"]],
        help="run one workload in this process (default: all, in child processes)",
    )
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="directory for results, traces and BENCH_e2e.json "
        "(default: none for one workload, e2e-out for all)",
    )
    options = parser.parse_args(argv)
    if not (options.seconds > 0 and math.isfinite(options.seconds)):
        parser.error("--seconds must be a positive number")
    use_checkout_source()
    if options.workload:
        return run_one(options)
    options.out = options.out or "e2e-out"
    return run_all(options)


if __name__ == "__main__":
    raise SystemExit(main())
