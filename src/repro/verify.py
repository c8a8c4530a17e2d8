"""One verification entry point: ``python -m repro.verify <plane>``.

Every plane module exposes ``verify(seeds, sites, smoke) -> record``:
it runs the plane's experiments and gates, logs one line per cell
through :mod:`repro.obs.logging`, and returns its ``repro-bench/1``
record (:func:`repro.obs.bench.make_bench_record`).  A plane may also
declare a module-level ``SITES`` tuple — the fault sites ``--sites``
may name, and the default.  That function and ``SITES`` are the whole
protocol.  This CLI owns what the planes share: the flags, the wall
clock, the record file and the exit status::

    python -m repro.verify distributed --smoke
    python -m repro.verify rebalance --seeds 5 --sites net.drop-catchup
    python -m repro.verify sweeps --smoke --output BENCH_sweeps.json

The record is written only with ``--output``; the obs plane also
always writes its Chrome trace to ``trace.json``.  The exit status is
0 iff the record's ``ok`` is true, 1 otherwise, and 2 on a usage error
(unknown plane, or a site the plane does not declare).
"""

from __future__ import annotations

import argparse
import importlib
import json
import time
from typing import Any, Callable, Sequence

from repro.obs.logging import configure_cli_logging, get_logger

__all__ = ["PLANES", "DEFAULT_SEEDS", "run_twice", "main"]

#: Plane name -> module exposing ``verify``.  Names equal the records'
#: ``bench`` names, so ``BENCH_<plane>.json`` lines up with
#: ``benchmarks/baselines/BENCH_<plane>.smoke.json``.
PLANES: dict[str, str] = {
    "distributed": "repro.sharding.verifier",
    "rebalance": "repro.rebalance.verifier",
    "recovery": "repro.recovery.verifier",
    "serving": "repro.serving.verifier",
    "obs": "repro.obs.verifier",
    "sweeps": "repro.perf.sweeper",
}

#: The CI chaos matrix seeds every plane defaults to.
DEFAULT_SEEDS = "5,23,101"


def run_twice(run: Callable[..., Any], **kwargs: Any) -> tuple[Any, bool]:
    """The determinism gate: run ``run(**kwargs)`` twice.

    Returns the first result and whether both runs' full ``to_dict()``
    records are equal.
    """
    first = run(**kwargs)
    return first, first.to_dict() == run(**kwargs).to_dict()


def _csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _seeds(text: str) -> list[int]:
    return [int(item) for item in _csv(text)]


def main(argv: Sequence[str] | None = None) -> int:
    """Run one plane's ``verify``; write its record; 0 iff it is ``ok``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Run one plane's verification gates and emit its "
        "repro-bench/1 record.",
    )
    parser.add_argument("plane", choices=sorted(PLANES))
    parser.add_argument(
        "--seeds",
        type=_seeds,
        default=DEFAULT_SEEDS,
        help=f"comma-separated chaos seeds (default: {DEFAULT_SEEDS})",
    )
    parser.add_argument(
        "--sites",
        type=_csv,
        default=None,
        help="comma-separated fault sites (default: every site the "
        "plane declares)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced configuration (fast local sanity check / PR CI)",
    )
    parser.add_argument(
        "--output", help="write the JSON record here (default: no file)"
    )
    options = parser.parse_args(argv)
    module = importlib.import_module(PLANES[options.plane])
    declared = list(getattr(module, "SITES", ()))
    sites = declared if options.sites is None else options.sites
    undeclared = [site for site in sites if site not in declared]
    if undeclared:
        parser.error(
            f"plane {options.plane!r} declares no site {undeclared[0]!r} "
            f"(declared: {', '.join(declared) or 'none'})"
        )

    configure_cli_logging()
    started = time.perf_counter()
    record = module.verify(options.seeds, sites, options.smoke)
    record["wall_seconds"] = time.perf_counter() - started
    if options.output:
        with open(options.output, "w", encoding="utf-8") as sink:
            json.dump(record, sink, indent=2, sort_keys=True)
    get_logger(__name__).info(
        "%s: %s, %.2fs wall",
        options.plane,
        "ok" if record["ok"] else "FAILED",
        record["wall_seconds"],
    )
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
