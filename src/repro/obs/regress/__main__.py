"""CLI: ``python -m repro.obs.regress baseline.json current.json``."""

from __future__ import annotations

import argparse
import json
from typing import Any, Sequence

from repro.obs.bench import validate_bench_record
from repro.obs.regress import compare_records


def _load(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as source:
        return json.load(source)



def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.obs.regress baseline.json current.json``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description=(
            "Validate unified bench artifacts and flag metric drift "
            "beyond per-metric tolerances."
        ),
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        help=(
            "baseline.json current.json to diff two runs; with "
            "--validate, any number of artifacts to schema-check"
        ),
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="only schema-validate the given artifacts (no baseline diff)",
    )
    options = parser.parse_args(argv)

    if options.validate:
        failed = 0
        for path in options.artifacts:
            problems = validate_bench_record(_load(path))
            status = "ok" if not problems else "INVALID"
            print(f"{path}: {status}")
            for problem in problems:
                print(f"  - {problem}")
            failed += 1 if problems else 0
        return 1 if failed else 0

    if len(options.artifacts) != 2:
        parser.error("diff mode takes exactly: baseline.json current.json")
    baseline, current = (_load(path) for path in options.artifacts)
    report = compare_records(baseline, current)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
