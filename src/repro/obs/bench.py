"""The unified bench-artifact schema every ``BENCH_*.json`` shares.

Before this module each verifier CLI wrote its own ad-hoc record, so
nothing could compare two runs of the repository against each other.
The schema is deliberately **additive**: a bench record keeps its
harness-specific payload at the top level (existing readers keep
working) and adds four required keys —

``schema``
    The constant :data:`BENCH_SCHEMA`, versioned so the regression
    tool can refuse artifacts it does not understand.
``bench``
    The harness name (``serving``, ``sweeps``, ``obs``, ...).
``ok``
    Whether every gate the harness enforces passed.
``metrics``
    A flat ``name -> finite number`` dict of the run's **deterministic
    simulated figures** — the only section
    :mod:`repro.obs.regress` compares across runs.  Wall-clock numbers
    must stay out of it (they vary per machine); simulated cycles,
    speedups, hit rates and counts belong in it.

plus the optional ``tolerances`` section: per-metric
``{"rel": fraction, "direction": ...}`` overrides for the regression
comparison, where *direction* says which way is bad —
``higher_better`` (a drop flags), ``lower_better`` (a rise flags) or
``two_sided`` (any drift flags; the default).
"""

from __future__ import annotations

import math
from typing import Any, Mapping

__all__ = [
    "BENCH_SCHEMA",
    "DIRECTIONS",
    "DEFAULT_REL_TOLERANCE",
    "make_bench_record",
    "validate_bench_record",
]

#: Schema identifier written into (and required of) every artifact.
BENCH_SCHEMA = "repro-bench/1"

#: Legal values of a tolerance's ``direction`` field.
DIRECTIONS = ("higher_better", "lower_better", "two_sided")

#: Relative drift allowed when a metric declares no tolerance.
DEFAULT_REL_TOLERANCE = 0.10


def make_bench_record(
    bench: str,
    ok: bool,
    metrics: Mapping[str, float],
    tolerances: Mapping[str, Mapping[str, Any]] | None = None,
    smoke: bool = False,
    **payload: Any,
) -> dict[str, Any]:
    """Assemble (and validate) one schema-conformant bench record.

    *payload* lands at the top level next to the schema keys, so a
    harness keeps its existing record shape; colliding with a schema
    key is a hard error rather than a silent overwrite.
    """
    record: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "bench": bench,
        "ok": bool(ok),
        "smoke": bool(smoke),
        "metrics": {name: float(value) for name, value in sorted(metrics.items())},
    }
    if tolerances:
        record["tolerances"] = {
            name: dict(spec) for name, spec in sorted(tolerances.items())
        }
    for key, value in payload.items():
        if key in record:
            raise ValueError(f"payload key {key!r} collides with a schema key")
        record[key] = value
    problems = validate_bench_record(record)
    if problems:
        raise ValueError(f"bench record for {bench!r} is malformed: {problems}")
    return record


def validate_bench_record(record: Any) -> list[str]:
    """Every way *record* violates the schema (empty = conformant)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record must be a JSON object, got {type(record).__name__}"]
    if record.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema must be {BENCH_SCHEMA!r}, got {record.get('schema')!r}"
        )
    if not isinstance(record.get("bench"), str) or not record.get("bench"):
        problems.append("bench must be a non-empty string")
    for flag in ("ok", "smoke"):
        if not isinstance(record.get(flag), bool):
            problems.append(f"{flag} must be a boolean")
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics must be a flat name -> number object")
    else:
        for name, value in metrics.items():
            if not isinstance(name, str):
                problems.append(f"metric name {name!r} must be a string")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(f"metric {name!r} must be a number, got {value!r}")
            elif not math.isfinite(value):
                problems.append(f"metric {name!r} must be finite, got {value!r}")
    tolerances = record.get("tolerances", {})
    if not isinstance(tolerances, dict):
        problems.append("tolerances must be an object")
    else:
        for name, spec in tolerances.items():
            if not isinstance(spec, dict):
                problems.append(f"tolerance {name!r} must be an object")
                continue
            if isinstance(metrics, dict) and name not in metrics:
                problems.append(f"tolerance {name!r} names no metric")
            rel = spec.get("rel", DEFAULT_REL_TOLERANCE)
            if isinstance(rel, bool) or not isinstance(rel, (int, float)) or rel < 0:
                problems.append(f"tolerance {name!r}: rel must be a number >= 0")
            direction = spec.get("direction", "two_sided")
            if direction not in DIRECTIONS:
                problems.append(
                    f"tolerance {name!r}: direction must be one of "
                    f"{DIRECTIONS}, got {direction!r}"
                )
            unknown = set(spec) - {"rel", "direction"}
            if unknown:
                problems.append(
                    f"tolerance {name!r}: unknown keys {sorted(unknown)}"
                )
    return problems
