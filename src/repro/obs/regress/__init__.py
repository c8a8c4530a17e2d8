"""Cross-run bench regression detection: ``python -m repro.obs.regress``.

Compares the ``metrics`` sections of two unified bench artifacts
(:mod:`repro.obs.bench`) — a checked-in *baseline* and the *current*
run — and flags every metric whose drift exceeds its tolerance **in
the bad direction**:

* ``higher_better`` metrics (speedups, hit rates) flag when the
  current value falls more than ``rel`` below the baseline;
* ``lower_better`` metrics (latencies, cycles) flag when it rises
  more than ``rel`` above it;
* ``two_sided`` metrics (the default — counts, determinism figures)
  flag on drift either way.

Tolerances come from the **current** artifact's ``tolerances`` section
(the repo's head defines its own contract); a metric that sets no
``rel`` gets :data:`~repro.obs.bench.DEFAULT_REL_TOLERANCE`.  A metric
present on only one side is a *shape* problem and flags too: silently
dropping a gated metric is how regressions hide.

Exit status: 0 = within tolerance, 1 = regression or malformed
artifact — which is what CI's ``verify`` job keys off.  The
same CLI also schema-validates artifacts without a baseline via
``--validate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.bench import (
    DEFAULT_REL_TOLERANCE,
    validate_bench_record,
)

__all__ = ["MetricDelta", "RegressionReport", "compare_records"]


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline → current movement and its verdict."""

    name: str
    baseline: float | None
    current: float | None
    rel_change: float | None
    tolerance_rel: float
    direction: str
    regressed: bool
    reason: str


@dataclass
class RegressionReport:
    """Every compared metric plus the overall verdict."""

    bench: str
    deltas: list[MetricDelta]
    problems: list[str]

    @property
    def regressions(self) -> list[MetricDelta]:
        """The deltas that flagged."""
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def ok(self) -> bool:
        """True when nothing flagged and both artifacts were sound."""
        return not self.regressions and not self.problems

    def render(self) -> str:
        """A human-readable comparison table for the CI log."""
        lines = [f"bench regression report — {self.bench}"]
        for problem in self.problems:
            lines.append(f"  PROBLEM  {problem}")
        for delta in self.deltas:
            drift = (
                f"{delta.rel_change:+8.2%}"
                if delta.rel_change is not None
                else "       —"
            )
            verdict = "REGRESSED" if delta.regressed else "ok"
            lines.append(
                f"  {verdict:<9s} {delta.name:<44s} "
                f"{_fmt(delta.baseline):>14s} -> {_fmt(delta.current):>14s} "
                f"{drift} (tol ±{delta.tolerance_rel:.0%}, {delta.direction})"
            )
        lines.append(
            f"  verdict: {'OK' if self.ok else 'REGRESSION'} "
            f"({len(self.regressions)} flagged / {len(self.deltas)} compared)"
        )
        return "\n".join(lines)


def _fmt(value: float | None) -> str:
    return "missing" if value is None else f"{value:,.4g}"


def _tolerance(record: dict[str, Any], name: str) -> tuple[float, str]:
    spec = record.get("tolerances", {}).get(name, {})
    return (
        float(spec.get("rel", DEFAULT_REL_TOLERANCE)),
        str(spec.get("direction", "two_sided")),
    )


def compare_records(
    baseline: dict[str, Any], current: dict[str, Any]
) -> RegressionReport:
    """Compare two schema-conformant artifacts; never raises on content.

    Schema violations and bench-name mismatches land in ``problems``
    (they fail the run exactly like a regression would), so CI gets one
    verdict no matter how the artifact broke.
    """
    problems = [
        f"baseline: {problem}" for problem in validate_bench_record(baseline)
    ] + [f"current: {problem}" for problem in validate_bench_record(current)]
    if not problems and baseline.get("bench") != current.get("bench"):
        problems.append(
            f"bench mismatch: baseline {baseline.get('bench')!r} vs "
            f"current {current.get('bench')!r}"
        )
    base_metrics = baseline.get("metrics", {}) if isinstance(baseline, dict) else {}
    curr_metrics = current.get("metrics", {}) if isinstance(current, dict) else {}
    deltas: list[MetricDelta] = []
    for name in sorted(set(base_metrics) | set(curr_metrics)):
        before = base_metrics.get(name)
        after = curr_metrics.get(name)
        rel, direction = _tolerance(current, name)
        if before is None or after is None:
            side = "baseline" if before is None else "current"
            deltas.append(
                MetricDelta(
                    name, before, after, None, rel, direction,
                    regressed=True,
                    reason=f"metric missing from the {side} artifact",
                )
            )
            continue
        if before == 0.0:
            rel_change = 0.0 if after == 0.0 else float("inf")
        else:
            rel_change = (after - before) / abs(before)
        if direction == "higher_better":
            regressed = rel_change < -rel
        elif direction == "lower_better":
            regressed = rel_change > rel
        else:
            regressed = abs(rel_change) > rel
        reason = (
            f"drifted {rel_change:+.2%} beyond the ±{rel:.0%} "
            f"{direction} tolerance"
            if regressed
            else "within tolerance"
        )
        deltas.append(
            MetricDelta(
                name, before, after,
                rel_change if rel_change != float("inf") else None,
                rel, direction, regressed, reason,
            )
        )
    return RegressionReport(
        bench=str(current.get("bench", "?")), deltas=deltas, problems=problems
    )
