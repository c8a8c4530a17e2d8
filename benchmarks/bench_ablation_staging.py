"""A9 — ablation: staging-cache capacity x OLTP share on an HTAP stream.

The device staging cache (:mod:`repro.staging`) keeps recently staged
columns in device memory; repeated OLAP sums pay PCIe once per column
instead of once per query, and a transactional point update keeps the
touched replica staged: the next sum ships only the written cells.
This sweep shows that more capacity lifts the hit rate and cuts the
stream's cycle total, and that once the working set fits, the OLTP
share no longer knocks replicas back out.
"""

from conftest import record_artifact

from repro.perf.sweeper import run_sweep
from repro.core.report import render_table


def test_benchmark_ablation_staging(benchmark):
    result = benchmark.pedantic(
        run_sweep, args=("staging_cache",), rounds=1, iterations=1
    )
    points = list(result.points)
    # Capacity 0 disables caching: every lookup misses.
    assert points[0].knob == 0.0
    assert points[0].outcomes["hit_rate_oltp0"] == 0.0
    # With the working set cached, the pure-OLAP stream hits and gets
    # cheaper — and moves strictly fewer bytes over the link.
    assert points[-1].outcomes["hit_rate_oltp0"] > 0.0
    assert points[-1].outcomes["ms_oltp0"] < points[0].outcomes["ms_oltp0"]
    assert points[-1].outcomes["pcie_mb_oltp0"] < points[0].outcomes["pcie_mb_oltp0"]
    # Writes patch replicas instead of dropping them, so the OLTP-heavy
    # stream misses only on its cold first reads — a larger share of
    # its fewer sums — and hits no more often than the pure-OLAP one.
    assert (
        points[-1].outcomes["hit_rate_oltp0.5"]
        <= points[-1].outcomes["hit_rate_oltp0"]
    )
    rows = [
        (
            f"{point.knob:.2f}x",
            f"{point.outcomes['hit_rate_oltp0']:.2f}",
            f"{point.outcomes['ms_oltp0']:.3f}",
            f"{point.outcomes['hit_rate_oltp0.5']:.2f}",
            f"{point.outcomes['ms_oltp0.5']:.3f}",
        )
        for point in points
    ]
    rendered = (
        "A9: staging-cache capacity sweep (HTAP mix, capacity as a\n"
        "fraction of the OLAP working set)\n"
        + render_table(
            rows,
            (
                "capacity",
                "hit rate (OLAP)",
                "ms (OLAP)",
                "hit rate (50% OLTP)",
                "ms (50% OLTP)",
            ),
        )
    )
    record_artifact("ablation_staging", rendered)
    print("\n" + rendered)
