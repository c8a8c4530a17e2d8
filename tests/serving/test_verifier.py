"""The serving verifier's gates and CLI record."""

from __future__ import annotations

import json
import logging

import pytest

from repro.serving.server import BATCH_16
from repro.serving.verifier import (
    MAX_TAIL_RATIO,
    MIN_BATCH_SPEEDUP,
    build_tenants,
    identity_mismatches,
    replay_serial,
    serve_once,
    verify,
)
from repro.workload.queries import QueryShape, QuerySpec

ROWS = 20_000


def _sum(attribute: str = "i_price") -> QuerySpec:
    return QuerySpec(QueryShape.FULL_SUM, "item", (attribute,))


def _update(position: int) -> QuerySpec:
    return QuerySpec(QueryShape.POINT_UPDATE, "item", ("i_price",), (position,))


#: Sums around writes to the column they read: a replica staged by the
#: first sum must be patched before each later one.
SERVED = [
    (seq, spec, None)
    for seq, spec in enumerate(
        [_sum(), _update(5), _sum(), _update(9), _sum("i_im_id"), _sum()]
    )
]


def _identity_cell(seed: int) -> int:
    """Mismatches of the serving plane's smoke chaos cell, minus the chaos."""
    outcome = serve_once(
        seed, ROWS, build_tenants(4, 40_000.0), 3e6, BATCH_16, max_backlog=48
    )
    return identity_mismatches(outcome, ROWS)


class TestOracle:
    def test_replay_reads_the_host_columns_not_a_replica(self, request):
        clean = replay_serial(2_000, SERVED)
        # Each write moves the later sums, so a stale read would show.
        assert clean[0] != clean[2] and clean[2] != clean[5]
        request.getfixturevalue("skipped_patch")
        assert replay_serial(2_000, SERVED) == clean

    @pytest.mark.parametrize("seed", [5, 23, 101])
    def test_clean_cell_has_no_mismatches(self, seed):
        assert _identity_cell(seed) == 0

    @pytest.mark.parametrize("seed", [5, 23, 101])
    def test_stale_replicas_are_mismatches(self, seed, skipped_patch):
        assert _identity_cell(seed) > 0


class TestGates:
    def test_all_gates_pass_on_the_smoke_cell(self):
        record = verify([5], [], smoke=True)
        assert record["ok"] is True
        cell = record["seeds"]["5"]
        assert all(cell["gates"].values()), cell["gates"]
        assert cell["identity_mismatches"] == 0
        assert cell["speedup"] >= MIN_BATCH_SPEEDUP
        assert 0 < cell["bounded"]["tail_ratio"] <= MAX_TAIL_RATIO
        assert cell["chaos_injected"] > 0
        assert cell["chaos_unaccounted"] == 0

    def test_record_is_json_serializable_and_self_describing(self):
        record = verify([5], [], smoke=True)
        text = json.dumps(record, sort_keys=True)
        assert "thresholds" in record and "config" in record
        assert json.loads(text)["bench"] == "serving"

    def test_per_tenant_latency_percentiles_in_the_record(self):
        from repro.obs.bench import validate_bench_record

        record = verify([5], [], smoke=True)
        assert validate_bench_record(record) == []
        summaries = record["seeds"]["5"]["tenant_latency"]
        assert summaries  # at least one tenant served
        for tenant, stats in summaries.items():
            assert tenant.startswith("t")
            assert stats["count"] > 0
            assert 0 < stats["p50"] <= stats["p95"] <= stats["p99"]


class TestCLI:
    def test_main_smoke_writes_the_record_and_exits_zero(self, tmp_path, caplog):
        from repro.verify import main

        output = tmp_path / "BENCH_serving.json"
        with caplog.at_level(logging.INFO, logger="repro"):
            code = main(
                ["serving", "--smoke", "--seeds", "5", "--output", str(output)]
            )
        assert code == 0
        record = json.loads(output.read_text())
        assert record["ok"] is True and record["bench"] == "serving"
        assert caplog.text.count("seed 5: speedup=") == 1
        assert "serving: ok" in caplog.text
