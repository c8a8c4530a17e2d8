"""The serving verifier's gates and CLI record."""

from __future__ import annotations

import json
import logging

from repro.serving.verifier import MAX_TAIL_RATIO, MIN_BATCH_SPEEDUP, verify


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
