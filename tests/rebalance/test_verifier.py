"""The rebalance chaos verifier: byte identity, determinism, accounting."""

from __future__ import annotations

import pytest

from repro.rebalance import build_skewed_stream, run_rebalance_chaos
from repro.rebalance import verifier

SMOKE = dict(query_count=24, row_count=512, interleave_count=24)


class TestSkewedStream:
    def test_stream_is_deterministic(self):
        first = build_skewed_stream(512, 16, seed=7, hot_fraction=0.8)
        second = build_skewed_stream(512, 16, seed=7, hot_fraction=0.8)
        assert len(first) == len(second) == 16
        for spec_a, spec_b in zip(first, second):
            assert spec_a.shape == spec_b.shape
            assert spec_a.positions == spec_b.positions

    def test_first_index_moves_indices_not_positions(self):
        base = build_skewed_stream(512, 9, seed=7, hot_fraction=0.8)
        moved = build_skewed_stream(512, 9, seed=7, hot_fraction=0.8, first_index=40)
        assert [spec.index for spec in moved] == list(range(40, 49))
        assert [(s.shape, s.positions) for s in moved] == [
            (s.shape, s.positions) for s in base
        ]

    @pytest.mark.parametrize("seed", [5, 23, 101])
    def test_a_runs_streams_share_no_index(self, seed, monkeypatch):
        built = []

        def recording(*args, **kwargs):
            stream = build_skewed_stream(*args, **kwargs)
            built.append({spec.index for spec in stream})
            return stream

        monkeypatch.setattr(verifier, "build_skewed_stream", recording)
        result = run_rebalance_chaos(
            seed=seed, fault_rate=0.0, measure_count=24, **SMOKE
        )
        assert result.ok
        assert [len(indices) for indices in built] == [24, 24, 24]
        assert len(set().union(*built)) == 72

    def test_hot_fraction_targets_the_first_eighth(self):
        stream = build_skewed_stream(512, 32, seed=1, hot_fraction=1.0)
        for spec in stream:
            assert max(spec.positions) < 512 // 8


class TestChaosRun:
    def test_zero_fault_run_is_clean_and_rebalances(self):
        result = run_rebalance_chaos(seed=5, fault_rate=0.0, **SMOKE)
        assert result.ok
        assert result.mismatched == 0 and result.data_lost == 0
        assert result.committed > 0 and result.epoch > 0
        assert result.ratio_before > result.ratio_after
        assert result.resilience["injected"] == 0

    def test_chaos_run_keeps_byte_identity_and_accounting(self):
        result = run_rebalance_chaos(seed=5, fault_rate=0.25, **SMOKE)
        assert result.ok
        assert result.matched == result.queries
        assert result.final_checks_ok
        assert result.accounting_ok
        assert result.resilience["injected"] > 0

    def test_same_seed_runs_are_identical(self):
        first = run_rebalance_chaos(seed=23, fault_rate=0.25, **SMOKE)
        second = run_rebalance_chaos(seed=23, fault_rate=0.25, **SMOKE)
        assert first.resilience == second.resilience
        assert first.cycles == second.cycles
        assert first.epoch == second.epoch

    def test_migration_cycles_are_part_of_the_bill(self):
        result = run_rebalance_chaos(seed=5, fault_rate=0.0, **SMOKE)
        assert 0 < result.rebalance_cycles < result.cycles
        assert result.migrator["cycles"] == result.rebalance_cycles

    def test_to_dict_round_trips_the_tallies(self):
        result = run_rebalance_chaos(seed=5, fault_rate=0.1, **SMOKE)
        record = result.to_dict()
        assert record["seed"] == 5
        assert record["resilience"] == result.resilience
        assert record["ok"] == result.ok


class TestPlane:
    def test_matrix_arms_only_the_selected_sites(self):
        from repro.rebalance.migrator import SITE_NET_DROP_CATCHUP
        from repro.rebalance.verifier import verify

        record = verify([5], [SITE_NET_DROP_CATCHUP], smoke=True)
        assert record["ok"] is True
        assert record["sites"] == [SITE_NET_DROP_CATCHUP]
        injected = {
            key
            for cell in record["matrix"]
            for key in cell["resilience"]
            if key.startswith("injected[")
        }
        assert injected == {f"injected[{SITE_NET_DROP_CATCHUP}]"}
        assert all(
            cell["sites"] == [SITE_NET_DROP_CATCHUP] for cell in record["matrix"]
        )
