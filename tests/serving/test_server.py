"""The serving loop: serial equivalence, write barriers, attribution."""

from __future__ import annotations

import math

import pytest

from repro.execution.context import ExecutionContext
from repro.obs.metrics import MetricsRegistry
from repro.serving.admission import AdmissionQueue
from repro.serving.arrivals import QueryArrival
from repro.serving.server import (
    BATCH_16,
    SERIAL_DISPATCH,
    BatchPolicy,
    LayoutBackend,
    ServingLoop,
)
from repro.serving.verifier import (
    build_item_store,
    build_tenants,
    identity_mismatches,
    serve_once,
)
from repro.sharding.verifier import encode_answer
from repro.workload.queries import QueryShape, QuerySpec

ROWS = 10_000
HORIZON = 2_000_000.0


def _sum(attr: str = "i_price") -> QuerySpec:
    return QuerySpec(QueryShape.FULL_SUM, "item", (attr,))


def _update(position: int, attr: str = "i_price") -> QuerySpec:
    return QuerySpec(QueryShape.POINT_UPDATE, "item", (attr,), (position,))


def _arrivals(specs: list[QuerySpec]) -> list[QueryArrival]:
    return [
        QueryArrival(seq, 0.0, "t0", 0, 1.0, spec)
        for seq, spec in enumerate(specs)
    ]


def _loop(platform, policy: BatchPolicy = BATCH_16, max_backlog=None) -> ServingLoop:
    store = build_item_store(platform, ROWS)
    return ServingLoop(
        backend=LayoutBackend(platform, store),
        ctx=ExecutionContext(platform),
        queue=AdmissionQueue(max_backlog),
        policy=policy,
        registry=MetricsRegistry(),
    )


class TestWriteBarriers:
    def test_reads_never_cross_a_write(self, platform):
        loop = _loop(platform)
        write_seq = 4
        specs = [_sum()] * write_seq + [_update(17)] + [_sum()] * 4
        report = loop.run(_arrivals(specs))
        by_seq = {record.seq: record for record in report.executed}
        write = by_seq[write_seq]
        for seq, record in by_seq.items():
            if seq < write_seq:
                assert record.finish_cycle <= write.start_cycle
            elif seq > write_seq:
                assert record.start_cycle >= write.finish_cycle

    def test_write_changes_later_answers_exactly_as_serial(self, platform):
        loop = _loop(platform)
        specs = [_sum(), _update(17), _sum()]
        report = loop.run(_arrivals(specs))
        answers = {record.seq: record.answer for record in report.executed}
        assert answers[0] != answers[2]
        expected_written = float(17 % 97)
        assert answers[2] == pytest.approx(
            answers[0]
            - build_item_store(platform, ROWS)
            .fragments_for_attribute("i_price")[0]
            .column("i_price")[17]
            + expected_written
        )

    def test_batches_form_between_barriers(self, platform):
        loop = _loop(platform)
        specs = [_sum()] * 6 + [_update(3)] + [_sum()] * 6
        report = loop.run(_arrivals(specs))
        assert report.units == 3
        assert report.batches == 2
        assert len(report.executed) == 13


class TestServingLoop:
    def test_serial_policy_dispatches_one_query_per_unit(self, platform):
        loop = _loop(platform, SERIAL_DISPATCH)
        report = loop.run(_arrivals([_sum()] * 5))
        assert report.units == 5
        assert report.batches == 0

    def test_all_arrivals_are_served_or_shed(self):
        outcome = serve_once(
            seed=3,
            row_count=ROWS,
            tenants=build_tenants(3, 30_000.0),
            horizon_cycles=HORIZON,
            policy=BATCH_16,
            max_backlog=8,
        )
        assert len(outcome.report.executed) + len(outcome.report.shed) == len(
            outcome.arrivals
        )
        assert outcome.report.shed  # the bound actually bit

    def test_latency_is_finish_minus_arrival(self, platform):
        loop = _loop(platform)
        report = loop.run(_arrivals([_sum()] * 3))
        for record in report.executed:
            assert record.latency_cycles == pytest.approx(
                record.finish_cycle - record.arrival_cycle
            )
        recorded = loop.registry.values("serving.latency", 0.0, math.inf)
        assert len(recorded) == len(report.executed)

    def test_clock_jumps_idle_gaps(self, platform):
        loop = _loop(platform)
        arrivals = [
            QueryArrival(0, 1_000_000.0, "t0", 0, 1.0, _sum()),
        ]
        report = loop.run(arrivals)
        assert report.executed[0].start_cycle == 1_000_000.0
        # Idle cycles are not service: latency excludes the empty epoch.
        assert report.executed[0].latency_cycles < 1_000_000.0

    def test_exactly_once_attribution_including_sheds(self):
        outcome = serve_once(
            seed=3,
            row_count=ROWS,
            tenants=build_tenants(3, 30_000.0),
            horizon_cycles=HORIZON,
            policy=BATCH_16,
            max_backlog=8,
            overflow_rate=0.1,
            registry=MetricsRegistry(),
        )
        assert outcome.registry.verify_closure(outcome.ctx.counters) == []
        assert outcome.injector is not None
        assert outcome.injector.report.unaccounted == 0

    def test_interleaved_batched_run_matches_serial_replay(self):
        outcome = serve_once(
            seed=11,
            row_count=ROWS,
            tenants=build_tenants(4, 25_000.0),
            horizon_cycles=HORIZON,
            policy=BATCH_16,
            max_backlog=32,
        )
        assert outcome.report.batches > 0
        assert identity_mismatches(outcome, ROWS) == 0

    def test_priority_zero_is_served_ahead_under_backlog(self, platform):
        loop = _loop(platform, SERIAL_DISPATCH)
        arrivals = [
            QueryArrival(0, 0.0, "batchy", 1, 1.0, _sum()),
            QueryArrival(1, 0.0, "interactive", 0, 1.0, _sum()),
        ]
        report = loop.run(arrivals)
        assert [record.tenant for record in report.executed] == [
            "interactive",
            "batchy",
        ]

    def test_answers_for_replay_are_in_seq_order(self, platform):
        loop = _loop(platform)
        loop.run(_arrivals([_sum(), _update(5), _sum("i_im_id")]))
        seqs = [seq for seq, __, __ in loop.answers_for_replay()]
        assert seqs == sorted(seqs) == [0, 1, 2]
        for __, __, answer in loop.answers_for_replay():
            assert encode_answer(answer)  # every answer is encodable
