"""SLO burn-rate alerting: spec validation, discrimination, determinism."""

import pytest

from repro.obs.slo import (
    DEFAULT_POLICIES,
    PAGE,
    TICKET,
    Alert,
    BurnRatePolicy,
    SloSpec,
    evaluate_slos,
)
from repro.obs.metrics import MetricsRegistry


def latency_spec(threshold=100.0, objective=0.95):
    return SloSpec(
        name="p-latency",
        kind="latency",
        metric="serving.latency",
        objective=objective,
        threshold=threshold,
    )


def ratio_spec(objective=0.95):
    return SloSpec(
        name="shed-rate",
        kind="event_ratio",
        metric="serving.served",
        bad_metric="serving.shed",
        objective=objective,
    )


def record_latencies(registry, latencies, spacing=100.0):
    for index, value in enumerate(latencies):
        registry.record(
            "serving.latency",
            value,
            cycle=index * spacing,
            kind="gauge",
            tenant="t0",
        )


class TestSloSpec:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SloSpec("x", "availability", "m", objective=0.9)

    def test_objective_must_be_a_fraction(self):
        for objective in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="objective"):
                SloSpec("x", "latency", "m", objective=objective, threshold=1.0)

    def test_latency_needs_threshold_and_ratio_needs_bad_metric(self):
        with pytest.raises(ValueError, match="threshold"):
            SloSpec("x", "latency", "m", objective=0.9)
        with pytest.raises(ValueError, match="bad_metric"):
            SloSpec("x", "event_ratio", "m", objective=0.9)

    def test_budget_is_one_minus_objective(self):
        assert latency_spec(objective=0.99).budget == pytest.approx(0.01)

    def test_latency_bad_fraction(self):
        registry = MetricsRegistry()
        record_latencies(registry, [50.0, 50.0, 150.0, 250.0])
        spec = latency_spec(threshold=100.0)
        assert spec.bad_fraction(registry, 0.0, 1_000.0) == pytest.approx(0.5)
        # Idle ranges spend no budget.
        assert spec.bad_fraction(registry, 10_000.0, 20_000.0) == 0.0

    def test_event_ratio_bad_fraction(self):
        registry = MetricsRegistry()
        registry.record("serving.served", 3.0, cycle=10.0, tenant="t0")
        registry.record("serving.shed", 1.0, cycle=20.0, tenant="t0")
        spec = ratio_spec()
        assert spec.bad_fraction(registry, 0.0, 100.0) == pytest.approx(0.25)


class TestBurnRatePolicy:
    def test_window_ordering_enforced(self):
        with pytest.raises(ValueError):
            BurnRatePolicy("x", fast_fraction=0.5, slow_fraction=0.25)
        with pytest.raises(ValueError):
            BurnRatePolicy("x", burn=0.0)

    def test_default_pairing_is_page_then_ticket(self):
        assert DEFAULT_POLICIES == (PAGE, TICKET)
        assert PAGE.burn > TICKET.burn


class TestEvaluator:
    def test_healthy_run_stays_silent(self):
        registry = MetricsRegistry()
        record_latencies(registry, [50.0] * 40, spacing=250.0)
        alerts = evaluate_slos(registry, [latency_spec()], horizon=10_000.0)
        assert alerts == []

    def test_sustained_violation_fires(self):
        registry = MetricsRegistry()
        # Every sample blows the threshold: burn = 1 / 0.05 = 20 on
        # every window, above both policies' thresholds.
        record_latencies(registry, [500.0] * 40, spacing=250.0)
        alerts = evaluate_slos(registry, [latency_spec()], horizon=10_000.0)
        severities = {alert.severity for alert in alerts}
        assert severities == {"page", "ticket"}

    def test_rising_edge_fires_once_per_episode(self):
        registry = MetricsRegistry()
        record_latencies(registry, [500.0] * 40, spacing=250.0)
        alerts = evaluate_slos(
            registry, [latency_spec()], horizon=10_000.0, policies=(PAGE,)
        )
        # One continuous episode, one page — no re-fire per stride.
        # The first stride boundary is one fast window in.
        assert len(alerts) == 1
        assert alerts[0].cycle == pytest.approx(10_000.0 * PAGE.fast_fraction)

    def test_recovered_then_relapsed_episode_fires_twice(self):
        registry = MetricsRegistry()
        bad, good = 500.0, 10.0
        pattern = [bad] * 10 + [good] * 20 + [bad] * 10
        record_latencies(registry, pattern, spacing=250.0)
        alerts = evaluate_slos(
            registry, [latency_spec()], horizon=10_000.0, policies=(PAGE,)
        )
        assert len(alerts) == 2

    def test_alert_stream_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            record_latencies(registry, [500.0, 50.0] * 20, spacing=250.0)
            registry.record("serving.served", 1.0, cycle=100.0, tenant="t0")
            registry.record("serving.shed", 5.0, cycle=200.0, tenant="t0")
            return evaluate_slos(
                registry, [latency_spec(), ratio_spec()], horizon=10_000.0
            )

        first = [alert.key() for alert in build()]
        second = [alert.key() for alert in build()]
        assert first == second and first

    def test_event_ratio_overload_fires_and_healthy_does_not(self):
        overloaded = MetricsRegistry()
        healthy = MetricsRegistry()
        for cycle in range(0, 10_000, 100):
            overloaded.record("serving.served", 1.0, cycle=float(cycle))
            overloaded.record("serving.shed", 1.0, cycle=float(cycle))
            healthy.record("serving.served", 1.0, cycle=float(cycle))
        spec = ratio_spec()
        assert evaluate_slos(overloaded, [spec], horizon=10_000.0)
        assert evaluate_slos(healthy, [spec], horizon=10_000.0) == []

    def test_labels_scope_the_evaluation(self):
        registry = MetricsRegistry()
        for cycle in range(0, 10_000, 100):
            registry.record("serving.latency", 500.0, cycle=float(cycle),
                            kind="gauge", tenant="noisy")
            registry.record("serving.latency", 10.0, cycle=float(cycle),
                            kind="gauge", tenant="quiet")
        scoped = SloSpec(
            "quiet-latency", "latency", "serving.latency",
            objective=0.95, threshold=100.0, labels={"tenant": "quiet"},
        )
        assert evaluate_slos(registry, [scoped], horizon=10_000.0) == []
        unscoped = latency_spec()
        assert evaluate_slos(registry, [unscoped], horizon=10_000.0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            evaluate_slos(MetricsRegistry(), [latency_spec()], horizon=0.0)

    def test_alert_key_rounds_burns(self):
        alert = Alert(
            slo="s", severity="page", cycle=10.0,
            burn_fast=1.23456789012, burn_slow=2.0,
            budget=0.05, threshold_burn=10.0,
        )
        assert alert.key() == ("s", "page", 10.0, 1.234567890, 2.0)


#: The obs probe's overload alert stream (``Alert.key()``) per seed, as
#: ``python -m repro.verify obs`` evaluates it; the record gates only
#: the counts, so this pins the cycles and burn rates.
PROBE_OVERLOAD_ALERTS = {
    5: [
        ("shed-rate", "ticket", 195545.66887161095, 7.619047619, 7.619047619),
        ("shed-rate", "page", 273763.93642025534, 17.142857143, 11.515151515),
        ("shed-rate", "page", 547527.8728405106, 13.684210526, 13.684210526),
    ],
    23: [
        ("shed-rate", "page", 99015.14790311537, 17.142857143, 17.142857143),
        ("shed-rate", "ticket", 123768.93487889422, 17.142857143, 17.142857143),
        ("shed-rate", "page", 198030.29580623074, 13.846153846, 14.545454545),
        ("shed-rate", "page", 396060.5916124615, 14.736842105, 12.352941176),
        ("shed-rate", "page", 495075.73951557686, 12.380952381, 13.5),
        ("shed-rate", "page", 643598.46137025, 13.333333333, 14.545454545),
        ("p99-latency", "ticket", 866382.5441522596, 8.0, 3.333333333),
        ("p99-latency", "page", 940643.9050795964, 20.0, 20.0),
    ],
    101: [
        ("shed-rate", "page", 164821.76037840263, 15.0, 15.0),
        ("shed-rate", "ticket", 206027.20047300326, 15.0, 12.0),
        ("shed-rate", "page", 247232.64056760396, 11.578947368, 11.578947368),
        ("shed-rate", "page", 453259.84104060725, 11.333333333, 12.380952381),
        ("shed-rate", "page", 576876.1613244092, 14.117647059, 14.117647059),
        ("shed-rate", "page", 659287.0415136105, 13.333333333, 13.333333333),
    ],
}


class TestProbeAlerts:
    @pytest.mark.parametrize("seed", sorted(PROBE_OVERLOAD_ALERTS))
    def test_probe_alert_streams_are_pinned(self, seed):
        from repro.obs.verifier import run_windowed_probe

        overload = run_windowed_probe(seed, overload=True)
        assert [alert.key() for alert in overload["alerts"]] == (
            PROBE_OVERLOAD_ALERTS[seed]
        )
        assert run_windowed_probe(seed, overload=False)["alerts"] == []
