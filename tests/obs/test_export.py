"""Chrome/Perfetto trace export and the CI schema gate."""

import json

import pytest

from repro.hardware.event import PerfCounters
from repro.obs.export import (
    CHROME_REQUIRED_KEYS,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer


def traced_run() -> Tracer:
    """A small two-layer trace with one instant event."""
    tracer = Tracer()
    counters = PerfCounters()
    with tracer.span("q", "query", counters):
        counters.cycles += 2_600_000  # 1 ms at 2.6 GHz
        with tracer.span("k", "kernel", counters, chunks=2):
            counters.cycles += 2_600_000
        tracer.instant("fault(pcie)", "fault", counters, site="pcie")
    return tracer


class TestChromeTraceEvents:
    def test_required_keys_on_every_event(self):
        events = chrome_trace_events(traced_run(), frequency_hz=2.6e9)
        for event in events:
            assert all(key in event for key in CHROME_REQUIRED_KEYS)

    def test_cycles_map_to_microseconds(self):
        events = chrome_trace_events(traced_run(), frequency_hz=2.6e9)
        query = next(e for e in events if e["name"] == "q")
        kernel = next(e for e in events if e["name"] == "k")
        assert query["ts"] == pytest.approx(0.0)
        assert query["dur"] == pytest.approx(2000.0)  # 2 ms inclusive
        assert kernel["ts"] == pytest.approx(1000.0)
        assert kernel["dur"] == pytest.approx(1000.0)

    def test_one_thread_row_per_category_with_names(self):
        events = chrome_trace_events(traced_run(), frequency_hz=2.6e9)
        names = {
            e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"
        }
        by_category = {
            e["cat"]: e["tid"] for e in events if e["ph"] in ("X", "i")
        }
        assert set(names.values()) == {"query", "kernel", "fault"}
        for category, tid in by_category.items():
            assert names[tid] == category

    def test_instant_events_carry_scope(self):
        events = chrome_trace_events(traced_run(), frequency_hz=2.6e9)
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        assert instant["args"] == {"site": "pcie"}

    def test_open_spans_are_skipped(self):
        tracer = Tracer()
        tracer.begin("stuck", "operator", PerfCounters())
        assert chrome_trace_events(tracer, frequency_hz=1e9) == []

    def test_non_scalar_attrs_become_repr(self):
        tracer = Tracer()
        counters = PerfCounters()
        with tracer.span("q", "query", counters, shape=(1, 2)):
            pass
        event = next(
            e
            for e in chrome_trace_events(tracer, frequency_hz=1e9)
            if e["ph"] == "X"
        )
        assert event["args"]["shape"] == "(1, 2)"

    def test_bad_frequency_raises(self):
        with pytest.raises(ValueError):
            chrome_trace_events(Tracer(), frequency_hz=0)


class TestWriteAndValidate:
    def test_written_file_is_perfetto_object_form(self, tmp_path):
        path = tmp_path / "trace.json"
        events = write_chrome_trace(
            str(path), traced_run(), 2.6e9, workload="unit"
        )
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["traceEvents"] == events
        assert record["displayTimeUnit"] == "ms"
        assert record["metadata"] == {"frequency_hz": 2.6e9, "workload": "unit"}

    def test_emitted_trace_validates_clean(self):
        events = chrome_trace_events(traced_run(), frequency_hz=2.6e9)
        assert validate_chrome_trace(events) == []

    def test_validator_flags_missing_keys(self):
        problems = validate_chrome_trace([{"name": "x", "ph": "X"}])
        assert problems and "missing keys" in problems[0]

    def test_validator_flags_backwards_timestamps(self):
        events = [
            {"name": "a", "ph": "i", "ts": 10.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "i", "ts": 5.0, "pid": 1, "tid": 1},
        ]
        problems = validate_chrome_trace(events)
        assert problems and "goes backwards" in problems[0]

    def test_validator_flags_negative_duration(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": -1.0, "pid": 1, "tid": 1}
        ]
        problems = validate_chrome_trace(events)
        assert problems and "dur" in problems[0]
