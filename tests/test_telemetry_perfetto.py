"""Perfetto/Chrome-trace export: structure, nesting, validation."""

import json

import pytest

from repro.sim.telemetry.metrics import MetricsRegistry
from repro.sim.telemetry.perfetto import (
    MACHINE_PID,
    WRITE_CHUNK,
    chrome_trace,
    load_and_validate,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.telemetry.spans import Span


def make_span(name="invoke:poke", cid=1, pid=2, start=100, end=400, phases=()):
    span = Span(name, "invoke", cid, pid, start, args={"location": "remote"})
    span.end = end
    for phase_name, phase_start, phase_end in phases:
        span.phases.append([phase_name, phase_start, phase_end])
    return span


class TestExport:
    def test_span_becomes_async_pair(self):
        trace = chrome_trace([make_span()])
        pairs = [e for e in trace["traceEvents"] if e.get("ph") in ("b", "e")]
        assert [e["ph"] for e in pairs] == ["b", "e"]
        begin = pairs[0]
        assert begin["name"] == "invoke:poke"
        assert begin["ts"] == 100 and begin["pid"] == 2
        assert begin["args"]["cid"] == "1"
        assert validate_chrome_trace(trace) == []

    def test_phases_nest_inside_parent(self):
        span = make_span(
            phases=[("nack-wait", 120, 200), ("execute", 200, 380)]
        )
        trace = chrome_trace([span])
        names = [
            (e["ph"], e["name"])
            for e in trace["traceEvents"]
            if e.get("ph") in ("b", "e")
        ]
        assert names == [
            ("b", "invoke:poke"),
            ("b", "nack-wait"),
            ("e", "nack-wait"),
            ("b", "execute"),
            ("e", "execute"),
            ("e", "invoke:poke"),
        ]
        assert validate_chrome_trace(trace) == []

    def test_equal_timestamps_keep_nesting_order(self):
        # A zero-length span whose phase shares both endpoints: the
        # stable sort must keep parent-b, child-b, child-e, parent-e.
        span = make_span(start=100, end=100, phases=[("execute", 100, 100)])
        trace = chrome_trace([span])
        assert validate_chrome_trace(trace) == []

    def test_overlapping_spans_get_distinct_ids(self):
        spans = [
            make_span(cid=1, start=100, end=500),
            make_span(cid=2, start=200, end=400),
        ]
        trace = chrome_trace(spans)
        ids = {e["id"] for e in trace["traceEvents"] if e.get("ph") == "b"}
        assert len(ids) == 2
        assert validate_chrome_trace(trace) == []

    def test_open_spans_are_skipped(self):
        span = make_span()
        span.end = None
        trace = chrome_trace([span])
        assert all(e.get("ph") not in ("b", "e") for e in trace["traceEvents"])

    def test_counter_tracks_from_timeseries(self):
        reg = MetricsRegistry(default_window=100)
        series = reg.timeseries("occupancy", labels={"tile": 3})
        series.record(50, 2)
        series.record(150, 5)
        trace = chrome_trace([], metrics=reg)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 2
        assert counters[0]["pid"] == 3  # anchored to the tile's process
        assert counters[0]["args"]["occupancy"] == 2

    def test_process_metadata(self):
        trace = chrome_trace([make_span(pid=2)])
        names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert names[2] == "tile 2"

    def test_machine_pid_for_tileless_spans(self):
        span = make_span(pid=None)
        trace = chrome_trace([span])
        begin = next(e for e in trace["traceEvents"] if e.get("ph") == "b")
        assert begin["pid"] == MACHINE_PID


class TestValidation:
    def test_detects_unclosed(self):
        trace = chrome_trace([make_span()])
        trace["traceEvents"] = [
            e for e in trace["traceEvents"] if e.get("ph") != "e"
        ]
        assert any("unclosed" in p for p in validate_chrome_trace(trace))

    def test_detects_improper_nesting(self):
        base = {"cat": "invoke", "id": 0, "pid": 0, "tid": 0}
        trace = {
            "traceEvents": [
                dict(base, ph="b", name="a", ts=0),
                dict(base, ph="b", name="x", ts=1),
                dict(base, ph="e", name="a", ts=2),
                dict(base, ph="e", name="x", ts=3),
            ]
        }
        assert any("nesting" in p for p in validate_chrome_trace(trace))

    def test_detects_backwards_time(self):
        base = {"cat": "invoke", "id": 0, "pid": 0, "tid": 0}
        trace = {
            "traceEvents": [
                dict(base, ph="b", name="a", ts=100),
                dict(base, ph="e", name="a", ts=50),
            ]
        }
        assert any("before its" in p for p in validate_chrome_trace(trace))

    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["missing traceEvents"]

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(
            str(path), [make_span()], meta={"run": "unit"}
        )
        trace, problems = load_and_validate(str(path))
        assert problems == []
        assert trace["otherData"]["run"] == "unit"
        # Plain JSON all the way down (Perfetto requires it).
        json.dumps(trace)


def _registry_with_track():
    reg = MetricsRegistry(default_window=100)
    reg.timeseries("occupancy", labels={"tile": 1}).record(50, 2)
    reg.counter("hits").inc(3)
    return reg


class TestStreamedWriter:
    """``write_chrome_trace`` writes exactly ``json.dumps(chrome_trace(...))``."""

    CASES = {
        "no-spans": lambda: dict(spans=[], metrics=_registry_with_track()),
        "no-metrics": lambda: dict(spans=[make_span(phases=[("execute", 120, 380)])]),
        "empty": lambda: dict(spans=[]),
        "extra-events": lambda: dict(
            spans=[make_span()],
            metrics=_registry_with_track(),
            extra_events=[
                {"ph": "s", "name": "flow", "cat": "critpath", "id": 7, "pid": 2, "ts": 150},
                {"ph": "f", "name": "flow", "cat": "critpath", "id": 7, "ts": 300},
            ],
        ),
        "non-ascii-meta": lambda: dict(
            spans=[make_span(name="invoke:grüße")],
            meta={"label": "maschine-ü ✓", "note": "tab\there \"quoted\""},
        ),
        "several-chunks": lambda: dict(
            spans=[
                make_span(cid=i, pid=i % 4, start=10 * i, end=10 * i + 5)
                for i in range(WRITE_CHUNK)
            ],
            metrics=_registry_with_track(),
            meta={"label": "big"},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_equal_json_dumps(self, case, tmp_path):
        kwargs = self.CASES[case]()
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), **kwargs)
        expected = json.dumps(chrome_trace(**kwargs))
        assert path.read_bytes() == expected.encode("ascii")
