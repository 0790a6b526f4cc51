"""Chrome-trace JSON export (openable in ``ui.perfetto.dev``).

Spans render as async begin/end pairs (``ph: "b"``/``"e"``) keyed by
category + id, so overlapping tasks on one tile nest on per-request
tracks instead of fighting over a thread lane; phases share their
parent's id and nest inside it. Time-series metrics render as counter
tracks (``ph: "C"``). One trace "process" per tile (plus a synthetic
``machine`` process for tile-less tracks), named via metadata events.

Timestamps are simulated cycles emitted in the JSON ``ts`` field (which
Chrome tracing nominally treats as microseconds): 1 UI microsecond ==
1 simulated cycle.

:func:`validate_chrome_trace` is the programmatic well-formedness check
used by the tests and the ``telemetry`` report command: every ``b``
must find its ``e``, per-track timestamps must be orderable, and child
intervals must nest within their parents.
"""

import json

#: Synthetic pid for spans/counters not anchored to a tile.
MACHINE_PID = 4095

#: Trace events per ``json.dumps`` call in :func:`write_chrome_trace`:
#: enough to amortize the call, few enough that the encoder's scratch
#: fragments stay small next to the trace (larger chunks raise peak RSS).
WRITE_CHUNK = 32


def _span_events(span, uid):
    """The b/e event list for one span (parent first, phases inside)."""
    base = {"cat": span.cat, "id": uid, "pid": span.pid if span.pid is not None else MACHINE_PID, "tid": 0}
    events = [dict(base, ph="b", name=span.name, ts=span.start, args=dict(span.args, cid=str(span.cid)))]
    closed = [p for p in span.phases if p[2] is not None]
    for name, start, end in sorted(closed, key=lambda p: (p[1], p[2])):
        events.append(dict(base, ph="b", name=name, ts=start))
        events.append(dict(base, ph="e", name=name, ts=end))
    events.append(dict(base, ph="e", name=span.name, ts=span.end))
    return events


def chrome_trace(spans, metrics=None, meta=None, tile_of_label=("tile", "bank"), extra_events=None):
    """Build the Chrome-trace dict from spans and a metrics registry.

    ``metrics`` is an optional
    :class:`~repro.sim.telemetry.metrics.MetricsRegistry` whose time
    series become counter tracks; a series labeled with any key in
    ``tile_of_label`` is anchored to that tile's process.
    ``extra_events`` are pre-built trace events merged into the
    timeline (the critical-path flow arrows use this).
    """
    events = []
    pids = set()
    for uid, span in enumerate(spans):
        if span.end is None:
            continue
        span_events = _span_events(span, uid)
        pids.update(e["pid"] for e in span_events)
        events.extend(span_events)

    if extra_events:
        for event in extra_events:
            pids.add(event.get("pid", MACHINE_PID))
            events.append(dict(event))

    if metrics is not None:
        for name in metrics.names():
            if metrics.kind_of(name) != "timeseries":
                continue
            for label_key, series in sorted(metrics.series(name).items()):
                labels = dict(label_key)
                pid = MACHINE_PID
                for key in tile_of_label:
                    if key in labels:
                        try:
                            pid = int(labels[key])
                        except ValueError:
                            pass
                        break
                pids.add(pid)
                extra = ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items()) if k not in tile_of_label
                )
                track = name + (f"[{extra}]" if extra else "")
                for sample in series.samples():
                    events.append(
                        {
                            "ph": "C",
                            "name": track,
                            "pid": pid,
                            "ts": sample["t0"],
                            "args": {track: sample["value"]},
                        }
                    )

    # Stable sort: ties keep parent-begin before child-begin and
    # child-end before parent-end (the per-span emission order), which
    # is what makes equal-timestamp nesting unambiguous.
    events.sort(key=lambda e: e["ts"])

    for pid in sorted(pids):
        name = "machine" if pid == MACHINE_PID else f"tile {pid}"
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "args": {"name": name}}
        )
        events.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": pid,
                "args": {"sort_index": pid},
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}, time_unit="1 ts == 1 simulated cycle"),
    }


def write_chrome_trace(path, spans, metrics=None, meta=None, extra_events=None):
    """Serialize :func:`chrome_trace` to ``path``; returns the path.

    The file holds exactly ``json.dumps(chrome_trace(...))``, written in
    pieces: each chunk of :data:`WRITE_CHUNK` events goes through
    ``json.dumps``, which uses the C encoder (``json.dump`` never does),
    and the whole document never exists as one string.
    """
    trace = chrome_trace(spans, metrics=metrics, meta=meta, extra_events=extra_events)
    events = trace.pop("traceEvents")
    with open(path, "w") as handle:
        handle.write('{"traceEvents": [')
        for start in range(0, len(events), WRITE_CHUNK):
            if start:
                handle.write(", ")
            handle.write(json.dumps(events[start : start + WRITE_CHUNK])[1:-1])
        handle.write("]")
        for key, value in trace.items():
            handle.write(f", {json.dumps(key)}: {json.dumps(value)}")
        handle.write("}")
    return path


def validate_chrome_trace(trace):
    """Well-formedness problems of a Chrome-trace dict (empty == valid).

    Checks, per async (cat, id) track: begins and ends alternate into a
    properly matched stack, timestamps never run backwards, and nothing
    is left open -- i.e. spans closed and nested correctly.
    """
    problems = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["missing traceEvents"]
    stacks = {}
    for event in trace["traceEvents"]:
        ph = event.get("ph")
        if ph not in ("b", "e"):
            continue
        for field in ("cat", "id", "ts", "name"):
            if field not in event:
                problems.append(f"async event missing {field}: {event}")
                break
        else:
            key = (event["cat"], event["id"])
            stack = stacks.setdefault(key, [])
            if ph == "b":
                if stack and event["ts"] < stack[-1][1]:
                    problems.append(
                        f"{key}: begin {event['name']!r}@{event['ts']} before "
                        f"enclosing begin {stack[-1][0]!r}@{stack[-1][1]}"
                    )
                stack.append((event["name"], event["ts"]))
            else:
                if not stack:
                    problems.append(f"{key}: end {event['name']!r} without begin")
                    continue
                name, begin_ts = stack.pop()
                if name != event["name"]:
                    problems.append(
                        f"{key}: end {event['name']!r} does not match open "
                        f"{name!r} (improper nesting)"
                    )
                if event["ts"] < begin_ts:
                    problems.append(
                        f"{key}: {name!r} ends at {event['ts']} before its "
                        f"begin at {begin_ts}"
                    )
    for key, stack in stacks.items():
        if stack:
            problems.append(f"{key}: {len(stack)} unclosed span(s): {stack}")
    return problems


def load_and_validate(path):
    """Load a trace file; returns ``(trace, problems)``."""
    with open(path) as handle:
        trace = json.load(handle)
    return trace, validate_chrome_trace(trace)
