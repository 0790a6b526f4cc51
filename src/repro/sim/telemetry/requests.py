"""Request tracking: causal spans and per-class latency attribution.

:class:`RequestTracker` is the request half of telemetry. It stitches
the offload and stream lifecycle events into spans (see
:mod:`~repro.sim.telemetry.spans`), decomposes each invoke's memory
accesses into cache/NoC/DRAM cycles, and feeds every closed request
span into an :class:`~repro.sim.telemetry.critpath.AttributionRollup`.
That rollup is the single source of per-request-class latency: its
per-class ``latency`` histogram is what ``RunResult.stats``
(``request.<class>.p99``), heartbeats and sweep dashboards report.

Serving workloads attach a tracker with their request classes -- a map
from span key (invoke action name, or stream base name) to class label.
The tracker stores that map as ``machine.request_classes``, which every
observer of the machine (including a full
:class:`~repro.sim.telemetry.session.Telemetry`) uses to bucket spans.
Like all telemetry the tracker is a pure observer -- simulated results
are bit-identical with and without it -- but serving workloads attach
it unconditionally so correlation-ID draws (which only happen while the
bus has subscribers) are identical across configurations.

Usage::

    tracker = RequestTracker(machine, {"get": "get", "put": "put"})
    ... build and run the machine ...
    result.stats.update(tracker.stat_fields())   # request.get.p95, ...
"""

from repro.sim.events import (
    DegradedToFallback,
    EngineTask,
    EngineTaskDone,
    EngineTaskStart,
    FutureFilled,
    InvokeDispatched,
    InvokeRetried,
    InvokeStalled,
    MemoryAccess,
    StreamBlocked,
    StreamPop,
    StreamPush,
)
from repro.sim.telemetry.critpath import (
    AccessCostModel,
    AttributionRollup,
    span_class,
)
from repro.sim.telemetry.spans import SpanTracker

#: Latency snapshot fields copied into flat per-class stats, in report order.
PERCENTILE_FIELDS = ("count", "p50", "p95", "p99", "mean", "max")


class RequestTracker:
    """Request spans + latency attribution for one machine's event bus.

    ``classes`` (optional) declares the machine's request classes: keys
    are matched against the invoke *action name* (an ``invoke:lookup``
    span matches key ``"lookup"``) and the stream *base name* (a
    ``kv-scan3[7]`` span matches key ``"kv-scan3"``); several keys may
    share one class. After ``machine.run()``, merge :meth:`stat_fields`
    into a ``RunResult``'s stats.
    """

    def __init__(self, machine, classes=None, max_spans=200_000):
        self.machine = machine
        if classes is not None:
            machine.request_classes = dict(classes)
        self.spans = SpanTracker(max_spans=max_spans, on_close=self._span_closed)
        #: Per-request latency attribution (see critpath.COMPONENTS).
        self.attribution = AttributionRollup()
        #: cid -> accumulated [cache, noc, dram] memory cycles, stashed
        #: onto the invoke span's args at close time.
        self._mem = {}
        self._cost_model = None
        self._finalized = False
        self._attached = False
        self._handlers = self._subscriptions()
        self.attach()

    def _subscriptions(self):
        """The (event type, handler) pairs this observer subscribes."""
        return (
            (InvokeDispatched, self._on_invoke_dispatched),
            (InvokeStalled, self._on_invoke_stalled),
            (EngineTask, self._on_engine_task),
            (EngineTaskStart, self.spans.engine_start),
            (EngineTaskDone, self.spans.engine_done),
            (FutureFilled, self._on_future_filled),
            (StreamPush, self._on_stream_push),
            (StreamPop, self._on_stream_pop),
            (StreamBlocked, self._on_stream_blocked),
            (MemoryAccess, self._on_memory_access),
            (InvokeRetried, self._on_invoke_retried),
            (DegradedToFallback, self._on_degraded),
        )

    # ------------------------------------------------------------------
    # bus wiring
    # ------------------------------------------------------------------
    def attach(self):
        if not self._attached:
            for event_type, handler in self._handlers:
                self.machine.events.subscribe(event_type, handler)
            self._attached = True
        return self

    def detach(self):
        """Stop observing (idempotent; recorded data stays readable)."""
        if self._attached:
            for event_type, handler in self._handlers:
                self.machine.events.unsubscribe(event_type, handler)
            self._attached = False
        return self

    # ------------------------------------------------------------------
    # handlers: offload and stream lifecycle
    # ------------------------------------------------------------------
    def _on_invoke_dispatched(self, ev):
        self.spans.invoke_dispatched(ev)

    def _on_invoke_stalled(self, ev):
        self.spans.invoke_stalled(ev)

    def _on_engine_task(self, ev):
        self.spans.engine_task(ev)

    def _on_future_filled(self, ev):
        self.spans.future_filled(ev)

    def _on_invoke_retried(self, ev):
        self.spans.invoke_retried(ev)

    def _on_degraded(self, ev):
        self.spans.degraded(ev)

    def _on_stream_push(self, ev):
        self.spans.stream_push(ev)

    def _on_stream_pop(self, ev):
        self.spans.stream_pop(ev)

    def _on_stream_blocked(self, ev):
        self.spans.stream_blocked(ev)

    def _on_memory_access(self, ev):
        # Attribute the access to the invoke executing it: engine task
        # contexts carry their invoke's cid, and the scheduler's current
        # context is exactly who issued this access. The decomposition
        # accumulates per cid and lands on the span at close time.
        current = self.machine.scheduler.current
        cid = getattr(current, "cid", None) if current is not None else None
        if cid is None or not self.spans.is_open(cid):
            return
        if self._cost_model is None:
            self._cost_model = AccessCostModel(self.machine)
        cache, noc, dram = self._cost_model.decompose(ev.result)
        acc = self._mem.get(cid)
        if acc is None:
            self._mem[cid] = [cache, noc, dram]
        else:
            acc[0] += cache
            acc[1] += noc
            acc[2] += dram

    def _span_closed(self, span):
        if span.cat == "invoke":
            mem = self._mem.pop(span.cid, None)
            if mem is not None:
                span.args["mem_cycles"] = {
                    "cache": mem[0],
                    "noc": mem[1],
                    "dram": mem[2],
                }
        if span.cat in ("invoke", "stream"):
            # Stamp the resolved class onto the span so offline
            # attribution (explain over trace.json) lands every span in
            # the same bucket the live rollup used.
            span.args["request_class"] = span_class(
                span, self.machine.request_classes
            )
            self.attribution.observe_span(span)

    # ------------------------------------------------------------------
    # teardown and results
    # ------------------------------------------------------------------
    def finalize(self):
        """Close spans still open at the current cycle (idempotent)."""
        if not self._finalized:
            self._finalized = True
            self.spans.finalize(self.machine.scheduler.now)
        return self

    def stat_fields(self):
        """Flat JSON-safe floats for ``RunResult.stats`` (finalizes first).

        For every declared class: ``request.<class>.<field>`` for each
        of :data:`PERCENTILE_FIELDS`, read off the rollup's per-class
        latency histogram, plus the attribution waterfall from
        :meth:`AttributionRollup.stat_fields
        <repro.sim.telemetry.critpath.AttributionRollup.stat_fields>`.
        Classes that saw no requests report zeros, so reruns always
        produce the same key set.
        """
        self.finalize()
        classes = sorted(set((self.machine.request_classes or {}).values()))
        fields = {}
        for cls in classes:
            hist = self.attribution.latency(cls)
            snap = hist.snapshot() if hist is not None else None
            for field in PERCENTILE_FIELDS:
                value = 0.0 if snap is None else float(snap[field])
                fields[f"request.{cls}.{field}"] = value
        fields.update(self.attribution.stat_fields(classes))
        return fields
