"""The telemetry facade: attach, collect, save.

:class:`Telemetry` extends the request tracker
(:class:`~repro.sim.telemetry.requests.RequestTracker`: causal spans and
per-class latency attribution) with a
:class:`~repro.sim.telemetry.metrics.MetricsRegistry` fed by the same
bus plus the fabric-pressure and resilience events, and knows how to
write the artifacts a run produces:

- ``trace.json``  -- the Perfetto/Chrome trace (spans + counter tracks);
- ``metrics.json`` -- the JSON metrics snapshot;
- ``metrics.prom`` -- the Prometheus-style text dump;
- ``attribution.json`` -- the per-request-class latency attribution
  (the one source of per-class latency percentiles).

:class:`TelemetrySession` scales that to whole experiment runs: while
*installed*, every :class:`~repro.sim.system.Machine` constructed
anywhere in the process gets a ``Telemetry`` attached automatically
(the construction hook is a single module-global check, so the
uninstalled cost is one ``is None`` test per machine, and zero per
event). ``session.save(outdir)`` then writes one artifact directory
per machine. This is what the experiment runner's ``--telemetry-out``
flag drives.

Telemetry is an observer: it subscribes to the bus and reads machine
state, but never advances time or mutates anything, so simulated
results are bit-identical with and without it attached.
"""

import json
import os

from repro.sim.events import (
    CacheAccess,
    DramAccess,
    EngineFailed,
    FaultInjected,
    FlitHop,
    WatchdogFired,
)
from repro.sim.telemetry.critpath import critical_path_flows
from repro.sim.telemetry.metrics import MetricsRegistry
from repro.sim.telemetry.perfetto import chrome_trace, write_chrome_trace
from repro.sim.telemetry.requests import RequestTracker


#: HELP text of the families whose handlers register one (the registry
#: keeps the HELP a family is first registered with).
_HELP = {
    "invoke.latency": "invoke issue to completion (incl. future fill), cycles",
    "invoke.buffer_wait": "cycles stalled on a full invoke buffer",
    "invoke.retry_backoff": "backoff cycles before each re-send",
    "invoke_buffer.occupancy": "in-flight (un-ACKed) invokes per core buffer",
    "engine.task_contexts": "busy offload task contexts + spill-queued tasks",
    "faults.extra_cycles": "latency added on the victim path per injection",
    "stream.occupancy": "circular-buffer entries outstanding",
    "stream.entry_latency": "push to pop, cycles",
    "llc.bank_pressure": "LLC bank lookups per window",
    "noc.utilization": "flit-hops per window",
}

#: Invoke-span phase -> the histogram of its per-span cycles.
_PHASE_HISTOGRAMS = (
    ("execute", "invoke.execute_cycles"),
    ("nack-wait", "invoke.nack_wait"),
    ("buffer-wait", "invoke.buffer_wait_observed"),
    ("future-wait", "invoke.future_wait"),
)


class _Handles(dict):
    """Metric handles keyed by label value (or name), bound on first use.

    ``handles[key]`` calls ``bind(key)`` -- a registry get-or-create --
    the first time ``key`` is seen and returns the cached metric after
    that, so hot handlers skip the registry's label-key sort. Binding
    lazily (not at subscribe time) means a series exists exactly when
    an event touched it, as with a plain registry call per event.
    """

    __slots__ = ("bind",)

    def __init__(self, bind):
        super().__init__()
        self.bind = bind

    def __missing__(self, key):
        metric = self[key] = self.bind(key)
        return metric


class Telemetry(RequestTracker):
    """Metrics + spans + attribution for one machine, fed by its event bus."""

    def __init__(self, machine, label=None, window=1024, max_spans=200_000):
        self.label = label
        self.metrics = MetricsRegistry(default_window=window)
        m = self.metrics
        family = self._family
        # Unlabeled metrics, keyed by name.
        self._counter = _Handles(m.counter)
        self._histogram = _Handles(
            lambda name: m.histogram(name, help=_HELP.get(name, ""))
        )
        # Labeled metrics, keyed by label value.
        self._dispatched = family("counter", "invoke.dispatched", "location")
        self._buffer_occupancy = family("timeseries", "invoke_buffer.occupancy", "tile")
        self._arrivals = family("counter", "engine.arrivals", "outcome")
        self._task_contexts = family("timeseries", "engine.task_contexts", "tile")
        self._faults = family("counter", "faults.injected", "kind")
        self._fault_cycles = family("histogram", "faults.extra_cycles", "kind")
        self._degraded = family("counter", "faults.degraded", "kind")
        self._pushes = family("counter", "stream.pushes", "stream")
        self._pops = family("counter", "stream.pops", "stream")
        self._occupancy = family("timeseries", "stream.occupancy", "stream")
        self._blocked = _Handles(
            lambda key: m.counter(
                "stream.blocked", labels={"stream": key[0], "side": key[1]}
            )
        )
        self._entry_latency = family("histogram", "stream.entry_latency", "stream")
        self._block_cycles = family("histogram", "stream.block_cycles", "side")
        self._bank_accesses = family("counter", "llc.bank_accesses", "bank")
        self._bank_misses = family("counter", "llc.bank_misses", "bank")
        self._bank_pressure = family(
            "timeseries", "llc.bank_pressure", "bank", mode="sum"
        )
        self._request_latency = family("histogram", "mem.request_latency", "by")
        # (src, dst) -> the handles one NoC message updates.
        self._routes = _Handles(self._bind_route)
        super().__init__(machine, max_spans=max_spans)

    def _family(self, kind, name, label, **kwargs):
        """Handles for one labeled family, keyed by the ``label`` value."""
        make = getattr(self.metrics, kind)
        help = _HELP.get(name, "")
        return _Handles(
            lambda value: make(name, labels={label: value}, help=help, **kwargs)
        )

    def _subscriptions(self):
        return super()._subscriptions() + (
            (CacheAccess, self._on_cache_access),
            (FlitHop, self._on_flit_hop),
            (DramAccess, self._on_dram_access),
            (FaultInjected, self._on_fault_injected),
            (EngineFailed, self._on_engine_failed),
            (WatchdogFired, self._on_watchdog_fired),
        )

    # ------------------------------------------------------------------
    # handlers: offload lifecycle
    # ------------------------------------------------------------------
    def _on_invoke_dispatched(self, ev):
        self._dispatched[ev.location].inc()
        if ev.inline:
            self._counter["invoke.inline"].inc()
        runtime = self.machine.leviathan
        if runtime is not None:
            buffer = runtime.invoke_buffers[ev.tile]
            self._buffer_occupancy[ev.tile].record(ev.time, buffer.in_flight)
        super()._on_invoke_dispatched(ev)

    def _on_invoke_stalled(self, ev):
        self._counter["invoke.stall_events"].inc()
        if ev.wait is not None:
            self._histogram["invoke.buffer_wait"].observe(ev.wait)
        super()._on_invoke_stalled(ev)

    def _on_engine_task(self, ev):
        self._arrivals["accepted" if ev.accepted else "nacked"].inc()
        engines = self.machine.engines
        if engines is not None:
            engine = engines[ev.tile]
            t = ev.time if ev.time is not None else self.machine.now
            self._task_contexts[ev.tile].record(
                t, engine.busy_offload + engine.queued_tasks
            )
        super()._on_engine_task(ev)

    def _on_future_filled(self, ev):
        self._counter["future.fills"].inc()
        super()._on_future_filled(ev)

    def _span_closed(self, span):
        if span.cat == "invoke":
            self._histogram["invoke.latency"].observe(span.duration)
            # One pass over the phases; each total is still a plain
            # sum() of the same cycles in the same order.
            cycles = {}
            for name, start, end in span.phases:
                if end is not None:
                    cycles.setdefault(name, []).append(end - start)
            for phase, metric in _PHASE_HISTOGRAMS:
                total = sum(cycles.get(phase, ()))
                if total:
                    self._histogram[metric].observe(total)
            if span.args.get("nacks"):
                self._counter["invoke.nacked_spans"].inc()
        elif span.cat == "stream":
            self._entry_latency[span.name.split("[", 1)[0]].observe(span.duration)
        elif span.cat == "stream-wait":
            self._block_cycles[span.args.get("side", "?")].observe(span.duration)
        super()._span_closed(span)

    # ------------------------------------------------------------------
    # handlers: resilience (fault injection, retries, degradation)
    # ------------------------------------------------------------------
    def _on_fault_injected(self, ev):
        self._faults[ev.kind].inc()
        if ev.extra_cycles:
            self._fault_cycles[ev.kind].observe(ev.extra_cycles)

    def _on_engine_failed(self, ev):
        self._counter["faults.engine_failures"].inc()

    def _on_invoke_retried(self, ev):
        self._counter["invoke.retries_observed"].inc()
        self._histogram["invoke.retry_backoff"].observe(ev.backoff)
        super()._on_invoke_retried(ev)

    def _on_degraded(self, ev):
        self._degraded[ev.kind].inc()
        super()._on_degraded(ev)

    def _on_watchdog_fired(self, ev):
        self._counter["watchdog.fired"].inc()
        self.metrics.gauge("watchdog.parked_at_fire").set(ev.parked)

    # ------------------------------------------------------------------
    # handlers: streaming
    # ------------------------------------------------------------------
    def _on_stream_push(self, ev):
        self._pushes[ev.stream].inc()
        if ev.time is not None:
            self._occupancy[ev.stream].record(ev.time, ev.occupancy)
        super()._on_stream_push(ev)

    def _on_stream_pop(self, ev):
        self._pops[ev.stream].inc()
        if ev.time is not None:
            self._occupancy[ev.stream].record(ev.time, ev.occupancy)
        super()._on_stream_pop(ev)

    def _on_stream_blocked(self, ev):
        self._blocked[ev.stream, ev.side].inc()
        super()._on_stream_blocked(ev)

    # ------------------------------------------------------------------
    # handlers: fabric pressure
    # ------------------------------------------------------------------
    def _on_cache_access(self, ev):
        if ev.level != "llc":
            return
        bank = ev.tile
        self._bank_accesses[bank].inc()
        if not ev.hit:
            self._bank_misses[bank].inc()
        self._bank_pressure[bank].record(self.machine.sim_time(), 1)

    def _on_flit_hop(self, ev):
        flits_total, flit_hops_total, utilization, links = self._routes[ev.src, ev.dst]
        flits = ev.flits
        flit_hops = flits * ev.hops
        flits_total.inc(flits)
        flit_hops_total.inc(flit_hops)
        utilization.record(self.machine.sim_time(), flit_hops)
        for link in links:
            link.inc(flits)

    def _bind_route(self, route):
        """The handles a ``src -> dst`` message updates, bound on first use:
        the NoC totals, the utilization track, and one ``noc.link_flits``
        counter per directed link on the message's XY route."""
        src, dst = route
        m = self.metrics
        totals = (
            m.counter("noc.flits"),
            m.counter("noc.flit_hops"),
            m.timeseries("noc.utilization", mode="sum", help=_HELP["noc.utilization"]),
        )
        links = tuple(
            m.counter("noc.link_flits", labels={"link": f"{a}>{b}"})
            for a, b in self._xy_links(self.machine.hierarchy.noc, src, dst)
        )
        return totals + (links,)

    @staticmethod
    def _xy_links(noc, src, dst):
        """The directed (tile, tile) links an XY-routed message crosses."""
        x, y = noc.coords(src)
        dx, dy = noc.coords(dst)
        at = src
        while x != dx:
            x += 1 if dx > x else -1
            nxt = y * noc.width + x
            yield at, nxt
            at = nxt
        while y != dy:
            y += 1 if dy > y else -1
            nxt = y * noc.width + x
            yield at, nxt
            at = nxt

    def _on_dram_access(self, ev):
        self._counter["dram.accesses"].inc()
        if ev.fifo_hit:
            self._counter["dram.fifo_hits"].inc()

    def _on_memory_access(self, ev):
        self._request_latency["engine" if ev.engine else "core"].observe(
            ev.result.latency
        )
        super()._on_memory_access(ev)

    # ------------------------------------------------------------------
    # teardown and artifacts
    # ------------------------------------------------------------------
    def finalize(self):
        """Close open spans and record run-level gauges (idempotent)."""
        if self._finalized:
            return self
        super().finalize()
        self.metrics.gauge("machine.cycles").set(self.machine.scheduler.now)
        self.metrics.gauge("spans.finished").set(len(self.spans.finished))
        self.metrics.counter("spans.unclosed").inc(self.spans.unclosed)
        self.metrics.counter("spans.dropped").inc(self.spans.dropped)
        self.metrics.counter("spans.orphans").inc(self.spans.orphans)
        if self.attribution:
            self.metrics.gauge(
                "attribution.coverage",
                help="fraction of request cycles a named component explains",
            ).set(self.attribution.coverage())
        return self

    def meta(self):
        return {
            "label": self.label,
            "n_tiles": self.machine.config.n_tiles,
            "cycles": self.machine.scheduler.now,
            "spans": len(self.spans.finished),
            "spans_unclosed": self.spans.unclosed,
            "spans_dropped": self.spans.dropped,
            "spans_orphaned": self.spans.orphans,
        }

    def trace(self):
        """The Chrome-trace dict for this run (finalizes first)."""
        self.finalize()
        return chrome_trace(
            self.spans.finished,
            metrics=self.metrics,
            meta=self.meta(),
            extra_events=critical_path_flows(self.spans.finished),
        )

    def attribution_report(self):
        """The JSON-safe ``latency_attribution`` block (finalizes first)."""
        self.finalize()
        return {
            "meta": self.meta(),
            "coverage": self.attribution.coverage(),
            "classes": self.attribution.snapshot(),
        }

    def save(self, outdir):
        """Write trace.json / metrics.json / metrics.prom / attribution.json."""
        self.finalize()
        os.makedirs(outdir, exist_ok=True)
        meta = self.meta()
        write_chrome_trace(
            os.path.join(outdir, "trace.json"),
            self.spans.finished,
            metrics=self.metrics,
            meta=meta,
            extra_events=critical_path_flows(self.spans.finished),
        )
        with open(os.path.join(outdir, "metrics.json"), "w") as handle:
            handle.write(self.metrics.to_json(meta=meta))
        with open(os.path.join(outdir, "metrics.prom"), "w") as handle:
            handle.write(self.metrics.render_prometheus(meta=meta))
        with open(os.path.join(outdir, "attribution.json"), "w") as handle:
            json.dump(self.attribution_report(), handle, indent=2, sort_keys=True)
        return outdir

    def summary(self):
        """A short human-readable digest of the run's telemetry."""
        self.finalize()
        lines = [
            f"cycles {self.machine.scheduler.now:.0f}  spans {len(self.spans.finished)}"
            f"  unclosed {self.spans.unclosed}  dropped {self.spans.dropped}"
        ]
        latency = self.metrics.value("invoke.latency")
        if latency and latency["count"]:
            lines.append(
                f"invoke.latency: n={latency['count']} mean={latency['mean']:.0f}"
                f" p50<={latency['p50']:.0f} p95<={latency['p95']:.0f}"
                f" max={latency['max']:.0f}"
            )
        for name in ("invoke.execute_cycles", "invoke.nack_wait", "stream.entry_latency"):
            for key, hist in sorted(self.metrics.series(name).items()):
                if hist.count:
                    label = name + ("" if not key else str(dict(key)))
                    lines.append(
                        f"{label}: n={hist.count} mean={hist.mean:.0f} max={hist.max:.0f}"
                    )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the process-wide session (what --telemetry-out installs)
# ----------------------------------------------------------------------
_session = None


def notify_machine_created(machine):
    """Called by ``Machine.__init__``; no-op unless a session is installed."""
    if _session is not None:
        _session.observe(machine)


def active_session():
    return _session


class TelemetrySession:
    """Attach telemetry to every machine built while installed."""

    def __init__(self, window=1024, max_spans=200_000):
        self.window = window
        self.max_spans = max_spans
        self.telemetries = []

    # -- hook management ------------------------------------------------
    def install(self):
        global _session
        if _session is not None and _session is not self:
            raise RuntimeError("another TelemetrySession is already installed")
        _session = self
        return self

    def uninstall(self):
        global _session
        if _session is self:
            _session = None
        return self

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- collection -----------------------------------------------------
    def observe(self, machine, label=None):
        telemetry = Telemetry(
            machine,
            label=label or f"machine-{len(self.telemetries):02d}",
            window=self.window,
            max_spans=self.max_spans,
        )
        self.telemetries.append(telemetry)
        return telemetry

    def detach(self):
        for telemetry in self.telemetries:
            telemetry.detach()
        return self

    def reset(self):
        """Detach and forget every collected machine."""
        self.detach()
        self.telemetries = []
        return self

    # -- artifacts ------------------------------------------------------
    def save(self, outdir):
        """One artifact directory per observed machine; returns the paths."""
        os.makedirs(outdir, exist_ok=True)
        paths = []
        index = []
        for telemetry in self.telemetries:
            sub = os.path.join(outdir, telemetry.label)
            telemetry.save(sub)
            paths.append(sub)
            meta = telemetry.meta()
            index.append(
                f"{telemetry.label}: cycles={meta['cycles']:.0f} "
                f"spans={meta['spans']} unclosed={meta['spans_unclosed']}"
            )
        with open(os.path.join(outdir, "summary.txt"), "w") as handle:
            handle.write("\n".join(index) + "\n")
        return paths
