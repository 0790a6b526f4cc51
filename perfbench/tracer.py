"""Layer tracing from outside the program: wrappers around public functions.

A :class:`Tracer` replaces selected methods and module functions of the
simulator with wrappers that either time the call as a *span* or only
count it. Spans are kept in memory as parallel typed arrays (name,
start, end, parent, spec label); self time -- a span's duration minus
the time its child spans cover -- is computed from them after the run.

Hot paths bind methods when a machine is built, so :meth:`install` must
run before the first ``Machine`` exists, and :meth:`uninstall` restores
every original attribute. Generator functions (stream push/consume) are
only counted: their bodies run later, inside ``Machine.run``, so their
time shows in the scheduler's self time.
"""

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

#: (module, class name or None for a module function, attribute, kind,
#: span/counter name). ``kind`` is "span" (timed), "count" (counted
#: only) or "noc" (a span that also sums the hops of each send).
TARGETS = (
    ("repro.sim.stats", "Stats", "add", "span", "sim.stats.add"),
    ("repro.sim.hierarchy", "Hierarchy", "access", "span", "sim.hierarchy.access"),
    ("repro.sim.hierarchy", "Hierarchy", "access_latency", "span", "sim.hierarchy.access_latency"),
    ("repro.sim.system", "Machine", "run", "span", "sim.scheduler.run"),
    ("repro.sim.system", "Machine", "__init__", "span", "workloads.build"),
    ("repro.sim.scheduler", "Scheduler", "spawn", "count", "sim.scheduler.spawn"),
    ("repro.sim.scheduler", "Scheduler", "wake_all", "count", "sim.scheduler.wake"),
    ("repro.sim.scheduler", "Scheduler", "wake_one", "count", "sim.scheduler.wake"),
    ("repro.sim.ops", "Park", "__init__", "count", "sim.scheduler.park"),
    ("repro.sim.noc", "MeshNoc", "send", "noc", "sim.noc.send"),
    ("repro.sim.dram", "MemorySystem", "access", "span", "sim.dram.access"),
    ("repro.core.offload", "Invoke", "execute", "span", "core.offload.invoke"),
    ("repro.core.engine", "Engine", "offer", "count", "core.engine.offer"),
    ("repro.core.engine", "Engine", "nack", "count", "core.engine.nack"),
    ("repro.core.morph", "Morph", "handle_miss", "span", "core.morph.miss"),
    ("repro.core.morph", "Morph", "handle_evict", "span", "core.morph.evict"),
    ("repro.core.stream", "Stream", "push", "count", "core.stream.push"),
    ("repro.core.stream", "Stream", "consume", "count", "core.stream.consume"),
    ("repro.sim.events", "EventBus", "emit", "span", "sim.events.emit"),
    ("repro.sim.telemetry.session", "Telemetry", "finalize", "span", "sim.telemetry.finalize"),
    ("repro.sim.telemetry.session", "Telemetry", "save", "span", "sim.telemetry.save"),
    ("repro.experiments.pool", "ExperimentPool", "run", "span", "experiments.pool.run"),
    ("repro.experiments.pool", None, "encode_result", "span", "experiments.pool.encode"),
    ("repro.experiments.pool", None, "compute_result_checksum", "span", "experiments.pool.checksum"),
)

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "sim.stats.add": "sim.stats",
    "sim.hierarchy.access": "sim.hierarchy",
    "sim.hierarchy.access_latency": "sim.hierarchy",
    "sim.scheduler.run": "sim.scheduler",
    "sim.noc.send": "sim.noc",
    "sim.dram.access": "sim.dram",
    "core.offload.invoke": "core.offload",
    "core.morph.miss": "core.morph",
    "core.morph.evict": "core.morph",
    "sim.events.emit": "sim.events",
    "sim.telemetry.finalize": "sim.telemetry",
    "sim.telemetry.save": "sim.telemetry",
    "workloads.run": "workloads",
    "workloads.build": "workloads",
    "workloads.finish": "workloads",
    "experiments.pool.run": "experiments.pool",
    "experiments.pool.encode": "experiments.pool",
    "experiments.pool.checksum": "experiments.pool",
}

#: Layers in report order (every span name maps to one of them).
LAYERS = (
    "sim.stats",
    "sim.hierarchy",
    "sim.scheduler",
    "sim.noc",
    "sim.dram",
    "core.offload",
    "core.morph",
    "sim.events",
    "sim.telemetry",
    "workloads",
    "experiments.pool",
)


class Tracer:
    """Wrappers, span arrays and call counters for one traced sweep.

    ``label`` is the id of the spec label stamped on every span opened
    while it is set; each runner wrapper sets it from the spec's kwargs.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.labels = [""]
        self._label_ids = {"": 0}
        self.label = 0
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_label = array("H")
        self.counts = Counter()
        self._stack = [-1]
        self._patches = []

    # -- wrappers -------------------------------------------------------
    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn):
        nid = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, labels, stack = self.parent, self.span_label, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            labels.append(self.label)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _noc(self, name, fn):
        """A ``MeshNoc.send`` span that also sums the hops of each send."""
        span = self._span(name, fn)
        counts = self.counts

        def wrapper(noc, src, dst, payload_bytes):
            counts["sim.noc.hops"] += noc.hops(src, dst)
            return span(noc, src, dst, payload_bytes)

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr, wrapper):
        # Inherited attributes are shadowed, then deleted on uninstall.
        self._patches.append((owner, attr, owner.__dict__.get(attr), wrapper))
        setattr(owner, attr, wrapper)

    # -- install / uninstall --------------------------------------------
    def install(self, specs):
        """Patch every target, plus the runners and ``finish_run`` of ``specs``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        make = {"span": self._span, "count": self._count, "noc": self._noc}
        for module_name, owner_name, attr, kind, name in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            self._patch(owner, attr, make[kind](name, getattr(owner, attr)))
        common = importlib.import_module("repro.workloads.common")
        runners = {}
        for spec in specs:
            module_name, _, fn_name = spec.fn.partition(":")
            runners.setdefault(module_name, set()).add(fn_name)
            if spec.label not in self._label_ids:
                self._label_ids[spec.label] = len(self.labels)
                self.labels.append(spec.label)
        for module_name, fn_names in sorted(runners.items()):
            module = importlib.import_module(module_name)
            for fn_name in sorted(fn_names):
                self._patch(module, fn_name, self._runner(module_name, fn_name, specs))
            if getattr(module, "finish_run", None) is common.finish_run:
                self._patch(module, "finish_run", self._span("workloads.finish", common.finish_run))
        return self

    def _runner(self, module_name, fn_name, specs):
        """A runner span that stamps its spec's label on nested spans."""
        from repro.experiments.pool import canonical_json

        path = f"{module_name}:{fn_name}"
        label_of = {
            canonical_json(spec.kwargs): self._label_ids[spec.label]
            for spec in specs
            if spec.fn == path
        }
        fn = getattr(importlib.import_module(module_name), fn_name)
        span = self._span("workloads.run", fn)

        def wrapper(*args, **kwargs):
            outer = self.label
            self.label = label_of.get(canonical_json(kwargs), outer)
            try:
                return span(*args, **kwargs)
            finally:
                self.label = outer

        return functools.update_wrapper(wrapper, fn)

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        for owner, attr, original, _wrapper in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        return self

    def leftovers(self):
        """Attributes still bound to one of this tracer's wrappers."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _original, wrapper in self._patches
            if owner.__dict__.get(attr) is wrapper
        ]

    def dump(self, path):
        """Write the spans and their name/label tables to ``path`` (.npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            label=np.frombuffer(self.span_label, dtype=np.uint16),
        )


def self_times(spans):
    """Per-span self seconds: duration minus the durations of its children."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"].astype(np.int64)
    covered = np.bincount(parent + 1, weights=duration, minlength=len(duration) + 1)
    return duration - covered[1:]


def summarize(spans, names):
    """``{name: (calls, self_s, inclusive_s)}`` per span name.

    ``inclusive_s`` skips spans whose parent has the same name, so a
    directly recursive call is not counted twice.
    """
    own = self_times(spans)
    duration = spans["end"] - spans["start"]
    name = spans["name"].astype(np.int64)
    parent = spans["parent"]
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    outermost = parent_name != name
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    inclusive = np.bincount(name[outermost], weights=duration[outermost], minlength=k)
    return {
        names[i]: (int(calls[i]), float(self_s[i]), float(inclusive[i]))
        for i in range(k)
    }


def _stat_sum(specs, name):
    return sum((spec.get("stats") or {}).get(name, 0) for spec in specs)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans_path, counts, report):
    """Every per-layer metric of one traced sweep, from its dumped spans.

    Call counts of spans come from the spans themselves, counts of
    counted-only functions from ``counts``, and hit/NACK ratios from
    the specs' RunResult stats in ``report``.
    """
    with np.load(spans_path) as data:
        names = [str(n) for n in data["names"]]
        spans = {key: data[key] for key in ("name", "start", "end", "parent")}
    table = summarize(spans, names)

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def self_s(*span_names):
        return sum(table.get(name, (0, 0.0, 0.0))[1] for name in span_names)

    specs = report["specs"]
    first_level = _stat_sum(specs, "l1.accesses") + _stat_sum(specs, "engine_l1.accesses")
    llc_hits = _stat_sum(specs, "llc.hits")
    nacks = _stat_sum(specs, "engine.nacks")
    pool = report.get("pool", {})
    looked_up = pool.get("cached", 0) + pool.get("executed", 0)
    sends = calls("sim.noc.send")
    metrics = {
        "sim.stats.add_calls": calls("sim.stats.add"),
        "sim.stats.self_s": self_s("sim.stats.add"),
        "sim.hierarchy.access_calls": calls("sim.hierarchy.access"),
        "sim.hierarchy.access_latency_calls": calls("sim.hierarchy.access_latency"),
        "sim.hierarchy.self_s": self_s("sim.hierarchy.access", "sim.hierarchy.access_latency"),
        "sim.hierarchy.l1_hit_ratio": (
            1.0 - _ratio(_stat_sum(specs, "l2.accesses"), first_level) if first_level else 0.0
        ),
        "sim.hierarchy.llc_hit_ratio": _ratio(
            llc_hits, llc_hits + _stat_sum(specs, "llc.misses")
        ),
        "sim.scheduler.self_s": self_s("sim.scheduler.run"),
        "sim.scheduler.spawn_calls": counts.get("sim.scheduler.spawn", 0),
        "sim.scheduler.park_calls": counts.get("sim.scheduler.park", 0),
        "sim.scheduler.wake_calls": counts.get("sim.scheduler.wake", 0),
        "sim.noc.send_calls": sends,
        "sim.noc.self_s": self_s("sim.noc.send"),
        "sim.noc.hops_per_send": _ratio(counts.get("sim.noc.hops", 0), sends),
        "sim.dram.access_calls": calls("sim.dram.access"),
        "sim.dram.self_s": self_s("sim.dram.access"),
        "core.offload.invoke_calls": calls("core.offload.invoke"),
        "core.offload.self_s": self_s("core.offload.invoke"),
        "core.engine.offer_calls": counts.get("core.engine.offer", 0),
        "core.engine.nack_calls": counts.get("core.engine.nack", 0),
        "core.engine.nack_ratio": _ratio(nacks, nacks + _stat_sum(specs, "engine.tasks")),
        "core.morph.miss_calls": calls("core.morph.miss"),
        "core.morph.evict_calls": calls("core.morph.evict"),
        "core.morph.self_s": self_s("core.morph.miss", "core.morph.evict"),
        "core.stream.push_calls": counts.get("core.stream.push", 0),
        "core.stream.consume_calls": counts.get("core.stream.consume", 0),
        "sim.events.emit_calls": calls("sim.events.emit"),
        "sim.events.emit_s": table.get("sim.events.emit", (0, 0.0, 0.0))[2],
        "sim.telemetry.finalize_s": self_s("sim.telemetry.finalize"),
        "sim.telemetry.save_s": self_s("sim.telemetry.save"),
        "sim.telemetry.bytes_written": report.get("telemetry_bytes", 0),
        "workloads.setup_s": self_s("workloads.run"),
        "workloads.build_s": self_s("workloads.build"),
        "workloads.finish_s": self_s("workloads.finish"),
        "experiments.pool.self_s": self_s("experiments.pool.run"),
        "experiments.pool.encode_s": self_s("experiments.pool.encode"),
        "experiments.pool.checksum_s": self_s("experiments.pool.checksum"),
        "experiments.pool.cache_hit_ratio": _ratio(pool.get("cached", 0), looked_up),
    }
    traced = table.get("experiments.pool.run", (0, 0.0, 0.0))[2]
    shares = {}
    for layer in LAYERS:
        own = sum(entry[1] for name, entry in table.items() if LAYER_OF[name] == layer)
        shares[layer] = _ratio(own, traced)
    return {"metrics": metrics, "shares": shares, "traced_s": traced, "spans": len(spans["name"])}
