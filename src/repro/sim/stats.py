"""Event counters and per-run statistics.

Every component of the machine increments counters on a shared
:class:`Stats` object. The energy model (:mod:`repro.sim.energy`) and the
experiment harness both read these counters; the figures in the paper are
(almost entirely) functions of them.

Two planes of observability coexist:

- the flat counters (this module's :class:`Stats`): always on, one
  plain list of numbers that hot sites index directly -- the fast plane;
- the event bus (:mod:`repro.sim.events`): opt-in, typed, carrying the
  per-request attribution the counters cannot express. This module's
  :class:`AccessProfile` is the bus subscriber that turns
  :class:`~repro.sim.events.MemoryAccess` events into a per-level
  outcome breakdown (how many requests terminated at the L1, how many
  were constructed by a morph, what latency each terminal level cost).

The counter plane
-----------------
``Stats.values`` holds one slot per counter name. A component binds the
slots it counts once, at construction (``stats.slot("noc.messages")``),
keeps a reference to ``values``, and increments ``values[slot] += n`` on
its hot path: no method call, no string, no phase test.

Phase-qualified counters (``"edge/dram.accesses"``, Fig. 21's per-phase
DRAM breakdown) are derived, not counted twice: :meth:`Stats.set_phase`
folds the closing phase's per-slot deltas into the phase totals and
records a new baseline. Two rules keep the derived view identical to a
counter bumped per increment:

- a counter exists once written, even with 0. A slot's value cannot show
  a write of 0, so sites that may write 0 add the slot to ``zero_writes``
  instead (the by-name :meth:`Stats.add` does this itself);
- a difference of float totals is not the sum of the increments, so a
  counter that takes float amounts (``dram.queue_cycles``) is bound with
  :meth:`Stats.exact_slot`, whose second slot accumulates the open
  phase's copy increment by increment.

The read API (``get``, ``[]``, ``counters``, ``snapshot`` ...) includes
the open phase, so it may be read mid-run.
"""

from collections import Counter
from types import MappingProxyType

from repro.sim.events import MemoryAccess


class Stats:
    """A flat plane of named counters plus a few derived views.

    Counter names follow a ``component.event`` convention, e.g.
    ``l1.accesses``, ``llc.misses``, ``noc.flit_hops``, ``dram.accesses``,
    ``engine.instructions``. While the workload marks an execution phase
    (Fig. 21), every counter written also appears phase-qualified
    (``phase/component.event``).

    Slots bound with :meth:`slot` take integer amounts; a site whose
    amount may be 0 records that write in ``zero_writes``. Slots bound
    with :meth:`exact_slot` take any number. :meth:`add` is the cold,
    by-name path into the same plane and takes any amount.
    """

    __slots__ = (
        "values",
        "zero_writes",
        "_slots",
        "_names",
        "_phase_slots",
        "_counted",
        "_zeroed",
        "_phase",
        "_base",
        "_phase_totals",
    )

    def __init__(self):
        #: The plane: one number per slot, incremented in place.
        self.values = []
        #: Slots written with an amount <= 0 since the last phase boundary.
        self.zero_writes = set()
        self._slots = {}
        #: Slot -> counter name (``None`` for an exact slot's phase copy).
        self._names = []
        #: Exact slot -> the slot accumulating its open-phase copy.
        self._phase_slots = {}
        #: Slots bound by :meth:`slot`: integer amounts only.
        self._counted = set()
        #: Slots written with an amount <= 0 before the open phase.
        self._zeroed = set()
        self._phase = None
        #: ``values`` as they stood when the open phase began.
        self._base = []
        #: ``"phase/name"`` -> total over the phase's closed intervals.
        self._phase_totals = {}

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def _new_slot(self, name):
        slot = len(self.values)
        self.values.append(0)
        self._names.append(name)
        if name is not None:
            self._slots[name] = slot
        return slot

    def slot(self, name):
        """The slot of integer counter ``name``, for ``values[slot] += n``."""
        slot = self._slots.get(name)
        if slot is None:
            slot = self._new_slot(name)
        elif slot in self._phase_slots:
            raise TypeError(f"counter {name!r} takes float amounts; bind it exactly")
        self._counted.add(slot)
        return slot

    def exact_slot(self, name):
        """``(slot, phase_slot)`` for counter ``name``, which may take floats.

        Every write adds the amount to both slots.
        """
        slot = self._slots.get(name)
        if slot is None:
            slot = self._new_slot(name)
        return slot, self._phase_copy(slot)

    def _phase_copy(self, slot):
        phase_slot = self._phase_slots.get(slot)
        if phase_slot is None:
            if slot in self._counted:
                name = self._names[slot]
                raise TypeError(f"counter {name!r} is bound to integer amounts")
            # Seed the copy with the open phase's exact (integer) value.
            value = self._open_phase().get(f"{self._phase}/{self._names[slot]}", 0)
            phase_slot = self._phase_slots[slot] = self._new_slot(None)
            self.values[phase_slot] = value
        return phase_slot

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add(self, name, amount=1):
        """Increment counter ``name`` by ``amount`` (the by-name path)."""
        slot = self._slots.get(name)
        if slot is None:
            slot = self._new_slot(name)
        if not amount > 0:
            self.zero_writes.add(slot)
        phase_slot = self._phase_slots.get(slot)
        if phase_slot is None and not isinstance(amount, int):
            phase_slot = self._phase_copy(slot)
        values = self.values
        values[slot] += amount
        if phase_slot is not None:
            values[phase_slot] += amount

    def set_phase(self, phase):
        """Enter a named execution phase (or ``None`` to leave)."""
        if self._phase is not None:
            self._phase_totals.update(self._open_phase())
        self._zeroed |= self.zero_writes
        self.zero_writes.clear()
        self._phase = phase
        if phase is not None:
            values = self.values
            self._base = values.copy()
            totals = self._phase_totals
            for slot, phase_slot in self._phase_slots.items():
                values[phase_slot] = totals.get(f"{phase}/{self._names[slot]}", 0)

    @property
    def phase(self):
        return self._phase

    def _open_phase(self):
        """``{"phase/name": value}`` for every counter the open phase wrote."""
        phase = self._phase
        if phase is None:
            return {}
        values = self.values
        base = self._base
        known = len(base)
        totals = self._phase_totals
        zero_writes = self.zero_writes
        phase_slots = self._phase_slots
        out = {}
        for slot, name in enumerate(self._names):
            if name is None:
                continue
            key = f"{phase}/{name}"
            phase_slot = phase_slots.get(slot)
            if phase_slot is not None:
                value = values[phase_slot]
                if value or slot in zero_writes:
                    out[key] = value
                continue
            delta = values[slot] - (base[slot] if slot < known else 0)
            if delta or slot in zero_writes:
                out[key] = totals.get(key, 0) + delta
        return out

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self):
        """A copy of every written counter (open phase included)."""
        values = self.values
        written = self._zeroed | self.zero_writes
        out = {
            name: values[slot]
            for slot, name in enumerate(self._names)
            if name is not None and (values[slot] or slot in written)
        }
        out.update(self._phase_totals)
        out.update(self._open_phase())
        return out

    @property
    def counters(self):
        """A read-only mapping of every written counter, as of now."""
        return MappingProxyType(self.snapshot())

    def get(self, name):
        slot = self._slots.get(name)
        if slot is not None:
            return self.values[slot]
        if "/" not in name:
            return 0
        return self.snapshot().get(name, 0)

    __getitem__ = get

    def matching(self, prefix):
        """All counters whose name starts with ``prefix``, as a dict."""
        return {k: v for k, v in self.snapshot().items() if k.startswith(prefix)}

    def total(self, suffix):
        """Sum of all counters ending in ``.suffix`` (unphased only)."""
        return sum(
            v
            for k, v in self.snapshot().items()
            if "/" not in k and k.endswith("." + suffix)
        )

    # ------------------------------------------------------------------
    # convenience views used across the evaluation
    # ------------------------------------------------------------------
    @property
    def dram_accesses(self):
        return self.get("dram.accesses")

    @property
    def noc_flit_hops(self):
        return self.get("noc.flit_hops")

    @property
    def branch_mispredictions(self):
        return self.get("core.branch_mispredictions")

    @property
    def engine_instructions(self):
        return self.get("engine.instructions")

    def diff(self, snapshot):
        """Counters accumulated since ``snapshot`` was taken."""
        out = self.snapshot()
        for name, value in snapshot.items():
            out[name] = out.get(name, 0) - value
        return {k: v for k, v in out.items() if v}

    def report(self, prefixes=None):
        """A sorted, human-readable multi-line report."""
        counters = self.snapshot()
        lines = []
        for name in sorted(counters):
            if prefixes and not any(name.startswith(p) for p in prefixes):
                continue
            lines.append(f"{name:40s} {counters[name]:>14}")
        return "\n".join(lines)

    def __repr__(self):
        return f"Stats({len(self.snapshot())} counters)"


class AccessProfile:
    """Per-level access attribution, fed by the event bus.

    Attach to a machine before running, read the breakdown after::

        profile = AccessProfile(machine)
        ... run ...
        print(profile.summary())
        profile.detach()

    ``outcomes`` counts every ``(level, outcome)`` step across all
    requests; ``served_by`` counts requests by their *terminal* step
    (where the access was satisfied); ``latency_by_level`` sums request
    latency per terminal level, so average cost per level falls out
    directly.
    """

    def __init__(self, machine=None):
        #: Counter of (level, outcome) across every step of every request.
        self.outcomes = Counter()
        #: Counter of terminal (level, outcome) -- one per request.
        self.served_by = Counter()
        #: Requests per requesting tile.
        self.by_tile = Counter()
        #: Summed request latency keyed by terminal level.
        self.latency_by_level = Counter()
        self.requests = 0
        self._bus = None
        if machine is not None:
            self.attach(machine)

    # ------------------------------------------------------------------
    # bus wiring
    # ------------------------------------------------------------------
    def attach(self, machine):
        self._bus = machine.events
        self._bus.subscribe(MemoryAccess, self._on_access)
        return self

    def detach(self):
        if self._bus is not None:
            self._bus.unsubscribe(MemoryAccess, self._on_access)
        return self

    def _on_access(self, event):
        result = event.result
        self.requests += 1
        self.by_tile[event.tile] += 1
        self.outcomes.update(result.outcomes)
        terminal = result.served_by
        if terminal is not None:
            self.served_by[terminal] += 1
            self.latency_by_level[terminal[0]] += result.latency

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def count(self, level, outcome=None):
        """Steps recorded at ``level`` (optionally one outcome)."""
        if outcome is not None:
            return self.outcomes.get((level, outcome), 0)
        return sum(v for (lvl, _), v in self.outcomes.items() if lvl == level)

    def hit_rate(self, level):
        """hits / (hits + misses) at ``level`` (0.0 when untouched)."""
        hits = self.outcomes.get((level, "hit"), 0) + self.outcomes.get(
            (level, "snoop_hit"), 0
        )
        misses = self.outcomes.get((level, "miss"), 0) + self.outcomes.get(
            (level, "snoop_miss"), 0
        )
        total = hits + misses
        return hits / total if total else 0.0

    def mean_latency(self, level=None):
        """Mean request latency (for requests terminating at ``level``)."""
        if level is None:
            total = sum(self.latency_by_level.values())
            count = sum(self.served_by.values())
        else:
            total = self.latency_by_level.get(level, 0)
            count = sum(v for (lvl, _), v in self.served_by.items() if lvl == level)
        return total / count if count else 0.0

    def breakdown(self):
        """``{(level, outcome): count}`` over all steps, as a dict."""
        return dict(self.outcomes)

    def summary(self):
        """A sorted, human-readable per-level report."""
        lines = [f"requests {self.requests:>14}"]
        for (level, outcome), count in sorted(self.outcomes.items()):
            lines.append(f"{level + '.' + outcome:40s} {count:>14}")
        for (level, outcome), count in sorted(self.served_by.items()):
            lines.append(f"served_by {level + '.' + outcome:30s} {count:>14}")
        return "\n".join(lines)

    def __repr__(self):
        return f"AccessProfile({self.requests} requests)"
