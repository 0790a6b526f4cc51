"""Unit tests for the statistics bag."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.stats import Stats


class TestCounters:
    def test_add_and_get(self):
        stats = Stats()
        stats.add("l1.hits")
        stats.add("l1.hits", 2)
        assert stats.get("l1.hits") == 3
        assert stats["l1.hits"] == 3

    def test_missing_counter_is_zero(self):
        assert Stats()["nothing"] == 0

    def test_matching_prefix(self):
        stats = Stats()
        stats.add("l1.hits", 3)
        stats.add("l1.misses", 1)
        stats.add("l2.hits", 7)
        assert stats.matching("l1.") == {"l1.hits": 3, "l1.misses": 1}

    def test_total_by_suffix(self):
        stats = Stats()
        stats.add("l1.hits", 3)
        stats.add("l2.hits", 7)
        stats.add("l2.misses", 1)
        assert stats.total("hits") == 10


class TestPhases:
    def test_phase_qualified_counters(self):
        stats = Stats()
        stats.set_phase("edge")
        stats.add("dram.accesses", 5)
        stats.set_phase(None)
        stats.add("dram.accesses", 2)
        assert stats["dram.accesses"] == 7
        assert stats["edge/dram.accesses"] == 5

    def test_phase_property(self):
        stats = Stats()
        assert stats.phase is None
        stats.set_phase("x")
        assert stats.phase == "x"

    def test_phase_totals_exclude_phased(self):
        stats = Stats()
        stats.set_phase("a")
        stats.add("x.hits", 1)
        assert stats.total("hits") == 1  # only the unphased copy counts


class TestSnapshots:
    def test_diff(self):
        stats = Stats()
        stats.add("a", 5)
        snap = stats.snapshot()
        stats.add("a", 2)
        stats.add("b", 1)
        assert stats.diff(snap) == {"a": 2, "b": 1}

    def test_snapshot_immutable(self):
        stats = Stats()
        stats.add("a", 1)
        snap = stats.snapshot()
        stats.add("a", 1)
        assert snap["a"] == 1


class TestViews:
    def test_convenience_properties(self):
        stats = Stats()
        stats.add("dram.accesses", 4)
        stats.add("noc.flit_hops", 9)
        stats.add("core.branch_mispredictions", 2)
        stats.add("engine.instructions", 11)
        assert stats.dram_accesses == 4
        assert stats.noc_flit_hops == 9
        assert stats.branch_mispredictions == 2
        assert stats.engine_instructions == 11

    def test_report_filters(self):
        stats = Stats()
        stats.add("a.x", 1)
        stats.add("b.y", 2)
        report = stats.report(prefixes=["a."])
        assert "a.x" in report
        assert "b.y" not in report


class CounterReference:
    """The counter semantics the plane reproduces: one ``Counter`` write
    per increment, plus a phase-qualified write while a phase is open."""

    def __init__(self):
        self.counters = Counter()
        self.phase = None

    def add(self, name, amount):
        self.counters[name] += amount
        if self.phase is not None:
            self.counters[f"{self.phase}/{name}"] += amount


def _exact(counters):
    """Key set, types and float bits: ``repr`` round-trips all three."""
    return sorted((name, repr(value)) for name, value in counters.items())


_INTS = st.integers(min_value=0, max_value=50)
_ANY = st.one_of(
    st.integers(min_value=-5, max_value=50),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.just(0),
    st.just(0.0),
)
_PLANE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("slot"), st.integers(0, 2), _INTS),
        st.tuples(
            st.just("exact"),
            st.just(0),
            st.one_of(_INTS, st.floats(min_value=0, max_value=1e6), st.just(0.0)),
        ),
        st.tuples(st.just("add"), st.integers(0, 5), _ANY),
        st.tuples(st.just("phase"), st.sampled_from([None, "a", "b"]), st.just(0)),
        st.tuples(st.just("read"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


class TestCounterPlaneOracle:
    """Slot writes, by-name adds and phase folds equal per-increment counting."""

    @settings(max_examples=300, deadline=None)
    @given(ops=_PLANE_OPS)
    def test_plane_matches_counter_reference(self, ops):
        stats, ref = Stats(), CounterReference()
        counted = ["c.hits", "c.misses", "shared.both"]
        slots = [stats.slot(name) for name in counted]
        exact, exact_phase = stats.exact_slot("q.cycles")
        # By-name adds reach bound names too (ints only on counted ones).
        by_name = ["x.events", "y.bytes", "z.cycles", "q.cycles"]
        values = stats.values
        for kind, which, amount in ops:
            if kind == "slot":
                # A counted site: a write of 0 only records the write.
                if amount:
                    values[slots[which]] += amount
                else:
                    stats.zero_writes.add(slots[which])
                ref.add(counted[which], amount)
            elif kind == "exact":
                values[exact] += amount
                values[exact_phase] += amount
                if not amount:
                    stats.zero_writes.add(exact)
                ref.add("q.cycles", amount)
            elif kind == "add":
                if which < len(by_name):
                    name = by_name[which]
                else:
                    name, amount = "shared.both", int(abs(amount))
                stats.add(name, amount)
                ref.add(name, amount)
            elif kind == "phase":
                stats.set_phase(which)
                ref.phase = which
            else:
                assert _exact(stats.snapshot()) == _exact(ref.counters)
                assert _exact(stats.counters) == _exact(ref.counters)
                for name, value in ref.counters.items():
                    assert repr(stats[name]) == repr(value)
        stats.set_phase(None)
        assert _exact(stats.snapshot()) == _exact(ref.counters)

    def test_zero_write_creates_the_key(self):
        stats = Stats()
        hops = stats.slot("noc.flit_hops")
        stats.set_phase("edge")
        stats.zero_writes.add(hops)
        stats.set_phase(None)
        assert stats.snapshot() == {"noc.flit_hops": 0, "edge/noc.flit_hops": 0}

    def test_bound_counter_rejects_float_amounts(self):
        stats = Stats()
        stats.slot("l1.accesses")
        with pytest.raises(TypeError, match="integer"):
            stats.add("l1.accesses", 0.5)
        stats.exact_slot("dram.queue_cycles")
        with pytest.raises(TypeError, match="float"):
            stats.slot("dram.queue_cycles")

    def test_counters_view_is_read_only_and_includes_open_phase(self):
        stats = Stats()
        stats.set_phase("edge")
        stats.values[stats.slot("dram.accesses")] += 3
        assert stats.counters["edge/dram.accesses"] == 3
        with pytest.raises(TypeError):
            stats.counters["dram.accesses"] = 0
