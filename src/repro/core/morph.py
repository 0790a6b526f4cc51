"""Data-triggered actions: Morphs (Sec. V-B2, VI-B2, Fig. 11).

A Morph registers an address range of *phantom* actors at a cache level
(L2 or LLC). The data only exists in the cache: constructors run when a
line of the range is inserted (instead of fetching from the next level)
and destructors run when it is evicted (instead of writing back).

The major usability win over prior work (tākō [66]) is reproduced
faithfully: applications define constructors/destructors over *objects*,
and Leviathan maps cache-line events onto object events --

- objects smaller than a line: one line insertion triggers the
  constructors of every object in the line (executed in parallel on the
  engine: latency is the max, work is the sum);
- objects larger than a line: one action triggers, and all of the
  object's lines are inserted/evicted as a unit.
"""

from repro.sim.hierarchy import ConstructResult


class MorphLayoutError(ValueError):
    """The requested layout cannot support data-triggered actions."""


class MorphView:
    """Per-engine local state for actions running on that engine.

    A Morph's address range may span LLC banks, so each engine holds a
    *view* (Fig. 11); actions receive their engine's view and may keep
    engine-local state in ``view.state``.
    """

    __slots__ = ("morph", "tile", "state")

    def __init__(self, morph, tile):
        self.morph = morph
        self.tile = tile
        #: Free-form engine-local state (e.g. PHI's per-bank update log).
        self.state = {}

    def get_offset(self, addr):
        """Actor index of the actor at ``addr`` (for use by actions)."""
        return self.morph.index_of(addr)


class Morph:
    """A registered range of phantom actors with data-triggered actions.

    Subclasses override :meth:`construct` and :meth:`destruct` (generator
    functions yielding simulator ops). Registration allocates the
    phantom range through the Leviathan allocator so padding and LLC
    object mapping apply; ``unregister`` flushes the range, firing
    destructors for everything still cached.
    """

    def __init__(self, runtime, level, n_actors, object_size, name=None, padding=True):
        if level not in ("l2", "llc"):
            raise ValueError(f"morph level must be 'l2' or 'llc', got {level!r}")
        if n_actors <= 0:
            raise ValueError(f"n_actors must be positive, got {n_actors}")
        self.runtime = runtime
        self.machine = runtime.machine
        self.level = level
        self.n_actors = n_actors
        self.object_size = object_size
        self.name = name or type(self).__name__
        self.registered = False
        self._values = self.machine.stats.values
        self._rtlb_lookups = self.machine.stats.slot("morph.rtlb_lookups")

        line_size = self.machine.config.line_size
        if not padding and line_size % object_size != 0:
            # The outcome the paper demonstrates in Sec. VIII-A: without
            # the allocator's padding, lines contain partial objects, and
            # "constructors cannot initialize a portion of an object".
            raise MorphLayoutError(
                f"{object_size} B objects do not divide {line_size} B lines; "
                "data-triggered actions require Leviathan's padded layout"
            )

        # Phantom actors are allocated through the Leviathan allocator:
        # padded in cache-address space, in one contiguous pool. They are
        # never DRAM-backed, so compaction state is irrelevant, but the
        # pool still registers the bank-shift mapping for large objects.
        self._allocator = runtime.allocator(
            object_size, capacity=n_actors, padding=padding, compaction=False
        )
        pool = self._allocator._grow()
        self.pool = pool
        self.base = pool.base
        self.padded_size = pool.padded_size
        self.bound = pool.bound
        self.views = [MorphView(self, t) for t in range(self.machine.config.n_tiles)]
        runtime.register_morph(self)

    # ------------------------------------------------------------------
    # application interface (Fig. 11)
    # ------------------------------------------------------------------
    def get_actor_addr(self, index):
        """Address of actor ``index`` (for use by cores)."""
        return self.pool.addr_of(index)

    def index_of(self, addr):
        """Actor index containing ``addr`` (for use by actions)."""
        return self.pool.index_of(addr)

    def construct(self, view, index):
        """Constructor action for actor ``index`` (override; generator)."""
        return
        yield  # pragma: no cover

    def destruct(self, view, index, dirty):
        """Destructor action for actor ``index`` (override; generator)."""
        return
        yield  # pragma: no cover

    def allow_prefetch(self, index):
        """May the hardware prefetcher construct actor ``index`` early?"""
        return True

    def unregister(self):
        """Flush the range (firing destructors) and remove the Morph."""
        if not self.registered:
            return
        from repro.sim.address import Region

        self.machine.stats.add("morph.unregisters")
        self.machine.hierarchy.flush_range(Region(self.base, self.bound - self.base))
        self.runtime.unregister_morph(self)

    # ------------------------------------------------------------------
    # hierarchy-facing machinery
    # ------------------------------------------------------------------
    def covers_line(self, line):
        addr = line * self.machine.config.line_size
        return self.base <= addr < self.bound

    def _objects_in_line(self, line):
        """(first_index, last_index) of actors overlapping ``line``."""
        line_size = self.machine.config.line_size
        lo = max(line * line_size, self.base)
        hi = min((line + 1) * line_size, self.bound) - 1
        return self.pool.index_of(lo), self.pool.index_of(hi)

    def object_lines(self, index):
        """All cache lines of actor ``index``."""
        line_size = self.machine.config.line_size
        base = self.pool.addr_of(index)
        first = base // line_size
        last = (base + self.padded_size - 1) // line_size
        return list(range(first, last + 1))

    def handle_miss(self, tile, line):
        """Run constructors for the fill of ``line``; returns the result.

        The engine's rTLB translates the physical line back to a
        virtual actor address first (a miss pays the refill penalty);
        constructors then execute on the engine at ``tile``. When that
        engine is marked failed (fault injection), the Sec. VI-C
        fallback applies: the actions run *on the core* instead, at full
        core instruction cost, with identical functional effects.
        """
        on_engine = self._engine_alive(tile)
        rtlb_penalty = self._rtlb_translate(tile, line) if on_engine else 0
        first, last = self._objects_in_line(line)
        view = self.views[tile]
        if self.padded_size > self.machine.config.line_size:
            # Large object: one action constructs all its lines at once.
            index = first
            latency, _ = self.machine.run_inline(
                self.construct(view, index),
                tile,
                is_engine=on_engine,
                name=f"{self.name}.construct[{index}]",
            )
            return ConstructResult(rtlb_penalty + latency, self.object_lines(index))
        # Small objects: every object in the line constructs in parallel
        # on the engine (serially when degraded to the core).
        worst = 0.0
        total = 0.0
        for index in range(first, last + 1):
            latency, _ = self.machine.run_inline(
                self.construct(view, index),
                tile,
                is_engine=on_engine,
                name=f"{self.name}.construct[{index}]",
            )
            worst = max(worst, latency)
            total += latency
        cost = worst if on_engine else total
        return ConstructResult(rtlb_penalty + cost, [line])

    def handle_evict(self, tile, line, dirty):
        """Run destructors for the eviction of ``line``."""
        on_engine = self._engine_alive(tile)
        if on_engine:
            self._rtlb_translate(tile, line)
        first, last = self._objects_in_line(line)
        view = self.views[tile]
        if self.padded_size > self.machine.config.line_size:
            index = first
            self.machine.run_inline(
                self.destruct(view, index, dirty),
                tile,
                is_engine=on_engine,
                name=f"{self.name}.destruct[{index}]",
            )
            # Large objects evict as a unit: drop the sibling lines too.
            self._drop_sibling_lines(tile, line, index)
            return True
        for index in range(first, last + 1):
            self.machine.run_inline(
                self.destruct(view, index, dirty),
                tile,
                is_engine=on_engine,
                name=f"{self.name}.destruct[{index}]",
            )
        return True

    def _engine_alive(self, tile):
        """False when the tile's engine is failed: actions degrade to the
        core (Sec. VI-C), skipping the rTLB and paying core latencies."""
        engines = self.machine.engines
        if engines is None or not engines[tile].failed:
            return True
        self.machine.stats.add("faults.actions_on_core")
        if self.machine.events.active:
            from repro.sim.events import DegradedToFallback

            self.machine.events.emit(
                DegradedToFallback(
                    "construct-on-core",
                    tile=tile,
                    fallback=tile,
                    action=self.name,
                    time=self.machine.sim_time(),
                )
            )
        return False

    def _rtlb_translate(self, tile, line):
        """Account the engine's reverse translation of ``line``."""
        self._values[self._rtlb_lookups] += 1
        engines = self.machine.engines
        if not engines:
            return 0
        page = (line * self.machine.config.line_size) // self.machine.config.page_size
        return engines[tile].rtlb_lookup(page)

    def handle_prefetch_probe(self, tile, line):
        first, last = self._objects_in_line(line)
        return all(self.allow_prefetch(i) for i in range(first, last + 1))

    def _drop_sibling_lines(self, tile, line, index):
        """Invalidate the other lines of a large object on destruction.

        Destruction evicts all lines corresponding to the object
        (Sec. VI-B2); sibling lines are dropped without re-firing the
        destructor.
        """
        hierarchy = self.machine.hierarchy
        caches = (
            [hierarchy.llc[tile]]
            if self.level == "llc"
            else [hierarchy.l2[tile], hierarchy.l1[tile], hierarchy.engine_l1[tile]]
        )
        for sibling in self.object_lines(index):
            if sibling == line:
                continue
            for cache in caches:
                cache.invalidate(sibling)
