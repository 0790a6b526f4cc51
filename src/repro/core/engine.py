"""Near-cache engines (Sec. VI-A1).

One engine per tile, co-located with the tile's L2 and LLC bank (the
paper models engines at both; a single engine per tile serves both
roles here, as the timing difference is intra-tile). The engine is a
dataflow fabric executing application actions:

- **compute timing**: single-issue, ``pe_latency`` per instruction
  (0-latency and energy-free in the *ideal* configuration);
- **task contexts**: a finite task-context buffer, split evenly between
  offloaded and data-triggered actions to prevent deadlock;
- **backpressure**: offloads arriving at a full engine are NACKed back
  to the invoking core (counted; the spill traffic is accounted) and
  queue for the next free context.

Engines access memory through their own small coherent L1d (modeled in
the hierarchy as a per-tile ``engine_l1``) and share the tile's L2.
"""

from collections import OrderedDict, deque

from repro.sim.events import EngineFailed, EngineTask, EngineTaskDone, EngineTaskStart
from repro.sim.ops import Condition

#: Payload bytes of a NACK/spill control message.
NACK_BYTES = 8

#: Cycles to refill an rTLB entry (page-table walk assist).
RTLB_MISS_PENALTY = 20


class Engine:
    """One tile's near-data engine."""

    def __init__(self, runtime, tile):
        self.runtime = runtime
        self.machine = runtime.machine
        self.tile = tile
        cfg = self.machine.config.engine
        self.config = cfg
        stats = self.machine.stats
        self._values = stats.values
        self._rtlb_lookups = stats.slot("engine.rtlb_lookups")
        self._rtlb_misses = stats.slot("engine.rtlb_misses")
        self._nacks = stats.slot("engine.nacks")
        self._tasks = stats.slot("engine.tasks")
        #: Offload task contexts in use (data-triggered actions run
        #: inline at cache fills and use the other half of the buffer).
        self.busy_offload = 0
        self._queue = deque()
        self.context_freed = Condition(f"engine{tile}.context")
        #: Fault state (:mod:`repro.sim.faults`). A *failed* engine is
        #: fail-stop for new work: in-flight tasks complete, spill-queued
        #: tasks are rerouted, and every later arrival degrades
        #: (Sec. VI-C). Stall/exhaustion windows make the engine NACK
        #: arrivals until the window closes.
        self.failed = False
        self.failed_at = None
        self._stalled_until = 0.0
        self._exhausted_until = 0.0
        #: Reverse TLB (Sec. VI-A1): translates cached physical lines
        #: back to virtual addresses before data-triggered actions run.
        #: LRU over pages; misses pay a refill penalty.
        self._rtlb = OrderedDict()

    # ------------------------------------------------------------------
    # rTLB
    # ------------------------------------------------------------------
    def rtlb_lookup(self, page):
        """Translate a physical page for a data-triggered action.

        Returns the added latency (0 on a hit, the refill penalty on a
        miss). The rTLB holds ``rtlb_entries`` pages, LRU-replaced.
        """
        self._values[self._rtlb_lookups] += 1
        if page in self._rtlb:
            self._rtlb.move_to_end(page)
            return 0
        self._values[self._rtlb_misses] += 1
        self._rtlb[page] = True
        while len(self._rtlb) > self.config.rtlb_entries:
            self._rtlb.popitem(last=False)
        return 0 if self.config.ideal else RTLB_MISS_PENALTY

    @property
    def offload_capacity(self):
        if self.config.ideal:
            return float("inf")
        return self.config.offload_contexts

    @property
    def has_free_context(self):
        return self.busy_offload < self.offload_capacity

    def accepting(self, at_time):
        """True when a task arriving at ``at_time`` can take a context.

        With no fault state this is exactly :attr:`has_free_context`;
        a failed engine never accepts, and stall/exhaustion windows
        NACK every arrival inside them.
        """
        if self.failed:
            return False
        if at_time < self._stalled_until or at_time < self._exhausted_until:
            return False
        return self.has_free_context

    # ------------------------------------------------------------------
    # fault state (driven by repro.sim.faults)
    # ------------------------------------------------------------------
    def fail(self, at_time=0.0):
        """Mark the engine failed (fail-stop for new work).

        In-flight tasks run to completion; spill-queued tasks have not
        started and are bounced to a healthy engine (or to on-core
        execution when none remains).
        """
        if self.failed:
            return
        self.failed = True
        self.failed_at = at_time
        machine = self.machine
        machine.stats.add("faults.engine_failures")
        if machine.events.active:
            machine.events.emit(EngineFailed(self.tile, at_time))
        pending, self._queue = list(self._queue), deque()
        for task in pending:
            self.runtime.reroute_task(self, task, at_time)
        # Waiters on context_freed will never get one here.
        machine.wake_all(self.context_freed)

    def stall(self, until):
        """NACK every offload arriving before ``until`` (transient stall)."""
        self._stalled_until = max(self._stalled_until, until)

    def exhaust(self, until):
        """Model task-context-buffer exhaustion until ``until``."""
        self._exhausted_until = max(self._exhausted_until, until)

    def kick(self, at_time=None):
        """Drain the spill queue while contexts are free.

        Called at the end of a stall/exhaustion window: queued tasks are
        normally re-accepted by ``_release`` when a context frees, but a
        window can leave free contexts *and* a non-empty queue with no
        completion event to trigger acceptance.
        """
        at_time = self.machine.now if at_time is None else at_time
        while self._queue and self.accepting(at_time):
            self._accept(self._queue.popleft(), at_time)

    # ------------------------------------------------------------------
    # task submission
    # ------------------------------------------------------------------
    def submit(self, program, at_time, name, on_accept=None, on_complete=None, near_memory=False, cid=None):
        """Submit an offloaded task arriving at ``at_time``.

        If a task context is free the task is accepted immediately;
        otherwise the engine NACKs (accounted as spill traffic back to
        the invoker) and the task waits for the next free context.
        Returns True when accepted without a NACK. ``cid`` is the
        invoke's correlation ID, echoed on every task-lifecycle event.
        """
        task = _PendingTask(program, name, on_accept, on_complete, near_memory, cid)
        if self.offer(task, at_time):
            return True
        self._values[self._nacks] += 1
        self._queue.append(task)
        if self.machine.events.active:
            self.machine.events.emit(
                EngineTask(self.tile, name, False, cid, at_time, len(self._queue))
            )
        return False

    def make_task(self, program, name, on_accept=None, on_complete=None, near_memory=False, cid=None):
        """Build a pending task for :meth:`offer` (bounded-retry mode)."""
        return _PendingTask(program, name, on_accept, on_complete, near_memory, cid)

    def offer(self, task, at_time):
        """Accept ``task`` if possible at ``at_time``; never queues.

        The retry path uses this directly: a rejected offer leaves the
        task with the caller (the invoking core's retry loop), unlike
        :meth:`submit` which parks rejected tasks in the spill queue.
        """
        if self.accepting(at_time):
            if self.machine.events.active:
                self.machine.events.emit(
                    EngineTask(self.tile, task.name, True, task.cid, at_time, len(self._queue))
                )
            self._accept(task, at_time)
            return True
        return False

    def nack(self, task, at_time):
        """Account a NACK for a task the invoker will retry itself."""
        self._values[self._nacks] += 1
        if self.machine.events.active:
            self.machine.events.emit(
                EngineTask(self.tile, task.name, False, task.cid, at_time, len(self._queue))
            )

    def _accept(self, task, at_time):
        self.busy_offload += 1
        self._values[self._tasks] += 1
        if self.machine.events.active:
            self.machine.events.emit(
                EngineTaskStart(self.tile, task.name, task.cid, at_time)
            )
        if task.on_accept is not None:
            task.on_accept(at_time)
        ctx = self.machine.spawn(
            self._run(task),
            tile=self.tile,
            name=task.name,
            is_engine=True,
            engine=self,
            at_time=at_time,
        )
        ctx.near_memory = task.near_memory
        ctx.cid = task.cid
        return ctx

    def _run(self, task):
        """Wrapper adding completion handling around the action program."""
        result = yield from task.program
        machine = self.machine
        if machine.events.active:
            machine.events.emit(
                EngineTaskDone(self.tile, task.name, task.cid, machine.sim_time())
            )
        self._release()
        if task.on_complete is not None:
            task.on_complete(result)
        return result

    def _release(self):
        self.busy_offload -= 1
        if self._queue and self.accepting(self.machine.now):
            task = self._queue.popleft()
            # The queued task starts when the context frees (now).
            self._accept(task, self.machine.now)
        else:
            self.machine.wake_all(self.context_freed)

    @property
    def queued_tasks(self):
        return len(self._queue)

    def __repr__(self):
        state = ", FAILED" if self.failed else ""
        return (
            f"Engine(tile{self.tile}, busy={self.busy_offload}/"
            f"{self.offload_capacity}, queued={self.queued_tasks}{state})"
        )


class _PendingTask:
    __slots__ = ("program", "name", "on_accept", "on_complete", "near_memory", "cid")

    def __init__(self, program, name, on_accept, on_complete, near_memory=False, cid=None):
        self.program = program
        self.name = name
        self.on_accept = on_accept
        self.on_complete = on_complete
        self.near_memory = near_memory
        self.cid = cid
