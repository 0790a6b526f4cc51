"""Pluggable executor backends behind the experiment pool.

The :class:`~repro.experiments.pool.ExperimentPool` owns *policy*
(caching, retry, deadlines, hang detection, graceful drain); a backend
owns *mechanism*: where a job dict actually executes and how its
worker can be observed and killed. Two local backends ship today:

- :class:`LocalInlineBackend` executes jobs synchronously in the
  calling process -- the ``jobs=1`` fast path used by tests and
  benchmarks. Nothing to kill, no deadline enforcement (a blocking
  call cannot be preempted), bit-identical to calling the worker
  function directly.
- :class:`LocalProcessBackend` runs each job in its own worker
  process (forked where available) with a result pipe back to the
  supervisor. Per-job processes are what make the supervision
  contract enforceable: a deadline or hang kill takes down exactly
  one run, never a shared pool, and a SIGKILLed worker surfaces as a
  :class:`WorkerDeath` for that one handle instead of poisoning every
  in-flight future the way a ``BrokenProcessPool`` does.

A future scale-out backend (SSH, cloud functions) implements the same
five methods -- ``start``/``capacity``/``submit``/``poll``/``kill`` --
and inherits the whole supervision story for free.

The worker entrypoint carries a **chaos hook** for CI: setting
``LEVIATHAN_POOL_CHAOS="p=0.4;seed=7"`` makes each worker SIGKILL
itself with probability ``p`` before executing, decided
deterministically from ``(seed, spec hash, attempt)`` -- so a given
seed produces the same kill schedule on every run, and retried
attempts roll fresh deterministic dice. The ``pool-chaos`` CI job uses
this to prove a sweep completes bit-identically through requeue.
"""

import hashlib
import importlib
import os
import signal
import time
from dataclasses import dataclass

#: Environment variable carrying the worker-kill chaos spec.
CHAOS_ENV = "LEVIATHAN_POOL_CHAOS"


@dataclass
class WorkerDeath:
    """A worker vanished without delivering an outcome.

    ``exitcode`` is the process exit status when known (negative =
    killed by that signal number, matching ``multiprocessing``).
    """

    exitcode: int = None
    message: str = ""

    def describe(self):
        if self.exitcode is not None and self.exitcode < 0:
            try:
                name = signal.Signals(-self.exitcode).name
            except ValueError:
                name = f"signal {-self.exitcode}"
            return f"worker killed by {name}"
        if self.exitcode is not None:
            return f"worker exited with status {self.exitcode}"
        return self.message or "worker died before delivering a result"


class ExecutorBackend:
    """The contract every executor backend implements.

    Handles returned by :meth:`submit` are opaque; the supervisor maps
    them back to its own attempt records. ``poll`` returns completed
    work as ``(handle, payload)`` pairs where ``payload`` is either
    the worker's outcome dict or a :class:`WorkerDeath`.
    """

    name = "abstract"
    #: Whether :meth:`kill` can terminate one running job (enables
    #: host-side deadlines and hang kills).
    supports_kill = False

    def start(self, workers):
        """Prepare for up to ``workers`` concurrent jobs; returns self."""
        return self

    def capacity(self):
        """Free worker slots right now."""
        raise NotImplementedError

    def submit(self, job):
        """Dispatch one job dict; returns an opaque handle."""
        raise NotImplementedError

    def poll(self, timeout=0.0):
        """Completed ``(handle, outcome_or_WorkerDeath)`` pairs.

        Blocks up to ``timeout`` seconds waiting for the first
        completion; returns everything ready by then.
        """
        raise NotImplementedError

    def kill(self, handle, reason=""):
        """Best-effort terminate the worker running ``handle``."""
        raise NotImplementedError

    def shutdown(self):
        """Terminate every in-flight worker and release resources."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


class LocalInlineBackend(ExecutorBackend):
    """Synchronous execution in the calling process (``jobs=1``)."""

    name = "local-inline"
    supports_kill = False

    def __init__(self):
        self._ready = []
        self._seq = 0

    def start(self, workers):
        return self

    def capacity(self):
        # One at a time, and only when the previous result was drained:
        # the supervisor journals each outcome before dispatching more.
        return 0 if self._ready else 1

    def submit(self, job):
        from repro.experiments.pool import _execute_job

        self._seq += 1
        handle = self._seq
        self._ready.append((handle, _execute_job(job)))
        return handle

    def poll(self, timeout=0.0):
        ready, self._ready = self._ready, []
        return ready

    def kill(self, handle, reason=""):
        pass  # nothing to kill: submit() already returned


class LocalProcessBackend(ExecutorBackend):
    """One worker process per job, supervised over a result pipe.

    Uses the ``fork`` start method where available (Linux), falling
    back to the platform default elsewhere. A forked worker inherits
    the supervisor's memory: every module the supervisor has imported,
    the parent's run-log handler, and the job's runner module (the
    ``module`` of its ``"module:function"`` path), which :meth:`submit`
    imports in the supervisor just before the fork. So a sweep pays
    for importing a workload module, and numpy with it, once instead
    of once per run. Workers are daemonic, so an abandoned supervisor
    never leaks simulators.
    """

    name = "local-process"
    supports_kill = True

    def __init__(self, mp_context=None):
        import multiprocessing

        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
        self._ctx = mp_context
        self._workers = 1
        self._running = {}  # handle -> (process, connection, job)
        self._seq = 0

    def start(self, workers):
        self._workers = max(1, int(workers))
        return self

    def capacity(self):
        return self._workers - len(self._running)

    def submit(self, job):
        try:
            importlib.import_module(job["fn"].partition(":")[0])
        except Exception:
            pass  # the worker repeats the import; its error is the run's outcome
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(job, child_conn),
            name=f"pool-worker-{job['hash'][:12]}-a{job.get('attempt', 1)}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker owns the write end now
        self._seq += 1
        handle = self._seq
        self._running[handle] = (process, parent_conn, job)
        return handle

    def poll(self, timeout=0.0):
        from multiprocessing import connection

        if not self._running:
            if timeout > 0:
                time.sleep(timeout)
            return []
        by_conn = {conn: handle for handle, (_p, conn, _j) in self._running.items()}
        ready = connection.wait(list(by_conn), timeout=timeout)
        results = []
        for conn in ready:
            handle = by_conn[conn]
            process, _conn, _job = self._running.pop(handle)
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                payload = WorkerDeath()
            finally:
                conn.close()
            process.join(timeout=5.0)
            if isinstance(payload, WorkerDeath):
                payload.exitcode = process.exitcode
            results.append((handle, payload))
        return results

    def kill(self, handle, reason=""):
        entry = self._running.get(handle)
        if entry is None:
            return
        process = entry[0]
        if process.is_alive():
            process.kill()  # SIGKILL: a hung worker may ignore SIGTERM

    def shutdown(self):
        for process, conn, _job in self._running.values():
            if process.is_alive():
                process.kill()
            conn.close()
        for process, _conn, _job in self._running.values():
            process.join(timeout=5.0)
        self._running.clear()


#: Registered backend names (``auto`` picks per job count).
BACKENDS = {
    "local-inline": LocalInlineBackend,
    "local-process": LocalProcessBackend,
}


def make_backend(backend, jobs):
    """Resolve ``backend`` (name, instance, or None/'auto') for ``jobs``.

    ``None``/``"auto"`` keeps the pool's historical behavior: inline
    for a single worker, per-job processes otherwise.
    """
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None or backend == "auto":
        return LocalInlineBackend() if jobs <= 1 else LocalProcessBackend()
    try:
        return BACKENDS[backend]()
    except KeyError:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"known: auto, {', '.join(sorted(BACKENDS))}"
        ) from None


# ----------------------------------------------------------------------
# the worker entrypoint
# ----------------------------------------------------------------------
def parse_chaos_spec(spec):
    """``"p=0.4;seed=7"`` -> ``(probability, seed)``; bad specs raise."""
    probability, seed = 0.0, 0
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key == "p":
            probability = float(value)
        elif key == "seed":
            seed = int(value)
        else:
            raise ValueError(f"unknown chaos field {key!r} in {spec!r}")
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"chaos probability must be in [0, 1], got {probability}")
    return probability, seed


def chaos_decision(probability, seed, run_hash, attempt):
    """Deterministic per-(seed, hash, attempt) kill decision."""
    if probability <= 0.0:
        return False
    digest = hashlib.sha256(f"{seed}:{run_hash}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2**64
    return fraction < probability


def _maybe_chaos_kill(job):
    """CI test hook: SIGKILL this worker per the chaos spec, if armed."""
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return
    probability, seed = parse_chaos_spec(spec)
    if chaos_decision(probability, seed, job["hash"], job.get("attempt", 1)):
        os.kill(os.getpid(), signal.SIGKILL)


def _worker_main(job, conn):
    """Entry of one worker process: execute the job, pipe the outcome."""
    _maybe_chaos_kill(job)
    from repro.experiments.pool import _execute_job

    outcome = _execute_job(job)
    try:
        conn.send(outcome)
    finally:
        conn.close()
