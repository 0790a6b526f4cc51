"""``repro.perf``: host-time profiling of simulation runs.

:mod:`repro.perf.profile` is a cProfile harness with per-subsystem
wall-time attribution plus a sampling collector that emits
Brendan-Gregg collapsed stacks for flamegraphs. ``--profile DIR`` on
any experiment runs every pool execution under it.

Host-performance *measurement* (timed sweeps, parent-vs-change A/B) is
the repository benchmark in ``perfbench/``; ``docs/performance.md`` is
the guide to both.
"""

from repro.perf.profile import ProfileHarness, ProfileReport

__all__ = ["ProfileHarness", "ProfileReport"]
