"""Wall-clock smoke guard for the simulator's core and offload paths.

Times the Fig. 18 hash-table study (baseline and Leviathan) best-of-3
against fixed budgets recorded at ~2.5x a warm run on a development
machine, failing only beyond ``REGRESSION_FACTOR`` x those -- so the
guard trips on structural regressions (an accidentally-quadratic wait
queue, per-access allocation on a zero-subscriber path), not on runner
jitter. Host-time A/B measurement is the repository benchmark in
``perfbench/``; this is only a coarse tripwire.

The measurement runs *detached*: with no telemetry session installed,
every emit site guarded by ``bus.active`` costs one attribute load and
a branch, and with no fault session every fault hook site guarded by a
``faults is None`` check costs nothing. The test asserts both
preconditions, so the budgets also cover the detached observers.

Run directly for a report without asserting::

    PYTHONPATH=src python benchmarks/test_sim_speed.py
"""

import time

#: Fig. 18 at the speed-smoke scale the budgets were recorded at.
FIG18_PARAMS = {
    "n_buckets": 64,
    "nodes_per_bucket": 32,
    "n_threads": 16,
    "lookups_per_thread": 32,
}
FIG18_TILES = 16

#: Per-runner budgets in seconds (~2.5x a warm dev-machine run).
BUDGETS_S = {"run_baseline": 0.597, "run_leviathan": 1.0722}

#: Fail when a run exceeds ``REGRESSION_FACTOR`` x its budget.
REGRESSION_FACTOR = 2.0

#: Best-of-N to shed scheduler noise and warmup.
TRIALS = 3


def _best_of(runner, trials=TRIALS):
    timings = []
    for _ in range(trials):
        start = time.perf_counter()
        runner(dict(FIG18_PARAMS), n_tiles=FIG18_TILES)
        timings.append(time.perf_counter() - start)
    return min(timings)


def _measure():
    """``{runner name: best-of-TRIALS seconds}`` for both Fig. 18 runs."""
    from repro.workloads import hashtable

    return {name: _best_of(getattr(hashtable, name)) for name in BUDGETS_S}


def test_sim_speed():
    from repro.sim.faults import active_session as fault_session
    from repro.sim.telemetry.session import active_session as telemetry_session

    assert telemetry_session() is None, "a TelemetrySession leaked into this test"
    assert fault_session() is None, "a FaultSession leaked into this test"
    for name, measured in _measure().items():
        budget = BUDGETS_S[name] * REGRESSION_FACTOR
        assert measured <= budget, (
            f"simulator speed regression: hashtable.{name} took "
            f"{measured:.2f}s, budget {budget:.2f}s ({REGRESSION_FACTOR}x the "
            f"recorded {BUDGETS_S[name]:.2f}s). Check that every telemetry "
            "emit site is guarded by events.active and every fault hook "
            "site by 'faults is None'."
        )


if __name__ == "__main__":
    for name, measured in _measure().items():
        print(
            f"hashtable.{name}: best-of-{TRIALS} {measured:.3f}s "
            f"(budget {BUDGETS_S[name] * REGRESSION_FACTOR:.3f}s)"
        )
