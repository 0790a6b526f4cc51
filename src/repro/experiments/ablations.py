"""Ablations of design choices DESIGN.md calls out (beyond the paper's
headline figures, but each grounded in a specific claim in the text).

- Memory-controller FIFO cache (Sec. VI-A3: "can reduce DRAM accesses
  by up to ~3x" for compacted objects).
- DYNAMIC-task migration (Sec. VI-B1: 1/32 of remote tasks run locally
  to pull hot actors up the hierarchy).
- DRAM compaction (Sec. VIII-B: padding 24 B nodes to 32 B would cost
  25% memory fragmentation without it).

Each ablation point is a module-level function so it can be named in a
:class:`~repro.experiments.pool.RunSpec` (``repro.experiments.ablations:
mc_cache_point``) and executed in a pool worker process; each
``plan_*`` enumerates specs beside a render that shapes the executed
results into :class:`~repro.experiments.runner.Experiment` rows.
"""

from repro.core.actor import Actor, action
from repro.core.offload import Invoke, Location
from repro.core.runtime import Leviathan
from repro.experiments.pool import RunSpec
from repro.experiments.runner import Experiment, Plan, run_study
from repro.sim.config import small_config
from repro.sim.ops import Compute, Load
from repro.sim.system import Machine
from repro.workloads.common import finish_run

_SELF = "repro.experiments.ablations:"
_HT = "repro.workloads.hashtable:"
_COMPONENTS = "repro.workloads.components:"


def mc_cache_point(fifo_lines):
    """One point of the MC FIFO-cache sweep: a compacted sequential scan.

    A 24 B-object array is padded to 32 B in cache space but packed in
    DRAM, so consecutive cache lines share DRAM lines; the FIFO cache
    absorbs the repeats.
    """
    cfg = small_config(**{"memory.fifo_lines": fifo_lines})
    machine = Machine(cfg)
    runtime = Leviathan(machine)
    alloc = runtime.allocator(24, capacity=4096)
    addrs = [alloc.allocate() for _ in range(2048)]

    def scan(addrs=addrs):
        for addr in addrs:
            yield Load(addr, 24)
            yield Compute(2)

    machine.spawn(scan(), tile=0, name="scan")
    machine.run()
    return finish_run(machine, f"fifo-{fifo_lines}")


def plan_mc_cache(fifo_sizes=(0, 8, 32, 128)):
    """Sweep the MC FIFO cache on a compacted sequential scan."""
    specs = [
        RunSpec(_SELF + "mc_cache_point", {"fifo_lines": fifo}, f"mc_cache/fifo{fifo}")
        for fifo in fifo_sizes
    ]

    def render(results):
        exp = Experiment(
            name="Memory-controller FIFO cache",
            paper_reference="Sec. VI-A3",
            notes="Paper: the 32-line FIFO cache cuts DRAM accesses by up to ~3x.",
        )
        dram = {}
        for fifo, result in zip(fifo_sizes, results):
            dram[fifo] = result.stat("dram.accesses")
            exp.add_row(
                fifo_lines=fifo,
                dram_accesses=dram[fifo],
                mc_hits=result.stat("mc_cache.hits"),
            )
        exp.expect(
            "the 32-line FIFO cuts DRAM accesses vs. no FIFO",
            "greater",
            dram[0] / dram[32],
            1.3,
        )
        exp.expect(
            "bigger FIFOs do not help sequential scans much more",
            "less",
            dram[32] / max(1, dram[max(fifo_sizes)]),
            1.2,
        )
        return exp
    return Plan(specs, render)


class _HotActor(Actor):
    SIZE = 8

    @action
    def bump(self, env, amount):
        yield Load(self.addr, 8)
        yield Compute(1)

    @action
    def probe(self, env):
        yield Load(self.addr, 8)
        yield Compute(1)
        return 1


def migration_point(period):
    """One point of the migration ablation: a synchronous hot-actor loop.

    One core synchronously invokes a DYNAMIC task on one hot actor
    homed at a remote bank. With migration, the actor's line is pulled
    into the invoker's tile and later tasks execute locally, cutting
    the per-task round trip. ``period=0`` disables migration.
    """
    from repro.core.future import WaitFuture

    cfg = small_config()
    if period == 0:
        # Effectively disable migration.
        cfg.leviathan.migration_period = 1 << 30
    else:
        cfg.leviathan.migration_period = period
    machine = Machine(cfg)
    runtime = Leviathan(machine)
    alloc = runtime.allocator_for(_HotActor, capacity=16)
    actor = alloc.allocate()
    bank = machine.hierarchy.bank_of(machine.hierarchy.line_of(actor.addr))
    invoker_tile = (bank + 1) % machine.config.n_tiles

    def pounder(actor=actor):
        for _ in range(512):
            future = yield Invoke(
                actor, "probe", location=Location.DYNAMIC, with_future=True
            )
            yield WaitFuture(future)

    machine.spawn(pounder(), tile=invoker_tile, name="pounder")
    machine.run()
    return finish_run(machine, f"migration-{period}")


def plan_migration(periods=(0, 32)):
    """DYNAMIC-task migration: hot actors migrate toward the invoker."""
    specs = [
        RunSpec(
            _SELF + "migration_point", {"period": period}, f"migration/period{period}"
        )
        for period in periods
    ]

    def render(results):
        exp = Experiment(
            name="DYNAMIC-task migration",
            paper_reference="Sec. VI-B1",
            notes="Paper: 1/32 of remote DYNAMIC tasks execute locally to pull data up.",
        )
        local_counts = {}
        cycles = {}
        for period, result in zip(periods, results):
            label = "off" if period == 0 else str(period)
            local_counts[period] = result.stat("invoke.inline_at_core") + result.stat(
                "invoke.local_engine"
            )
            cycles[period] = result.cycles
            exp.add_row(
                migration_period=label,
                local_executions=local_counts[period],
                migrations=result.stat("invoke.migrations"),
                cycles=cycles[period],
            )
        exp.expect(
            "migration produces local executions of a hot actor",
            "greater",
            local_counts[32] - local_counts[0],
            100,
        )
        exp.expect(
            "migration speeds up the synchronous hot-actor pattern",
            "less",
            cycles[32] / cycles[0],
            1.0,
        )
        return exp
    return Plan(specs, render)


def plan_near_memory(bucket_multiplier=16):
    """Near-memory engines on a beyond-LLC hash table (Sec. IX).

    Fig. 24 shows Leviathan's speedup eroding once the table outgrows
    the LLC; the paper points to near-memory engines as the fix. With
    the extension on, DYNAMIC lookup hops on uncached nodes execute at
    the node's memory controller instead of a distant LLC bank.
    """
    import repro.workloads.hashtable as ht_module

    params = dict(
        n_buckets=64 * bucket_multiplier,
        nodes_per_bucket=32,
        n_threads=16,
        lookups_per_thread=32,
        object_size=64,
    )
    # Fix the LLC at the 64-bucket operating point so the table spills.
    fixed_bytes = ht_module._padded_table_bytes(
        {**ht_module.DEFAULT_PARAMS, "n_buckets": 64, "object_size": 64}
    )
    specs = []
    for near_memory in (False, True):
        kwargs = {
            "params": params,
            "table_bytes": fixed_bytes,
            "config_overrides": {"leviathan.near_memory_engines": near_memory},
        }
        tag = "on" if near_memory else "off"
        specs.append(
            RunSpec(_HT + "run_baseline", kwargs, f"near_memory/{tag}/baseline")
        )
        specs.append(
            RunSpec(_HT + "run_leviathan", kwargs, f"near_memory/{tag}/leviathan")
        )

    def render(results):
        exp = Experiment(
            name="Near-memory engines (extension)",
            paper_reference="Sec. IX (future work)",
            notes=(
                "Paper: 'future work on incorporating near-memory engines can "
                "further improve performance for non-cache-fitting workloads'."
            ),
        )
        speedups = {}
        for i, near_memory in enumerate((False, True)):
            base, lev = results[2 * i], results[2 * i + 1]
            speedups[near_memory] = lev.speedup_over(base)
            exp.add_row(
                near_memory_engines="on" if near_memory else "off",
                speedup=speedups[near_memory],
                near_memory_placements=lev.stat("invoke.near_memory"),
                dram_accesses=lev.stat("dram.accesses"),
            )
        exp.expect(
            "near-memory engines help a spilled table",
            "greater",
            speedups[True] - speedups[False],
            0.0,
        )
        exp.expect(
            "near-memory placement actually used",
            "greater",
            exp.rows[1]["near_memory_placements"],
            0,
        )
        return exp
    return Plan(specs, render)


def plan_components():
    """PHI generality: commutative ``min`` instead of ``add`` (Sec. IV).

    Connected components by synchronous min-label propagation, on the
    same morph + offload machinery as Fig. 5. Not a paper figure; it
    substantiates the paper's claim that PHI-style support must
    generalize across "the diversity of graph applications [13]".
    Note the baseline pays a measured sequential apply sweep per round,
    while Leviathan applies candidates at eviction time (PHI's actual
    mechanism), so the factor here is larger than Fig. 5's.
    """
    specs = [
        RunSpec(_COMPONENTS + "run_baseline", {}, "components/baseline"),
        RunSpec(_COMPONENTS + "run_leviathan", {}, "components/leviathan"),
    ]

    def render(results):
        study = run_study("Connected components (PHI generality)", "baseline", results)
        exp = Experiment(
            name="Connected components (PHI generality)",
            paper_reference="Sec. IV (generality claim)",
            notes="Same machinery as Fig. 5 with min-combining; labels oracle-checked.",
        )
        speedups = study.speedups()
        for name, result in study.results.items():
            exp.add_row(
                variant=name,
                speedup=speedups[name],
                energy_savings_pct=study.energy_savings()[name] * 100,
            )
        exp.expect("Leviathan wins with min-combining", "greater", speedups["leviathan"], 1.5)
        return exp
    return Plan(specs, render)


def compaction_point(compaction):
    """One point of the compaction ablation: allocate one 24 B object."""
    cfg = small_config()
    machine = Machine(cfg)
    runtime = Leviathan(machine)
    alloc = runtime.allocator(24, capacity=64, compaction=compaction)
    alloc.allocate()
    return {
        "compaction": compaction,
        "dram_bytes_per_object": alloc.dram_bytes_per_object(),
        "fragmentation": alloc.fragmentation(),
    }


def plan_compaction():
    """DRAM fragmentation with and without compaction (Sec. VIII-B)."""
    specs = [
        RunSpec(
            _SELF + "compaction_point",
            {"compaction": compaction},
            f"compaction/{'on' if compaction else 'off'}",
        )
        for compaction in (True, False)
    ]

    def render(results):
        exp = Experiment(
            name="DRAM object compaction",
            paper_reference="Sec. V-A3 / VIII-B",
            notes="Paper: padding 24 B nodes to 32 B would waste 25% of DRAM.",
        )
        fragmentations = {}
        for point in results:
            fragmentations[point["compaction"]] = point["fragmentation"]
            exp.add_row(
                compaction="on" if point["compaction"] else "off",
                dram_bytes_per_object=point["dram_bytes_per_object"],
                fragmentation_pct=point["fragmentation"] * 100,
            )
        exp.expect("no fragmentation with compaction", "less", fragmentations[True], 1e-9)
        exp.expect(
            "25% fragmentation without compaction",
            "between",
            fragmentations[False],
            0.24,
            0.26,
        )
        return exp
    return Plan(specs, render)
