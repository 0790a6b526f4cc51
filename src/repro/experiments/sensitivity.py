"""Figures 22-25: sensitivity studies.

Smaller workload instances than the headline figures (each point is a
full simulation), with the knee positions checked rather than absolute
factors. Each ``plan_figN`` enumerates every point as a
:class:`~repro.experiments.pool.RunSpec` and pairs the list with a
render over the executed points, so a sweep parallelizes across its
points under ``--jobs N``. Config variations
(the fixed mid-sized LLC of Fig. 23, the pinned table size of Fig. 24)
travel inside the spec as ``config_overrides`` / ``table_bytes``
kwargs, so a point is reproducible from its spec alone.
"""

from repro.experiments.pool import RunSpec
from repro.experiments.runner import Experiment, Plan
from repro.workloads import hashtable

_PHI = "repro.workloads.phi:"
_HT = "repro.workloads.hashtable:"
_HATS = "repro.workloads.hats:"

#: Reduced PHI instance for the invoke-buffer sweep (5 full runs).
_PHI_SWEEP_PARAMS = dict(n_vertices=2048, n_edges=16384, n_threads=16, seed=7)
#: Reduced HATS instance for the stream-buffer sweep.
_HATS_SWEEP_PARAMS = dict(
    n_vertices=2048, n_edges=24576, n_communities=32, seed=31
)
#: Reduced hash-table instance for the input-size / system-size sweeps.
_HT_SWEEP_PARAMS = dict(nodes_per_bucket=32, n_threads=16, lookups_per_thread=48)

#: Fig. 23 holds the LLC at a mid size so the circular buffer's
#: footprint is not itself a capacity effect (in the paper's 8 MB LLC a
#: <=2 KB buffer is invisible; in the micro-scaled hierarchy it would
#: not be).
_FIG23_LLC_OVERRIDES = {
    "llc.size_kb": 4,
    "llc.ways": 8,
    "llc.tag_latency": 3,
    "llc.data_latency": 5,
    "llc.replacement": "rrip",
}


def plan_fig22(buffer_sizes=(1, 2, 4, 8, 16), params=None):
    """Invoke-buffer sensitivity with PHI (Fig. 22).

    Paper: one or two entries slow Leviathan through queueing
    backpressure; performance plateaus after four.
    """
    sweep_params = params or _PHI_SWEEP_PARAMS
    specs = [
        RunSpec(
            _PHI + "run_leviathan",
            {"params": sweep_params, "invoke_buffer": entries},
            f"fig22/buf{entries}",
        )
        for entries in buffer_sizes
    ]

    def render(results):
        exp = Experiment(
            name="Invoke-buffer sensitivity (PHI)",
            paper_reference="Fig. 22",
            notes="Paper: slow with 1-2 entries, plateau at >= 4.",
        )
        cycles = {}
        for entries, result in zip(buffer_sizes, results):
            cycles[entries] = result.cycles
            exp.add_row(
                invoke_buffer_entries=entries,
                cycles=result.cycles,
                stalls=result.stat("invoke.stalls"),
            )
        for row in exp.rows:
            row["relative_performance"] = cycles[max(buffer_sizes)] / row["cycles"]
        exp.expect(
            "1-entry buffer is slower than 4 entries",
            "greater",
            cycles[1] / cycles[4],
            1.02,
        )
        plateau = max(
            abs(cycles[e] - cycles[max(buffer_sizes)]) / cycles[max(buffer_sizes)]
            for e in buffer_sizes
            if e >= 4
        )
        exp.expect("plateau from 4 entries on (<5% spread)", "less", plateau, 0.05)
        return exp
    return Plan(specs, render)


def plan_fig23(buffer_sizes=(16, 32, 64, 128), params=None):
    """Stream-buffer sensitivity with HATS (Fig. 23).

    Paper: performance plateaus at 64 entries; the buffer lives in
    memory, so its capacity is free.
    """
    specs = []
    for entries in buffer_sizes:
        sweep_params = dict(params or _HATS_SWEEP_PARAMS)
        sweep_params["stream_buffer"] = entries
        specs.append(
            RunSpec(
                _HATS + "run_leviathan",
                {"params": sweep_params, "config_overrides": _FIG23_LLC_OVERRIDES},
                f"fig23/buf{entries}",
            )
        )

    def render(results):
        exp = Experiment(
            name="Stream-buffer sensitivity (HATS)",
            paper_reference="Fig. 23",
            notes="Paper: plateau at 64 entries.",
        )
        cycles = {}
        for entries, result in zip(buffer_sizes, results):
            cycles[entries] = result.cycles
            exp.add_row(
                stream_buffer_entries=entries,
                cycles=result.cycles,
                consume_blocks=result.stat("stream.consume_blocks"),
            )
        for row in exp.rows:
            row["relative_performance"] = cycles[64] / row["cycles"]
        exp.expect(
            "small buffers hurt (consumer stalls on the producer)",
            "greater",
            cycles[min(buffer_sizes)] / cycles[64],
            1.0,
        )
        plateau = max(
            abs(cycles[e] - cycles[64]) / cycles[64] for e in buffer_sizes if e >= 64
        )
        exp.expect("plateau from 64 entries on (<3% spread)", "less", plateau, 0.03)
        exp.expect(
            "consumer stalls shrink as the buffer grows",
            "ordering",
            [exp.rows[i]["consume_blocks"] for i in range(len(exp.rows) - 1, -1, -1)],
        )
        return exp
    return Plan(specs, render)


def plan_fig24(bucket_counts=(16, 32, 64, 128, 256), params=None):
    """Input-size sensitivity with hash-table lookups (Fig. 24).

    The LLC is held at the size chosen for the default (64-bucket)
    table; the table grows through it. Paper: Leviathan performs well
    while the data fits the LLC, then drops as DRAM latency swamps the
    NoC savings.
    """
    reference = dict(params or _HT_SWEEP_PARAMS)
    reference["n_buckets"] = 64
    reference["object_size"] = 64
    fixed_table_bytes = hashtable._padded_table_bytes(
        {**hashtable.DEFAULT_PARAMS, **reference}
    )

    specs = []
    point_params = []
    for n_buckets in bucket_counts:
        p = dict(reference)
        p["n_buckets"] = n_buckets
        point_params.append(p)
        specs.append(
            RunSpec(
                _HT + "run_baseline",
                {"params": p, "table_bytes": fixed_table_bytes},
                f"fig24/{n_buckets}buckets/baseline",
            )
        )
        specs.append(
            RunSpec(
                _HT + "run_leviathan",
                {"params": p, "table_bytes": fixed_table_bytes},
                f"fig24/{n_buckets}buckets/leviathan",
            )
        )

    def render(results):
        exp = Experiment(
            name="Input-size sensitivity (hash table)",
            paper_reference="Fig. 24",
            notes="Paper: speedup holds while the table fits the LLC, drops beyond.",
        )
        speedups = {}
        for i, n_buckets in enumerate(bucket_counts):
            base, lev = results[2 * i], results[2 * i + 1]
            speedup = lev.speedup_over(base)
            speedups[n_buckets] = speedup
            exp.add_row(
                n_buckets=n_buckets,
                table_kb=hashtable._padded_table_bytes(
                    {**hashtable.DEFAULT_PARAMS, **point_params[i]}
                )
                / 1024,
                speedup=speedup,
                lev_dram=lev.stat("dram.accesses"),
            )

        in_cache = [speedups[b] for b in bucket_counts if b <= 64]
        beyond = speedups[max(bucket_counts)]
        exp.expect("speedup while table fits LLC", "greater", min(in_cache), 1.1)
        exp.expect(
            "speedup declines once the table exceeds the LLC",
            "less",
            beyond,
            min(in_cache),
        )
        return exp
    return Plan(specs, render)


def plan_fig25(tile_counts=(4, 8, 16, 32, 64), params=None):
    """System-size sensitivity with hash-table lookups (Fig. 25).

    Paper: Leviathan performs even better with larger systems because
    the NoC savings grow with mesh diameter.
    """
    specs = []
    for n_tiles in tile_counts:
        sweep_params = dict(params or _HT_SWEEP_PARAMS)
        sweep_params.setdefault("n_buckets", 64)
        sweep_params.setdefault("object_size", 64)
        sweep_params["n_threads"] = n_tiles
        specs.append(
            RunSpec(
                _HT + "run_baseline",
                {"params": sweep_params, "n_tiles": n_tiles},
                f"fig25/{n_tiles}tiles/baseline",
            )
        )
        specs.append(
            RunSpec(
                _HT + "run_leviathan",
                {"params": sweep_params, "n_tiles": n_tiles},
                f"fig25/{n_tiles}tiles/leviathan",
            )
        )

    def render(results):
        exp = Experiment(
            name="System-size sensitivity (hash table)",
            paper_reference="Fig. 25",
            notes="Paper: speedup grows with tile count.",
        )
        speedups = {}
        for i, n_tiles in enumerate(tile_counts):
            base, lev = results[2 * i], results[2 * i + 1]
            speedups[n_tiles] = lev.speedup_over(base)
            exp.add_row(
                n_tiles=n_tiles,
                speedup=speedups[n_tiles],
                base_flit_hops=base.stat("noc.flit_hops"),
                lev_flit_hops=lev.stat("noc.flit_hops"),
            )
        exp.expect(
            "speedup grows from the smallest to the largest system",
            "greater",
            speedups[max(tile_counts)] - speedups[min(tile_counts)],
            0.0,
        )
        exp.expect(
            "Leviathan always reduces NoC traffic",
            "less",
            max(
                row["lev_flit_hops"] / row["base_flit_hops"] for row in exp.rows
            ),
            1.0,
        )
        return exp
    return Plan(specs, render)
