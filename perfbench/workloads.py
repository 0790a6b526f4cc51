"""The benchmark's four workloads: fixed RunSpec sweeps, as a user runs them.

Each workload is a list of :class:`~repro.experiments.pool.RunSpec`
entries handed to one ``ExperimentPool.run`` call -- one closed-loop
client that submits a sweep and waits for it. Every spec builds its own
machine, so the modelled caches start empty in every spec, as in the
paper's figures.

Sizes are the figure defaults scaled along the *work* axis only (edges,
rounds, lookups, requests, rows, decode steps) so that one cold sweep
takes a few seconds at ``jobs=2``. Footprints that set the cache regime
(vertex arrays ~2x the LLC for PHI, an LLC-resident hash table, a fact
table 8x the LLC) are kept, so each workload still stresses the layers
it was chosen for. The serving zoo is scaled *up* about 5x from its
defaults, where a spec runs only 0.03-0.3 s.

The spec list is written out here rather than taken from
``repro.experiments.figures`` so that the benchmark's inputs do not
change when a figure module does.
"""

from repro.experiments.pool import RunSpec

_PHI = "repro.workloads.phi:"
_CC = "repro.workloads.components:"
_HT = "repro.workloads.hashtable:"
_KV = "repro.workloads.serving.kvserve:"
_SCAN = "repro.workloads.serving.nearstorage:"
_PAGE = "repro.workloads.serving.kvpaging:"

#: Work-axis scaling of each study's default parameters.
PHI_PARAMS = {"n_edges": 3072}
COMPONENTS_PARAMS = {"n_edges": 3072, "rounds": 2}
HASHTABLE_PARAMS = {"lookups_per_thread": 8}
KVSERVE_PARAMS = {"requests_per_client": 240}
NEARSTORAGE_PARAMS = {"n_rows": 10240}
KVPAGING_PARAMS = {"decode_steps": 480}

#: Workloads whose pool captures telemetry (what ``--telemetry-out`` does).
TELEMETRY_WORKLOADS = frozenset({"telemetry"})


def _with(base, seed, **extra):
    params = dict(base)
    params.update(extra)
    if seed is not None:
        params["seed"] = seed
    return params


def _phi(seed):
    p = _with(PHI_PARAMS, seed)
    return [
        RunSpec(_PHI + "run_baseline", {"params": p}, "fig5/baseline"),
        RunSpec(_PHI + "run_tako", {"params": p, "relaxed": False}, "fig5/tako_fence"),
        RunSpec(_PHI + "run_tako", {"params": p, "relaxed": True}, "fig5/tako_relax"),
        RunSpec(_PHI + "run_leviathan", {"params": p}, "fig5/leviathan"),
        RunSpec(_PHI + "run_leviathan", {"params": p, "ideal": True}, "fig5/ideal"),
    ]


def fig18_specs(seed):
    """The fig18 size grid (8 specs) shared by ``offload`` and ``telemetry``."""
    specs = []
    for size in (24, 64, 128):
        p = _with(HASHTABLE_PARAMS, seed, object_size=size)
        specs.append(RunSpec(_HT + "run_baseline", {"params": p}, f"fig18/{size}B/baseline"))
        specs.append(RunSpec(_HT + "run_leviathan", {"params": p}, f"fig18/{size}B/leviathan"))
        if size == 24:
            specs.append(
                RunSpec(_HT + "run_no_padding", {"params": p}, f"fig18/{size}B/no_padding")
            )
        if size == 128:
            specs.append(
                RunSpec(
                    _HT + "run_no_llc_mapping", {"params": p}, f"fig18/{size}B/no_llc_mapping"
                )
            )
    return specs


def _offload(seed):
    p = _with(COMPONENTS_PARAMS, seed)
    return [
        RunSpec(_CC + "run_baseline", {"params": p}, "components/baseline"),
        RunSpec(_CC + "run_leviathan", {"params": p}, "components/leviathan"),
    ] + fig18_specs(seed)


def _serve(seed):
    specs = []
    for prefix, study, base in (
        (_KV, "serve-kv", KVSERVE_PARAMS),
        (_SCAN, "serve-scan", NEARSTORAGE_PARAMS),
        (_PAGE, "serve-paging", KVPAGING_PARAMS),
    ):
        p = _with(base, seed)
        specs.append(RunSpec(prefix + "run_baseline", {"params": p}, f"{study}/baseline"))
        specs.append(RunSpec(prefix + "run_leviathan", {"params": p}, f"{study}/leviathan"))
    return specs


_SWEEPS = {
    "phi": _phi,
    "offload": _offload,
    "serve": _serve,
    "telemetry": fig18_specs,
}

NAMES = tuple(_SWEEPS)


def specs_for(name, seed=None):
    """The sweep of workload ``name``; ``seed`` goes into every spec's params."""
    return _SWEEPS[name](seed)
