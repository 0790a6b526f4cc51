"""One cold sweep of one workload, in a fresh process; writes a JSON report.

Run by ``perfbench/run.py``, once per repetition::

    python3 perfbench/sweep.py --workload phi --seed 3 --launched <monotonic> \\
        --work .bench_work/phi --out .bench_work/phi/rep0.json [--inline | --trace]

By default the sweep runs as a user regenerates figures: ``jobs=2``
worker processes and a fresh, empty result-cache directory. With
``--inline`` the same specs run in this process (``jobs=1``, inline
backend); ``--trace`` does that under the :class:`~tracer.Tracer`
wrappers and adds the per-layer numbers to the report. The untraced
inline sweep is the reference for the tracing overhead.

``--launched`` is ``time.monotonic()`` read by the launching process
just before it started this one, so ``setup_s`` covers interpreter
start, ``import repro`` and building the pool, up to the moment the
first spec is handed to ``ExperimentPool.run``.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

#: Worker processes of the untraced sweep (the benchmark host has 2 CPUs).
JOBS = 2


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _spec_report(spec, outcome, checksum):
    entry = {
        "label": spec.label,
        "status": outcome["status"],
        "elapsed": outcome.get("elapsed", 0.0),
    }
    if outcome["status"] == "ok":
        result = outcome["result"]
        stats = result.get("stats") or {}
        entry["digest"] = checksum(result)
        entry["functional"] = result.get("functional", True)
        entry["instructions"] = stats.get("core.instructions", 0) + stats.get(
            "engine.instructions", 0
        )
        entry["stats"] = stats
    else:
        entry["error"] = f"{outcome['error']['type']}: {outcome['error']['message']}"
    return entry


def _dir_bytes(root):
    total = 0
    for folder, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def run_sweep(workload, seed, launched, work, trace, inline=False):
    from repro.experiments.pool import ExperimentPool, compute_result_checksum

    import workloads

    specs = workloads.specs_for(workload, seed)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
    telemetry_dir = None
    if workload in workloads.TELEMETRY_WORKLOADS:
        telemetry_dir = tempfile.mkdtemp(prefix="telemetry-", dir=work)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install(specs)
    if trace or inline:
        pool = ExperimentPool(
            jobs=1, cache_dir=cache_dir, telemetry_dir=telemetry_dir, backend="local-inline"
        )
    else:
        pool = ExperimentPool(jobs=JOBS, cache_dir=cache_dir, telemetry_dir=telemetry_dir)
    setup_s = time.monotonic() - launched
    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    try:
        outcomes = pool.run(specs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = time.perf_counter() - t0
    cpu1, peak_rss_mb = _rusage()
    # The checksum is taken after the timed interval: it is the
    # benchmark's check, not part of the user's sweep.
    report = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "specs": [
            _spec_report(spec, outcome, compute_result_checksum)
            for spec, outcome in zip(specs, outcomes)
        ],
        "pool": pool.consume_report(),
    }
    if telemetry_dir is not None:
        report["telemetry_bytes"] = _dir_bytes(telemetry_dir)
    if tracer is not None:
        report["leftovers"] = tracer.leftovers()
        report["trace"] = tracer
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--inline", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    report = run_sweep(
        args.workload, args.seed, args.launched, args.work, args.trace, args.inline
    )
    tracer = report.pop("trace", None)
    if tracer is not None:
        from tracer import layer_metrics

        spans_path = os.path.splitext(args.out)[0] + "-spans.npz"
        tracer.dump(spans_path)
        report["spans_file"] = spans_path
        report["layers"] = layer_metrics(spans_path, tracer.counts, report)
    with open(args.out, "w") as handle:
        json.dump(report, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
