"""Command-line entry point: ``python -m repro.experiments <name>``.

``leviathan-repro list`` shows every registered experiment;
``leviathan-repro all`` regenerates every table and figure.

Each registered experiment is a :class:`~repro.experiments.runner.Plan`
(RunSpecs plus a pure render). An invocation plans the requested
experiments, submits the union of their specs to one
:class:`~repro.experiments.pool.ExperimentPool` call (a spec shared by
two experiments runs once), prints one sweep summary, then renders
each experiment from its own results; an experiment with a failed run
is reported ``CRASHED`` while the others still render. The ``(N.Ns)``
line under a report is the summed host time of its runs (as recorded
when they executed, also for cached ones).

``--jobs N`` fans independent runs out over worker
processes (default: one per CPU), results are content-hash cached
under ``--cache-dir`` (default ``results-cache/``, or
``$LEVIATHAN_CACHE_DIR``), ``--resume`` replays a sweep's completed
manifest entries after an interruption, and ``--no-cache`` forces
re-execution. The pool is *supervised*: ``--run-timeout`` puts a
wall-clock deadline on every run, transient failures (killed, hung,
or timed-out workers) are retried with backoff up to ``--run-retries``
attempts, corrupt cache entries are quarantined and re-executed, and
Ctrl-C drains gracefully (manifest intact; ``--resume`` continues).
``--backend`` selects the executor backend. See
``docs/experiments.md``.

``--telemetry-out DIR`` additionally captures telemetry (Perfetto
trace + metrics snapshot) for every machine each run builds, under
``DIR/runs/<label>-<hash>/machine-NN/``;
``leviathan-repro telemetry DIR`` summarizes a captured directory.
``--faults SPEC`` arms a :class:`~repro.sim.faults.FaultPlan` inside
every run (chaos runs); a run that raises makes the sweep exit
nonzero, with the exception and fault report written into the
telemetry directory when one is given.

``--profile DIR`` runs every pool execution under the
:class:`~repro.perf.profile.ProfileHarness`, dropping ``profile.json``,
``profile.pstats``, and ``stacks.folded`` beside each run's telemetry
artifacts.

Observability (see ``docs/observability.md``): ``--flight-recorder [N]``
arms a bounded event ring in every worker that drains into
``postmortem.json`` when a run dies; ``--log FILE`` appends structured
JSONL lifecycle records; multi-worker sweeps write per-run heartbeat
files that ``leviathan-repro status <cache-dir>`` tails from another
terminal; sweeps with ``--telemetry-out`` finish by aggregating every
run into ``dashboard.md`` / ``dashboard.json``.

``leviathan-repro explain TARGET`` attributes a run's simulated
request latency to taxonomy components (``--diff A B`` attributes the
delta between two runs; ``--out DIR`` chooses where the report lands).
Host-time measurement is the repository benchmark in ``perfbench/``;
see ``docs/performance.md``.
"""

import argparse
import json
import os
import sys
import traceback

from repro.experiments import registry
from repro.experiments import ablations, figures, sensitivity, serving, tables
from repro.experiments.pool import ExperimentPool, SweepInterrupted, decode_outcomes
from repro.experiments.retry import RetryPolicy

_EXPERIMENTS = {
    "table1": (tables.plan_table1, "Table I: NDC taxonomy"),
    "table2": (tables.plan_table2, "Table II: actions per paradigm"),
    "table3": (tables.plan_table3, "Table III: per-paradigm microarchitecture"),
    "table4": (tables.plan_table4, "Table IV: hardware overhead"),
    "table5": (tables.plan_table5, "Table V: system parameters"),
    "fig5": (figures.plan_fig5, "Fig. 5: PHI / commutative scatter-updates"),
    "fig16": (figures.plan_fig16, "Fig. 16: near-cache decompression"),
    "fig18": (figures.plan_fig18, "Fig. 18: hash-table lookups"),
    "fig20": (figures.plan_fig20, "Fig. 20: HATS decoupled traversal"),
    "fig21": (figures.plan_fig21, "Fig. 21: HATS breakdown"),
    "fig22": (sensitivity.plan_fig22, "Fig. 22: invoke-buffer sensitivity"),
    "fig23": (sensitivity.plan_fig23, "Fig. 23: stream-buffer sensitivity"),
    "fig24": (sensitivity.plan_fig24, "Fig. 24: input-size sensitivity"),
    "fig25": (sensitivity.plan_fig25, "Fig. 25: system-size sensitivity"),
    "ablation-mc-cache": (ablations.plan_mc_cache, "MC FIFO-cache ablation"),
    "ablation-migration": (ablations.plan_migration, "DYNAMIC migration ablation"),
    "ablation-compaction": (ablations.plan_compaction, "DRAM compaction ablation"),
    "ablation-near-memory": (
        ablations.plan_near_memory,
        "near-memory engines extension (Sec. IX future work)",
    ),
    "ablation-components": (
        ablations.plan_components,
        "PHI generality: connected components with min-combining",
    ),
    "serve-kv": (serving.plan_serve_kv, "serving zoo: KV request serving"),
    "serve-paging": (serving.plan_serve_paging, "serving zoo: LLM KV-cache paging"),
    "serve-scan": (serving.plan_serve_scan, "serving zoo: near-storage scan pushdown"),
    "serve-replay": (serving.plan_serve_replay, "serving zoo: JSONL trace replay"),
}

for _name, (_planner, _desc) in _EXPERIMENTS.items():
    registry.register(_name, _planner, _desc)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="leviathan-repro",
        description="Regenerate the tables and figures of the Leviathan paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="list",
        help="experiment name, 'all', 'list' (default), 'telemetry', "
        "'status', or 'explain'",
    )
    parser.add_argument(
        "target",
        nargs="?",
        help="for 'telemetry': the --telemetry-out directory to summarize; "
        "for 'status': the cache dir of the sweep to watch "
        "(default: --cache-dir); for 'explain': a telemetry run "
        "directory or a cached-result .json entry",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="print results without asserting the paper-shape expectations",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        help="also write the reports as a markdown document",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation runs (default: CPU count); "
        "results are identical for any N",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("LEVIATHAN_CACHE_DIR", "results-cache"),
        metavar="DIR",
        help="content-addressed result cache (default: results-cache/, "
        "or $LEVIATHAN_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore cached results and re-execute every run",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip runs already recorded ok in the cache manifest "
        "(continue an interrupted sweep)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="executor backend: 'auto' (default: inline for one worker, "
        "per-job processes otherwise), 'local-inline', or 'local-process'",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per run; an over-deadline worker is "
        "killed and the run retried as a transient failure",
    )
    parser.add_argument(
        "--run-retries",
        type=int,
        default=None,
        metavar="N",
        help="max attempts per run for transient failures (worker "
        "killed, timeout, hang); 1 disables retry (default: 3)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="DIR",
        help="capture telemetry (Perfetto trace + metrics) per simulation "
        "run under DIR/runs/<label>-<hash>/machine-NN/",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="arm a fault plan on every machine, e.g. "
        "'crash:1@2000; noc-delay:0.01@20; seed:7' "
        "(see repro.sim.faults for the grammar)",
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        help="profile every pool run (cProfile + collapsed stacks), "
        "writing profile.json / profile.pstats / stacks.folded per run "
        "under DIR (or beside --telemetry-out artifacts)",
    )
    parser.add_argument(
        "--flight-recorder",
        nargs="?",
        const=256,
        default=None,
        type=int,
        metavar="N",
        help="keep the last N events (default 256) of every run in a ring "
        "buffer; a failed run drains it into postmortem.json",
    )
    parser.add_argument(
        "--log",
        metavar="FILE",
        help="append structured JSONL run logs (run.start/run.end/faults/"
        "watchdog records, correlated by run id and spec hash) to FILE",
    )
    explain_group = parser.add_argument_group(
        "explain (latency attribution)"
    )
    explain_group.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="attribute the latency delta between two runs (telemetry "
        "run dirs or cached-result .json entries) to taxonomy "
        "components, instead of explaining a single run",
    )
    explain_group.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write explain.{json,md} (explain-diff.{json,md} with --diff) "
        "into DIR (default: a run-dir target itself; nothing for --diff "
        "or a cache entry)",
    )
    args = parser.parse_args(argv)

    if args.run_retries is not None and args.run_retries < 1:
        parser.error(
            f"--run-retries must be >= 1 (1 disables retry), "
            f"got {args.run_retries}"
        )
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.flight_recorder is not None and args.flight_recorder < 1:
        parser.error(f"--flight-recorder must be >= 1, got {args.flight_recorder}")
    if args.run_timeout is not None and not args.run_timeout > 0:
        parser.error(f"--run-timeout must be > 0 seconds, got {args.run_timeout}")
    if args.faults:
        # Validate the fault spec up front (each pool worker re-parses
        # it per run); a bad spec is a usage error, not a chaos crash.
        from repro.sim.faults import FaultPlan, FaultPlanError

        try:
            FaultPlan.parse(args.faults)
        except FaultPlanError as exc:
            print(f"--faults: {exc}", file=sys.stderr)
            return 2

    if args.experiment == "list":
        for name in registry.names():
            print(f"{name:22s} {registry.describe()[name]}")
        return 0

    if args.experiment == "telemetry":
        from repro.experiments.telemetry_report import report

        if not args.target:
            print("usage: leviathan-repro telemetry DIR", file=sys.stderr)
            return 2
        text, ok = report(args.target)
        print(text)
        return 0 if ok else 1

    if args.experiment == "status":
        from repro.experiments.monitor import render_status

        text, ok = render_status(args.target or args.cache_dir)
        print(text)
        return 0 if ok else 1

    if args.experiment == "explain":
        from repro.experiments.explain import explain, explain_diff

        # Reports land beside the data: a run-dir target gets
        # explain.{json,md} inside it; --out overrides, which is how CI
        # collects them as artifacts.
        try:
            if args.diff:
                text, _ = explain_diff(
                    args.diff[0], args.diff[1], out_dir=args.out
                )
            elif args.target:
                out_dir = args.out or (
                    args.target if os.path.isdir(args.target) else None
                )
                text, _ = explain(args.target, out_dir=out_dir)
            else:
                print(
                    "usage: leviathan-repro explain RUN_DIR_OR_CACHE_ENTRY"
                    " | explain --diff A B",
                    file=sys.stderr,
                )
                return 2
        except (FileNotFoundError, ValueError) as exc:
            print(f"explain: {exc}", file=sys.stderr)
            return 2
        print(text)
        return 0

    if args.experiment != "all" and args.experiment not in registry.names():
        print(
            f"unknown experiment {args.experiment!r}; "
            "run 'leviathan-repro list'",
            file=sys.stderr,
        )
        return 2

    from repro.experiments.plotting import speedup_chart

    retry = (
        RetryPolicy(max_attempts=args.run_retries)
        if args.run_retries is not None
        else None
    )
    pool = ExperimentPool(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        resume=args.resume,
        telemetry_dir=args.telemetry_out,
        profile_dir=args.profile,
        faults=args.faults,
        flightrec=args.flight_recorder,
        log_path=args.log,
        backend=args.backend,
        retry=retry,
        run_timeout=args.run_timeout,
    )

    # Plan every experiment, execute the union of their specs as one
    # submission (the pool runs each distinct spec once), then render
    # each experiment from its own slice of the outcomes.
    names = registry.names() if args.experiment == "all" else [args.experiment]
    plans = {name: registry.plan(name) for name in names}
    try:
        outcomes = pool.run([spec for plan in plans.values() for spec in plan.specs])
    except SweepInterrupted as exc:
        # Graceful drain already happened (manifest flushed and
        # fsynced); exit nonzero with the resume hint.
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        return 130
    report = pool.consume_report()
    executed = report.get("executed", 0)
    cached = report.get("cached", 0)
    if args.telemetry_out:
        print(
            f"telemetry: {report.get('telemetry_machines', 0)} machine(s) -> "
            f"{os.path.join(args.telemetry_out, 'runs')}"
        )
    if args.faults:
        print(
            f"faults: {report.get('faults_injected', 0)} injected over "
            f"{executed} run(s)"
        )
    if args.profile:
        print(
            f"profiles: {report.get('profiled', 0)} run(s) -> "
            f"{os.path.join(args.telemetry_out or args.profile, 'runs')}"
        )
    if executed or cached:
        line = f"pool: {executed} executed, {cached} cached ({pool.jobs} job(s))"
        retried = report.get("retried", 0)
        quarantined = report.get("quarantined", 0)
        if retried:
            line += f", {retried} retried"
        if quarantined:
            line += f", {quarantined} cache entr(ies) quarantined"
        print(line)

    failed = []
    crashed = []
    markdown_sections = []
    cursor = 0
    for name, plan in plans.items():
        mine = outcomes[cursor : cursor + len(plan.specs)]
        cursor += len(plan.specs)
        # The experiment's own host time: the summed run time of its specs.
        elapsed = sum(outcome.get("elapsed", 0.0) for outcome in mine)
        try:
            experiment = plan.render(decode_outcomes(mine))
        except Exception as exc:  # a run crashed (chaos runs do this)
            crashed.append(name)
            error_text = traceback.format_exc()
            print(f"ERROR: {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            print(error_text, file=sys.stderr)
            if args.telemetry_out:
                outdir = os.path.join(args.telemetry_out, name)
                os.makedirs(outdir, exist_ok=True)
                with open(os.path.join(outdir, "error.json"), "w") as handle:
                    json.dump(
                        {
                            "experiment": name,
                            "error": type(exc).__name__,
                            "message": str(exc),
                            "traceback": error_text,
                        },
                        handle,
                        indent=2,
                    )
                    handle.write("\n")
            continue

        print(experiment.report())
        if any("speedup" in row for row in experiment.rows):
            print()
            print(speedup_chart(experiment))
        print(f"({elapsed:.1f}s)\n")
        if args.markdown:
            markdown_sections.append(
                f"{experiment.markdown()}\n\n"
                f"_Regenerate with `leviathan-repro {name}` ({elapsed:.1f}s)._\n"
            )
        if not args.no_check and not experiment.passed:
            failed.append(name)
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write("# Reproduced tables and figures\n\n")
            handle.write("\n".join(markdown_sections))
        print(f"wrote {args.markdown}")
    if args.telemetry_out:
        summary = pool.write_dashboard()
        if summary is not None:
            print(
                f"dashboard: {summary['runs']} run(s) aggregated -> "
                f"{os.path.join(args.telemetry_out, 'dashboard.md')}"
            )
    if crashed:
        print(f"CRASHED: {', '.join(crashed)}", file=sys.stderr)
        return 1
    if failed:
        print(f"FAILED shape checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
