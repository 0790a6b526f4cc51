"""The repository benchmark: cold figure sweeps, host-time metrics, traced layers.

Usage, from the repository root::

    python3 perfbench/run.py --workload phi --seed 3 --seconds 30 --trace 0

``--trace 0`` repeats one workload's cold sweep, each in a fresh process
(``perfbench/sweep.py``: ``jobs=2``, an empty result cache), until
``--seconds`` have passed, and reports the median of each end-to-end
metric. ``--trace 1`` runs the same specs in one process (``jobs=1``),
once untraced and then traced, and reports the per-layer metrics plus
the tracing overhead. Either way every spec's outputs are checked: it must
not error, its ``functional`` flag must be true, its result digest must
repeat across repetitions and equal the recorded digest
(``perfbench/digests.json``) where one is recorded for the seed, and the
``telemetry`` workload's digests must equal ``offload``'s fig18 digests.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs the paths above)

#: Runtime outputs (result caches, telemetry, span dumps) live here.
WORK_ROOT = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(HERE, "digests.json")
#: Untraced repetitions per run, at least (medians need several).
MIN_REPS = 3
#: Hard cap on one run's wall time, kept under the 180 s run limit.
RUN_LIMIT_S = 170.0


def load_config():
    """BENCHMARK.json: workloads, metric names and units, and the run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class SweepFailed(RuntimeError):
    """A sweep process exited without a report (crash, import error, timeout)."""


class Runner:
    """Launches sweep processes for one benchmark run and enforces its deadline."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.launched = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("LEVIATHAN_")}

    def sweep(self, trace=False, inline=False, workload=None):
        """Run one sweep in a fresh process and return its report."""
        workload = workload or self.workload
        out = os.path.join(self.work, f"{workload}-{self.launched}.json")
        self.launched += 1
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise SweepFailed("run time limit reached before the sweep started")
        command = [
            sys.executable,
            os.path.join(HERE, "sweep.py"),
            "--workload", workload,
            "--work", self.work,
            "--out", out,
        ]
        if self.seed is not None:
            command += ["--seed", str(self.seed)]
        if trace:
            command.append("--trace")
        if inline:
            command.append("--inline")
        command += ["--launched", repr(time.monotonic())]
        # Own session: a timeout kills the sweep's pool workers too.
        process = subprocess.Popen(
            command, stdout=sys.stderr, env=self.env, cwd=ROOT, start_new_session=True
        )
        try:
            code = process.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            _kill(process)
            raise SweepFailed(f"{workload} sweep exceeded the run time limit") from None
        except BaseException:
            _kill(process)
            raise
        if code != 0:
            raise SweepFailed(f"{workload} sweep exited with status {code}")
        with open(out) as handle:
            return json.load(handle)

    def elapsed(self):
        return time.monotonic() - self.started


def _kill(process):
    """Kill a sweep and its pool workers, and wait for the sweep to end."""
    os.killpg(process.pid, signal.SIGKILL)
    process.wait()


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def recorded_digests(seed):
    """``{workload: {label: digest}}`` recorded for ``seed``, or None."""
    with open(DIGESTS) as handle:
        recorded = json.load(handle)["seeds"]
    return recorded.get("default" if seed is None else str(seed))


def expected_digests(workload, seed, runner):
    """The digest each spec must produce, or None when none is known.

    ``telemetry`` must reproduce ``offload``'s fig18 digests; when they
    are not recorded for ``seed``, an untimed ``offload`` sweep supplies
    them.
    """
    recorded = recorded_digests(seed)
    if workload != "telemetry":
        return None if recorded is None else recorded[workload]
    if recorded is not None:
        offload = recorded["offload"]
    else:
        reference = runner.sweep(workload="offload")
        offload = {spec["label"]: spec.get("digest") for spec in reference["specs"]}
    return {spec.label: offload[spec.label] for spec in workloads.fig18_specs(seed)}


def check(reports, expected):
    """``(failed, problems)`` over every spec of every report.

    A spec fails when it errored, is not functional, or its digest
    differs from the expected one -- the recorded digest, else the
    first repetition's (results are deterministic).
    """
    reference = dict(expected or {})
    failed = 0
    problems = []
    for index, report in enumerate(reports):
        for spec in report["specs"]:
            label = spec["label"]
            if spec["status"] != "ok":
                problem = spec.get("error", "error")
            elif not spec.get("functional", True):
                problem = "not functional"
            elif reference.setdefault(label, spec["digest"]) != spec["digest"]:
                problem = f"digest {spec['digest']} != expected {reference[label]}"
            else:
                continue
            failed += 1
            problems.append(f"rep {index} {label}: {problem}")
    return failed, problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(report):
    """The end-to-end metrics of one untraced sweep."""
    specs = report["specs"]
    instructions = sum(spec.get("instructions", 0) for spec in specs)
    return {
        "wall_s": report["wall_s"],
        "cpu_s": report["cpu_s"],
        "sim_kips": instructions / report["cpu_s"] / 1000.0,
        "slowest_run_s": max(spec["elapsed"] for spec in specs),
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def run_untraced(runner, seconds):
    """Repeat cold sweeps for about ``seconds``; returns their reports."""
    reports = []
    durations = []
    while True:
        began = runner.elapsed()
        reports.append(runner.sweep())
        durations.append(runner.elapsed() - began)
        if len(reports) >= MIN_REPS and runner.elapsed() + statistics.median(durations) > seconds:
            return reports


def run_traced(runner, seconds):
    """One untraced inline sweep, then traced ones while time remains (at least one)."""
    untraced = runner.sweep(inline=True)
    traced = []
    while True:
        began = runner.elapsed()
        traced.append(runner.sweep(trace=True))
        if runner.elapsed() + (runner.elapsed() - began) > seconds:
            return untraced, traced


def layer_metrics(untraced, traced):
    """Per-layer metrics: call counts must repeat exactly; the rest are medians."""
    metrics = {}
    for name in traced[0]["layers"]["metrics"]:
        values = [report["layers"]["metrics"][name] for report in traced]
        if not name.endswith("_calls"):
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            raise SweepFailed(f"{name} differs between traced repetitions: {values}")
    metrics["trace.overhead_ratio"] = (
        statistics.median(report["cpu_s"] for report in traced) / untraced["cpu_s"]
    )
    return metrics


def keep_spans(runner, traced):
    """Move the last traced sweep's span dump out of the run's scratch dir."""
    target = os.path.join(WORK_ROOT, f"spans-{runner.workload}.npz")
    os.replace(traced[-1]["spans_file"], target)
    return target


def _print_digests(report):
    for spec in report["specs"]:
        print(f"  digest {spec['label']:28s} {spec.get('digest', '-')}")


def main(argv=None):
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in config["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through the cleanup below, which stops the running sweep.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    units = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    runner = Runner(args.workload, args.seed, work)
    try:
        if args.trace:
            untraced, traced = run_traced(runner, args.seconds)
            reports = [untraced] + traced
        else:
            reports = run_untraced(runner, args.seconds)
        expected = expected_digests(args.workload, args.seed, runner)
        failed, problems = check(reports, expected)
        if args.trace:
            metrics = layer_metrics(untraced, traced)
            leftovers = [name for report in traced for name in report["leftovers"]]
            problems += [f"wrapper left installed: {name}" for name in leftovers]
            if metrics["experiments.pool.cache_hit_ratio"] != 0:
                problems.append("a cold sweep was served from the result cache")
            spans = keep_spans(runner, traced)
        else:
            samples = [end_to_end(report) for report in reports]
            metrics = {
                name: statistics.median(sample[name] for sample in samples) for name in units
            }
    except SweepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(report["specs"]) for report in reports)
    why = {w["name"]: w["why"] for w in config["workloads"]}[args.workload]
    print(f"workload {args.workload}: {why}")
    print(f"seed {args.seed if args.seed is not None else 'default'}; "
          f"{len(reports)} sweep(s), {attempted} spec runs, {failed} failed"
          + ("" if expected is not None else "; no recorded digests for this seed"))
    for problem in problems:
        print(f"  FAIL {problem}")
    if args.trace:
        layers = traced[-1]["layers"]
        print(f"traced {layers['traced_s']:.2f} s, {layers['spans']} spans (dump: {spans})")
        for layer, share in layers["shares"].items():
            print(f"  {layer:18s} {share * 100:5.1f}% of traced time")
    else:
        print(f"  {'metric':14s} {'unit':12s} {'median':>10s} {'q1':>10s} {'q3':>10s}")
        for name, unit in units.items():
            q1, _median, q3 = statistics.quantiles([sample[name] for sample in samples], n=4)
            print(f"  {name:14s} {unit:12s} {metrics[name]:10.4f} {q1:10.4f} {q3:10.4f}")
        print(f"  {'runs_failed':14s} {'share':12s} {failed / attempted:10.4f}")
    _print_digests(reports[0])
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
