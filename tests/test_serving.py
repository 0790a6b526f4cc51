"""The serving zoo: functional oracles, determinism, replay, chaos, docs.

Covers the contract ``docs/workloads.md`` promises for every zoo
workload:

- functional correctness (oracles are checked inside the runs; a wrong
  answer raises) and baseline/leviathan output equality;
- bit-identical reruns, and ``jobs=1`` vs ``jobs=4`` pool parity
  through the content-addressed cache;
- trace replay: JSONL round-trip through a file, validation errors,
  and bit-identical replay of a synthesized trace — including the
  worked example embedded in ``docs/workloads.md``;
- chaos: survivable fault plans change timing, never outputs;
- request-class latency percentiles present and ordered, read off the
  request tracker's attribution rollup (the one source of per-class
  latency) by run stats and sweep dashboards alike;
- every zoo module carries a module docstring (the public-API
  documentation pass is enforced, not aspirational).
"""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

from repro.experiments import serving as serving_experiments
from repro.experiments.pool import ExperimentPool, RunSpec, canonical_json, encode_result
from repro.sim.events import CacheAccess, DramAccess, FlitHop, InvokeDispatched
from repro.sim.faults import FaultSession
from repro.sim.telemetry.requests import PERCENTILE_FIELDS, RequestTracker
from repro.sim.telemetry.session import TelemetrySession, active_session
from repro.workloads.serving import kvpaging, kvserve, nearstorage, tracereplay

DOCS = Path(__file__).resolve().parent.parent / "docs" / "workloads.md"

#: Small-but-representative params: every request kind and request
#: class still occurs, runs stay sub-second.
KV_SMALL = dict(
    n_clients=2,
    requests_per_client=8,
    n_keys=64,
    mean_gap=30,
    scan_len=4,
    stream_buffer=16,
    seed=5,
)
PAGING_SMALL = dict(
    n_pages=64,
    resident_pages=16,
    n_workers=2,
    decode_steps=24,
    steps_per_invoke=8,
    reuse_distance=32,
    seed=3,
)
STORAGE_SMALL = dict(n_rows=256, n_scanners=2, seed=7)


def _encoded(result):
    return canonical_json(encode_result(result))


# ----------------------------------------------------------------------
# functional correctness + variant equality
# ----------------------------------------------------------------------
class TestFunctional:
    def test_kvserve_variants_agree(self):
        base = kvserve.run_baseline(KV_SMALL, n_tiles=4)
        lev = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        assert base.output == lev.output
        assert base.cycles > 0 and lev.cycles > 0

    def test_kvpaging_variants_agree(self):
        base = kvpaging.run_baseline(PAGING_SMALL, n_tiles=4)
        lev = kvpaging.run_leviathan(PAGING_SMALL, n_tiles=4)
        assert base.output == lev.output
        assert base.output == kvpaging.expected_output(kvpaging._params(PAGING_SMALL))

    def test_nearstorage_variants_agree(self):
        base = nearstorage.run_baseline(STORAGE_SMALL, n_tiles=4)
        lev = nearstorage.run_leviathan(STORAGE_SMALL, n_tiles=4)
        assert base.output == lev.output
        assert lev.cycles < base.cycles  # pushdown wins even scaled down

    def test_kvserve_percentiles_present_and_ordered(self):
        lev = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        for cls in ("get", "put", "scan"):
            count = lev.stat(f"request.{cls}.count")
            assert count > 0, cls
            p50 = lev.stat(f"request.{cls}.p50")
            p95 = lev.stat(f"request.{cls}.p95")
            p99 = lev.stat(f"request.{cls}.p99")
            assert 0 < p50 <= p95 <= p99, cls

    def test_baseline_carries_no_request_stats(self):
        base = kvserve.run_baseline(KV_SMALL, n_tiles=4)
        assert not any(k.startswith("request.") for k in base.stats)


# ----------------------------------------------------------------------
# the request tracker: one source for per-class latency
# ----------------------------------------------------------------------
@pytest.fixture
def trackers(monkeypatch):
    """Every RequestTracker a zoo workload attaches during the test."""
    made = []

    class Recording(RequestTracker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    for module in (kvserve, kvpaging, nearstorage):
        monkeypatch.setattr(module, "RequestTracker", Recording)
    return made


def _request_keys(result):
    return {k for k in result.stats if k.startswith(("request.", "attribution."))}


class TestRequestTracker:
    def test_request_stats_equal_rollup_latency(self, trackers):
        lev = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        (tracker,) = trackers
        snapshot = tracker.attribution.snapshot()
        for cls in ("get", "put", "scan"):
            latency = snapshot[cls]["latency"]
            assert latency["count"] > 0, cls
            for field in PERCENTILE_FIELDS:
                assert lev.stats[f"request.{cls}.{field}"] == float(latency[field])

    def test_declared_class_without_requests_reports_zeros(self):
        lev = kvserve.run_leviathan(dict(KV_SMALL, put_frac=0.0), n_tiles=4)
        for field in PERCENTILE_FIELDS:
            assert lev.stats[f"request.put.{field}"] == 0.0
        assert lev.stats["attribution.put.count"] == 0.0
        assert lev.stats["attribution.put.cycles"] == 0.0
        assert lev.stats["attribution.put.coverage"] == 1.0
        assert lev.stats["attribution.put.nack_retry.p99"] == 0.0
        assert lev.stats["request.get.count"] > 0
        busy = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        assert busy.stats["request.put.count"] > 0
        assert _request_keys(lev) == _request_keys(busy)

    def test_heartbeat_p95_matches_run_stats(self):
        from repro.experiments.monitor import _live_request_p95

        with TelemetrySession() as session:
            lev = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
            live = _live_request_p95(session.telemetries[-1].machine)
        assert live == {
            cls: lev.stats[f"request.{cls}.p95"] for cls in ("get", "put", "scan")
        }

    @pytest.mark.parametrize(
        "run,params",
        [
            (kvserve.run_leviathan, KV_SMALL),
            (kvpaging.run_leviathan, PAGING_SMALL),
            (nearstorage.run_leviathan, STORAGE_SMALL),
        ],
        ids=["kvserve", "kvpaging", "nearstorage"],
    )
    def test_bus_carries_no_metrics_only_subscriptions(self, trackers, run, params):
        assert active_session() is None
        run(params, n_tiles=4)
        (tracker,) = trackers
        events = tracker.machine.events
        for event_type in (CacheAccess, FlitHop, DramAccess):
            assert not events.wants(event_type), event_type.__name__
        assert events.wants(InvokeDispatched)


# ----------------------------------------------------------------------
# determinism: reruns and pool-worker parity
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize(
        "run,params,kwargs",
        [
            (kvserve.run_leviathan, KV_SMALL, {"n_tiles": 4}),
            (kvpaging.run_leviathan, PAGING_SMALL, {"n_tiles": 4}),
            (nearstorage.run_leviathan, STORAGE_SMALL, {"n_tiles": 4}),
        ],
        ids=["kvserve", "kvpaging", "nearstorage"],
    )
    def test_reruns_bit_identical(self, run, params, kwargs):
        assert _encoded(run(params, **kwargs)) == _encoded(run(params, **kwargs))

    def test_jobs1_vs_jobs4_bit_identical(self, tmp_path):
        specs = [
            RunSpec(
                "repro.workloads.serving.kvserve:run_leviathan",
                {"params": KV_SMALL, "n_tiles": 4},
                "zoo/kv",
            ),
            RunSpec(
                "repro.workloads.serving.kvpaging:run_leviathan",
                {"params": PAGING_SMALL, "n_tiles": 4},
                "zoo/paging",
            ),
            RunSpec(
                "repro.workloads.serving.nearstorage:run_leviathan",
                {"params": STORAGE_SMALL, "n_tiles": 4},
                "zoo/scan",
            ),
            RunSpec(
                "repro.workloads.serving.tracereplay:run_replay",
                {
                    "trace": tracereplay.synthesize_trace(KV_SMALL),
                    "params": KV_SMALL,
                    "n_tiles": 4,
                },
                "zoo/replay",
            ),
        ]
        inline = ExperimentPool(jobs=1, cache_dir=str(tmp_path / "c1"))
        parallel = ExperimentPool(jobs=4, cache_dir=str(tmp_path / "c4"))
        one = [_encoded(r) for r in inline.run_results(specs)]
        four = [_encoded(r) for r in parallel.run_results(specs)]
        assert one == four


# ----------------------------------------------------------------------
# trace replay
# ----------------------------------------------------------------------
class TestTraceReplay:
    def test_synthesized_trace_replays_bit_identically(self):
        direct = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        trace = tracereplay.synthesize_trace(KV_SMALL)
        replay = tracereplay.run_replay(trace=trace, params=KV_SMALL, n_tiles=4)
        assert replay.cycles == direct.cycles
        assert replay.output == direct.output
        assert {k: v for k, v in replay.stats.items() if k.startswith("request.")} == {
            k: v for k, v in direct.stats.items() if k.startswith("request.")
        }

    def test_file_round_trip(self, tmp_path):
        trace = tracereplay.synthesize_trace(KV_SMALL)
        path = tracereplay.write_trace(trace, str(tmp_path / "trace.jsonl"))
        assert tracereplay.load_trace(path) == trace
        from_file = tracereplay.run_replay(trace_path=path, params=KV_SMALL, n_tiles=4)
        inline = tracereplay.run_replay(trace=trace, params=KV_SMALL, n_tiles=4)
        assert _encoded(from_file) == _encoded(inline)

    def test_trace_arrival_times_strictly_increase_per_client(self):
        trace = tracereplay.synthesize_trace(KV_SMALL)
        last = {}
        for record in trace:
            client = record["client"]
            assert record["t"] > last.get(client, -1)
            last[client] = record["t"]

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"t": 1, "client": 0, "op": "get"}',  # missing key
            '{"t": -1, "client": 0, "op": "get", "key": 2}',  # negative t
            '{"t": 1, "client": true, "op": "get", "key": 2}',  # bool client
            '{"t": 1, "client": 0, "op": "delete", "key": 2}',  # unknown op
            '{"t": 1.5, "client": 0, "op": "get", "key": 2}',  # float t
            '["t", 1]',  # not an object
        ],
    )
    def test_invalid_lines_rejected_with_location(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1, "client": 0, "op": "get", "key": 2}\n' + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2")):
            tracereplay.load_trace(str(path))

    def test_exactly_one_trace_source_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            tracereplay.run_replay()
        with pytest.raises(ValueError, match="exactly one"):
            tracereplay.run_replay(trace=[], trace_path="x.jsonl")

    def test_gap_client_ids_get_empty_schedules(self):
        trace = [{"t": 10, "client": 2, "op": "get", "key": 1}]
        schedules = tracereplay.schedules_from_trace(trace)
        assert len(schedules) == 3
        assert schedules[0] == [] and schedules[1] == []
        assert schedules[2][0]["key"] == 1

    def test_docs_worked_example_replays(self):
        """The ```jsonl block in docs/workloads.md is executable truth."""
        text = DOCS.read_text()
        match = re.search(r"```jsonl\n(.*?)```", text, re.DOTALL)
        assert match, "docs/workloads.md lost its ```jsonl worked example"
        records = [json.loads(line) for line in match.group(1).strip().splitlines()]
        validated = [tracereplay._validate(r, f"docs[{i}]") for i, r in enumerate(records)]
        assert validated == records
        result = tracereplay.run_replay(
            trace=records, params={"n_keys": 64, "scan_len": 4}, n_tiles=4
        )
        assert result.functional and result.cycles > 0
        assert result.stat("request.get.count") == 3
        assert result.stat("request.put.count") == 1
        assert result.stat("request.scan.count") == 8  # 2 scans x scan_len 4


# ----------------------------------------------------------------------
# chaos: survivable fault plans never change outputs
# ----------------------------------------------------------------------
class TestChaos:
    PLANS = [
        "noc-delay:0.3@10; seed:3",
        "stall:1@50+200; seed:5",
        "crash:2; seed:6",
        "noc-delay:0.2@15; dram-err:0-1048576@0.03@80; stall:2@40+150; seed:9",
    ]

    @pytest.mark.parametrize("spec", PLANS)
    def test_kvserve_survives(self, spec):
        clean = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        with FaultSession(spec):
            chaos = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        assert chaos.output == clean.output
        assert chaos.functional

    def test_chaos_replays_deterministically(self):
        spec = self.PLANS[-1]
        with FaultSession(spec):
            first = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        with FaultSession(spec):
            second = kvserve.run_leviathan(KV_SMALL, n_tiles=4)
        assert _encoded(first) == _encoded(second)

    def test_kvpaging_survives_noc_delay(self):
        clean = kvpaging.run_leviathan(PAGING_SMALL, n_tiles=4)
        with FaultSession("noc-delay:0.2@12; seed:11"):
            chaos = kvpaging.run_leviathan(PAGING_SMALL, n_tiles=4)
        assert chaos.output == clean.output


# ----------------------------------------------------------------------
# experiments: registered studies pass their expectations
# ----------------------------------------------------------------------
class TestExperiments:
    @pytest.mark.parametrize(
        "planner",
        [
            serving_experiments.plan_serve_kv,
            serving_experiments.plan_serve_paging,
            serving_experiments.plan_serve_scan,
            serving_experiments.plan_serve_replay,
        ],
        ids=["serve-kv", "serve-paging", "serve-scan", "serve-replay"],
    )
    def test_experiment_passes(self, planner, tmp_path):
        pool = ExperimentPool(jobs=1, cache_dir=str(tmp_path / "cache"))
        exp = planner().run(pool)
        exp.check()  # raises listing any failed expectation

    def test_serve_kv_dashboard_requests_match_run_stats(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        pool = ExperimentPool(
            jobs=1, cache_dir=str(tmp_path / "cache"), telemetry_dir=str(telemetry)
        )
        results = pool.run_results(serving_experiments._kv_specs(KV_SMALL))
        pool.write_dashboard()
        requests = json.loads((telemetry / "dashboard.json").read_text())["requests"]
        assert sorted(requests) == ["get", "put", "scan"]
        for cls, hist in requests.items():
            runs_total = sum(r.stats.get(f"request.{cls}.count", 0.0) for r in results)
            assert runs_total > 0, cls
            assert hist["count"] == runs_total, cls

    def test_registered_in_cli(self):
        from repro.experiments.cli import _EXPERIMENTS

        for name in ("serve-kv", "serve-paging", "serve-scan", "serve-replay"):
            assert name in _EXPERIMENTS


# ----------------------------------------------------------------------
# documentation is enforced
# ----------------------------------------------------------------------
class TestDocs:
    def test_every_zoo_module_has_a_docstring(self):
        import repro.workloads.serving as pkg

        modules = ["repro.workloads.serving", "repro.sim.telemetry.requests",
                   "repro.workloads.distributions", "repro.experiments.serving"]
        modules += [
            f"repro.workloads.serving.{m.name}"
            for m in pkgutil.iter_modules(pkg.__path__)
        ]
        for name in modules:
            doc = importlib.import_module(name).__doc__
            assert doc and len(doc.strip()) > 80, f"{name} lacks a real docstring"

    def test_zoo_public_functions_documented(self):
        for module, names in [
            (kvserve, ["run_baseline", "run_leviathan", "build_schedule"]),
            (kvpaging, ["run_baseline", "run_leviathan", "access_sequences"]),
            (nearstorage, ["run_baseline", "run_leviathan", "make_table"]),
            (tracereplay, ["run_replay", "load_trace", "write_trace", "synthesize_trace"]),
        ]:
            for name in names:
                assert getattr(module, name).__doc__, f"{module.__name__}.{name}"

    def test_cookbook_exists_and_catalogs_the_zoo(self):
        text = DOCS.read_text()
        for anchor in ("kvserve", "kvpaging", "nearstorage", "tracereplay",
                       "DEFAULT_PARAMS", "serve-kv", "p50/p95/p99"):
            assert anchor in text, anchor
