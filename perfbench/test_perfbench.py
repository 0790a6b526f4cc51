"""Self-checks of the benchmark itself.

Run from the repository root (not part of the tier-1 suite, whose
``testpaths`` is ``tests/``)::

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
import sweep  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONFIG = json.load(_handle)

PER_LAYER = [metric["name"] for metric in CONFIG["per_layer"]]

#: Small inputs: every layer still runs, in seconds instead of minutes.
TINY = {
    "PHI_PARAMS": {"n_vertices": 512, "n_edges": 1024},
    "COMPONENTS_PARAMS": {"n_vertices": 256, "n_edges": 512, "rounds": 1},
    "HASHTABLE_PARAMS": {"lookups_per_thread": 2},
    "KVSERVE_PARAMS": {"requests_per_client": 8},
    "NEARSTORAGE_PARAMS": {"n_rows": 512},
    "KVPAGING_PARAMS": {"decode_steps": 32},
}


def test_metric_names_are_well_formed():
    names = [m["name"] for m in CONFIG["end_to_end"]] + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.NAMES)


def test_uninstall_restores_every_target():
    specs = workloads.specs_for("offload")
    originals = {}
    for module_name, owner_name, attr, _kind, _name in tracer.TARGETS:
        owner = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        originals[(module_name, owner_name, attr)] = (owner, owner.__dict__.get(attr))
    traced = tracer.Tracer().install(specs)
    assert traced.leftovers()
    traced.uninstall()
    assert traced.leftovers() == []
    for (_module, _owner, attr), (owner, original) in originals.items():
        assert owner.__dict__.get(attr) is original


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_sweep_emits_every_layer_metric(name, tmp_path, monkeypatch):
    for attr, params in TINY.items():
        monkeypatch.setattr(workloads, attr, params)
    plain = sweep.run_sweep(name, 5, 0.0, str(tmp_path), trace=False)
    report = sweep.run_sweep(name, 5, 0.0, str(tmp_path), trace=True)
    traced = report.pop("trace")
    assert report["leftovers"] == []
    spans = str(tmp_path / "spans.npz")
    traced.dump(spans)
    layers = tracer.layer_metrics(spans, traced.counts, report)
    assert set(layers["metrics"]) | {"trace.overhead_ratio"} == set(PER_LAYER)
    assert set(run.end_to_end(plain)) == {m["name"] for m in CONFIG["end_to_end"]}
    assert layers["metrics"]["experiments.pool.cache_hit_ratio"] == 0
    assert sum(layers["shares"].values()) == pytest.approx(1.0, abs=1e-6)
    assert [s["digest"] for s in report["specs"]] == [s["digest"] for s in plain["specs"]]
    failed, problems = run.check([plain, report], None)
    assert (failed, problems) == (0, [])


def test_self_time_subtracts_children():
    import numpy as np

    spans = {
        "name": np.array([0, 1, 1, 0]),
        "start": np.array([0.0, 1.0, 4.0, 5.0]),
        "end": np.array([10.0, 3.0, 5.0, 6.0]),
        "parent": np.array([-1, 0, 0, 2]),
    }
    assert list(tracer.self_times(spans)) == [7.0, 2.0, 0.0, 1.0]
    table = tracer.summarize(spans, ["outer", "inner"])
    assert table["outer"] == (2, 8.0, 11.0)
    assert table["inner"] == (2, 2.0, 3.0)


def test_digests_cover_every_spec_of_every_recorded_seed():
    with open(run.DIGESTS) as handle:
        seeds = json.load(handle)["seeds"]
    default = seeds["default"]
    assert set(default) == {"phi", "offload", "serve"}
    for seed, recorded in seeds.items():
        for name in default:
            specs = workloads.specs_for(name, None if seed == "default" else int(seed))
            assert set(recorded[name]) == {spec.label for spec in specs}


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: no src/, so no result is printed."""
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            with open(os.path.join(HERE, name), "rb") as src:
                (tmp_path / "perfbench" / name).write_bytes(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
