"""Golden telemetry artifacts: what an attached run writes is pinned.

Telemetry is an observer, and its artifacts are what downstream tools
(Perfetto, ``explain``, the sweep dashboard) read. Any change to how
the observer counts or serializes -- bound metric handles, per-route
NoC link accounting, the streamed trace writer -- must leave every
byte of every artifact unchanged. These digests pin that for three
small attached runs: the hash-table offload (invoke, engine, cache,
NoC and DRAM handlers), a near-storage scan (invokes fanned out over
LLC banks) and a KV server whose SCANs stream values back (the stream
push/pop/blocked handlers and stream span metrics).

The fabric-accounting tests check the NoC and LLC counters against the
machine's own statistics and an independent bus listener.
"""

import hashlib
import os

import pytest

from repro.sim.config import small_config
from repro.sim.events import CacheAccess
from repro.sim.ops import Load
from repro.sim.system import Machine
from repro.sim.telemetry.session import Telemetry, TelemetrySession
from repro.workloads import hashtable
from repro.workloads.serving import kvserve, nearstorage

ARTIFACTS = (
    "machine-00/trace.json",
    "machine-00/metrics.json",
    "machine-00/metrics.prom",
    "machine-00/attribution.json",
    "summary.txt",
)

#: Recorded before the observer was made cheaper; never re-record to
#: make a change pass -- a digest mismatch means an artifact moved.
GOLDEN = {
    "hashtable": {
        "machine-00/trace.json": "b067aadbe41e52a12096776d8f8953466836213aff34f05033ae3fd0ed3ac10e",
        "machine-00/metrics.json": "d542555a063a59f1928d4e4897cc67afec6f22594f63e83c19be5a67f971b71e",
        "machine-00/metrics.prom": "483a923b8fef720df28dede3deca04fd412fd92d56ac18359d985f6484e20c4c",
        "machine-00/attribution.json": "cc91fee472ff8ced3f49fffc78b2255b801c63af36548dc7f86d9624663a7221",
        "summary.txt": "48bc4f5f510722dea52c8560ada2b00b94de6af7958f8b61e1b534c6430b4fe5",
    },
    "kvserve": {
        "machine-00/trace.json": "77b2d65350c2de28cea16cf0d4ecc2b540c3d66d3f1f9b7f569a5ba2428fd61f",
        "machine-00/metrics.json": "2bc62ce373e0a36600538b973ec6fc2151735739dd7c07205ae132a3a6ffcd3c",
        "machine-00/metrics.prom": "f08fc434c540ebfc20b1e4143bac24c995ebccbc806d3e744fa3713e739aa093",
        "machine-00/attribution.json": "9614f0b1743ed547aba1efe25c20d679d87da68d03143bb88dec3a2fb97cd7bf",
        "summary.txt": "e64f879372cc47d20b3dff9b785053509bcd7ff264fea0493368a5c9555e5e5b",
    },
    "nearstorage": {
        "machine-00/trace.json": "b90caa6c4ff587bc88d9da77b0f3063af150213d800e2eaee4131736b463acbb",
        "machine-00/metrics.json": "b066df87b795a0c219402acb4e2820fda637177eb1153817dd5dbb4cf90218a2",
        "machine-00/metrics.prom": "bce422a33b76522324cf20fab094b2924a50e77560f48675deb2d4587bc50141",
        "machine-00/attribution.json": "ef8f502db1a15bf6977a1c4d83eb316b66da67d5ba9de706e90fe5f90fe9bf36",
        "summary.txt": "358b95250ca2a19aabc4a1fb7483dec7dbd2a1621561f7383264a5f2e16cb58e",
    },
}

RUNS = {
    "hashtable": lambda: hashtable.run_leviathan(
        {"lookups_per_thread": 2, "object_size": 64}
    ),
    "kvserve": lambda: kvserve.run_leviathan(
        dict(
            n_clients=2,
            requests_per_client=8,
            n_keys=64,
            mean_gap=30,
            scan_len=4,
            stream_buffer=16,
            seed=5,
        ),
        n_tiles=4,
    ),
    "nearstorage": lambda: nearstorage.run_leviathan(
        dict(n_rows=256, n_scanners=2, seed=7), n_tiles=4
    ),
}


def artifact_digests(run, outdir):
    """Run ``run`` with telemetry attached; sha256 of each artifact."""
    with TelemetrySession() as session:
        run()
    session.save(str(outdir))
    digests = {}
    for name in ARTIFACTS:
        with open(os.path.join(outdir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_artifacts_are_byte_identical(workload, tmp_path):
    assert artifact_digests(RUNS[workload], tmp_path) == GOLDEN[workload]


class TestFabricAccounting:
    def test_link_flits_sum_to_flit_hops(self):
        with TelemetrySession() as session:
            RUNS["hashtable"]()
        (telemetry,) = session.telemetries
        metrics = telemetry.metrics
        links = metrics.series("noc.link_flits")
        flit_hops = metrics.value("noc.flit_hops")
        assert len(links) > 1
        assert sum(c.value for c in links.values()) == flit_hops
        assert flit_hops == telemetry.machine.stats["noc.flit_hops"] > 0

    def test_bank_miss_series_are_created_lazily(self):
        machine = Machine(small_config())
        telemetry = Telemetry(machine)
        misses = {}

        def count(ev):
            if ev.level == "llc" and not ev.hit:
                misses[ev.tile] = misses.get(ev.tile, 0) + 1

        machine.events.subscribe(CacheAccess, count)

        def reader():
            yield Load(0x1000, 8)

        machine.spawn(reader(), tile=0)
        machine.spawn(reader(), tile=1)
        machine.run()
        series = {
            int(dict(key)["bank"]): counter.value
            for key, counter in telemetry.metrics.series("llc.bank_misses").items()
        }
        assert series == misses
        # Banks that never missed have no series at all, not a zero one.
        assert 0 < len(series) < machine.config.n_tiles
        assert len(telemetry.metrics.series("llc.bank_accesses")) < machine.config.n_tiles
