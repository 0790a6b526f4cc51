"""The golden result ledger pins every run of ``leviathan-repro all``.

``tests/golden/all_ledger.json`` maps each spec hash of the full sweep
to its label, function and result checksum (``tests/golden/ledger.py``
records it and checks a whole sweep against it). Here the plan union is
checked against the ledger without executing anything, and the fastest
specs are re-executed and must reproduce their checksums bit for bit.
"""

import json
import os

from repro.experiments.pool import ExperimentPool, compute_result_checksum, spec_hash

LEDGER = os.path.join(os.path.dirname(__file__), "golden", "all_ledger.json")

#: Specs that run in well under half a second each (~3.5 s together).
FAST_LABELS = [
    "compaction/on",
    "compaction/off",
    "migration/period0",
    "migration/period32",
    "fig16/no_padding",
    "mc_cache/fifo0",
    "mc_cache/fifo8",
    "mc_cache/fifo32",
    "mc_cache/fifo128",
    "serve-kv/baseline",
    "serve-kv/leviathan",
    "serve-kv/ideal",
    "serve-paging/rd8/baseline",
    "serve-paging/rd8/leviathan",
    "serve-paging/rd128/baseline",
    "serve-paging/rd128/leviathan",
    "serve-scan/baseline",
    "serve-scan/leviathan",
    "serve-scan/ideal",
    "serve-replay/replay",
    "fig24/16buckets/baseline",
    "fig24/32buckets/baseline",
    "fig25/4tiles/baseline",
    "fig25/4tiles/leviathan",
    "fig25/8tiles/baseline",
    "fig25/8tiles/leviathan",
    "fig25/16tiles/baseline",
]


def _ledger():
    with open(LEDGER) as handle:
        return json.load(handle)


def _planned():
    """``{hash: spec}`` over every registered plan, first label wins."""
    import repro.experiments.cli  # noqa: F401  (registers every experiment)
    from repro.experiments import registry

    specs = {}
    for name in registry.names():
        for spec in registry.plan(name).specs:
            specs.setdefault(spec_hash(spec), spec)
    return specs


def test_plan_union_is_the_ledger():
    planned = {h: (s.label, s.fn) for h, s in _planned().items()}
    ledger = {h: (e["label"], e["fn"]) for h, e in _ledger().items()}
    assert len(ledger) == 77
    assert planned == ledger


def test_fast_specs_reproduce_their_checksums():
    ledger = _ledger()
    by_label = {spec.label: (digest, spec) for digest, spec in _planned().items()}
    specs = [by_label[label][1] for label in FAST_LABELS]
    outcomes = ExperimentPool(jobs=1, cache_dir=None).run(specs)
    moved = {
        label: outcome.get("error") or "checksum moved"
        for label, outcome in zip(FAST_LABELS, outcomes)
        if outcome["status"] != "ok"
        or compute_result_checksum(outcome["result"])
        != ledger[by_label[label][0]]["checksum"]
    }
    assert moved == {}
