"""Record the result digest of every benchmark spec, per seed.

Usage, from the repository root::

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: for the default inputs (``--seed``
omitted) and for seeds 0-31, one digest per spec label of ``phi``,
``offload`` and ``serve``. A digest is the pool's own checksum of the
encoded result, ``compute_result_checksum(encode_result(result))``.
``telemetry`` runs ``offload``'s fig18 specs, so it is checked against
those; this script verifies that equality for the default inputs.

Re-record only for an intended model change, and say why in the
change's notes: a digest that moves otherwise is a result that changed
silently.
"""

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import sweep  # noqa: E402  (puts src/ on the path)

SEEDS = [None] + list(range(32))
RECORDED = ("phi", "offload", "serve")


def digests_of(workload, seed, work):
    report = sweep.run_sweep(workload, seed, time.monotonic(), work, trace=False)
    digests = {}
    for spec in report["specs"]:
        if spec["status"] != "ok" or not spec["functional"]:
            raise SystemExit(f"seed {seed} {spec['label']}: {spec.get('error', 'not functional')}")
        digests[spec["label"]] = spec["digest"]
    return digests


def main():
    root = os.path.join(os.path.dirname(HERE), ".bench_work")
    os.makedirs(root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=root)
    seeds = {}
    try:
        for seed in SEEDS:
            key = "default" if seed is None else str(seed)
            seeds[key] = {name: digests_of(name, seed, work) for name in RECORDED}
            print(f"seed {key}: {sum(len(d) for d in seeds[key].values())} digests", flush=True)
        telemetry = digests_of("telemetry", None, work)
        offload = seeds["default"]["offload"]
        for label, digest in telemetry.items():
            if offload[label] != digest:
                raise SystemExit(f"telemetry changed the result of {label}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w") as handle:
        json.dump({"seeds": seeds}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
