"""Record or check the golden result ledger of the full ``all`` sweep.

``all_ledger.json`` beside this script maps the content hash of every
RunSpec that ``leviathan-repro all`` executes to its ``label``, ``fn``
and ``checksum``: the pool's ``compute_result_checksum`` of the cached
result payload, the same digest ``perfbench/digests.json`` pins.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/ledger.py record     # cold sweep, rewrite the ledger
    PYTHONPATH=src python tests/golden/ledger.py check DIR  # DIR: cache dir of a cold `all`

Re-record only for an intended model change, and say why in the
change's notes: an entry that moves otherwise is a result that changed
silently.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "all_ledger.json")


def load():
    with open(LEDGER) as handle:
        return json.load(handle)


def entries_of(cache_dir):
    """``{hash: {label, fn, checksum}}`` for every result cached in ``cache_dir``."""
    from repro.experiments.pool import compute_result_checksum

    entries = {}
    for name in os.listdir(cache_dir):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(cache_dir, name)) as handle:
            payload = json.load(handle)
        entries[payload["hash"]] = {
            "label": payload["label"],
            "fn": payload["fn"],
            "checksum": compute_result_checksum(payload["result"]),
        }
    return entries


def record():
    cache_dir = tempfile.mkdtemp(prefix="ledger-")
    try:
        subprocess.run(
            [sys.executable, "-m", "repro.experiments", "all", "--no-check",
             "--jobs", "2", "--cache-dir", cache_dir],
            check=True,
        )
        entries = entries_of(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    with open(LEDGER, "w") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"ledger: recorded {len(entries)} entries -> {LEDGER}")


def check(cache_dir):
    ledger, entries = load(), entries_of(cache_dir)
    problems = [f"missing: {ledger[h]['label']} ({h})" for h in ledger.keys() - entries.keys()]
    problems += [f"not in ledger: {entries[h]['label']} ({h})" for h in entries.keys() - ledger.keys()]
    problems += [
        f"entry moved: {ledger[h]['label']} ({h})"
        for h in ledger.keys() & entries.keys()
        if ledger[h] != entries[h]
    ]
    for problem in sorted(problems):
        print(problem)
    print(f"ledger: {len(ledger)} entries, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"]:
        record()
    elif sys.argv[1:2] == ["check"] and len(sys.argv) == 3:
        sys.exit(check(sys.argv[2]))
    else:
        sys.exit(__doc__)
