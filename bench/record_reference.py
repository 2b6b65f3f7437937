"""Record reference.json: the outputs of every pool entry under the current code.

Run from the repository root, only when the pools in calls.py change:

    python3 bench/record_reference.py

The recorded values are what later runs of run_bench.py compare against, so
record them from code whose outputs are known to be right.
"""
from __future__ import annotations

import json

from calls import POOLS, REFERENCE_PATH, import_seglab, record_outputs, run_call, scratch_dir


def main() -> int:
    seglab = import_seglab()
    reference = {}
    with scratch_dir() as tmp:
        for name, pool in POOLS.items():
            entries = []
            for j in range(pool.size):
                out = tmp / f"{name}-{j}"
                run_call(seglab.cli, pool, j, out)
                entries.append(record_outputs(pool, out))
            reference[name] = {"template": pool.template, "entries": entries}
            print(f"recorded {pool.size} entries of {name}", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
