"""Run the benchmark in two checkouts in strictly alternating pairs and summarize.

Usage: ``python3 tools/alternate_pairs.py PARENT CHANGE --workload W --pairs N
--out BENCH.json [--seed-base S]``

Pair ``i`` (from 0) runs ``python3 bench/run_bench.py --workload W --seed
S+i --seconds 35 --trace 0`` once in each checkout, the parent first when ``i``
is even and the change first when it is odd.  Each run entry is the JSON
object on the last line of that run's standard output.  The ``workloads`` and
``summary`` blocks are written to ``--out`` after every pair; blocks of other
workloads and other keys already in the file are kept.  Per metric of
``end_to_end`` in the parent's ``BENCHMARK.json``, the summary holds the
medians and the numpy linear-interpolation quartiles of each side and
``change_better_pairs``, the pairs where the change reads better (ties count
for neither side); ``failed`` sums ``failed`` and ``attempted`` over the runs.
The tool reads ``bench/`` and ``BENCHMARK.json`` and writes neither.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
SECONDS = 35  # the run length of every recorded pair; both sides run the same


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``root``; its last output line as a dict."""
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Medians, quartiles and change_better_pairs per metric, and the failed counts."""
    summary: dict = {}
    for name, better in directions.items():
        values = {side: np.array([p[side]["metrics"][name]["value"] for p in pairs]) for side in SIDES}
        entry: dict = {"pairs": len(pairs), "better": better}
        for side in SIDES:
            q1, median, q3 = np.percentile(values[side], [25, 50, 75])
            entry |= {f"{side}_median": float(median), f"{side}_q1": float(q1), f"{side}_q3": float(q3)}
        gain = values["change"] - values["parent"]
        entry["change_better_pairs"] = int(((gain > 0) if better == "higher" else (gain < 0)).sum())
        summary[name] = entry
    summary["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES} | {
        f"{side}_attempted": sum(p[side]["attempted"] for p in pairs) for side in SIDES
    }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, default=0, help="seed of pair 0; pair i uses seed-base + i")
    parser.add_argument("--out", type=Path, required=True, help="JSON file for the workloads and summary blocks")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    roots = {"parent": args.parent, "change": args.change}
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    pairs: list[dict] = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed)
        pairs.append(pair)
        record.setdefault("workloads", {})[args.workload] = pairs
        record.setdefault("summary", {})[args.workload] = summarize(pairs, directions)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        rates = {side: pair[side]["metrics"]["norm_samples_per_s"]["value"] for side in SIDES}
        print(f"pair {i} seed {seed}: parent {rates['parent']:.1f} change {rates['change']:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
