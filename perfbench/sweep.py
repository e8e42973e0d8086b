"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--seeds 10] [--first-seed 1] [--trace] [--json PATH]

Run from the root of a checkout.  It runs every workload of
``BENCHMARK.json``.  Each run is ``run.py`` with the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric it
prints the median, the quartiles of ``statistics.quantiles(values, n=4)``,
the spread (quartile distance over median) and the metric's bound; a
spread at or above its bound (``setup_s`` excepted) is marked ``WIDE``.
With ``--trace`` it also makes one traced run per workload and prints the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--json", help="write the summary here as JSON")
    args = ap.parse_args()

    summary = {}
    for workload in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run(workload, seed, bench["run_seconds"], 0)
            for key in values:
                values[key].append(result["metrics"][key]["value"])
        rows = {}
        print(f"{workload}: {args.seeds} seeds from {args.first_seed}")
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "WIDE" if spread >= m["bound"] and m["name"] != "setup_s" else ""
            print(f"  {m['name']:<14} median {med:<12.6g} {m['unit']:<5} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%}  bound {m['bound']:.0%} {flag}")
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": vals}
        summary[workload] = {"end_to_end": rows}
        if args.trace:
            traced = run(workload, args.first_seed, bench["run_seconds"], 1)
            summary[workload]["per_layer"] = traced["metrics"]
            for key, v in traced["metrics"].items():
                print(f"  {key:<44} {v['value']:>16.6g} {v['unit']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
