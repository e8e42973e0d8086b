"""Record the steady-state reference bands that ``checks.py`` compares against.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose filters are trusted.  For every
Monte-Carlo workload it runs one repetition for each of ``SEEDS`` seeds from
``FIRST_SEED``, takes each algorithm's per-stage steady-state MSD in dB, and
stores the mean over seeds with a tolerance of ``SIGMAS`` standard
deviations (at least ``FLOOR_DB``) in ``reference.json``.  The band covers
seed-to-seed Monte-Carlo spread, so any benchmark seed passes, while a wrong
update moves a stage by several dB and fails.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from checks import REFERENCE_PATH, read_curve, stage_db
from spec import ALGORITHMS, OUT_DIR, WORKLOADS, child_env

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 48
FIRST_SEED = 100
SIGMAS = 4.0
FLOOR_DB = 0.5


def main() -> int:
    root = os.getcwd()
    env = child_env(root)
    os.makedirs(OUT_DIR, exist_ok=True)
    reference = {}
    for name, w in WORKLOADS.items():
        if w["kind"] != "mc":
            continue
        seeds = list(range(FIRST_SEED, FIRST_SEED + SEEDS))
        values = {alg: [] for alg in ALGORITHMS}
        for seed in seeds:
            work = tempfile.mkdtemp(dir=OUT_DIR)
            try:
                out_dir = os.path.join(work, "results")
                subprocess.run(
                    [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", "0", "--trace", "0",
                     "--out-dir", out_dir, "--result", os.path.join(work, "child.json")],
                    env=env, check=True)
                for alg in ALGORITHMS:
                    values[alg].append(stage_db(read_curve(out_dir, alg, w["format"])[1],
                                                w["iterations"]))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed} done", file=sys.stderr)
        db, tol = {}, {}
        for alg, rows in values.items():
            stages = list(zip(*rows))
            db[alg] = [statistics.fmean(s) for s in stages]
            tol[alg] = [max(SIGMAS * statistics.stdev(s), FLOOR_DB) for s in stages]
        reference[name] = {
            "runs": w["runs"], "iterations": w["iterations"], "seeds": seeds,
            "db": db, "tol_db": tol, "values_db": values,
        }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
