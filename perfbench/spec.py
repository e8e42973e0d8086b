"""Workload definitions shared by the benchmark runner, its child and its tools.

Each workload is one ``gslms`` command line.  The benchmark seed becomes the
command's ``--seed``; nothing else about the inputs changes with it.
"""

from __future__ import annotations

import os

# Few long runs: both plant switches fire, so the VP engine's cap and
# fallback branches and the 24000-row emission behave as in the paper.
# Many short runs over the process pool: per-run set-up, dispatch and merge
# weigh in, with the AR(1) mixture input and the JSON writer.
# One large batched ensemble: the filter loop and its layers are bypassed.
WORKLOADS = {
    "exp1-long": {
        "kind": "mc", "experiment": "exp1", "runs": 2, "iterations": 24000,
        "workers": 1, "format": "csv", "stages": 3,
    },
    "exp2-wide": {
        "kind": "mc", "experiment": "exp2", "runs": 40, "iterations": 2000,
        "workers": 2, "format": "json", "stages": 1,
    },
    "oracle-ensemble": {
        "kind": "oracle", "ensemble": 20000, "horizon": 200, "cases": 2,
        "workers": 1, "tolerance": 0.05,
    },
}

ALGORITHMS = ("lms", "gza", "grza", "vp-gza", "vp-grza")

# BLAS/OpenMP thread caps for every process the benchmark starts, so the
# load stays within the two workers the pool workload uses.
THREAD_CAPS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

OUT_DIR = ".perfbench_out"


def cli_argv(name: str, seed: int, out_dir: str, workers: int | None = None) -> list[str]:
    """The ``gslms`` argument list for one repetition of a workload."""
    w = WORKLOADS[name]
    if w["kind"] == "oracle":
        return [
            "validate-model", "--ensemble", str(w["ensemble"]),
            "--horizon", str(w["horizon"]), "--seed", str(seed),
            "--tol", repr(w["tolerance"]), "--json",
        ]
    return [
        f"paper-{w['experiment']}", "--runs", str(w["runs"]),
        "--iterations", str(w["iterations"]), "--seed", str(seed),
        "--workers", str(w["workers"] if workers is None else workers),
        "--format", w["format"], "--output-dir", out_dir,
    ]


def work_units(name: str) -> int:
    """Sample-steps (runs x iterations x algorithms) or member-steps
    (ensemble x horizon x cases) done by one repetition."""
    w = WORKLOADS[name]
    if w["kind"] == "oracle":
        return w["ensemble"] * w["horizon"] * w["cases"]
    return w["runs"] * w["iterations"] * len(ALGORITHMS)


def child_env(root: str) -> dict:
    """Environment for processes that import gslms from the checkout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_CAPS)
    return env
