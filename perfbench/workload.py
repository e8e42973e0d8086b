"""Benchmark child: repeats one workload's ``gslms`` command in-process.

Run by ``run.py`` in a fresh interpreter with the checkout's ``src`` on the
path and BLAS threads capped.  It calls ``gslms.cli.main`` with the
workload's arguments and writes what it measured as JSON to ``--result``:

* ``--trace 0``: repetitions for as long as another one still fits in
  ``--seconds``.  Only ``main`` and the compute entry points
  (``run_experiment``, ``validate_model_recursion``) carry a span, so the
  run is effectively untraced.
* ``--trace 1``: one untraced repetition as the workload runs it, one
  untraced in-process repetition (1 worker) when the workload uses a pool,
  then two fully traced in-process passes whose exact counts must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
from time import perf_counter

import gslms.cli
import numpy
import scipy

from spec import THREAD_CAPS, WORKLOADS, cli_argv
from tracer import COMPUTE_TARGETS, LAYER_TARGETS, Tracer


def _digest(out_dir: str, stdout: str) -> str:
    """SHA-256 over the command's stdout and every file it wrote."""
    h = hashlib.sha256(stdout.encode())
    if os.path.isdir(out_dir):
        for fname in sorted(os.listdir(out_dir)):
            h.update(fname.encode())
            with open(os.path.join(out_dir, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_once(argv: list[str], out_dir: str, targets, workers: int) -> tuple[dict, Tracer]:
    """One ``gslms.cli.main`` call with ``targets`` traced."""
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = Tracer()
    tracer.install(targets)
    main = tracer.wrap("cli.main", gslms.cli.main)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = main(argv)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    spans = summary["spans"]
    compute = sum(spans[t[2]]["s"] for t in COMPUTE_TARGETS if t[2] in spans)
    busy_cpu = summary["sums"].get("children_cpu_s" if workers > 1 else "self_cpu_s", 0.0)
    rep = {
        "rc": rc,
        "wall_s": spans["cli.main"]["s"],
        "compute_s": compute,
        "busy_frac": busy_cpu / (workers * compute) if compute > 0 else 0.0,
        "digest": _digest(out_dir, stdout.getvalue()),
        "stdout": stdout.getvalue(),
        "summary": summary,
    }
    return rep, tracer


def _peak_rss_kb(workers: int) -> int:
    """Own peak RSS plus, per pool worker, the largest worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers <= 1:
        return own
    return own + workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True, help="directory for gslms's result files")
    ap.add_argument("--spans", help="file for the traced passes' spans (.npz)")
    ap.add_argument("--result", required=True, help="JSON file to write")
    args = ap.parse_args()

    workers = WORKLOADS[args.workload]["workers"]
    argv = cli_argv(args.workload, args.seed, args.out_dir)
    reps = []
    result = {
        "workload": args.workload, "seed": args.seed, "workers": workers,
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            **{k: os.environ.get(k) for k in THREAD_CAPS},
        },
    }
    if args.trace == 0:
        # Start another repetition only while one more fits in the window.
        deadline = perf_counter() + args.seconds
        while True:
            t0 = perf_counter()
            reps.append(run_once(argv, args.out_dir, COMPUTE_TARGETS, workers)[0])
            t1 = perf_counter()
            if t1 + (t1 - t0) > deadline:
                break
        result["peak_rss_kb"] = _peak_rss_kb(workers)
    else:
        reps.append(run_once(argv, args.out_dir, COMPUTE_TARGETS, workers)[0])
        serial = cli_argv(args.workload, args.seed, args.out_dir, workers=1)
        if workers > 1:
            reps.append(run_once(serial, args.out_dir, COMPUTE_TARGETS, 1)[0])
        traced = []
        for _ in range(2):
            rep, tracer = run_once(serial, args.out_dir, LAYER_TARGETS, 1)
            if args.spans:
                tracer.write(args.spans)
            del tracer
            traced.append(rep)
        result["busy_frac"] = reps[0]["busy_frac"]
        result["untraced_serial_wall_s"] = reps[-1]["wall_s"]
        result["traced"] = [rep["summary"] for rep in traced]
        reps.extend(traced)
    result["reps"] = [{k: v for k, v in rep.items() if k != "summary"} for rep in reps]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
