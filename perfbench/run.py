"""gslms benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload exp1-long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a child interpreter
(``workload.py``) with ``src`` on its path and BLAS/OpenMP threads capped at
one.  The child's output files are then checked here against
``reference.json`` and the paper's ordering, and, with ``--trace 0``, fresh
interpreters are started to time set-up.  Every metric is printed to stderr
with its unit and sample count; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from checks import Tally, check_experiment, check_oracle
from spec import ALGORITHMS, OUT_DIR, WORKLOADS, cli_argv, child_env, work_units

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30.0


def child_timeout(seconds: int) -> float:
    """Time allowed to the workload child: its window, one repetition that
    started just inside it, and its imports and output checks."""
    return 2.0 * seconds + 60.0


# Time from a fresh interpreter's start to gslms.cli imported and the
# workload's command line and config resolved.  The parent's perf_counter
# and the child's read the same monotonic clock.
PROBE = """\
import sys, time
from dataclasses import replace
import gslms.cli
from gslms.config import builtin_config
args = gslms.cli.build_parser().parse_args(sys.argv[1:])
if args.command.startswith("paper-"):
    replace(builtin_config(args.command[len("paper-"):]), runs=args.runs,
            iterations=args.iterations, master_seed=args.seed, format=args.format)
print(repr(time.perf_counter()))
"""


def _run(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_seconds(argv: list[str], env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        done = _run([sys.executable, "-c", PROBE, *argv], env, PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def end_to_end(name: str, child: dict, setups: list[float]) -> dict:
    reps = child["reps"]
    rates = [work_units(name) / r["compute_s"] for r in reps]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s", len(reps)),
        "steps_per_s": (statistics.median(rates), "1/s", len(reps)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (child["peak_rss_kb"] / 1024.0, "MB", 1),
    }


def per_layer(child: dict, tally: Tally) -> dict:
    """Layer metrics from the two traced passes; exact counts must agree."""
    first, second = child["traced"]

    def exact(s):
        return {
            "calls": {k: v["calls"] for k, v in s["spans"].items()},
            "tagged": {k: {t: v["calls"] for t, v in tags.items()} for k, tags in s["by_tag"].items()},
            "counts": s["counts"],
        }

    tally.check(exact(first) == exact(second), "exact counts differ between the two traced passes")
    if second["missing"]:
        print("  not traced (gone from gslms): " + ", ".join(second["missing"]), file=sys.stderr)
    n = 2

    def span(key, field):
        return sum(s["spans"].get(key, {}).get(field, 0) for s in (first, second)) / n

    def tagged(key, tag, field):
        return sum(s["by_tag"].get(key, {}).get(tag, {}).get(field, 0) for s in (first, second)) / n

    counts = second["counts"]
    m = {}
    for key in ("groups.attractor_term", "filters.step"):
        calls = int(span(key, "calls"))
        m[f"{key}.calls"] = (calls, "count")
        m[f"{key}.self_s"] = (span(key, "self_s"), "s")
        m[f"{key}.us_per_call"] = (1e6 * _ratio(span(key, "self_s"), calls), "us")
    m["varparam.vp_iteration.calls"] = (int(span("varparam.vp_iteration", "calls")), "count")
    m["varparam.vp_iteration.self_s"] = (span("varparam.vp_iteration", "self_s"), "s")
    solves = int(span("varparam.solve_optimal_params", "calls"))
    smooths = int(span("varparam.smooth_and_clamp", "calls"))
    m["varparam.solve_optimal_params.calls"] = (solves, "count")
    m["varparam.solve_optimal_params.self_s"] = (span("varparam.solve_optimal_params", "self_s"), "s")
    m["varparam.smooth_and_clamp.calls"] = (smooths, "count")
    m["varparam.smooth_and_clamp.self_s"] = (span("varparam.smooth_and_clamp", "self_s"), "s")
    m["varparam.solve_fallbacks"] = (counts.get("solve_fallbacks", 0), "count")
    m["varparam.solve_fallback_frac"] = (_ratio(counts.get("solve_fallbacks", 0), solves), "frac")
    m["varparam.mu_caps"] = (counts.get("mu_caps", 0), "count")
    m["varparam.mu_cap_frac"] = (_ratio(counts.get("mu_caps", 0), smooths), "frac")
    m["harness.run_experiment.s"] = (span("harness.run_experiment", "s"), "s")
    m["harness.run_experiment.self_s"] = (span("harness.run_experiment", "self_s"), "s")
    for alg in ALGORITHMS:
        steps = tagged("filters.step", alg, "calls")
        cost = tagged("filters.step", alg, "s") + tagged("varparam.vp_iteration", alg, "s")
        m[f"harness.us_per_step.{alg}"] = (1e6 * _ratio(cost, steps), "us")
    m["harness.emit_curves.s"] = (span("harness.emit_curves", "s"), "s")
    m["harness.emit_curves.bytes"] = (counts.get("emit_bytes", 0), "B")
    m["harness.worker_busy_frac"] = (child["busy_frac"], "frac")
    for key in ("signals.scalar_stream", "signals.simulate_plant"):
        m[f"{key}.calls"] = (int(span(key, "calls")), "count")
        m[f"{key}.self_s"] = (span(key, "self_s"), "s")
    m["signals.bytes_computed"] = (counts.get("signal_bytes", 0), "B")
    for case in ("lms", "grza"):
        m[f"oracles.validate_model_recursion.{case}.s"] = (
            tagged("oracles.validate_model_recursion", case, "s"), "s")
    m["oracles.member_steps_per_s"] = (
        _ratio(counts.get("oracle_member_steps", 0), span("oracles.validate_model_recursion", "s")),
        "1/s")
    m["oracles.bytes_computed"] = (
        sum(s["sums"].get("oracle_peak_bytes", 0.0) for s in (first, second)) / n, "B")
    m["cli.main.self_s"] = (span("cli.main", "self_s"), "s")
    traced_wall = span("cli.main", "s")
    overhead = traced_wall - child["untraced_serial_wall_s"]
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (_ratio(overhead, child["untraced_serial_wall_s"]), "frac")
    m["trace.spans"] = (second["span_count"], "count")
    return {k: (v, unit, n) for k, (v, unit) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one gslms benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gslms", "cli.py")):
        print("error: run from the root of a gslms checkout (src/gslms/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    name = args.workload
    env = child_env(root)
    work = os.path.join(root, OUT_DIR, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    out_dir = os.path.join(work, "results")
    result_path = os.path.join(work, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir, "--result", result_path]
    if args.trace:
        cmd += ["--spans", os.path.join(root, OUT_DIR, f"spans-{name}.npz")]
    try:
        try:
            done = _run(cmd, env, child_timeout(args.seconds))
        except subprocess.TimeoutExpired:
            print(f"error: workload child ran past {child_timeout(args.seconds):.0f} s",
                  file=sys.stderr)
            return 1
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload child exited with {done.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            child = json.load(fh)

        tally = Tally()
        reps = child["reps"]
        tally.check(all(r["rc"] == 0 for r in reps), f"exit codes {[r['rc'] for r in reps]}")
        tally.check(len({r["digest"] for r in reps}) == 1,
                    "outputs differ between repetitions (or worker counts) of one input")
        if WORKLOADS[name]["kind"] == "oracle":
            detail = check_oracle(name, reps[-1]["stdout"], len(reps), tally)
        else:
            detail = check_experiment(name, out_dir, len(reps), tally)
        if args.trace:
            metrics = per_layer(child, tally)
        else:
            metrics = end_to_end(name, child, setup_seconds(cli_argv(name, args.seed, out_dir), env))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = tally.failed / tally.attempted
    print(f"{name} seed {args.seed} trace {args.trace}: {len(reps)} repetitions, "
          f"{work_units(name)} work units each", file=sys.stderr)
    print(f"  checked: {detail}", file=sys.stderr)
    print("  environment: " + json.dumps(child["environment"], sort_keys=True), file=sys.stderr)
    for key, (value, unit, samples) in metrics.items():
        print(f"  {key:<44} {value:>16.6g} {unit:<6} (n={samples})", file=sys.stderr)
    print(f"  {'failed_frac':<44} {failed_frac:>16.6g} {'frac':<6} "
          f"({tally.failed} of {tally.attempted} operations)", file=sys.stderr)
    for note in tally.notes:
        print(f"  FAILED: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
