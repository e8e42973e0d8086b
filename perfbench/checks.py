"""Output checks for the benchmark's workloads (standard library only).

Every check is one attempted operation; a check that fails, a diverged
(run, algorithm) pair and a validate-model case over tolerance each count
as one failed operation.
"""

from __future__ import annotations

import json
import math
import os

from spec import ALGORITHMS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
STEADY_WINDOW = 1000
SWITCHES = (1, 8000, 16000)
# Stages in which the VP algorithms must beat LMS: the group-sparse plants.
ORDERED_STAGES = (0, 2)


class Tally:
    """Attempted and failed operations, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def operations(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {attempted} {what}")


def stage_db(msd: list[float], iterations: int) -> list[float]:
    """Mean MSD over the last ``STEADY_WINDOW`` samples of each plant stage, in dB."""
    starts = [s - 1 for s in SWITCHES if s <= max(iterations, 1)] + [iterations]
    out = []
    for lo, hi in zip(starts, starts[1:]):
        window = msd[max(lo, hi - STEADY_WINDOW):hi]
        out.append(10.0 * math.log10(sum(window) / len(window)))
    return out


def read_curve(out_dir: str, algorithm: str, fmt: str) -> tuple[list[int], list[float]]:
    """The ``iter`` and ``msd_linear`` columns of one curve file."""
    path = os.path.join(out_dir, f"{algorithm}.{fmt}")
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return payload["iter"], payload["msd_linear"]
    iters, msd = [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        i_col, m_col = header.index("iter"), header.index("msd_linear")
        for line in fh:
            fields = line.split(",")
            iters.append(int(fields[i_col]))
            msd.append(float(fields[m_col]))
    return iters, msd


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_experiment(name: str, out_dir: str, reps: int, tally: Tally) -> str:
    """Check the files one experiment repetition wrote; return per-stage dB as text."""
    w = WORKLOADS[name]
    ref = load_reference()[name]
    tally.check(ref["runs"] == w["runs"] and ref["iterations"] == w["iterations"],
                f"{name}: reference.json was recorded for another workload size")
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    tally.check(manifest["runs"] == w["runs"] and manifest["iterations"] == w["iterations"],
                "manifest runs/iterations differ from the workload")
    diverged = {c["algorithm"]: c["diverged_runs"] for c in manifest["curves"]}
    tally.check(sorted(diverged) == sorted(ALGORITHMS), f"manifest lists {sorted(diverged)}")
    tally.operations(reps * w["runs"] * len(ALGORITHMS),
                     reps * sum(diverged.values()), "(run, algorithm) pairs diverged")
    dbs = {}
    for alg in ALGORITHMS:
        iters, msd = read_curve(out_dir, alg, w["format"])
        if not tally.check(iters == list(range(1, w["iterations"] + 1)) and len(msd) == len(iters),
                           f"{alg}: curve rows are not iterations 1..{w['iterations']}"):
            continue
        dbs[alg] = stage_db(msd, w["iterations"])
        for k, (got, mean, tol) in enumerate(zip(dbs[alg], ref["db"][alg], ref["tol_db"][alg])):
            tally.check(abs(got - mean) <= tol,
                        f"{alg} stage {k + 1}: {got:.3f} dB, reference {mean:.3f} +- {tol:.3f}")
    for k in (s for s in ORDERED_STAGES if s < w["stages"]):
        if all(a in dbs for a in ("lms", "vp-gza", "vp-grza")):
            tally.check(dbs["vp-grza"][k] < dbs["vp-gza"][k] < dbs["lms"][k],
                        f"stage {k + 1}: ordering vp-grza < vp-gza < lms fails")
    return "steady-state dB " + ", ".join(
        f"{alg} " + "/".join(f"{v:.2f}" for v in stages) for alg, stages in dbs.items())


def check_oracle(name: str, stdout: str, reps: int, tally: Tally) -> str:
    """Check the ``validate-model --json`` report; return its deviations as text."""
    w = WORKLOADS[name]
    report = json.loads(stdout)
    cases = report["reports"]
    tally.check(len(cases) == w["cases"], f"{len(cases)} validate-model cases, expected {w['cases']}")
    tally.check(all(c["horizon"] == w["horizon"] and c["ensemble"] == w["ensemble"] for c in cases),
                "validate-model ran another horizon or ensemble size")
    devs = [c["max_rel_deviation"] for c in cases]
    over = sum(1 for d in devs if not d <= w["tolerance"])
    tally.operations(reps * len(devs), reps * over, "validate-model cases over tolerance")
    tally.check(report["passed"] == (over == 0), "validate-model verdict disagrees with its deviations")
    return "max relative deviation " + ", ".join(
        f"{c['mode']} {c['max_rel_deviation']:.4%}" for c in cases)
