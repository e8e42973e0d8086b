#!/usr/bin/env python3
"""Calibrate the fixed-parameter baselines for the built-in experiments.

The benchmark comparisons require every algorithm to start with (almost) the
same initial convergence rate.  The variable-parameter algorithms have no
free step size to tune, so they define the target: this script measures the
early MSD slope of the VP curves on a calibration ensemble, finds the fixed
step size whose slope matches the shallower of the two, and then picks the
shrinkage for the fixed attractor variants from a log grid by best stage-1
steady state.  The resulting numbers are frozen into the built-in
experiments' INI files, ``src/gslms/configs/exp1.ini`` and ``exp2.ini``
(the ``mu``/``rho`` keys of their fixed rows); re-run this script and update
them if the engine defaults change.

Usage: python scripts/calibrate_baselines.py [exp1|exp2 ...]
"""

from __future__ import annotations

import sys

import numpy as np

from gslms.config import AlgorithmSpec, ExperimentConfig, builtin_config
from gslms.harness import experiment_schedule, run_experiment, steady_state_db

SLOPE_WINDOW = (50, 250)  # 0-based sample range for the dB-slope fit
SLOPE_RUNS = 20
SLOPE_ITERS = 1500
RHO_RUNS = 15
RHO_ITERS = 8000  # full first stage
RHO_GRID = (0.0, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3)
CAL_SEED = 777


def _with(base: ExperimentConfig, algorithms, runs, iterations) -> ExperimentConfig:
    from dataclasses import replace
    return replace(base, algorithms=tuple(algorithms), runs=runs,
                   iterations=iterations, master_seed=CAL_SEED)


def early_slope(msd: np.ndarray) -> float:
    lo, hi = SLOPE_WINDOW
    y = 10.0 * np.log10(msd[lo:hi])
    x = np.arange(lo, hi, dtype=float)
    return float(np.polyfit(x, y, 1)[0])


def lms_slopes(base: ExperimentConfig, mus) -> list[float]:
    """Early slopes of fixed-step LMS at each step size in ``mus``, run as
    one experiment: its rows are independent, so each slope is the one a
    single-algorithm experiment gives, bit for bit."""
    algs = [AlgorithmSpec(name=f"mu{i}", mode=None, mu=mu) for i, mu in enumerate(mus)]
    curves = run_experiment(_with(base, algs, SLOPE_RUNS, SLOPE_ITERS))
    return [early_slope(c.msd) for c in curves]


def calibrate_mu(base: ExperimentConfig, target: float) -> tuple[float, float]:
    """Fixed step size whose early slope best matches ``target`` dB/iter,
    and that slope."""
    grid = np.geomspace(1e-3, 0.04, 17)
    slopes = lms_slopes(base, grid)
    k = int(np.argmin([abs(s - target) for s in slopes]))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    best_mu, best_slope = grid[k], slopes[k]
    refine = np.linspace(lo, hi, 7)[1:-1]
    for mu, slope in zip(refine, lms_slopes(base, refine)):
        if abs(slope - target) < abs(best_slope - target):
            best_mu, best_slope = mu, slope
    return float(best_mu), best_slope


def calibrate_rho(base: ExperimentConfig, mode: str, mu: float) -> float:
    """Shrinkage minimizing the stage-1 steady state at the calibrated mu."""
    algs = [AlgorithmSpec(name=f"r{i}", mode=mode, mu=mu, rho=r)
            for i, r in enumerate(RHO_GRID)]
    cfg = _with(base, algs, RHO_RUNS, RHO_ITERS)
    curves = run_experiment(cfg)
    schedule = experiment_schedule(cfg)
    ss = [steady_state_db(c.msd, schedule)[0] for c in curves]
    return float(RHO_GRID[int(np.argmin(ss))])


def calibrate(name: str) -> dict:
    base = builtin_config(name)
    vp = [a for a in base.algorithms if a.variable]
    cfg = _with(base, vp, SLOPE_RUNS, SLOPE_ITERS)
    curves = run_experiment(cfg)
    vp_slopes = {c.name: early_slope(c.msd) for c in curves}
    target = max(vp_slopes.values())  # shallower = slower of the VP curves
    print(f"[{name}] VP slopes (dB/iter): "
          + ", ".join(f"{k}={v:.4f}" for k, v in vp_slopes.items())
          + f" -> target {target:.4f}")
    mu, slope = calibrate_mu(base, target)
    print(f"[{name}] matched fixed mu = {mu:.6g} (slope {slope:.4f} dB/iter)")
    out = {"lms_mu": mu}
    for mode in ("gza", "grza"):
        rho = calibrate_rho(base, mode, mu)
        out[f"{mode}_mu"] = mu
        out[f"{mode}_rho"] = rho
        print(f"[{name}] {mode}: rho = {rho:g}")
    return out


def main(argv: list[str]) -> int:
    names = argv or ["exp1", "exp2"]
    for name in names:
        result = calibrate(name)
        print(f"[{name}] baselines: {result}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
