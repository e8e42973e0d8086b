"""Monte-Carlo experiment runner and curve emitter.

One run = one realization of the input/noise pair, shared by every configured
algorithm (paired comparison).  Runs are independent work items; partial
results are merged in run-index order so the ensemble average is bit-identical
no matter how many worker processes participate.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__, filters
from .config import ExperimentConfig, config_hash, serialize_config
from .filters import DivergenceError, FilterConfig, initial_state, step
from .groups import AttractorMode, GroupPartition
from .signals import PlantSchedule, benchmark_schedule, scalar_stream, simulate_plant
from .varparam import VpState, vp_iteration

__all__ = [
    "LearningCurve",
    "run_experiment",
    "emit_curves",
    "experiment_schedule",
    "stage_windows",
    "steady_state_db",
]

STEADY_STATE_WINDOW = 1000


@dataclass
class LearningCurve:
    """Run-averaged MSD of one algorithm, plus parameter traces for VP ones.

    ``metadata`` holds the run bookkeeping, ``runs_used`` and ``diverged_runs``
    included, exactly as the JSON curve files emit it.
    """

    name: str
    msd: np.ndarray  # linear scale
    mu_trace: Optional[np.ndarray]
    lambda_trace: Optional[np.ndarray]
    metadata: dict

    def __post_init__(self):
        if np.any(self.msd < 0):
            raise ValueError("linear MSD cannot be negative")

    @property
    def msd_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.msd)


def experiment_schedule(cfg: ExperimentConfig) -> PlantSchedule:
    """Benchmark plant schedule trimmed to the configured horizon.

    The three length-35 plants take over at iterations 1, 8000 and 16000
    whatever ``iterations`` is; switches past the horizon are dropped.
    """
    switches = tuple(s for s in (1, 8000, 16000) if s <= max(cfg.iterations, 1))
    return benchmark_schedule(switches, cfg.iterations)


def _execute_algorithm(spec, fcfg, cfg, stream, target):
    """One algorithm over one realization; returns (msd, mu, lambda) arrays.

    Fixed algorithms apply ``(fcfg.mu, fcfg.rho)``, variable ones ask
    ``vp_iteration``.  The attractor is evaluated once per step and shared.
    """
    N = cfg.iterations
    msd = np.empty(N)
    state = initial_state(fcfg.L)
    mu_n, rho_n = fcfg.mu, fcfg.rho
    mu_tr = lam_tr = vp = beta_s = None
    if spec.variable:
        vp = VpState.for_filter(
            fcfg.L, cfg.sigma_z2, cfg.sigma_u2,
            gamma=spec.gamma, gamma_prime=spec.gamma_prime, mu_max=spec.mu_max,
        )
        mu_tr, lam_tr = np.empty(N), np.empty(N)
    attract = fcfg.mode is not None and (vp is not None or rho_n != 0.0)
    for i in range(N):
        u = stream.U[i]
        d = stream.d[i]
        if attract:
            # Looked up on ``filters`` so a wrapper installed there (the
            # perfbench tracer) sees every evaluation.
            beta_s = filters.attractor_term(state.w, fcfg.partition, fcfg.mode)
        if vp is not None:
            e = d - np.dot(state.w, u)
            mu_n, rho_n = vp_iteration(vp, state, fcfg, u, float(e), beta_s)
            mu_tr[i] = mu_n
            lam_tr[i] = rho_n / mu_n if mu_n != 0.0 else 0.0
        state = step(state, fcfg, u, d, mu_n, rho_n, beta_s)
        diff = state.w - target[i]
        msd[i] = np.dot(diff, diff)
    return msd, mu_tr, lam_tr


def _run_single(args: tuple[ExperimentConfig, int]):
    """Worker: all algorithms on the paired streams of one Monte-Carlo run."""
    cfg, run_index = args
    schedule = experiment_schedule(cfg)
    partition = GroupPartition.contiguous(schedule.L, cfg.group_size)
    x_seed = [cfg.master_seed, run_index, 0]
    z_seed = [cfg.master_seed, run_index, 1]
    x = scalar_stream(cfg.input, cfg.iterations, x_seed)
    stream = simulate_plant(schedule, x, cfg.sigma_z2, z_seed)
    target = schedule.plant_matrix()[stream.plant_index]
    power = float(np.mean(x * x)) if x.size else 0.0
    out = {}
    for spec in cfg.algorithms:
        mode = None if spec.mode is None else AttractorMode(spec.mode, cfg.epsilon)
        fcfg = FilterConfig(schedule.L, partition, mode, mu=spec.mu, rho=spec.rho,
                            variable_params=spec.variable)
        try:
            out[spec.name] = _execute_algorithm(spec, fcfg, cfg, stream, target)
        except DivergenceError:
            out[spec.name] = None
    return power, out


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[LearningCurve]:
    """Average the configured algorithms over ``cfg.runs`` paired realizations.

    A diverged run is dropped from that algorithm's average (and counted);
    the other algorithms keep the run.
    """
    if not cfg.algorithms:
        raise ValueError("experiment config lists no algorithms")
    N = cfg.iterations
    sums = {a.name: np.zeros(N) for a in cfg.algorithms}
    mu_sums = {a.name: np.zeros(N) for a in cfg.algorithms if a.variable}
    lam_sums = {a.name: np.zeros(N) for a in cfg.algorithms if a.variable}
    used = {a.name: 0 for a in cfg.algorithms}
    power_sum = 0.0

    tasks = [(cfg, r) for r in range(cfg.runs)]
    if workers <= 1:
        results = map(_run_single, tasks)
        pool = None
    else:
        pool = multiprocessing.Pool(processes=workers)
        results = pool.imap(_run_single, tasks)
    try:
        for power, per_alg in results:
            power_sum += power
            for name, payload in per_alg.items():
                if payload is None:
                    continue
                msd, mu_tr, lam_tr = payload
                sums[name] += msd
                if mu_tr is not None:
                    mu_sums[name] += mu_tr
                    lam_sums[name] += lam_tr
                used[name] += 1
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    digest = config_hash(cfg)
    measured_power = power_sum / cfg.runs
    curves = []
    for spec in cfg.algorithms:
        n_used = used[spec.name]
        scale = 1.0 / n_used if n_used else np.nan
        msd = sums[spec.name] * scale
        mu_tr = mu_sums[spec.name] * scale if spec.variable else None
        lam_tr = lam_sums[spec.name] * scale if spec.variable else None
        metadata = {
            "experiment": cfg.experiment,
            "algorithm": spec.name,
            "mode": spec.mode if spec.mode else "lms",
            "variable": spec.variable,
            "config_hash": digest,
            "master_seed": cfg.master_seed,
            "runs": cfg.runs,
            "runs_used": n_used,
            "diverged_runs": cfg.runs - n_used,
            "iterations": cfg.iterations,
            "measured_input_power": measured_power,
        }
        curves.append(LearningCurve(name=spec.name, msd=msd, mu_trace=mu_tr,
                                    lambda_trace=lam_tr, metadata=metadata))
    return curves


def stage_windows(schedule: PlantSchedule, window: int = STEADY_STATE_WINDOW) -> list[tuple[int, int]]:
    """Final ``window`` samples of each stage, clipped to the stage itself.

    Windows are half-open 0-based ranges and never cross a plant switch: the
    transition sample at a switch belongs to the *next* stage, whose error is
    dominated by the plant jump, not the previous steady state.
    """
    return [
        (max(lo, hi - window), hi)
        for lo, hi in schedule.stage_bounds()
        if hi > lo
    ]


def steady_state_db(msd: np.ndarray, schedule: PlantSchedule,
                    window: int = STEADY_STATE_WINDOW) -> list[float]:
    """Per-stage steady-state MSD in dB (mean of each stage's final window)."""
    return [
        float(10.0 * np.log10(np.mean(msd[lo:hi])))
        for lo, hi in stage_windows(schedule, window)
    ]


def _curve_columns(curve: LearningCurve) -> tuple[list[str], list[np.ndarray]]:
    names = ["iter", "msd_linear", "msd_db"]
    n = curve.msd.shape[0]
    cols = [np.arange(1, n + 1), curve.msd, curve.msd_db]
    if curve.mu_trace is not None:
        names += ["mu", "lambda"]
        cols += [curve.mu_trace, curve.lambda_trace]
    return names, cols


def emit_curves(curves: list[LearningCurve], cfg: ExperimentConfig,
                out_dir, fmt: Optional[str] = None) -> list[str]:
    """Write one curve file per algorithm plus manifest and resolved config.

    Returns the paths written.  All numbers go through ``repr`` so a re-read
    reproduces the in-memory values exactly.
    """
    if not curves:
        raise ValueError("no curves to emit")
    fmt = cfg.format if fmt is None else fmt
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    manifest_curves = []
    for curve in curves:
        fname = f"{curve.name}.{fmt}"
        path = os.path.join(out_dir, fname)
        try:
            if fmt == "csv":
                _write_csv(path, curve)
            else:
                _write_json(path, curve)
        except OSError as exc:
            raise OSError(f"cannot write curve file {path}: {exc.strerror}") from exc
        paths.append(path)
        manifest_curves.append({
            "algorithm": curve.name,
            "file": fname,
            "runs_used": curve.metadata["runs_used"],
            "diverged_runs": curve.metadata["diverged_runs"],
        })
    manifest = {
        "version": __version__,
        "experiment": cfg.experiment,
        "config_hash": config_hash(cfg),
        "master_seed": cfg.master_seed,
        "runs": cfg.runs,
        "iterations": cfg.iterations,
        "measured_input_power": curves[0].metadata["measured_input_power"],
        "curves": manifest_curves,
        "config_file": "config.ini",
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(manifest_path)
    config_path = os.path.join(out_dir, "config.ini")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
    paths.append(config_path)
    return paths


def _write_csv(path: str, curve: LearningCurve) -> None:
    names, cols = _curve_columns(curve)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*cols):
            fields = [str(int(row[0]))] + [repr(float(v)) for v in row[1:]]
            fh.write(",".join(fields) + "\n")


def _write_json(path: str, curve: LearningCurve) -> None:
    names, cols = _curve_columns(curve)
    payload = {"metadata": curve.metadata}
    for name, col in zip(names, cols):
        payload[name] = [int(v) for v in col] if name == "iter" else [float(v) for v in col]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
