"""Monte-Carlo experiment runner and curve emitter.

One run = one realization of the input/noise pair, shared by every configured
algorithm (paired comparison).  Runs are advanced in blocks of at most
``BLOCK_RUNS``, every algorithm and run of a block as one stacked state; the
blocks depend only on the run count, and their sums are merged in block order,
so the ensemble average is bit-identical no matter how many worker processes
participate.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import __version__, groups
from .config import AlgorithmSpec, ExperimentConfig, config_hash, serialize_config
from .groups import GRZA, GZA, GroupPartition, row_dot
from .signals import PlantSchedule, benchmark_schedule, scalar_stream, simulate_plant
from .varparam import VpState, _vp_rows_iteration

__all__ = [
    "LearningCurve",
    "run_experiment",
    "emit_curves",
    "experiment_schedule",
    "stage_windows",
    "steady_state_db",
]

STEADY_STATE_WINDOW = 1000
# Runs advanced together as one state.  At 20 runs x 5 algorithms the
# per-step numpy call overhead is spread over 100 filter rows.
BLOCK_RUNS = 20
# Steps whose per-row values a block buffers before adding them to its sums:
# a block's memory does not grow with the iteration count beyond the sums.
# Also the rows the CSV writer turns into Python objects at a time.
CHUNK_STEPS = 256


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


def _db(msd: np.ndarray) -> np.ndarray:
    """``msd`` in dB; a 0 reads ``-inf`` without a warning."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(msd)


def experiment_schedule(cfg: ExperimentConfig) -> PlantSchedule:
    """Benchmark plant schedule trimmed to the configured horizon."""
    return benchmark_schedule(total_iterations=cfg.iterations)


def _block_count(runs: int) -> int:
    return -(-runs // BLOCK_RUNS)


def _blocks(runs: int) -> Iterator[tuple[int, int]]:
    """Contiguous, near-equal ``(first, count)`` run blocks of at most
    :data:`BLOCK_RUNS` runs, made one at a time (so a huge ``runs`` costs no
    memory up front); they depend on ``runs`` alone."""
    n = _block_count(runs)
    size, extra = divmod(runs, n)
    for k in range(n):
        yield k * size + min(k, extra), size + (k < extra)


# Row order inside a block, by (variable, mode): lms, vp-lms, vp-gza,
# vp-grza, grza, gza.  The variable rows (ranks 1-3), the attractor rows
# (2-5) and the GRZA rows (3-4) are each contiguous, so every subset a step
# reads or writes is a slice (a view), never a gathered copy.
_ROW_RANK = {(False, None): 0, (True, None): 1, (True, GZA): 2,
             (True, GRZA): 3, (False, GRZA): 4, (False, GZA): 5}


def _rank_slice(ranks: list[int], lo: int, hi: int) -> slice:
    return slice(bisect_left(ranks, lo), bisect_right(ranks, hi))


def _row_specs(cfg: ExperimentConfig) -> list[AlgorithmSpec]:
    """``cfg.algorithms`` in block row order (:data:`_ROW_RANK`)."""
    return sorted(cfg.algorithms, key=lambda s: _ROW_RANK[s.variable, s.mode])


def _advance_block(cfg: ExperimentConfig, first: int, count: int,
                   dropped: Optional[np.ndarray] = None):
    """Every algorithm over runs ``first .. first+count-1`` as one state.

    The weights are an ``(A, R, L)`` stack (algorithms in :func:`_row_specs`
    order x runs x taps), and each time step is one set of numpy operations
    over the whole stack.  Row ``(a, r)`` is bit-identical to folding
    ``filters.step`` (and ``varparam.vp_iteration``) over run ``first + r``
    alone, except that a VP row whose transient model breaks (where
    ``vp_iteration`` raises) gets a NaN mu and so diverges at that step.

    The step's mu and rho are the two rows of one ``(2, A, R)`` array, and
    every value a step averages waits in one ``(CHUNK_STEPS, A + 2V, R)``
    buffer: the A MSDs, then the mu and the rho of the V variable rows.
    Returns ``(powers, sums, diverged_at)``: the runs' input powers; one
    ``(N, A + 2V)`` array with the buffer's columns summed (rho turned into
    lambda = rho / mu), each added over the block's runs in run order and
    leaving out the rows that the ``(A, R)`` mask ``dropped`` sets; and the
    ``(A, R)`` 0-based iteration of the first update after which each row's
    squared deviation is not finite, or -1.  Such a row has diverged: it steps
    on with non-finite values, which :func:`_run_block` leaves out of the sums,
    and no other row changes.  The signal set-up and the step loop run under
    one ``np.errstate`` that hides the warnings they raise: ``diverged_at``
    records a divergence instead, and an input power that overflows is inf.
    """
    schedule = experiment_schedule(cfg)
    L, N, A, R = schedule.L, cfg.iterations, len(cfg.algorithms), count
    partition = GroupPartition.contiguous(L, cfg.group_size)
    with np.errstate(over="ignore", invalid="ignore"):
        # Row r of ``xr`` is run r's ``SignalStream.x_rev``, so the tapped-delay
        # regressors of sample i are the windows xr[:, N-1-i:][:, :L].
        xr = np.empty((R, N + L - 1))
        d = np.empty((N, R))
        powers = []
        for k, run in enumerate(range(first, first + count)):
            x = scalar_stream(cfg.input, N, [cfg.master_seed, run, 0])
            stream = simulate_plant(schedule, x, cfg.sigma_z2, [cfg.master_seed, run, 1])
            d[:, k], xr[k] = stream.d, stream.x_rev
            powers.append(float(np.mean(x * x)) if x.size else 0.0)

        specs = _row_specs(cfg)
        ranks = [_ROW_RANK[s.variable, s.mode] for s in specs]
        variable = _rank_slice(ranks, 1, 3)
        V = len(specs[variable])

        vps = [VpState.for_filter(L, cfg.sigma_z2, cfg.sigma_u2, s.gamma, s.gamma_prime, s.mu_max)
               for s in specs[variable] for _ in range(R)]
        # One attractor evaluation per step over the attractor rows, GRZA rows
        # (``grza``, relative to ``attract``) reweighted.  A fixed row with
        # rho = 0 gets one too: its weights are never -0.0, so subtracting
        # 0 * beta_s leaves them bit for bit as an update without the term would.
        attract = _rank_slice(ranks, 2, 5)
        grza = _rank_slice(ranks, 3, 4)
        grza = slice(grza.start - attract.start, grza.stop - attract.start)
        attracting = attract.stop > attract.start
        mu_rho = np.repeat(np.array([[[s.mu] for s in specs],
                                     [[s.rho] for s in specs]]), R, axis=2)
        # Plain-LMS rows keep a zero attractor, so ``rho * beta_s`` is zero there.
        beta_s = np.zeros((A, R, L))
        w = np.zeros((A, R, L))
        diverged_at = np.full((A, R), -1)
        # ``w``, ``beta_s`` and ``mu_rho`` are only written in place, so views
        # of them taken once stay valid.
        mu, rho_col = mu_rho[0], mu_rho[1][..., None]
        mu_rho_variable = mu_rho[:, variable]
        w_attract, beta_s_attract = w[attract], beta_s[attract]
        beta_s_variable = beta_s[variable]
        counted = np.ones((A, R), dtype=bool) if dropped is None else ~dropped
        counted = np.concatenate((counted, counted[variable], counted[variable]))

        # A step's averaged values, the A MSDs and then the V mu and V rho rows,
        # wait in one buffer of CHUNK_STEPS steps; then each run's column is
        # added to the sums in run order.  An uncounted row adds +0.0, which
        # leaves a sum of non-negative terms unchanged.
        sums = np.zeros((N, A + 2 * V))
        buf = np.empty((CHUNK_STEPS, A + 2 * V, R))
        msd_buf, vp_buf = buf[:, :A], buf[:, A:].reshape(CHUNK_STEPS, 2, V, R)

        def add_chunk(lo, hi):
            n = hi - lo
            mu_rows, lam_rows = vp_buf[:n, 0], vp_buf[:n, 1]
            # lambda = rho / mu in place, and 0 where mu is 0.
            np.divide(lam_rows, mu_rows, out=lam_rows, where=mu_rows != 0.0)
            lam_rows[mu_rows == 0.0] = 0.0
            for r in range(R):
                sums[lo:hi] += np.where(counted[:, r], buf[:n, :, r], 0.0)

        for (lo, hi), (_, w_star) in zip(schedule.stage_bounds(), schedule.segments):
            for i in range(lo, hi):
                j = i % CHUNK_STEPS
                u = xr[:, N - 1 - i:N - 1 - i + L]
                e = d[i] - row_dot(w, u)
                if attracting:
                    # Looked up on ``groups`` so a wrapper there (a call-count
                    # test's) sees every evaluation.
                    groups._attractor_rows(w_attract, partition, cfg.epsilon, grza,
                                           out=beta_s_attract)
                if V:
                    mu_rho_variable[...] = _vp_rows_iteration(
                        vps, u, e[variable], beta_s_variable, vp_buf[j])
                # w += mu e u - rho beta_s, in the order ``filters.step`` adds.
                w += (mu * e)[..., None] * u
                if attracting:
                    w -= rho_col * beta_s
                diff = w - w_star
                msd = row_dot(diff, diff, out=msd_buf[j])
                # MSDs are non-negative, so one non-finite row makes the total
                # non-finite: a finite total clears every row without the
                # per-row test.
                if not math.isfinite(msd.sum()):
                    failed = ~np.isfinite(msd)
                    diverged_at[failed & (diverged_at < 0)] = i
                if j == CHUNK_STEPS - 1 or i == N - 1:
                    add_chunk(i - j, i + 1)

    return powers, sums, diverged_at


def _run_block(args: tuple[ExperimentConfig, int, int]):
    """Worker: ``(first, result)`` for one run block, the result being
    :func:`_advance_block`'s with the sums over the block's surviving rows."""
    cfg, first, count = args
    result = _advance_block(cfg, first, count)
    dropped = result[-1] >= 0
    if dropped.any():
        # A row can fail after its earlier steps were added to the sums.
        # Rows are independent, so a second pass that leaves the failed
        # rows out from the start gives the sums over the survivors.
        result = _advance_block(cfg, first, count, dropped)
    return first, result


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[LearningCurve]:
    """Average the configured algorithms over ``cfg.runs`` paired realizations.

    The runs are split into blocks (:func:`_blocks`, made as they are handed
    out) whose row sums are added in block order into the first block's
    sums, so the result does not depend on ``workers``.  The sums are
    non-negative or NaN, so this gives the bits that adding into zeros gives.
    Each column is then scaled in place, and every curve's arrays are views
    of that one ``(N, A + 2V)`` array.  A diverged run is dropped from that
    algorithm's average and recorded with the iteration it failed at; the
    other algorithms keep the run.  The metadata's ``measured_input_power``
    is None where the mean power is not finite.
    """
    if not cfg.algorithms:
        raise ValueError("experiment config lists no algorithms")
    specs = _row_specs(cfg)
    vp_specs = [s for s in specs if s.variable]
    A, V = len(specs), len(vp_specs)
    sums = None
    diverged = [[] for _ in specs]
    power_sum = 0.0

    n_blocks = _block_count(cfg.runs)
    tasks = ((cfg, first, count) for first, count in _blocks(cfg.runs))
    if workers <= 1 or n_blocks == 1:
        results = map(_run_block, tasks)
        pool = None
    else:
        pool = multiprocessing.Pool(processes=min(workers, n_blocks))
        results = pool.imap(_run_block, tasks)
    try:
        for first, (powers, block_sums, diverged_at) in results:
            for power in powers:
                power_sum += power
            if sums is None:
                sums = block_sums
            else:
                sums += block_sums
            for a, r in zip(*np.nonzero(diverged_at >= 0)):
                diverged[a].append([first + int(r), int(diverged_at[a, r])])
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    runs_used = [cfg.runs - len(runs) for runs in diverged]
    scale = np.array([1.0 / n if n else np.nan for n in runs_used])
    variable = [s.variable for s in specs]
    sums *= np.concatenate((scale, scale[variable], scale[variable]))
    digest = config_hash(cfg)
    measured_power = power_sum / cfg.runs
    if not math.isfinite(measured_power):
        measured_power = None  # JSON has no inf: written as null
    curves = []
    for spec in cfg.algorithms:
        a = specs.index(spec)
        mu_tr = lam_tr = None
        if spec.variable:
            v = A + vp_specs.index(spec)
            mu_tr, lam_tr = sums[:, v], sums[:, v + V]
        metadata = {
            "experiment": cfg.experiment,
            "algorithm": spec.name,
            "mode": spec.mode if spec.mode else "lms",
            "variable": spec.variable,
            "config_hash": digest,
            "master_seed": cfg.master_seed,
            "runs": cfg.runs,
            "runs_used": runs_used[a],
            "diverged_runs": len(diverged[a]),
            "diverged": diverged[a],
            "iterations": cfg.iterations,
            "measured_input_power": measured_power,
        }
        curves.append(LearningCurve(name=spec.name, msd=sums[:, a], mu_trace=mu_tr,
                                    lambda_trace=lam_tr, metadata=metadata))
    return curves


def stage_windows(schedule: PlantSchedule) -> list[tuple[int, int]]:
    """Final :data:`STEADY_STATE_WINDOW` samples of each stage, clipped to the
    stage itself.

    Windows are half-open 0-based ranges and never cross a plant switch: the
    transition sample at a switch belongs to the *next* stage, whose error is
    dominated by the plant jump, not the previous steady state.
    """
    return [
        (max(lo, hi - STEADY_STATE_WINDOW), hi)
        for lo, hi in schedule.stage_bounds()
        if hi > lo
    ]


def steady_state_db(msd: np.ndarray, schedule: PlantSchedule) -> list[float]:
    """Per-stage steady-state MSD in dB (mean of each stage's final window)."""
    return [
        float(_db(np.mean(msd[lo:hi])))
        for lo, hi in stage_windows(schedule)
    ]


def _curve_columns(
    curve: LearningCurve, lo: int = 0, hi: Optional[int] = None
) -> tuple[list[str], list[np.ndarray]]:
    """The column names and rows ``lo`` to ``hi - 1`` (every row by default)
    of each column; the iteration and dB columns are made for those rows
    only."""
    names = ["iter", "msd_linear", "msd_db"]
    msd = curve.msd[lo:hi]
    cols = [np.arange(lo + 1, lo + msd.shape[0] + 1), msd, _db(msd)]
    if curve.mu_trace is not None:
        names += ["mu", "lambda"]
        cols += [curve.mu_trace[lo:hi], curve.lambda_trace[lo:hi]]
    return names, cols


def emit_curves(curves: list[LearningCurve], cfg: ExperimentConfig, out_dir) -> list[str]:
    """Write one curve file per algorithm plus manifest and resolved config.

    Returns the paths written.  All numbers go through ``repr`` so a re-read
    reproduces the in-memory values exactly.
    """
    if not curves:
        raise ValueError("no curves to emit")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    manifest_curves = []
    for curve in curves:
        fname = f"{curve.name}.{cfg.format}"
        path = os.path.join(out_dir, fname)
        try:
            if cfg.format == "csv":
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
            "diverged": curve.metadata["diverged"],
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
    """Rows go through ``repr`` and are written :data:`CHUNK_STEPS` at a
    time, one ``write`` per slice, so Python holds one slice's objects and
    numpy one slice's iteration and dB values.  Slices start at multiples
    of 256, so ``log10`` groups its SIMD lanes as in a whole-column call."""
    names, _ = _curve_columns(curve, 0, 0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, curve.msd.shape[0], CHUNK_STEPS):
            _, cols = _curve_columns(curve, lo, lo + CHUNK_STEPS)
            rows = zip(*(map(repr, col.tolist()) for col in cols))
            fh.write("".join(map("{}\n".format, map(",".join, rows))))


def _write_json(path: str, curve: LearningCurve) -> None:
    """JSON has no NaN or infinity: a column with such values writes each as
    null."""
    names, cols = _curve_columns(curve)
    payload = {"metadata": curve.metadata}
    for name, col in zip(names, cols):
        finite = np.isfinite(col)
        payload[name] = (col if finite.all() else np.where(finite, col, None)).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
