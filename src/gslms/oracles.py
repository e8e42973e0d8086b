"""Brute-force oracles for the closed-form code paths.

Everything in here re-derives a quantity by independent means — exhaustive
grid search, central finite differences, or a vectorized Monte-Carlo ensemble
— so the analytic implementations elsewhere in the package can be checked
against something that cannot share their bugs.  The ensemble simulator
advances all weight-error trajectories with batched numpy expressions rather
than reusing the per-sample filter loop.  It splits the members into fixed
near-equal leaves and simulates each leaf from start to finish, in one step
loop, on its own input and noise streams.  A leaf is stored taps x members,
so the member axis has unit stride: a step's regressors are one contiguous
(L, T) block of the leaf's ring of time-reversed inputs, and every kernel
of the step runs along whole rows of members.  The input and the noise are
drawn one step at a time, and the ring holds only the latest L inputs (each
twice), so a leaf's memory grows neither with the number of steps nor with
the ensemble.  The loop's first steps only update; each later step adds its
moment samples and its squared weight errors to the leaf's per-step sums at
once.  The caller adds the leaves' sums in leaf order, so the leaves can run
on any number of worker processes with the same result.
validate_model_recursion samples every step, and ensemble_moments samples
only the step after its warm-up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import FilterConfig
from .groups import ZERO_GROUP_TOL, GRZA, AttractorMode, GroupPartition, l12_norm
from .harness import ordered_map
from .signals import AR1GaussianMixture, WhiteGaussian, stationary_power
from .varparam import MomentEstimates

# Most members per leaf of the ensemble.  At L = 35 an (L, 1024) float64
# array is 280 KB, so a leaf's regressor block, weight-error and scratch
# rows stay in a core's L2 cache across the dozen kernels of one step.  Each
# leaf draws from its own streams, so this size fixes the numbers.
TILE_MEMBERS = 1024


@dataclass(frozen=True)
class EnsembleMoments:
    """Sample means of the five transient-model moments with standard errors."""

    g: float
    h: float
    ell: float
    r1: float
    r2: float
    g_se: float
    h_se: float
    ell_se: float
    r1_se: float
    r2_se: float
    ensemble: int

    def __post_init__(self):
        if self.ensemble < 2:
            raise ValueError("ensemble size must be at least 2")
        ses = (self.g_se, self.h_se, self.ell_se, self.r1_se, self.r2_se)
        if not all(math.isfinite(s) for s in ses):
            raise ValueError("standard errors must be finite")


def grid_minimize_quadratic(
    m: MomentEstimates,
    box: tuple[tuple[float, float], tuple[float, float]],
    resolution: int,
) -> tuple[float, float, float]:
    """Exhaustively minimize the per-step MSD quadratic over a box.

    Evaluates q(mu, rho) = mu^2 g + rho^2 h + 2 mu rho ell - 2 mu r1 - 2 rho r2
    on a resolution x resolution grid and returns (mu, rho, value) at the
    smallest sample.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    (mu_lo, mu_hi), (rho_lo, rho_hi) = box
    mu_axis = np.linspace(mu_lo, mu_hi, resolution)
    rho_axis = np.linspace(rho_lo, rho_hi, resolution)
    mu_g, rho_g = np.meshgrid(mu_axis, rho_axis, indexing="ij")
    q = (
        mu_g * mu_g * m.g
        + rho_g * rho_g * m.h
        + 2.0 * mu_g * rho_g * m.ell
        - 2.0 * mu_g * m.r1
        - 2.0 * rho_g * m.r2
    )
    flat = int(np.argmin(q))
    i, j = divmod(flat, resolution)
    return float(mu_axis[i]), float(rho_axis[j]), float(q[i, j])


def finite_diff_subgradient(w: np.ndarray, p: GroupPartition, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the group l1,2 norm.

    Only valid away from the nondifferentiable set: every group norm must
    exceed 10*step, otherwise the difference quotient straddles a kink.
    """
    w = np.asarray(w, dtype=float)
    norms = np.sqrt(np.add.reduceat(w * w, p.starts))
    if np.any(norms <= 10.0 * step):
        raise ValueError("finite differences need all group norms > 10*step")
    grad = np.empty_like(w)
    for i in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[i] += step
        wm[i] -= step
        grad[i] = (l12_norm(wp, p) - l12_norm(wm, p)) / (2.0 * step)
    return grad


def _attractor_matrix(
    W: np.ndarray, p: GroupPartition, mode: AttractorMode, out: np.ndarray
) -> np.ndarray:
    """Column-wise beta .* s for an (L, T) matrix of weight vectors, into out."""
    sq = np.multiply(W, W, out=out)
    norms = np.empty((p.J, W.shape[1]))
    for g, (start, stop) in enumerate(p.bounds):
        np.add.reduce(sq[start:stop], axis=0, out=norms[g])
    np.sqrt(norms, out=norms)
    safe = np.where(norms > ZERO_GROUP_TOL, norms, np.inf)
    if mode.tag == GRZA:
        # combined beta/norm factor; the inf denominator of a zero group
        # divides out to an exact 0 without touching 1/0
        per_group = 1.0 / ((norms + mode.epsilon) * safe)
        return np.multiply(W, np.repeat(per_group, p.sizes, axis=0), out=out)
    return np.divide(W, np.repeat(safe, p.sizes, axis=0), out=out)


def _leaf_steps(model, L, sigma_z2, seed, index, T, total):
    """Yield the regressors and the noise of one leaf's T members at each of
    `total` steps: a C-contiguous (L, T) block of time-reversed inputs, one
    column per member, and the (T,) noise.  Each step draws one (T,) input
    row and one (T,) noise row from the leaf's own two generators,
    ``SeedSequence(seed, spawn_key=(index,)).spawn(2)``, so the draws are
    step-major; an AR(1) member's state runs on after a 1000-step burn-in.
    The inputs go into a (2L, T) ring, zero at the start (the padding before
    the first step): step t writes its input twice, to rows p = -t mod L
    and p + L, so the latest L inputs, latest first, are always the rows p
    to p + L - 1.  The ring is rewritten in place, so a caller that keeps a
    block copies it."""
    if isinstance(model, WhiteGaussian):
        x_sd, prev = math.sqrt(model.variance), None
    elif isinstance(model, AR1GaussianMixture):
        x_sd, prev = math.sqrt(model.sigma_v2), np.zeros(T)
    else:
        raise TypeError(f"unsupported input model {type(model).__name__}")
    z_sd = math.sqrt(sigma_z2)
    x_rng, z_rng = (np.random.default_rng(s)
                    for s in np.random.SeedSequence(seed, spawn_key=(index,)).spawn(2))

    def ar1_step():
        """Every member's next input x_t = v_t + alpha x_{t-1}: T uniforms
        pick the signs of the mixture means, then T normals."""
        nonlocal prev
        signs = np.where(x_rng.random(T) < 0.5, -1.0, 1.0)
        prev = model.a * x_sd * signs + x_rng.normal(0.0, x_sd, size=T) + model.alpha * prev
        return prev

    if prev is not None:
        for _ in range(1000):  # burn-in
            ar1_step()
    ring = np.zeros((2 * L, T))
    for t in range(total):
        p = -t % L
        ring[p] = ring[p + L] = x_rng.normal(0.0, x_sd, size=T) if prev is None else ar1_step()
        yield ring[p:p + L], z_rng.normal(0.0, z_sd, size=T)


def _leaf_sums(task):
    """Worker: simulate one leaf from start to finish.  Its members are
    stored taps x members, (L, T), so every kernel runs along whole rows of
    members.  The first `warm` steps only update; each of the next `count`
    steps also takes the five moment samples of every member and its squared
    weight error before the update.  Returns three sums over the members:
    the (5, count) moment rows, the (count + 1,) squared weight errors
    before each sampled step and after the last, and the (5,) squared
    deviations of the last sampled step's moments from their leaf mean
    (zeros for count = 0).  The attractor is evaluated only at the steps
    whose samples or update read it."""
    (plant, input_model, cfg, sigma_z2, seed, w_init, warm, count), (index, _, members) = task
    plant = np.asarray(plant, dtype=float)
    L, mode, mu, rho = cfg.L, cfg.mode, cfg.mu, cfg.rho
    if plant.shape != (L,):
        raise ValueError("plant length must match the filter length")
    steps = _leaf_steps(input_model, L, sigma_z2, seed, index, members, warm + count)
    g_floor = sigma_z2 * (L * stationary_power(input_model))  # sigma_z2 tr{R_u}
    shrink = mode is not None and rho != 0.0
    w0 = np.zeros(L) if w_init is None else np.asarray(w_init, dtype=float)
    Wt = np.broadcast_to((w0 - plant)[:, None], (L, members)).copy()
    # one (L, T) block of equal columns, so each operand of the weight sum
    # has unit stride
    P = np.broadcast_to(plant[:, None], (L, members)).copy()
    a, S = np.empty(members), np.empty((L, members))
    B = np.empty((L, members)) if mode is not None else None
    # per member, rows g, h, ell, r1, r2 and the squared weight error, all
    # summed by one reduction per sampled step; an LMS leaf never writes h,
    # ell or r2, which are exactly 0 without an attractor
    samples = np.zeros((6, members))
    g, h, ell, r1, r2, sq = samples
    sums = np.empty((6, count + 1))
    # a diverging leaf overflows to inf and nan, which the caller reports;
    # a pool worker does not run under the caller's errstate, so the leaf
    # sets its own
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (U, z) in enumerate(steps, -warm):
            np.einsum("lt,lt->t", Wt, U, out=a)
            if mode is not None and (t >= 0 or shrink):
                BS = _attractor_matrix(np.add(Wt, P, out=S), cfg.partition, mode, B)
            if t >= 0:
                np.einsum("lt,lt->t", Wt, Wt, out=sq)
                np.multiply(a, a, out=r1)
                np.einsum("lt,lt->t", U, U, out=g)
                g *= r1
                g += g_floor
                if mode is not None:
                    np.einsum("lt,lt->t", BS, BS, out=h)
                    np.einsum("lt,lt->t", U, BS, out=ell)
                    ell *= a
                    np.einsum("lt,lt->t", BS, Wt, out=r2)
                np.add.reduce(samples, axis=1, out=sums[:, t])
            e = np.subtract(z, a, out=a)
            e *= mu
            Wt += np.multiply(e, U, out=S)
            if shrink:
                Wt -= np.multiply(BS, rho, out=S)
        spread = np.zeros(5)
        if count:
            last = samples[:5]
            dev = last - last.mean(axis=1, keepdims=True)
            spread = np.multiply(dev, dev, out=dev).sum(axis=1)
        sums[5, count] = np.einsum("lt,lt->t", Wt, Wt, out=sq).sum()
    return sums[:5, :count], sums[5], spread


def _ensemble_sums(spec, ensemble, workers):
    """_leaf_sums of every leaf, on up to `workers` processes, added in leaf
    order: the (5, count) moment sums, the (count + 1,) squared weight error
    sums and the (5,) squared deviations of the last sampled step's moments
    from the ensemble mean (zeros for count = 0), merged from the leaves'
    spreads by the pairwise update of Chan, Golub and LeVeque.  The leaves
    are harness.leaves of at most TILE_MEMBERS members, and of at least 2
    where the ensemble has 2: a one-member leaf would be contiguous along
    the taps, so einsum would take its dot kernel and sum in another
    order."""
    count = spec[-1]  # the sampled steps, the last field of _leaf_sums' spec
    moments, trq, mean, m2 = np.zeros((5, count)), np.zeros(count + 1), np.zeros(5), np.zeros(5)
    leaf_count = max(1, min(-(-ensemble // TILE_MEMBERS), ensemble // 2))
    results = ordered_map(_leaf_sums, spec, ensemble, leaf_count, workers)
    # a diverging ensemble overflows to inf and nan, which the callers
    # report; each leaf silences its own overflows, and only the merge is
    # done here
    for (_, first, members), (leaf_moments, leaf_trq, spread) in results:
        with np.errstate(over="ignore", invalid="ignore"):
            moments += leaf_moments
            trq += leaf_trq
            if count:
                seen = first + members
                delta = leaf_moments[:, -1] / members - mean
                m2 += spread + delta * delta * (first * members / seen)
                mean += delta * (members / seen)
    return moments, trq, m2


def ensemble_moments(
    plant: np.ndarray,
    input_model,
    cfg: FilterConfig,
    sigma_z2: float,
    n: int,
    ensemble: int,
    seed: int,
    w_init: np.ndarray | None = None,
    workers: int = 1,
) -> EnsembleMoments:
    """Sample the five transient-model moments at iteration n.

    Runs `ensemble` independent trajectories of the configured filter for n
    steps from w_init (zeros by default), then evaluates the moment
    expectations with the true weight error w_n - plant.  The leaves' sums
    are added in leaf order, and their spreads about the leaf means are
    merged in leaf order by the pairwise update of Chan, Golub and LeVeque,
    so no number depends on `workers`.
    """
    spec = (plant, input_model, cfg, sigma_z2, seed, w_init, n, 1)
    moments, _, m2 = _ensemble_sums(spec, ensemble, workers)
    # a diverging ensemble's standard errors fail EnsembleMoments' check,
    # so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        ses = (np.sqrt(m2 / (ensemble - 1)) / math.sqrt(ensemble)).tolist()
    return EnsembleMoments(*(moments[:, 0] / ensemble).tolist(), *ses, ensemble=ensemble)


@dataclass(frozen=True)
class ModelValidationReport:
    """Per-step comparison of ensemble tr{Q} increments against the model."""

    mu: float
    rho: float
    mode: str
    horizon: int
    ensemble: int
    trq: np.ndarray
    ensemble_increments: np.ndarray
    model_increments: np.ndarray
    rel_deviation: np.ndarray

    @property
    def max_rel_deviation(self) -> float:
        return float(self.rel_deviation.max()) if self.rel_deviation.size else 0.0

    def to_dict(self) -> dict:
        """The report as JSON values.  JSON has no NaN or infinity, so a
        diverging case writes each such value as None (null)."""
        def column(values):
            finite = np.isfinite(values)
            return (values if finite.all() else np.where(finite, values, None)).tolist()

        peak = self.max_rel_deviation
        return {
            "mu": self.mu,
            "rho": self.rho,
            "mode": self.mode,
            "horizon": self.horizon,
            "ensemble": self.ensemble,
            "max_rel_deviation": peak if math.isfinite(peak) else None,
            "trq": column(self.trq),
            "ensemble_increments": column(self.ensemble_increments),
            "model_increments": column(self.model_increments),
            "rel_deviation": column(self.rel_deviation),
        }


def validate_model_recursion(
    plant: np.ndarray,
    input_model: WhiteGaussian,
    cfg: FilterConfig,
    sigma_z2: float,
    horizon: int,
    ensemble: int,
    seed: int,
    workers: int = 1,
) -> ModelValidationReport:
    """Check the one-step MSD recursion against a Monte-Carlo ensemble.

    At every step t < horizon the realized change in the ensemble tr{Q} is
    compared with mu^2 g + rho^2 h + 2 mu rho ell - 2 mu r1 - 2 rho r2
    evaluated at that step's sampled moments.  Restricted to white Gaussian
    input: the moment estimators pair exactly with the realized update there,
    so any systematic gap indicates a genuine model or implementation error
    rather than a colored-input artifact.  The leaves run on up to `workers`
    processes, and their sums are added in leaf order, so the report does
    not depend on `workers`.
    """
    if not isinstance(input_model, WhiteGaussian):
        raise TypeError("model validation is defined for white Gaussian input only")
    spec = (plant, input_model, cfg, sigma_z2, seed, None, 0, horizon)
    moments, trq, _ = _ensemble_sums(spec, ensemble, workers)
    # a diverging case overflows to inf and nan; its deviation reads NaN,
    # which fails the tolerance, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        g, h, ell, r1, r2 = moments / ensemble
        trq /= ensemble
        mu, rho = cfg.mu, cfg.rho
        model_inc = (
            mu * mu * g + rho * rho * h + 2.0 * mu * rho * ell
            - 2.0 * mu * r1 - 2.0 * rho * r2
        )
        ens_inc = np.diff(trq)
        denom = np.maximum(np.abs(model_inc), np.finfo(float).tiny)
        rel = np.abs(ens_inc - model_inc) / denom
    mode = cfg.mode.tag if cfg.mode is not None else "lms"
    return ModelValidationReport(
        mu=mu, rho=rho, mode=mode, horizon=horizon, ensemble=ensemble,
        trq=trq, ensemble_increments=ens_inc, model_increments=model_inc,
        rel_deviation=rel,
    )
