"""Brute-force oracles for the closed-form code paths.

Everything in here re-derives a quantity by independent means — exhaustive
grid search, central finite differences, or a vectorized Monte-Carlo ensemble
— so the analytic implementations elsewhere in the package can be checked
against something that cannot share their bugs.  The ensemble simulator
advances all weight-error trajectories with batched numpy expressions rather
than reusing the per-sample filter loop.  It splits the members into fixed
near-equal leaves and simulates each leaf from start to finish on its own
input and noise streams, stored taps x members, so the member axis has unit
stride: a step's regressors are one contiguous (L, T) block of the leaf's
rolling window of time-reversed inputs, and every kernel of the fused step
runs along whole rows of members.  The input and the noise are drawn
step-major one block of steps at a time, so a leaf's memory grows neither
with the number of steps nor with the ensemble.  A leaf returns its per-step
sums over its members, and the caller adds them in leaf order, so the leaves
can run on any number of worker processes with the same result.  A leaf
takes the per-member moment samples only when asked:
validate_model_recursion samples every step and keeps only the per-step
means, while ensemble_moments samples its final step alone.
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
# Most steps of one block.  A block draws (BLOCK_STEPS, T) inputs and noise
# for a leaf of T members, and a sampled one keeps each step's per-member
# samples, (BLOCK_STEPS, 6, T) doubles, until it has summed them.
BLOCK_STEPS = 8


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


class _Leaf:
    """Batched simulation of one leaf's T independent trajectories.

    The members are stored taps x members, so the member axis has unit
    stride: (L, T) weight-error rows and a rolling (K + L - 1, T) window of
    the time-reversed input (one column per member), K = BLOCK_STEPS.  The
    input and the noise are drawn step-major, (count, T) per block of at
    most K steps, from the leaf's own two generators,
    ``SeedSequence(seed, spawn_key=(index,)).spawn(2)``, and an AR(1)
    member's state carries from block to block, so the draws do not depend
    on the block length, and no more than a block of them is ever held.
    At the start of a block of count steps the window moves its L - 1
    latest inputs down to rows count to count+L-2 and takes the block's
    inputs, latest first, in rows 0 to count-1, so step k of the block
    reads its regressors as the contiguous rows count-1-k to count-2-k+L;
    the window starts at zero, which is the zero padding before the first
    step.  The plant is one (L, T) block of equal columns, so each operand
    of the weight sum has unit stride.  A sampled block also writes each
    member's five moment samples at its k-th step into the (K, 5, T) buffer
    samples[k] and its squared weight error after that update into the
    (K, T) buffer trq_rows[k], and sums both over the members.
    """

    def __init__(
        self,
        plant: np.ndarray,
        input_model,
        cfg: FilterConfig,
        sigma_z2: float,
        members: int,
        seed: int,
        index: int,
        w_init: np.ndarray | None = None,
    ):
        plant = np.asarray(plant, dtype=float)
        L = cfg.L
        if plant.shape != (L,):
            raise ValueError("plant length must match the filter length")
        if isinstance(input_model, WhiteGaussian):
            self._x_sd, self._x_prev = math.sqrt(input_model.variance), None
        elif isinstance(input_model, AR1GaussianMixture):
            self._x_sd, self._x_prev = math.sqrt(input_model.sigma_v2), np.zeros(members)
        else:
            raise TypeError(f"unsupported input model {type(input_model).__name__}")
        self._input_model, self._members = input_model, members
        self._z_sd = math.sqrt(sigma_z2)
        self._x_rng, self._z_rng = (
            np.random.default_rng(s)
            for s in np.random.SeedSequence(seed, spawn_key=(index,)).spawn(2))
        if self._x_prev is not None:
            for _ in range(1000):  # burn-in
                self._ar1_step()
        self._block = BLOCK_STEPS
        # rows g, h, ell, r1, r2; an LMS leaf never writes h, ell or r2,
        # which are exactly 0 without an attractor
        self.samples = np.zeros((self._block, 5, members))
        self.trq_rows = np.empty((self._block, members))
        self._xr = np.zeros((self._block + L - 1, members))
        w0 = np.zeros(L) if w_init is None else np.asarray(w_init, dtype=float)
        self.wt = np.broadcast_to((w0 - plant)[:, None], (L, members)).copy()
        self._plant = np.broadcast_to(plant[:, None], (L, members)).copy()
        self.cfg = cfg
        self.g_floor = sigma_z2 * (L * stationary_power(input_model))  # sigma_z2 tr{R_u}
        self._a = np.empty(members)
        self._scratch = np.empty((L, members))
        self._bs = np.empty((L, members)) if cfg.mode is not None else None

    def _ar1_step(self) -> np.ndarray:
        """Every member's next AR(1)-mixture input x_t = v_t + alpha x_{t-1}:
        T uniforms pick the signs of the mixture means, then T normals."""
        m, rng, T = self._input_model, self._x_rng, self._members
        signs = np.where(rng.random(T) < 0.5, -1.0, 1.0)
        x = m.a * self._x_sd * signs + rng.normal(0.0, self._x_sd, size=T)
        x += m.alpha * self._x_prev
        self._x_prev = x
        return x

    def _inputs(self, count: int) -> np.ndarray:
        """Every member's input at the next count steps, (count, T)."""
        if self._x_prev is None:
            return self._x_rng.normal(0.0, self._x_sd, size=(count, self._members))
        return np.stack([self._ar1_step() for _ in range(count)])

    def advance(self, count: int, sample: bool = False):
        """Apply the filter updates of the next count steps to every member,
        in blocks of at most K steps.  With sample, also take the five
        moment samples at each step and, after its update, each member's
        squared weight error, and return their sums over the members: the
        (5, count) rows g, h, ell, r1, r2 and the (count,) squared weight
        errors.  The attractor is evaluated only when the samples or the
        update read it."""
        cfg, L = self.cfg, self.cfg.L
        attract = cfg.mode is not None and (sample or cfg.rho != 0.0)
        shrink = cfg.mode is not None and cfg.rho != 0.0
        xr, Wt, P, a, S, B = self._xr, self.wt, self._plant, self._a, self._scratch, self._bs
        if sample:
            moments, trq = np.empty((5, count)), np.empty(count)
        for done in range(0, count, self._block):
            steps = min(self._block, count - done)
            x = self._inputs(steps)
            z = self._z_rng.normal(0.0, self._z_sd, size=x.shape)
            xr[steps:steps + L - 1] = xr[:L - 1]
            xr[:steps] = x[::-1]
            for k in range(steps):
                U = xr[steps - 1 - k:steps - 1 - k + L]
                np.einsum("lt,lt->t", Wt, U, out=a)
                if attract:
                    BS = _attractor_matrix(np.add(Wt, P, out=S), cfg.partition, cfg.mode, B)
                if sample:
                    g, h, ell, r1, r2 = self.samples[k]
                    np.multiply(a, a, out=r1)
                    np.einsum("lt,lt->t", U, U, out=g)
                    g *= r1
                    g += self.g_floor
                    if cfg.mode is not None:
                        np.einsum("lt,lt->t", BS, BS, out=h)
                        np.einsum("lt,lt->t", U, BS, out=ell)
                        ell *= a
                        np.einsum("lt,lt->t", BS, Wt, out=r2)
                e = np.subtract(z[k], a, out=a)
                e *= cfg.mu
                Wt += np.multiply(e, U, out=S)
                if shrink:
                    Wt -= np.multiply(BS, cfg.rho, out=S)
                if sample:
                    np.einsum("lt,lt->t", Wt, Wt, out=self.trq_rows[k])
            if sample:
                moments[:, done:done + steps] = self.samples[:steps].sum(axis=2).T
                trq[done:done + steps] = self.trq_rows[:steps].sum(axis=1)
            del x, z  # so the next block's draws are not made beside these
        if sample:
            return moments, trq


def _leaf_sums(task):
    """Worker: simulate one leaf from start to finish.  It advances `warm`
    steps unsampled, then samples `count` steps, and returns three sums over
    its members: the (5, count) moment rows, the (count + 1,) squared weight
    errors before the first sampled step and after each, and the (5,)
    squared deviations of the last sampled step's moments from their leaf
    mean (zeros for count = 0)."""
    (plant, input_model, cfg, sigma_z2, seed, w_init, warm, count), (index, _, members) = task
    leaf = _Leaf(plant, input_model, cfg, sigma_z2, members, seed, index, w_init)
    # a diverging leaf overflows to inf and nan, which the caller reports;
    # a pool worker does not run under the caller's errstate, so the leaf
    # sets its own
    with np.errstate(over="ignore", invalid="ignore"):
        leaf.advance(warm)
        first = np.einsum("lt,lt->t", leaf.wt, leaf.wt).sum()
        moments, trq = leaf.advance(count, sample=True)
        spread = np.zeros(5)
        if count:
            last = leaf.samples[(count - 1) % leaf._block]
            dev = last - last.mean(axis=1, keepdims=True)
            spread = np.multiply(dev, dev, out=dev).sum(axis=1)
    return moments, np.concatenate(([first], trq)), spread


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
        return {
            "mu": self.mu,
            "rho": self.rho,
            "mode": self.mode,
            "horizon": self.horizon,
            "ensemble": self.ensemble,
            "max_rel_deviation": self.max_rel_deviation,
            "trq": self.trq.tolist(),
            "ensemble_increments": self.ensemble_increments.tolist(),
            "model_increments": self.model_increments.tolist(),
            "rel_deviation": self.rel_deviation.tolist(),
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
