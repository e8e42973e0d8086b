"""Brute-force oracles for the closed-form code paths.

Everything in here re-derives a quantity by independent means — exhaustive
grid search, central finite differences, or a vectorized Monte-Carlo ensemble
— so the analytic implementations elsewhere in the package can be checked
against something that cannot share their bugs.  The ensemble simulator
advances all weight-error trajectories with batched numpy expressions rather
than reusing the per-sample filter loop.  It splits the members into
near-equal tiles and stores each tile taps x members, so the member axis has
unit stride: a step's regressors are one contiguous (L, T) block of the
tile's rolling window of time-reversed inputs, and every kernel of the fused
step runs along whole rows of members.  The input and the noise are drawn
step-major one block of steps at a time, so the simulator's memory does not
grow with the number of steps.  It advances a block tile by tile, all of one
tile's steps before the next tile's, so a tile's weight errors and
regressor window stay in cache from one step to the next.
A block takes the per-member moment samples only when asked:
validate_model_recursion samples every step and keeps only the per-step
means, while ensemble_moments samples its final step alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import FilterConfig
from .groups import ZERO_GROUP_TOL, GRZA, AttractorMode, GroupPartition, l12_norm
from .signals import AR1GaussianMixture, WhiteGaussian, stationary_power
from .varparam import MomentEstimates

# Most members per tile of the fused ensemble step.  At L = 35 an (L, 1024)
# float64 array is 280 KB, so a tile's regressor block, weight-error and
# scratch rows stay in a core's L2 cache across the dozen kernels of one step.
TILE_MEMBERS = 1024
# Most steps of one block.  A block draws (BLOCK_STEPS, E) inputs and noise,
# and a sampled one keeps each step's per-member samples, (BLOCK_STEPS, 6, E)
# doubles, until the block has reduced them to their ensemble means.
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


class _EnsemblePass:
    """Batched simulation of `ensemble` independent trajectories.

    The members are split into near-equal tiles of at most TILE_MEMBERS,
    and every tile is stored taps x members, so the member axis has unit
    stride: (L, T) weight-error rows and a rolling (K + L - 1, T) window of
    the time-reversed input (one column per member), K = BLOCK_STEPS.  The
    input and the noise are drawn step-major, (count, E) per
    block from the two generators spawned from the seed, and an AR(1)
    member's state carries from block to block, so the draws depend neither
    on the tiles nor on the block length, and no more than a block of them
    is ever held.  At the start of a block of count steps each window moves
    its L - 1 latest inputs down to rows count to count+L-2 and takes the
    block's inputs, latest first, in rows 0 to count-1, so step k of the
    block reads its regressors as the contiguous rows count-1-k to
    count-2-k+L; the window starts at zero, which is the zero padding
    before the first step.  The plant is one (L, width) block of equal
    columns, so each operand of the weight sum has unit stride.  No tile is
    narrower than two members where the ensemble has two: a one-member tile
    is contiguous along the taps, so einsum would take its dot kernel and
    sum in another order.  advance() applies blocks of steps to each tile's
    weight-error rows in place, running all of a tile's steps of a block
    before the next tile.  A sampled block also writes each member's five
    moment samples at its k-th step into the (K, 5, E) buffer samples[k]
    and its squared weight error after that update into the (K, E) buffer
    trq_rows[k], and reduces them over the full (E,) rows, so no result
    depends on the tiles or the block length.  trq0 is the mean squared
    weight error at the start.
    """

    def __init__(
        self,
        plant: np.ndarray,
        input_model,
        cfg: FilterConfig,
        sigma_z2: float,
        ensemble: int,
        seed: int,
        w_init: np.ndarray | None = None,
    ):
        plant = np.asarray(plant, dtype=float)
        L = cfg.L
        if plant.shape != (L,):
            raise ValueError("plant length must match the filter length")
        if isinstance(input_model, WhiteGaussian):
            self._x_sd, self._x_prev = math.sqrt(input_model.variance), None
        elif isinstance(input_model, AR1GaussianMixture):
            self._x_sd, self._x_prev = math.sqrt(input_model.sigma_v2), np.zeros(ensemble)
        else:
            raise TypeError(f"unsupported input model {type(input_model).__name__}")
        self._input_model, self._ensemble = input_model, ensemble
        self._z_sd = math.sqrt(sigma_z2)
        self._x_rng, self._z_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        if self._x_prev is not None:
            for _ in range(1000):  # burn-in
                self._ar1_step()
        self._block = BLOCK_STEPS
        # rows g, h, ell, r1, r2; an LMS pass never writes h, ell or r2,
        # which are exactly 0 without an attractor
        self.samples = np.zeros((self._block, 5, ensemble))
        self.trq_rows = np.empty((self._block, ensemble))
        count = max(1, min(-(-ensemble // TILE_MEMBERS), ensemble // 2))
        edges = [ensemble * k // count for k in range(count + 1)]
        self._spans = list(zip(edges, edges[1:]))
        self._xr = [np.zeros((self._block + L - 1, hi - lo)) for lo, hi in self._spans]
        w0 = np.zeros(L) if w_init is None else np.asarray(w_init, dtype=float)
        wt0 = (w0 - plant)[:, None]
        self._wt = [np.broadcast_to(wt0, (L, hi - lo)).copy() for lo, hi in self._spans]
        width = max(hi - lo for lo, hi in self._spans)
        self._plant = np.broadcast_to(plant[:, None], (L, width)).copy()
        self.cfg = cfg
        self.g_floor = sigma_z2 * (L * stationary_power(input_model))  # sigma_z2 tr{R_u}
        self.trq0 = np.concatenate([np.einsum("lt,lt->t", Wt, Wt) for Wt in self._wt]).mean()
        self._a = np.empty(width)
        self._scratch = np.empty(L * width)
        self._bs = np.empty(L * width) if cfg.mode is not None else None

    def _ar1_step(self) -> np.ndarray:
        """Every member's next AR(1)-mixture input x_t = v_t + alpha x_{t-1}:
        E uniforms pick the signs of the mixture means, then E normals."""
        m, rng, E = self._input_model, self._x_rng, self._x_prev.size
        signs = np.where(rng.random(E) < 0.5, -1.0, 1.0)
        x = m.a * self._x_sd * signs + rng.normal(0.0, self._x_sd, size=E)
        x += m.alpha * self._x_prev
        self._x_prev = x
        return x

    def _inputs(self, count: int) -> np.ndarray:
        """Every member's input at the next count steps, (count, E)."""
        if self._x_prev is None:
            return self._x_rng.normal(0.0, self._x_sd, size=(count, self._ensemble))
        return np.stack([self._ar1_step() for _ in range(count)])

    def advance(self, count: int, sample: bool = False):
        """Apply the filter updates of the next count steps to every member,
        in blocks of at most K steps, tile by tile.  With sample, also take
        the five moment samples at each step and, after its update, each
        member's squared weight error, and return their ensemble means: the
        (5, count) rows g, h, ell, r1, r2 and the (count,) mean squared
        weight errors.  The attractor is evaluated only when the samples or
        the update read it."""
        cfg, L = self.cfg, self.cfg.L
        attract = cfg.mode is not None and (sample or cfg.rho != 0.0)
        shrink = cfg.mode is not None and cfg.rho != 0.0
        if sample:
            means, trq = np.empty((5, count)), np.empty(count)
        for done in range(0, count, self._block):
            steps = min(self._block, count - done)
            x = self._inputs(steps)
            z = self._z_rng.normal(0.0, self._z_sd, size=x.shape)
            for (lo, hi), xr, Wt in zip(self._spans, self._xr, self._wt):
                n = hi - lo
                xr[steps:steps + L - 1] = xr[:L - 1]
                xr[:steps] = x[::-1, lo:hi]
                a, P = self._a[:n], self._plant[:, :n]
                S = self._scratch[:L * n].reshape(L, n)
                if attract:
                    B = self._bs[:L * n].reshape(L, n)
                for k in range(steps):
                    U = xr[steps - 1 - k:steps - 1 - k + L]
                    np.einsum("lt,lt->t", Wt, U, out=a)
                    if attract:
                        BS = _attractor_matrix(np.add(Wt, P, out=S), cfg.partition, cfg.mode, B)
                    if sample:
                        g, h, ell, r1, r2 = self.samples[k, :, lo:hi]
                        np.multiply(a, a, out=r1)
                        np.einsum("lt,lt->t", U, U, out=g)
                        g *= r1
                        g += self.g_floor
                        if cfg.mode is not None:
                            np.einsum("lt,lt->t", BS, BS, out=h)
                            np.einsum("lt,lt->t", U, BS, out=ell)
                            ell *= a
                            np.einsum("lt,lt->t", BS, Wt, out=r2)
                    e = np.subtract(z[k, lo:hi], a, out=a)
                    e *= cfg.mu
                    Wt += np.multiply(e, U, out=S)
                    if shrink:
                        Wt -= np.multiply(BS, cfg.rho, out=S)
                    if sample:
                        np.einsum("lt,lt->t", Wt, Wt, out=self.trq_rows[k, lo:hi])
            if sample:
                means[:, done:done + steps] = self.samples[:steps].mean(axis=2).T
                trq[done:done + steps] = self.trq_rows[:steps].mean(axis=1)
            del x, z  # so the next block's draws are not made beside these
        if sample:
            return means, trq


def ensemble_moments(
    plant: np.ndarray,
    input_model,
    cfg: FilterConfig,
    sigma_z2: float,
    n: int,
    ensemble: int,
    seed: int,
    w_init: np.ndarray | None = None,
) -> EnsembleMoments:
    """Sample the five transient-model moments at iteration n.

    Runs `ensemble` independent trajectories of the configured filter for n
    steps from w_init (zeros by default), then evaluates the moment
    expectations with the true weight error w_n - plant.
    """
    run = _EnsemblePass(plant, input_model, cfg, sigma_z2, ensemble, seed, w_init)
    # a diverging ensemble overflows to inf and nan; its standard errors
    # then fail EnsembleMoments' check, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        run.advance(n)
        means, _ = run.advance(1, sample=True)  # its update goes unread
        ses = (run.samples[0].std(axis=1, ddof=1) / math.sqrt(ensemble)).tolist()
    return EnsembleMoments(*means[:, 0].tolist(), *ses, ensemble=ensemble)


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
) -> ModelValidationReport:
    """Check the one-step MSD recursion against a Monte-Carlo ensemble.

    At every step t < horizon the realized change in the ensemble tr{Q} is
    compared with mu^2 g + rho^2 h + 2 mu rho ell - 2 mu r1 - 2 rho r2
    evaluated at that step's sampled moments.  Restricted to white Gaussian
    input: the moment estimators pair exactly with the realized update there,
    so any systematic gap indicates a genuine model or implementation error
    rather than a colored-input artifact.
    """
    if not isinstance(input_model, WhiteGaussian):
        raise TypeError("model validation is defined for white Gaussian input only")
    run = _EnsemblePass(plant, input_model, cfg, sigma_z2, ensemble, seed)
    # a diverging case overflows to inf and nan; its deviation reads NaN,
    # which fails the tolerance, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        (g, h, ell, r1, r2), trq = run.advance(horizon, sample=True)
        trq = np.concatenate(([run.trq0], trq))
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
