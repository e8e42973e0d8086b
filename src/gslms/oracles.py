"""Brute-force oracles for the closed-form code paths.

Everything in here re-derives a quantity by independent means — exhaustive
grid search, central finite differences, or a vectorized Monte-Carlo ensemble
— so the analytic implementations elsewhere in the package can be checked
against something that cannot share their bugs.  The ensemble simulator
advances all weight-error trajectories with batched numpy expressions rather
than reusing the per-sample filter loop.  It splits the members into
near-equal tiles and stores each tile taps x members, so the member axis has
unit stride: each member's input is a time-reversed column, a step's
regressors are one contiguous (L, T) block, and every kernel of the fused
step runs along whole rows of members.
A step takes the per-member moment samples only when asked:
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


def _member_samples(input_model, ensemble: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(ensemble, count) matrix of scalar input samples, one row per member."""
    if isinstance(input_model, WhiteGaussian):
        return rng.normal(0.0, math.sqrt(input_model.variance), size=(ensemble, count))
    if isinstance(input_model, AR1GaussianMixture):
        burn = 1000
        sd = math.sqrt(input_model.sigma_v2)
        total = count + burn
        signs = np.where(rng.random(size=(ensemble, total)) < 0.5, -1.0, 1.0)
        v = input_model.a * sd * signs + rng.normal(0.0, sd, size=(ensemble, total))
        x = v.copy()
        for t in range(1, total):
            x[:, t] += input_model.alpha * x[:, t - 1]
        return x[:, burn:]
    raise TypeError(f"unsupported input model {type(input_model).__name__}")


class _EnsemblePass:
    """Batched simulation of `ensemble` independent trajectories.

    The members are split into near-equal tiles of at most TILE_MEMBERS,
    and every tile is stored taps x members, so the member axis has unit
    stride: (L, T) weight-error rows, (steps + L - 1, T) rows of the
    time-reversed, zero-padded input (one column per member, as
    SignalStream.x_rev), whose rows steps-1-t to steps-2-t+L are step t's
    regressors, and (steps, T) noise rows.  No tile is narrower than two
    members where the ensemble has two: a one-member tile is contiguous
    along the taps, so einsum would take its dot kernel and sum in another
    order.  step() applies the filter update to each tile's weight-error
    rows in place.  A sampled step also writes each member's five moment
    samples into the (5, E) buffer samples and its squared weight error
    after the update into the (E,) buffer trq_rows; callers reduce over the
    full buffers, so no result depends on the tiles.
    """

    def __init__(
        self,
        plant: np.ndarray,
        input_model,
        cfg: FilterConfig,
        sigma_z2: float,
        steps: int,
        ensemble: int,
        seed: int,
        w_init: np.ndarray | None = None,
    ):
        plant = np.asarray(plant, dtype=float)
        L = cfg.L
        if plant.shape != (L,):
            raise ValueError("plant length must match the filter length")
        count = max(1, min(-(-ensemble // TILE_MEMBERS), ensemble // 2))
        edges = [ensemble * k // count for k in range(count + 1)]
        self._spans = list(zip(edges, edges[1:]))
        ss = np.random.SeedSequence(seed)
        x_rng, z_rng = (np.random.default_rng(s) for s in ss.spawn(2))
        x = _member_samples(input_model, ensemble, steps, x_rng)
        self._xr = []
        for lo, hi in self._spans:
            xr = np.zeros((steps + L - 1, hi - lo))
            xr[:steps] = x[lo:hi, ::-1].T
            self._xr.append(xr)
        del x  # so x, the regressor tiles and the noise never coexist
        # tile by tile, these are exactly the values of one (E, steps) draw
        sd = math.sqrt(sigma_z2)
        self._z = [z_rng.normal(0.0, sd, size=(hi - lo, steps)).T.copy()
                   for lo, hi in self._spans]
        w0 = np.zeros(L) if w_init is None else np.asarray(w_init, dtype=float)
        wt0 = (w0 - plant)[:, None]
        self._wt = [np.broadcast_to(wt0, (L, hi - lo)).copy() for lo, hi in self._spans]
        self.plant = plant[:, None]
        self.cfg = cfg
        self.g_floor = sigma_z2 * (L * stationary_power(input_model))  # sigma_z2 tr{R_u}
        self.steps = steps
        self.t = 0
        # rows g, h, ell, r1, r2; an LMS pass never writes h, ell or r2,
        # which are exactly 0 without an attractor
        self.samples = np.zeros((5, ensemble))
        self.trq_rows = np.empty(ensemble)
        for (lo, hi), Wt in zip(self._spans, self._wt):
            np.einsum("lt,lt->t", Wt, Wt, out=self.trq_rows[lo:hi])
        width = max(hi - lo for lo, hi in self._spans)
        self._a = np.empty(width)
        self._scratch = np.empty(L * width)
        self._bs = np.empty(L * width) if cfg.mode is not None else None

    def step(self, sample: bool = False) -> None:
        """Apply step t's filter update to every member.  With sample, first
        take the five moment samples at step t, and after the update each
        member's squared weight error.  The attractor is evaluated only when
        the samples or the update read it."""
        t, cfg, L = self.t, self.cfg, self.cfg.L
        attract = cfg.mode is not None and (sample or cfg.rho != 0.0)
        first = self.steps - 1 - t
        for (lo, hi), xr, z, Wt in zip(self._spans, self._xr, self._z, self._wt):
            n = hi - lo
            U, a = xr[first:first + L], self._a[:n]
            S = self._scratch[:L * n].reshape(L, n)
            np.einsum("lt,lt->t", Wt, U, out=a)
            if attract:
                BS = _attractor_matrix(np.add(Wt, self.plant, out=S), cfg.partition,
                                       cfg.mode, self._bs[:L * n].reshape(L, n))
            if sample:
                g, h, ell, r1, r2 = self.samples[:, lo:hi]
                np.multiply(a, a, out=r1)
                np.einsum("lt,lt->t", U, U, out=g)
                g *= r1
                g += self.g_floor
                if cfg.mode is not None:
                    np.einsum("lt,lt->t", BS, BS, out=h)
                    np.einsum("lt,lt->t", U, BS, out=ell)
                    ell *= a
                    np.einsum("lt,lt->t", BS, Wt, out=r2)
            e = np.subtract(z[t], a, out=a)
            e *= cfg.mu
            Wt += np.multiply(e, U, out=S)
            if cfg.mode is not None and cfg.rho != 0.0:
                Wt -= np.multiply(BS, cfg.rho, out=S)
            if sample:
                np.einsum("lt,lt->t", Wt, Wt, out=self.trq_rows[lo:hi])
        self.t = t + 1


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
    run = _EnsemblePass(plant, input_model, cfg, sigma_z2, n + 1, ensemble, seed, w_init)
    # a diverging ensemble overflows to inf and nan; its standard errors
    # then fail EnsembleMoments' check, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            run.step()
        run.step(sample=True)  # its update, on the pass's last noise column, goes unread
        means = run.samples.mean(axis=1).tolist()
        ses = (run.samples.std(axis=1, ddof=1) / math.sqrt(ensemble)).tolist()
    return EnsembleMoments(*means, *ses, ensemble=ensemble)


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
    run = _EnsemblePass(plant, input_model, cfg, sigma_z2, horizon, ensemble, seed)
    # a diverging case overflows to inf and nan; its deviation reads NaN,
    # which fails the tolerance, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.empty((5, horizon))  # rows g, h, ell, r1, r2
        trq = np.empty(horizon + 1)
        trq[0] = run.trq_rows.mean()
        for t in range(horizon):
            run.step(sample=True)
            means[:, t] = run.samples.mean(axis=1)
            trq[t + 1] = run.trq_rows.mean()
        g, h, ell, r1, r2 = means
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
