"""Online joint adaptation of step size and shrinkage parameter.

Per iteration the engine estimates the excess mean-square error from a
smoothed error signal, builds instantaneous estimates of the five second-order
moments that govern the one-step mean-square-deviation recursion, solves the
resulting 2x2 quadratic for the deviation-optimal ``(mu, rho)`` in closed
form, smooths and clamps the result, and finally propagates its own model of
the deviation to obtain the lower bound used by the next EMSE estimate.

All state lives in :class:`VpState`, which is owned by exactly one filter and
mutated in lockstep with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import attractor_term, row_dot

__all__ = [
    "DET_TOL",
    "ModelError",
    "MomentEstimates",
    "VpState",
    "default_mu_max",
    "estimate_emse",
    "g_terms",
    "compute_g",
    "compute_r1",
    "one_step_plant_estimate",
    "compute_instantaneous_moments",
    "solve_optimal_params",
    "propagate_model_msd",
    "smooth_and_clamp",
    "vp_iteration",
]

# Relative determinant tolerance (scaled by g*h) below which the closed-form
# 2x2 solve is abandoned for the attractor-free fallback.  Instantaneous
# moment estimates make the quadratic's Hessian nearly singular whenever the
# attractor product is close to zero.
DET_TOL = 1e-10
_TINY = float(np.finfo(np.float64).tiny)


class ModelError(RuntimeError):
    """A transient-model invariant broke (e.g. non-positive normalization)."""


def default_mu_max(sigma_u2: float, L: int) -> float:
    """Conservative step-size cap used when no explicit bound is given."""
    return 2.0 / (3.0 * sigma_u2 * L)


@dataclass
class MomentEstimates:
    """Per-iteration estimates of the recursion moments.

    ``g`` scales the squared step size, ``h`` the squared shrinkage, ``ell``
    their cross term, and ``r1``/``r2`` the two linear gain terms.
    """

    g: float
    h: float
    ell: float
    r1: float
    r2: float


@dataclass
class VpState:
    """Memory of the variable-parameter engine.

    ``sigma_z2`` (noise variance) and ``sigma_u2`` (input power) are assumed
    known and enter the moment formulas directly.  ``gamma`` smooths the
    error signal, ``gamma_prime`` smooths the parameter sequence, ``mu_max``
    caps the step size.  ``xi_model`` is the engine's own running model of
    the mean-square deviation; ``zeta_min`` is the EMSE lower bound derived
    from it.
    """

    L: int
    sigma_z2: float
    sigma_u2: float
    gamma: float = 0.95
    gamma_prime: float = 0.95
    mu_max: float = field(default=math.inf)
    e_smooth: float = 0.0
    xi_model: float = 0.0
    zeta_min: float = 0.0
    mu_prev: float = 0.0
    rho_prev: float = 0.0

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("filter length must be at least 1")
        if not 0.0 <= self.gamma < 1.0 or not 0.0 <= self.gamma_prime < 1.0:
            raise ValueError("smoothing factors must lie in [0, 1)")
        if not self.mu_max > 0:
            raise ValueError("mu_max must be positive")
        if self.zeta_min < 0 or self.xi_model < 0:
            raise ValueError("model deviation and EMSE bound must be non-negative")

    @classmethod
    def for_filter(
        cls,
        L: int,
        sigma_z2: float,
        sigma_u2: float,
        gamma: float = 0.95,
        gamma_prime: float = 0.95,
        mu_max: float | None = None,
    ) -> "VpState":
        """Fresh engine state with the default step-size cap when unset."""
        if mu_max is None:
            mu_max = default_mu_max(sigma_u2, L)
        return cls(
            L=L,
            sigma_z2=sigma_z2,
            sigma_u2=sigma_u2,
            gamma=gamma,
            gamma_prime=gamma_prime,
            mu_max=mu_max,
        )


def estimate_emse(vp: VpState, e_n: float) -> float:
    """Update the smoothed error and return the clamped EMSE estimate.

    The smoothed error follows ``e_hat <- (1-gamma) e + gamma e_hat``; the
    estimate is ``max(e_hat^2 - sigma_z2, zeta_min)`` and is always
    non-negative because the lower bound is.
    """
    vp.e_smooth = (1.0 - vp.gamma) * e_n + vp.gamma * vp.e_smooth
    return max(vp.e_smooth * vp.e_smooth - vp.sigma_z2, vp.zeta_min)


def g_terms(sigma_z2: float, sigma_u2: float, L: int) -> tuple[float, float]:
    """``(g0, g1)`` of the quadratic step-size moment ``g = g0 + g1 zeta``
    under white Gaussian input: ``g0 = sigma_z2 sigma_u2 L`` and
    ``g1 = (2 + L) sigma_u2``."""
    return sigma_z2 * sigma_u2 * L, (2.0 + L) * sigma_u2


def compute_g(vp: VpState, zeta_hat: float) -> float:
    """Quadratic step-size moment under white Gaussian input (:func:`g_terms`)."""
    g0, g1 = g_terms(vp.sigma_z2, vp.sigma_u2, vp.L)
    return g0 + g1 * zeta_hat


def compute_r1(zeta_hat: float) -> float:
    """The linear step-size gain equals the EMSE itself."""
    return zeta_hat


def one_step_plant_estimate(
    w_n: np.ndarray, e_n: float, u_n: np.ndarray, r1: float, g: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-step approximation of the unknown plant and the weight error.

    A single gradient-like correction ``p = -(r1/g) e u`` gives the plant
    estimate ``w - p``; the estimated weight-error vector is then ``p``
    itself.
    """
    if not g > 0:
        raise ModelError(f"normalization moment must be positive, got g={g}")
    p = (-(r1 / g) * e_n) * u_n
    return w_n - p, p


def compute_instantaneous_moments(
    w_tilde_hat: np.ndarray, u_n: np.ndarray, beta_s: np.ndarray
) -> tuple[float, float, float]:
    """Single-sample estimates of the attractor moments ``(h, ell, r2)``.

    ``beta_s`` is the expanded weight/direction Hadamard product; ``h`` is
    its squared norm, ``ell`` couples it to the input direction, ``r2`` to
    the weight error.
    """
    if not (w_tilde_hat.shape == u_n.shape == beta_s.shape):
        raise ValueError(
            f"shape mismatch: {w_tilde_hat.shape}, {u_n.shape}, {beta_s.shape}"
        )
    h = row_dot(beta_s, beta_s)
    ell = row_dot(w_tilde_hat, u_n) * row_dot(u_n, beta_s)
    r2 = row_dot(beta_s, w_tilde_hat)
    return float(h), float(ell), float(r2)


def solve_optimal_params(m: MomentEstimates) -> tuple[float, float]:
    """Deviation-optimal ``(mu, rho)`` from the 2x2 normal equations.

    When the Hessian ``[[g, ell], [ell, h]]`` is safely positive definite
    (relative determinant above :data:`DET_TOL`) the closed form applies;
    otherwise the attractor direction is dropped and the pure-LMS optimum
    ``mu = r1/g, rho = 0`` is used.  Both returns are clamped at zero from
    below since the unconstrained solve does not enforce non-negativity.
    """
    g, h, ell, r1, r2 = m.g, m.h, m.ell, m.r1, m.r2
    if not all(map(math.isfinite, (g, h, ell, r1, r2))):
        raise ModelError(f"non-finite moment estimates: {m}")
    if not g > 0:
        raise ModelError(f"normalization moment must be positive, got g={g}")
    det = g * h - ell * ell
    if det > DET_TOL * g * max(h, _TINY):
        mu_star = (h * r1 - ell * r2) / det
        rho_star = (g * r2 - ell * r1) / det
    else:
        mu_star = r1 / g
        rho_star = 0.0
    return max(mu_star, 0.0), max(rho_star, 0.0)


def propagate_model_msd(
    vp: VpState, m: MomentEstimates, mu_n: float, rho_n: float
) -> None:
    """Advance the engine's deviation model with the applied parameters.

    The recursion adds ``mu^2 g + rho^2 h + 2 mu rho ell - 2 mu r1 -
    2 rho r2`` and floors the result at zero; the EMSE lower bound is then
    refreshed as ``sigma_u2`` times the propagated deviation.
    """
    incr = (
        mu_n * mu_n * m.g
        + rho_n * rho_n * m.h
        + 2.0 * mu_n * rho_n * m.ell
        - 2.0 * mu_n * m.r1
        - 2.0 * rho_n * m.r2
    )
    vp.xi_model = max(vp.xi_model + incr, 0.0)
    vp.zeta_min = vp.sigma_u2 * vp.xi_model


def smooth_and_clamp(
    vp: VpState, mu_star: float, rho_star: float
) -> tuple[float, float]:
    """Temporal smoothing of the raw optima plus the step-size cap.

    ``mu_n = min(gamma' mu_{n-1} + (1-gamma') mu*, mu_max)`` and likewise
    for ``rho`` without a cap; the returned values become the previous
    values for the next call.
    """
    gp = vp.gamma_prime
    mu_n = min(gp * vp.mu_prev + (1.0 - gp) * mu_star, vp.mu_max)
    rho_n = gp * vp.rho_prev + (1.0 - gp) * rho_star
    vp.mu_prev = mu_n
    vp.rho_prev = rho_n
    return mu_n, rho_n


def vp_iteration(vp: VpState, state, cfg, u_n: np.ndarray, e_n: float,
                 beta_s: np.ndarray | None = None) -> tuple[float, float]:
    """Full per-iteration chain; returns the parameters to apply now.

    Chains the EMSE estimate, the moment estimates (via the one-step plant
    approximation and the current attractor product), the closed-form solve,
    smoothing/clamping, and finally the model propagation with the
    parameters that the filter will actually use.  ``beta_s``, when given,
    is the attractor product at ``state.w`` (shared with ``step``).  The
    weight-error estimate of :func:`one_step_plant_estimate` is ``c u`` with
    ``c = -(r1/g) e``, so :func:`compute_instantaneous_moments` reduces to
    three dot products: ``h = b.b``, ``ell = (c u.u) (u.b)``, ``r2 = c (u.b)``.
    """
    zeta_hat = estimate_emse(vp, e_n)
    # Re-base the model MSD on the current estimate so the floor written by
    # propagate_model_msd is a one-step prediction from what we know now.  A
    # free-running model started at 0 can never rise (the applied parameters
    # keep its increments nonpositive) and would pin the floor near zero.
    vp.xi_model = zeta_hat / vp.sigma_u2
    g = compute_g(vp, zeta_hat)
    r1 = compute_r1(zeta_hat)
    if not g > 0:
        raise ModelError(f"normalization moment must be positive, got g={g}")
    c = -(r1 / g) * e_n
    if cfg.mode is None:
        beta_s = np.zeros(vp.L)
    elif beta_s is None:
        beta_s = attractor_term(state.w, cfg.partition, cfg.mode)
    h, ub = float(row_dot(beta_s, beta_s)), float(row_dot(u_n, beta_s))
    ell = (c * float(row_dot(u_n, u_n))) * ub
    m = MomentEstimates(g=g, h=h, ell=ell, r1=r1, r2=c * ub)
    mu_star, rho_star = solve_optimal_params(m)
    mu_n, rho_n = smooth_and_clamp(vp, mu_star, rho_star)
    propagate_model_msd(vp, m, mu_n, rho_n)
    return mu_n, rho_n


def _vp_rows_iteration(vps: list[VpState], u, e, beta_s, out):
    """:func:`vp_iteration` on every row; writes mu and then rho into the
    contiguous ``(2, V, R)`` array ``out`` and returns it.

    ``vps`` holds one :class:`VpState` per row, row-major over ``(V, R)``
    (algorithms x runs), and each is advanced in place.  ``u`` is ``(R, L)``,
    ``e`` ``(V, R)``, ``beta_s`` ``(V, R, L)`` (zero rows for plain-LMS
    algorithms).  The three dot products are batched (``u.u`` once per run);
    then one loop runs each row's chain on Python floats, each line repeating
    the scalar chain's floating-point operations in order, so every row's
    outputs and whole state are bit-identical to a :func:`vp_iteration`
    call on it.  ``L``, ``sigma_z2`` and ``sigma_u2`` are read once from the
    first row: the engine builds every row from one config.  ``max(a, b)``
    is spelled ``b if b > a else a`` and ``min(a, b)`` ``b if b < a else a``:
    the builtins' results, signed zeros and NaNs included, without their call
    cost.  A row where :func:`vp_iteration` raises :class:`ModelError` gets
    ``g = nan`` instead: its mu is NaN, so the update makes its weights NaN
    and the engine records the row as diverged at that step.
    """
    L, sigma_z2, sigma_u2 = vps[0].L, vps[0].sigma_z2, vps[0].sigma_u2
    g0, g1 = g_terms(sigma_z2, sigma_u2, L)  # g = g0 + g1 * zeta
    hs = row_dot(beta_s, beta_s).ravel().tolist()
    ubs = row_dot(u, beta_s).ravel().tolist()
    uus = row_dot(u, u).tolist() * len(e)
    mus, rhos = [], []
    for vp, e_k, h, ub, uu in zip(vps, e.ravel().tolist(), hs, ubs, uus):
        # estimate_emse, compute_g, compute_r1 (r1 = zeta)
        s = vp.e_smooth = (1.0 - vp.gamma) * e_k + vp.gamma * vp.e_smooth
        r1, z_min = s * s - sigma_z2, vp.zeta_min
        r1 = z_min if z_min > r1 else r1
        g = g0 + g1 * r1
        if not g > 0:
            g = math.nan  # the model broke (and r1 / 0.0 would raise): mu turns NaN
        # the moments, with the weight-error estimate c u
        c = -(r1 / g) * e_k
        ell = (c * uu) * ub
        r2 = c * ub
        # solve_optimal_params.  A non-finite g, h or ell makes det non-finite,
        # so the cheap test only passes when every moment is finite.
        det = g * h - ell * ell
        if not math.isfinite(det + r2) and not all(map(math.isfinite, (g, h, ell, r1, r2))):
            g = math.nan  # fails the closed-form test, so mu_star = r1 / g is NaN
        if det > DET_TOL * g * (_TINY if _TINY > h else h):
            mu_star = (h * r1 - ell * r2) / det
            rho_star = (g * r2 - ell * r1) / det
        else:
            mu_star = r1 / g
            rho_star = 0.0
        mu_star = 0.0 if 0.0 > mu_star else mu_star
        rho_star = 0.0 if 0.0 > rho_star else rho_star
        # smooth_and_clamp
        gp, mu_max = vp.gamma_prime, vp.mu_max
        mu_n = gp * vp.mu_prev + (1.0 - gp) * mu_star
        mu_n = vp.mu_prev = mu_max if mu_max < mu_n else mu_n
        rho_n = vp.rho_prev = gp * vp.rho_prev + (1.0 - gp) * rho_star
        # propagate_model_msd, from the re-based model zeta / sigma_u2
        incr = (mu_n * mu_n * g + rho_n * rho_n * h + 2.0 * mu_n * rho_n * ell
                - 2.0 * mu_n * r1 - 2.0 * rho_n * r2)
        xi = r1 / sigma_u2 + incr
        xi = vp.xi_model = 0.0 if 0.0 > xi else xi
        vp.zeta_min = sigma_u2 * xi
        mus.append(mu_n)
        rhos.append(rho_n)
    out.reshape(-1)[:] = mus + rhos
    return out
