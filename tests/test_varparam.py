"""Unit tests for the online step-size / shrinkage adaptation engine."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gslms.filters import FilterConfig, initial_state, step
from gslms.groups import GRZA, GZA, AttractorMode, GroupPartition, attractor_term
from gslms.varparam import (
    ModelError,
    MomentEstimates,
    VpState,
    compute_g,
    compute_instantaneous_moments,
    compute_r1,
    default_mu_max,
    estimate_emse,
    one_step_plant_estimate,
    propagate_model_msd,
    smooth_and_clamp,
    solve_optimal_params,
    vp_iteration,
)


def _vp(L=35, sigma_z2=0.01, sigma_u2=1.0, **kw):
    return VpState.for_filter(L, sigma_z2, sigma_u2, **kw)


def random_pd_moments(rng, positive_solution=False):
    """A moment tuple whose quadratic has a safely positive-definite Hessian.

    With ``positive_solution`` the linear terms are rejected-sampled until
    the unconstrained stationary point has both coordinates strictly
    positive.
    """
    while True:
        g = rng.uniform(0.5, 5.0)
        h = rng.uniform(0.1, 5.0)
        ell = rng.uniform(-0.8, 0.8) * math.sqrt(g * h)
        r1 = rng.uniform(0.0, 2.0)
        r2 = rng.uniform(-1.0, 2.0)
        det = g * h - ell * ell
        mu = (h * r1 - ell * r2) / det
        rho = (g * r2 - ell * r1) / det
        if not positive_solution or (mu > 1e-4 and rho > 1e-4):
            return MomentEstimates(g=g, h=h, ell=ell, r1=r1, r2=r2)


def quadratic(m, mu, rho):
    return (
        mu * mu * m.g
        + rho * rho * m.h
        + 2.0 * mu * rho * m.ell
        - 2.0 * mu * m.r1
        - 2.0 * rho * m.r2
    )


# ---------------------------------------------------------------------------
# VpState


def test_vpstate_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        VpState(L=0, sigma_z2=0.01, sigma_u2=1.0)
    with pytest.raises(ValueError):
        VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, gamma_prime=-0.1)
    with pytest.raises(ValueError):
        VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, mu_max=0.0)
    with pytest.raises(ValueError):
        VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, zeta_min=-1e-9)


def test_for_filter_applies_default_step_cap():
    vp = _vp(L=35, sigma_u2=1.0)
    assert vp.mu_max == default_mu_max(1.0, 35)
    assert_allclose(vp.mu_max, 2.0 / 105.0, rtol=1e-15)
    explicit = _vp(mu_max=0.5)
    assert explicit.mu_max == 0.5


# ---------------------------------------------------------------------------
# estimate_emse


def test_estimate_emse_no_smoothing():
    vp = _vp(gamma=0.0)
    zeta = estimate_emse(vp, 0.5)
    assert zeta == 0.5 * 0.5 - 0.01
    assert_allclose(zeta, 0.24, rtol=1e-15)


def test_estimate_emse_clamps_to_lower_bound():
    vp = _vp(gamma=0.0)
    vp.zeta_min = 0.05
    # smoothed error squared is far below the noise floor here
    assert estimate_emse(vp, 0.01) == 0.05


def test_estimate_emse_quiescent_noiseless():
    vp = VpState(L=4, sigma_z2=0.0, sigma_u2=1.0)
    for _ in range(20):
        assert estimate_emse(vp, 0.0) == 0.0


def test_estimate_emse_smoothing_recursion():
    vp = _vp(gamma=0.9)
    estimate_emse(vp, 1.0)
    assert_allclose(vp.e_smooth, 0.1, rtol=1e-15)
    estimate_emse(vp, 1.0)
    assert_allclose(vp.e_smooth, 0.19, rtol=1e-15)


def test_estimate_emse_never_negative():
    vp = _vp(gamma=0.5)
    for e in (0.0, 0.01, -0.02, 0.005, 0.0):
        assert estimate_emse(vp, e) >= 0.0


# ---------------------------------------------------------------------------
# compute_g / compute_r1


def test_compute_g_noise_floor():
    vp = _vp(L=35, sigma_z2=0.01, sigma_u2=1.0)
    assert_allclose(compute_g(vp, 0.0), 0.35, rtol=1e-15)


def test_compute_g_with_excess_error():
    vp = _vp(L=35, sigma_z2=0.01, sigma_u2=1.0)
    assert_allclose(compute_g(vp, 0.1), 0.35 + 3.7, rtol=1e-15)


def test_compute_g_lower_bound_invariant():
    vp = _vp(L=35, sigma_z2=0.01, sigma_u2=1.0)
    floor = vp.sigma_z2 * vp.sigma_u2 * vp.L
    for zeta in (0.0, 1e-8, 0.3, 7.0, 1e5):
        assert compute_g(vp, zeta) >= floor


def test_compute_r1_is_identity():
    for zeta in (0.0, 0.24, 1e6):
        assert compute_r1(zeta) == zeta


# ---------------------------------------------------------------------------
# one_step_plant_estimate


def test_one_step_converged_case():
    w = np.array([1.0, -2.0])
    w_star, w_tilde = one_step_plant_estimate(w, 0.8, np.array([1.0, 1.0]), 0.0, 1.0)
    assert_allclose(w_star, w)
    assert_allclose(w_tilde, np.zeros(2))


def test_one_step_zero_error():
    w = np.array([1.0, -2.0])
    _, w_tilde = one_step_plant_estimate(w, 0.0, np.array([3.0, 4.0]), 0.5, 1.0)
    assert_allclose(w_tilde, np.zeros(2))


def test_one_step_hand_example():
    w = np.array([1.0, 1.0])
    w_star, w_tilde = one_step_plant_estimate(w, 2.0, np.array([1.0, -1.0]), 0.1, 1.0)
    assert_allclose(w_tilde, [-0.2, 0.2], rtol=1e-15)
    assert_allclose(w_star, w - w_tilde, rtol=1e-15)


def test_one_step_rejects_nonpositive_g():
    with pytest.raises(ModelError):
        one_step_plant_estimate(np.zeros(2), 1.0, np.zeros(2), 0.1, 0.0)


# ---------------------------------------------------------------------------
# compute_instantaneous_moments


def test_instantaneous_moments_zero_attractor():
    z = np.zeros(4)
    rng = np.random.default_rng(1)
    h, ell, r2 = compute_instantaneous_moments(rng.normal(size=4), rng.normal(size=4), z)
    assert h == 0.0 and ell == 0.0 and r2 == 0.0


def test_instantaneous_moments_hand_example():
    bs = np.array([0.6, 0.8])
    h, ell, r2 = compute_instantaneous_moments(bs.copy(), np.zeros(2), bs)
    assert_allclose(h, 1.0, rtol=1e-15)
    assert ell == 0.0
    assert_allclose(r2, 1.0, rtol=1e-15)


def test_instantaneous_moments_h_is_squared_norm():
    rng = np.random.default_rng(8)
    for _ in range(20):
        bs = rng.normal(size=6)
        h, _, _ = compute_instantaneous_moments(rng.normal(size=6), rng.normal(size=6), bs)
        assert_allclose(h, float(np.dot(bs, bs)), rtol=1e-12)
        assert h >= 0.0


def test_instantaneous_moments_on_a_scaled_input_reduce_to_three_dots():
    """The weight-error estimate is ``c u``, so the moments that
    ``vp_iteration`` and the block engine compute from three dot products
    match the helper's."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        c = rng.normal() * 10.0 ** rng.uniform(-6.0, 2.0)
        u, bs = rng.normal(size=35), 0.01 * rng.normal(size=35)
        h, ell, r2 = compute_instantaneous_moments(c * u, u, bs)
        ub = np.dot(u, bs)
        assert_allclose((h, ell, r2), (np.dot(bs, bs), c * np.dot(u, u) * ub, c * ub),
                        rtol=1e-14)


def test_instantaneous_moments_shape_mismatch():
    with pytest.raises(ValueError):
        compute_instantaneous_moments(np.zeros(3), np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# solve_optimal_params


def test_solve_diagonal_hessian():
    m = MomentEstimates(g=2.0, h=1.0, ell=0.0, r1=1.0, r2=1.0)
    assert solve_optimal_params(m) == (0.5, 1.0)


def test_solve_fallback_zero_attractor():
    m = MomentEstimates(g=2.0, h=0.0, ell=0.0, r1=1.0, r2=1.0)
    mu, rho = solve_optimal_params(m)
    assert mu == 0.5
    assert rho == 0.0


def test_solve_clamps_negative_solutions():
    # r2 < 0 pulls the shrinkage optimum below zero; it must come back as 0
    m = MomentEstimates(g=1.0, h=1.0, ell=0.0, r1=0.5, r2=-1.0)
    mu, rho = solve_optimal_params(m)
    assert mu == 0.5
    assert rho == 0.0


def test_solve_rejects_bad_moments():
    with pytest.raises(ModelError):
        solve_optimal_params(MomentEstimates(g=0.0, h=1.0, ell=0.0, r1=1.0, r2=1.0))
    with pytest.raises(ModelError):
        solve_optimal_params(MomentEstimates(g=math.nan, h=1.0, ell=0.0, r1=1.0, r2=1.0))


def test_solve_near_singular_hessian_takes_fallback():
    # ell^2 == g h exactly: the closed form would divide by zero
    m = MomentEstimates(g=1.0, h=1.0, ell=1.0, r1=0.3, r2=0.3)
    mu, rho = solve_optimal_params(m)
    assert mu == 0.3
    assert rho == 0.0


def test_solve_stationarity_conditions():
    """Closed-form output satisfies H [mu, rho]^T = [r1, r2]^T."""
    rng = np.random.default_rng(123)
    for _ in range(200):
        m = random_pd_moments(rng, positive_solution=True)
        mu, rho = solve_optimal_params(m)
        lhs = np.array([m.g * mu + m.ell * rho, m.ell * mu + m.h * rho])
        rhs = np.array([m.r1, m.r2])
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-300)


def test_solve_beats_grid_samples():
    """No point of a surrounding grid does better than the closed form."""
    rng = np.random.default_rng(321)
    for _ in range(50):
        m = random_pd_moments(rng, positive_solution=True)
        mu, rho = solve_optimal_params(m)
        best = quadratic(m, mu, rho)
        mus = np.linspace(0.0, 2.0 * mu, 200)
        rhos = np.linspace(0.0, 2.0 * rho, 200)
        grid = quadratic(m, mus[:, None], rhos[None, :])
        assert best <= grid.min() + 1e-12 * abs(best)


# ---------------------------------------------------------------------------
# propagate_model_msd


def test_propagate_zero_parameters_keeps_model():
    vp = _vp()
    vp.xi_model = 0.7
    m = MomentEstimates(g=1.0, h=1.0, ell=0.0, r1=1.0, r2=1.0)
    propagate_model_msd(vp, m, 0.0, 0.0)
    assert vp.xi_model == 0.7
    assert vp.zeta_min == vp.sigma_u2 * 0.7


def test_propagate_hand_example():
    vp = _vp()
    vp.xi_model = 2.0
    m = MomentEstimates(g=1.0, h=1.0, ell=0.0, r1=1.0, r2=0.0)
    propagate_model_msd(vp, m, 1.0, 0.0)
    assert vp.xi_model == 1.0


def test_propagate_floors_at_zero():
    vp = _vp()
    vp.xi_model = 0.1
    m = MomentEstimates(g=1.0, h=0.0, ell=0.0, r1=10.0, r2=0.0)
    propagate_model_msd(vp, m, 0.5, 0.0)  # increment = 0.25 - 10 < -0.1
    assert vp.xi_model == 0.0
    assert vp.zeta_min == 0.0


def test_propagate_at_unconstrained_optimum_never_increases():
    """The quadratic's minimum value is never above its value at the origin."""
    rng = np.random.default_rng(55)
    for _ in range(200):
        m = random_pd_moments(rng)
        det = m.g * m.h - m.ell * m.ell
        mu = (m.h * m.r1 - m.ell * m.r2) / det
        rho = (m.g * m.r2 - m.ell * m.r1) / det
        vp = _vp()
        vp.xi_model = 1.0
        propagate_model_msd(vp, m, mu, rho)
        assert vp.xi_model <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# smooth_and_clamp


def test_smoothing_hand_example():
    vp = _vp(gamma_prime=0.9, mu_max=0.15)
    vp.mu_prev = 0.1
    mu, _ = smooth_and_clamp(vp, 0.2, 0.0)
    assert_allclose(mu, 0.11, rtol=1e-15)


def test_smoothing_cap_active():
    vp = _vp(gamma_prime=0.9, mu_max=0.15)
    vp.mu_prev = 0.1
    mu, _ = smooth_and_clamp(vp, 1e9, 0.0)
    assert mu == 0.15


def test_smoothing_disabled():
    vp = _vp(gamma_prime=0.0, mu_max=0.5)
    mu, rho = smooth_and_clamp(vp, 0.3, 0.2)
    assert mu == 0.3
    assert rho == 0.2
    mu, _ = smooth_and_clamp(vp, 0.9, 0.0)
    assert mu == 0.5  # capped


def test_smoothing_stores_previous_values():
    vp = _vp(gamma_prime=0.5, mu_max=1.0)
    smooth_and_clamp(vp, 0.4, 0.2)
    assert vp.mu_prev == 0.2
    assert vp.rho_prev == 0.1
    mu, rho = smooth_and_clamp(vp, 0.4, 0.2)
    assert_allclose([mu, rho], [0.3, 0.15], rtol=1e-15)


# ---------------------------------------------------------------------------
# vp_iteration


def _iteration_setup(L=1, tag=None, sigma_z2=0.01, **vp_kw):
    partition = GroupPartition.contiguous(L, 1 if L < 5 else 5)
    mode = None if tag is None else AttractorMode(tag, 0.1)
    cfg = FilterConfig(L=L, partition=partition, mode=mode, variable_params=True)
    vp = _vp(L=L, sigma_z2=sigma_z2, **vp_kw)
    return vp, cfg


def test_first_iteration_scalar_trace():
    """Hand trace for L=1 without smoothing: mu_1 = r1/g at the fallback."""
    vp, cfg = _iteration_setup(L=1, gamma=0.0, gamma_prime=0.0)
    state = initial_state(1)
    d = 1.0
    mu_1, rho_1 = vp_iteration(vp, state, cfg, np.array([1.0]), d)
    zeta = d * d - 0.01
    g = 0.01 + 3.0 * zeta
    assert_allclose(mu_1, min(zeta / g, vp.mu_max), rtol=1e-12)
    assert rho_1 == 0.0  # all-zero weights leave no attractor direction
    assert mu_1 > 0.0 and math.isfinite(mu_1)


@pytest.mark.parametrize("d", [0.5, 1.0, -2.0, 10.0])
def test_first_iteration_positive_step_for_strong_signal(d):
    vp, cfg = _iteration_setup(L=1, gamma=0.0, gamma_prime=0.0, sigma_z2=0.01)
    mu_1, rho_1 = vp_iteration(vp, initial_state(1), cfg, np.array([1.0]), d)
    assert mu_1 > 0.0
    assert math.isfinite(mu_1) and math.isfinite(rho_1)


def test_first_iteration_with_default_smoothing_is_finite():
    vp, cfg = _iteration_setup(L=35, tag=GZA)
    mu_1, rho_1 = vp_iteration(vp, initial_state(35), cfg, np.ones(35), 1.0)
    assert math.isfinite(mu_1) and mu_1 >= 0.0
    assert math.isfinite(rho_1) and rho_1 >= 0.0


@pytest.mark.parametrize("tag", [GZA, GRZA])
def test_iteration_with_precomputed_attractor_is_bitwise_equal(tag):
    """Handing in the attractor product at ``state.w`` changes nothing."""
    rng = np.random.default_rng(19)
    vp_own, cfg = _iteration_setup(L=10, tag=tag)
    vp_shared, _ = _iteration_setup(L=10, tag=tag)
    state = initial_state(10)
    state = step(state, cfg, rng.normal(size=10), 1.0, 0.05, 0.0)
    u = rng.normal(size=10)
    beta_s = attractor_term(state.w, cfg.partition, cfg.mode)
    own = vp_iteration(vp_own, state, cfg, u, 0.7)
    shared = vp_iteration(vp_shared, state, cfg, u, 0.7, beta_s)
    assert own == shared
    assert vars(vp_own) == vars(vp_shared)


def test_zero_input_decays_without_nan():
    vp, cfg = _iteration_setup(L=10, tag=GRZA)
    vp.mu_prev, vp.rho_prev = 0.05, 1e-3
    state = initial_state(10)
    u = np.zeros(10)
    mus, rhos = [], []
    for _ in range(300):
        mu_n, rho_n = vp_iteration(vp, state, cfg, u, 0.0)
        state = step(state, cfg, u, 0.0, mu_n, rho_n)
        mus.append(mu_n)
        rhos.append(rho_n)
    assert np.all(np.isfinite(mus)) and np.all(np.isfinite(rhos))
    assert np.all(np.asarray(mus) >= 0.0) and np.all(np.asarray(rhos) >= 0.0)
    # mu cannot fall geometrically here: stepping with zero information makes
    # the deviation model raise its floor, which keeps a small mu* alive.  A
    # factor of five over 300 iterations is still a clear decay.
    assert mus[-1] < mus[0] / 5.0
    assert rhos[-1] < rhos[0] / 100.0


def test_iteration_invariants_along_noisy_run():
    """zeta_hat >= zeta_min >= 0, h >= 0 and g at its floor throughout."""
    rng = np.random.default_rng(77)
    L = 10
    vp, cfg = _iteration_setup(L=L, tag=GRZA)
    plant = np.zeros(L)
    plant[:3] = [0.5, -0.4, 0.3]
    state = initial_state(L)
    floor = vp.sigma_z2 * vp.sigma_u2 * L
    x = rng.normal(size=500 + L - 1)
    for n in range(500):
        u = x[n : n + L][::-1].copy()
        d = float(np.dot(u, plant)) + rng.normal(0.0, 0.1)
        e = d - float(np.dot(state.w, u))
        assert vp.zeta_min >= 0.0
        zeta_before = max(
            ((1.0 - vp.gamma) * e + vp.gamma * vp.e_smooth) ** 2 - vp.sigma_z2,
            vp.zeta_min,
        )
        mu_n, rho_n = vp_iteration(vp, state, cfg, u, e)
        assert zeta_before >= 0.0
        assert compute_g(vp, zeta_before) >= floor
        assert mu_n >= 0.0 and rho_n >= 0.0
        state = step(state, cfg, u, d, mu_n, rho_n)


def test_step_size_decays_after_initial_transient():
    """Single run on a group-sparse plant: the adapted step size falls from
    its early-transient level to a small positive steady value."""
    rng = np.random.default_rng(2024)
    L = 35
    vp, cfg = _iteration_setup(L=L, tag=GRZA)
    plant = np.zeros(L)
    plant[:5] = [0.8, 0.5, 0.3, 0.2, 0.1]
    plant[20:25] = [-0.05, -0.1, -0.2, -0.3, -0.5]
    state = initial_state(L)
    x = rng.normal(size=4000 + L - 1)
    mus = np.empty(4000)
    for n in range(4000):
        u = x[n : n + L][::-1].copy()
        d = float(np.dot(u, plant)) + rng.normal(0.0, 0.1)
        e = d - float(np.dot(state.w, u))
        mu_n, rho_n = vp_iteration(vp, state, cfg, u, e)
        state = step(state, cfg, u, d, mu_n, rho_n)
        mus[n] = mu_n
    early = mus[:200].mean()
    late = mus[-500:].mean()
    assert late > 0.0
    assert early > 3.0 * late
