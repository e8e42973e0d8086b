"""Unit tests for the adaptive filter update engines."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gslms.filters import (
    DivergenceError,
    FilterConfig,
    FilterState,
    initial_state,
    predict,
    step,
)
from gslms.groups import (
    GRZA,
    GZA,
    ZERO_GROUP_TOL,
    AttractorMode,
    GroupPartition,
    attractor_direction,
    attractor_term,
    beta_weights,
    expand_group_vector,
    group_norms,
)


def _lms_config(L, group_size=5):
    return FilterConfig(L=L, partition=GroupPartition.contiguous(L, group_size))


def _mode_config(L, tag, group_size=5, epsilon=0.1, mu=0.0, rho=0.0):
    return FilterConfig(
        L=L,
        partition=GroupPartition.contiguous(L, group_size),
        mode=AttractorMode(tag, epsilon if tag == GRZA else 0.0),
        mu=mu,
        rho=rho,
    )


def _random_samples(rng, L, n):
    return [(rng.normal(size=L), float(rng.normal())) for _ in range(n)]


def _fixed_trajectory(cfg, samples):
    """Weights after each fixed-parameter ``step`` over ``samples``."""
    state = initial_state(cfg.L)
    out = []
    for u, d in samples:
        state = step(state, cfg, u, d, cfg.mu, cfg.rho)
        out.append(state.w)
    return out


# ---------------------------------------------------------------------------
# FilterConfig / FilterState


def test_config_rejects_mismatched_partition():
    with pytest.raises(ValueError):
        FilterConfig(L=4, partition=GroupPartition.contiguous(6, 2))


def test_config_rejects_negative_parameters():
    p = GroupPartition.contiguous(4, 2)
    with pytest.raises(ValueError):
        FilterConfig(L=4, partition=p, mu=-0.1)
    with pytest.raises(ValueError):
        FilterConfig(L=4, partition=p, rho=-1e-9)
    for bad in (dict(mu=math.nan), dict(mu=math.inf), dict(rho=math.nan)):
        with pytest.raises(ValueError, match="finite"):
            FilterConfig(L=4, partition=p, **bad)
    with pytest.raises(ValueError, match="plain LMS takes no rho"):
        FilterConfig(L=4, partition=p, rho=1e-4)


def test_initial_state_is_all_zero():
    s = initial_state(5)
    assert_array_equal(s.w, np.zeros(5))
    assert s.n == 0
    assert s.last_error == 0.0


# ---------------------------------------------------------------------------
# predict


def test_predict_zero_weights():
    s = initial_state(3)
    assert predict(s, np.array([7.0, -2.0, 0.5])) == 0.0


def test_predict_dot_product():
    s = FilterState(w=np.array([1.0, 2.0]))
    assert predict(s, np.array([3.0, 4.0])) == 11.0


def test_predict_unit_basis_selects_coordinate():
    u = np.array([5.0, -3.0, 2.0, 9.0])
    for k in range(4):
        e_k = np.zeros(4)
        e_k[k] = 1.0
        assert predict(FilterState(w=e_k), u) == u[k]


def test_predict_dimension_mismatch():
    with pytest.raises(ValueError):
        predict(initial_state(3), np.zeros(4))


# ---------------------------------------------------------------------------
# step


def test_step_hand_example_plain_lms():
    cfg = _lms_config(2, group_size=1)
    state = FilterState(w=np.array([1.0, 0.0]))
    out = step(state, cfg, np.array([1.0, 1.0]), 2.0, mu_n=0.1, rho_n=0.0)
    assert out.last_error == 1.0
    assert_allclose(out.w, [1.1, 0.1], rtol=1e-15)
    assert out.n == state.n + 1


def test_step_hand_example_attractor_only():
    # zero input and desired signal leave only the shrinkage pull
    cfg = _mode_config(2, GZA, group_size=2)
    state = FilterState(w=np.array([3.0, 4.0]))
    out = step(state, cfg, np.zeros(2), 0.0, mu_n=0.3, rho_n=0.5)
    assert_allclose(out.w, [2.7, 3.6], rtol=1e-15)


def test_step_zero_rho_identical_to_plain_lms():
    rng = np.random.default_rng(11)
    u = rng.normal(size=10)
    d = 0.7
    w0 = rng.normal(size=10)
    reference = step(FilterState(w=w0.copy()), _lms_config(10), u, d, 0.05, 0.0)
    for tag in (GZA, GRZA):
        out = step(FilterState(w=w0.copy()), _mode_config(10, tag), u, d, 0.05, 0.0)
        assert_array_equal(out.w, reference.w)


def test_step_is_pure_and_repeatable():
    rng = np.random.default_rng(5)
    cfg = _mode_config(10, GRZA)
    state = FilterState(w=rng.normal(size=10))
    u = rng.normal(size=10)
    first = step(state, cfg, u, 1.2, 0.01, 1e-3)
    second = step(state, cfg, u, 1.2, 0.01, 1e-3)
    assert_array_equal(first.w, second.w)
    assert first.last_error == second.last_error
    # the input state was not mutated
    third = step(state, cfg, u, 1.2, 0.01, 1e-3)
    assert_array_equal(third.w, first.w)


def test_step_rejects_negative_parameters():
    cfg = _lms_config(4, 2)
    state = initial_state(4)
    with pytest.raises(ValueError):
        step(state, cfg, np.zeros(4), 0.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        step(state, cfg, np.zeros(4), 0.0, 0.1, -0.1)


def test_step_dimension_mismatch():
    with pytest.raises(ValueError):
        step(initial_state(4), _lms_config(4, 2), np.zeros(5), 0.0, 0.1, 0.0)


def test_step_divergence_reports_iteration():
    cfg = _lms_config(2, 1)
    state = FilterState(w=np.array([1e308, 0.0]), n=41)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        step(state, cfg, np.array([1e10, 0.0]), 1e300, mu_n=1.0, rho_n=0.0)
    assert exc.value.iteration == 41


@pytest.mark.parametrize("tag", [GZA, GRZA])
def test_step_with_precomputed_attractor_is_bitwise_equal(tag):
    """Passing the attractor product for the current weights changes nothing."""
    rng = np.random.default_rng(13)
    cfg = _mode_config(10, tag)
    state = FilterState(w=rng.normal(size=10))
    u = rng.normal(size=10)
    beta_s = attractor_term(state.w, cfg.partition, cfg.mode)
    own = step(state, cfg, u, 0.4, 0.02, 1e-3)
    shared = step(state, cfg, u, 0.4, 0.02, 1e-3, beta_s)
    assert_array_equal(shared.w, own.w)
    assert shared.last_error == own.last_error


def test_plain_lms_mode_ignores_attractor():
    # a plain-LMS config never applies the shrinkage term, whatever rho says
    rng = np.random.default_rng(2)
    w0 = rng.normal(size=6)
    u = rng.normal(size=6)
    cfg = _lms_config(6, 3)
    with_rho = step(FilterState(w=w0.copy()), cfg, u, 0.3, 0.05, rho_n=0.7)
    without = step(FilterState(w=w0.copy()), cfg, u, 0.3, 0.05, rho_n=0.0)
    assert_array_equal(with_rho.w, without.w)


# ---------------------------------------------------------------------------
# subvector form vs vector form


def _subvector_step(w, p, mode, u, d, mu, rho):
    """Group-by-group evaluation of the update, as an independent path."""
    e = d - np.dot(w, u)
    beta = beta_weights(w, p, mode)
    w_next = np.empty_like(w)
    for j, (start, stop) in enumerate(p.bounds):
        w_g = w[start:stop]
        norm = np.sqrt(np.dot(w_g, w_g))
        if norm > ZERO_GROUP_TOL:
            pull = beta[j] * (w_g / norm) if mode.tag == GRZA else w_g / norm
        else:
            pull = np.zeros_like(w_g)
        w_next[start:stop] = w_g + (mu * e) * u[start:stop] - rho * pull
    return w_next


@pytest.mark.parametrize("tag", [GZA, GRZA])
def test_subvector_form_equals_vector_form(tag):
    rng = np.random.default_rng(23)
    cfg = _mode_config(12, tag, group_size=4)
    for _ in range(25):
        w = rng.normal(size=12)
        u = rng.normal(size=12)
        d = float(rng.normal())
        vector = step(FilterState(w=w.copy()), cfg, u, d, 0.02, 1e-3).w
        grouped = _subvector_step(w, cfg.partition, cfg.mode, u, d, 0.02, 1e-3)
        assert_allclose(vector, grouped, rtol=0.0, atol=1e-16)


# ---------------------------------------------------------------------------
# step loops


def test_step_loop_propagates_divergence():
    """A diverging fold stops with the index of the update that blew up."""
    cfg = FilterConfig(L=2, partition=GroupPartition.contiguous(2, 1), mu=1.0)
    state = initial_state(2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        for _ in range(3):
            state = step(state, cfg, np.array([1e150, 0.0]), 1e150, cfg.mu, cfg.rho)
    # the first update lands at 1e300; the second overflows
    assert exc.value.iteration == state.n == 1


def test_lms_steady_state_bound():
    """Small-step LMS on a constant plant lands near the theoretical floor.

    The weight-error power after convergence should sit around
    mu sigma_z2 L sigma_u2 / 2; a factor-of-ten cushion keeps a single
    realization safely inside.
    """
    rng = np.random.default_rng(99)
    L, mu, sigma_z2 = 16, 0.01, 0.01
    plant = rng.normal(size=L)
    cfg = FilterConfig(L=L, partition=GroupPartition.contiguous(L, 4), mu=mu)
    x = rng.normal(size=10_000 + L - 1)
    state = initial_state(L)
    for n in range(10_000):
        u = x[n : n + L][::-1].copy()
        d = float(np.dot(u, plant)) + rng.normal(0.0, np.sqrt(sigma_z2))
        state = step(state, cfg, u, d, mu, 0.0)
    err = state.w - plant
    assert float(np.dot(err, err)) < 10.0 * sigma_z2 * mu * L * 1.0 / 2.0


# ---------------------------------------------------------------------------
# reduction identities


def test_reduction_rho_zero_trajectories_bitwise_equal():
    rng = np.random.default_rng(31)
    samples = _random_samples(rng, 10, 400)
    lms = _fixed_trajectory(FilterConfig(10, GroupPartition.contiguous(10, 5), mu=0.02), samples)
    for tag in (GZA, GRZA):
        traj = _fixed_trajectory(_mode_config(10, tag, mu=0.02, rho=0.0), samples)
        for a, b in zip(lms, traj):
            assert_array_equal(a, b)


def test_reduction_beta_one_grza_equals_gza():
    """Forcing the reweighting coefficients to one recovers the uniform mode."""
    rng = np.random.default_rng(37)
    p = GroupPartition.contiguous(10, 5)
    gza_cfg = _mode_config(10, GZA, mu=0.02, rho=1e-3)
    samples = _random_samples(rng, 10, 400)
    w_forced = np.zeros(10)
    for (u, d), ref_w in zip(samples, _fixed_trajectory(gza_cfg, samples)):
        e = d - np.dot(w_forced, u)
        beta_s = expand_group_vector(np.ones(p.J), p) * attractor_direction(w_forced, p)
        w_forced = w_forced + (0.02 * e) * u
        w_forced -= 1e-3 * beta_s
        assert_array_equal(w_forced, ref_w)


def test_reduction_singletons_match_elementwise_sign_attractor():
    """Singleton groups turn the update into the elementwise sign shrinker."""
    rng = np.random.default_rng(41)
    cfg = _mode_config(8, GZA, group_size=1, mu=0.03, rho=5e-4)
    samples = _random_samples(rng, 8, 400)
    w_ref = np.zeros(8)
    for (u, d), w in zip(samples, _fixed_trajectory(cfg, samples)):
        e = d - np.dot(w_ref, u)
        sign = np.where(np.abs(w_ref) > ZERO_GROUP_TOL, np.sign(w_ref), 0.0)
        w_ref = w_ref + (0.03 * e) * u
        w_ref -= 5e-4 * sign
        assert_array_equal(w_ref, w)
