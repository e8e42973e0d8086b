"""Unit tests for the brute-force oracles (grid search, finite differences,
ensemble moment estimation, recursion validation)."""

import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gslms.filters import FilterConfig
from gslms.groups import (
    GRZA,
    AttractorMode,
    GroupPartition,
    attractor_direction,
    attractor_term,
)
import gslms.harness
import gslms.oracles
from gslms.oracles import (
    EnsembleMoments,
    _attractor_matrix,
    _leaf_steps,
    ensemble_moments,
    finite_diff_subgradient,
    grid_minimize_quadratic,
    validate_model_recursion,
)
from gslms.signals import AR1GaussianMixture, WhiteGaussian, benchmark_plants, stationary_power
from gslms.varparam import MomentEstimates, solve_optimal_params


def _grza_config(L=35, mu=0.0, rho=0.0):
    return FilterConfig(
        L=L,
        partition=GroupPartition.contiguous(L, 5),
        mode=AttractorMode(GRZA, 0.1),
        mu=mu,
        rho=rho,
    )


def _lms_config(L=35, mu=0.0):
    return FilterConfig(L=L, partition=GroupPartition.contiguous(L, 5), mu=mu)


# ---------------------------------------------------------------------------
# independence from the main path

MAIN_PATH_KERNELS = {"row_dot", "_attractor_rows", "attractor_term", "step", "vp_iteration",
                     "_vp_rows_iteration", "simulate_plant", "scalar_stream"}


def test_oracles_share_only_the_dispatch_with_the_main_path():
    """The oracles re-derive every quantity, so they cannot share the main
    path's bugs: from the engine's module they import only the leaf
    dispatch, and they import none of the main path's kernels, by name or
    through a whole module."""
    tree = ast.parse(pathlib.Path(gslms.oracles.__file__).read_text(encoding="utf-8"))
    names, modules = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append(node.module)
            names |= {alias.name for alias in node.names}
            if node.level == 1 and node.module == "harness":
                assert [alias.name for alias in node.names] == ["ordered_map"]
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert "harness" in modules
    assert not names & MAIN_PATH_KERNELS
    # ``from . import groups`` (module None) or ``import gslms.groups`` would
    # reach every kernel as an attribute
    assert None not in modules
    assert not any(module.startswith("gslms") for module in modules), modules


# ---------------------------------------------------------------------------
# grid_minimize_quadratic


def test_grid_finds_diagonal_minimum():
    m = MomentEstimates(g=2.0, h=1.0, ell=0.0, r1=1.0, r2=1.0)
    mu, rho, value = grid_minimize_quadratic(m, ((0.0, 2.0), (0.0, 2.0)), 401)
    # the analytic minimum (0.5, 1.0) lies exactly on this grid
    assert mu == 0.5
    assert rho == 1.0
    assert_allclose(value, -1.5, rtol=1e-12)


def test_grid_zero_gains_optimum_at_origin():
    m = MomentEstimates(g=1.0, h=1.0, ell=0.3, r1=0.0, r2=0.0)
    mu, rho, value = grid_minimize_quadratic(m, ((0.0, 1.0), (0.0, 1.0)), 101)
    assert (mu, rho) == (0.0, 0.0)
    assert value == 0.0


def test_grid_rejects_tiny_resolution():
    m = MomentEstimates(g=1.0, h=1.0, ell=0.0, r1=0.0, r2=0.0)
    with pytest.raises(ValueError):
        grid_minimize_quadratic(m, ((0.0, 1.0), (0.0, 1.0)), 1)


def test_grid_agrees_with_closed_form_on_random_tuples():
    rng = np.random.default_rng(64)
    for _ in range(100):
        g = rng.uniform(0.5, 5.0)
        h = rng.uniform(0.1, 5.0)
        ell = rng.uniform(-0.8, 0.8) * np.sqrt(g * h)
        m = MomentEstimates(g=g, h=h, ell=ell, r1=rng.uniform(0.1, 2.0), r2=rng.uniform(0.1, 2.0))
        mu_c, rho_c = solve_optimal_params(m)
        if mu_c <= 1e-4 or rho_c <= 1e-4:
            continue
        box = ((0.0, 2.0 * mu_c), (0.0, 2.0 * rho_c))
        mu_g, rho_g, _ = grid_minimize_quadratic(m, box, 401)
        assert abs(mu_g - mu_c) <= 2.0 * mu_c / 400.0
        assert abs(rho_g - rho_c) <= 2.0 * rho_c / 400.0


# ---------------------------------------------------------------------------
# finite_diff_subgradient


def test_finite_diff_single_group():
    p = GroupPartition.contiguous(2, 2)
    grad = finite_diff_subgradient(np.array([3.0, 4.0]), p)
    assert_allclose(grad, [0.6, 0.8], atol=1e-6)


def test_finite_diff_singletons_are_signs():
    p = GroupPartition.singletons(2)
    grad = finite_diff_subgradient(np.array([2.0, -5.0]), p)
    assert_allclose(grad, [1.0, -1.0], atol=1e-6)


def test_finite_diff_agrees_with_attractor_direction():
    rng = np.random.default_rng(31)
    p = GroupPartition.contiguous(12, 4)
    checked = 0
    while checked < 100:
        w = rng.normal(size=12)
        norms = np.sqrt(np.add.reduceat(w * w, p.starts))
        if norms.min() <= 0.1:
            continue
        fd = finite_diff_subgradient(w, p)
        assert_allclose(fd, attractor_direction(w, p), rtol=1e-6, atol=1e-6)
        checked += 1


def test_finite_diff_rejects_near_zero_groups():
    p = GroupPartition.contiguous(4, 2)
    w = np.array([1.0, 1.0, 1e-8, 0.0])
    with pytest.raises(ValueError):
        finite_diff_subgradient(w, p)


# ---------------------------------------------------------------------------
# ensemble_moments


def test_ensemble_moments_zero_emse_anchor():
    """Started exactly at the plant, g collapses to the noise floor."""
    plant = benchmark_plants()[0]
    m = ensemble_moments(
        plant, WhiteGaussian(1.0), _lms_config(mu=0.0), sigma_z2=0.01,
        n=0, ensemble=500, seed=5, w_init=plant,
    )
    assert m.r1 == 0.0
    assert m.r1_se == 0.0
    assert m.g == pytest.approx(0.01 * 35.0, rel=1e-12)
    # every member contributes the identical value; the only spread left is
    # the rounding of the pairwise-summed mean, orders below any real SE
    assert m.g_se <= 1e-15


def test_ensemble_moments_frozen_weights_make_h_deterministic():
    plant = benchmark_plants()[0]
    cfg = _grza_config(mu=0.0, rho=0.0)  # freeze: no member ever moves
    offset = np.zeros(35)
    offset[0] = 0.3
    m = ensemble_moments(
        plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
        n=3, ensemble=400, seed=6, w_init=plant + offset,
    )
    bs = attractor_term(plant + offset, cfg.partition, cfg.mode)
    assert m.h == pytest.approx(float(np.dot(bs, bs)), rel=1e-12)
    assert m.h_se <= 1e-15  # identical members, rounding-level spread only


def test_ensemble_moments_r1_matches_emse_identity():
    """With frozen weights, r1 estimates w~^T R_u w~ = sigma_u2 ||w~||^2."""
    plant = benchmark_plants()[0]
    delta = np.zeros(35)
    delta[5] = 0.2
    delta[17] = -0.1
    # n >= L-1 so the zero-initialized delay line is fully populated and the
    # regressor actually excites the offset taps
    m = ensemble_moments(
        plant, WhiteGaussian(1.0), _lms_config(mu=0.0), sigma_z2=0.01,
        n=40, ensemble=4000, seed=7, w_init=plant + delta,
    )
    expected = float(np.dot(delta, delta))  # sigma_u2 = 1
    assert abs(m.r1 - expected) <= 4.0 * m.r1_se
    # and g follows the same excess through its quadratic term
    assert m.g > 0.01 * 35.0


def test_ensemble_moments_validation():
    with pytest.raises(ValueError):
        EnsembleMoments(
            g=1.0, h=0.0, ell=0.0, r1=0.0, r2=0.0,
            g_se=0.0, h_se=0.0, ell_se=0.0, r1_se=0.0, r2_se=0.0, ensemble=1,
        )
    with pytest.raises(ValueError):
        EnsembleMoments(
            g=1.0, h=0.0, ell=0.0, r1=0.0, r2=0.0,
            g_se=np.inf, h_se=0.0, ell_se=0.0, r1_se=0.0, r2_se=0.0, ensemble=10,
        )


def test_diverging_ensemble_moments_raise_without_warnings():
    """A diverging ensemble overflows to inf and nan: its standard errors are
    not finite, so EnsembleMoments raises, and numpy prints no warning first."""
    with pytest.raises(ValueError, match="standard errors must be finite"):
        ensemble_moments(
            benchmark_plants()[0], WhiteGaussian(1.0), _lms_config(mu=10.0),
            sigma_z2=0.01, n=400, ensemble=50, seed=12345,
        )


def test_ensemble_moments_plant_length_check():
    with pytest.raises(ValueError):
        ensemble_moments(
            np.zeros(10), WhiteGaussian(1.0), _lms_config(L=35), sigma_z2=0.01,
            n=0, ensemble=10, seed=0,
        )
    with pytest.raises(ValueError, match="plant length"):  # no step at all
        validate_model_recursion(np.zeros(10), WhiteGaussian(1.0), _lms_config(L=35),
                                 sigma_z2=0.01, horizon=0, ensemble=10, seed=0)


def test_unsupported_input_model_is_rejected_before_any_step():
    """At zero warm-up steps too, from the ensemble and from the stream."""
    with pytest.raises(TypeError):
        ensemble_moments(benchmark_plants()[0], object(), _lms_config(), sigma_z2=0.01,
                         n=0, ensemble=10, seed=0)
    with pytest.raises(TypeError, match="unsupported input model"):
        next(_leaf_steps(object(), 35, 0.01, 0, 0, 2, 0))


# ---------------------------------------------------------------------------
# validate_model_recursion


def test_validation_frozen_filter_is_exact():
    plant = benchmark_plants()[0]
    report = validate_model_recursion(
        plant, WhiteGaussian(1.0), _lms_config(mu=0.0), sigma_z2=0.01,
        horizon=10, ensemble=100, seed=3,
    )
    assert report.max_rel_deviation == 0.0
    assert np.all(report.trq == report.trq[0])
    assert np.all(report.ensemble_increments == 0.0)
    assert np.all(report.model_increments == 0.0)


def test_validation_small_ensemble_lms():
    plant = benchmark_plants()[0]
    report = validate_model_recursion(
        plant, WhiteGaussian(1.0), _lms_config(mu=0.005), sigma_z2=0.01,
        horizon=25, ensemble=2000, seed=11,
    )
    assert report.max_rel_deviation <= 0.05
    assert report.mode == "lms"
    assert report.trq.shape == (26,)


def test_validation_small_ensemble_grza():
    plant = benchmark_plants()[0]
    report = validate_model_recursion(
        plant, WhiteGaussian(1.0), _grza_config(mu=0.005, rho=1e-4), sigma_z2=0.01,
        horizon=25, ensemble=2000, seed=12,
    )
    assert report.max_rel_deviation <= 0.05
    assert report.mode == GRZA


def test_validation_requires_white_input():
    plant = benchmark_plants()[0]
    with pytest.raises(TypeError):
        validate_model_recursion(
            plant, AR1GaussianMixture(), _lms_config(mu=0.005), sigma_z2=0.01,
            horizon=5, ensemble=10, seed=0,
        )


def test_validation_report_serializes():
    plant = benchmark_plants()[0]
    report = validate_model_recursion(
        plant, WhiteGaussian(1.0), _lms_config(mu=0.005), sigma_z2=0.01,
        horizon=5, ensemble=50, seed=4,
    )
    payload = report.to_dict()
    assert payload["mode"] == "lms"
    assert payload["mu"] == 0.005
    assert len(payload["rel_deviation"]) == 5
    assert payload["max_rel_deviation"] == report.max_rel_deviation


def test_validation_deterministic_in_seed():
    plant = benchmark_plants()[0]
    kw = dict(sigma_z2=0.01, horizon=5, ensemble=100, seed=21)
    a = validate_model_recursion(plant, WhiteGaussian(1.0), _lms_config(mu=0.01), **kw)
    b = validate_model_recursion(plant, WhiteGaussian(1.0), _lms_config(mu=0.01), **kw)
    assert np.array_equal(a.trq, b.trq)


def test_zero_horizon_gives_an_empty_report():
    """No steps: trq holds only the initial mean squared deviation, every
    per-step array is empty and the largest deviation reads 0.  Moments at
    n = 0 are those of the first step of the leaf-by-leaf reference."""
    plant, cfg = benchmark_plants()[0], _grza_config(mu=0.005, rho=1e-4)
    report = validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                      horizon=0, ensemble=100, seed=1)
    _, trq = _reference_means(plant, WhiteGaussian(1.0), cfg, 0.01, 0, 100, 1)
    assert report.trq.tolist() == trq.tolist()
    for field in ("ensemble_increments", "model_increments", "rel_deviation"):
        assert getattr(report, field).shape == (0,), field
    assert report.max_rel_deviation == 0.0
    assert report.to_dict()["rel_deviation"] == []
    m = ensemble_moments(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01, n=0, ensemble=45,
                         seed=9, w_init=0.5 * plant)
    means, _ = _reference_means(plant, WhiteGaussian(1.0), cfg, 0.01, 1, 45, 9,
                                w_init=0.5 * plant)
    assert m.g == means[0, 0] and m.r2 == means[0, 4]


def _innovations(model, rng, ensemble):
    """One step of every member's AR(1)-mixture innovation v_t: E uniforms
    pick the signs of the mixture means, then E normals."""
    sd = math.sqrt(model.sigma_v2)
    signs = np.where(rng.random(ensemble) < 0.5, -1.0, 1.0)
    return model.a * sd * signs + rng.normal(0.0, sd, size=ensemble)


def _leaf_generators(seed, index):
    """Leaf `index`'s input and noise generators."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed, spawn_key=(index,)).spawn(2)]


def _streamed(model, L, members, steps, seed, index):
    """Every step's (L, T) regressor block and (T,) noise from _leaf_steps,
    copied, since the generator rewrites its ring in place.  Each block is
    checked to be C-contiguous as it is yielded."""
    windows, noise = [], []
    for U, z in _leaf_steps(model, L, 0.01, seed, index, members, steps):
        assert U.shape == (L, members) and U.flags.c_contiguous
        assert z.shape == (members,)
        windows.append(U.copy())
        noise.append(z.copy())
    assert len(windows) == steps
    return np.array(windows), np.array(noise)


# more than 2L steps at L = 35, so the ring's write position p turns 8
# times (once every L steps)
STREAM_STEPS = 300


@pytest.mark.parametrize("alpha", [0.5, -0.7])
def test_streamed_ar1_inputs_follow_the_scalar_recursion(alpha):
    """After the 1000-step burn-in, each member's streamed input (the latest
    row of each step's regressors) is x_t = v_t + alpha x_{t-1} from x_{-1}
    = 0, over innovations drawn step by step from the leaf's own input
    generator, through every turn of the ring."""
    model, L, members, seed, index = AR1GaussianMixture(alpha=alpha), 35, 8, 2024, 3
    rng = _leaf_generators(seed, index)[0]
    v = [_innovations(model, rng, members).tolist() for _ in range(1000 + STREAM_STEPS)]
    want = []
    for m in range(members):
        x, xs = 0.0, []
        for v_t in v:
            x = v_t[m] + alpha * x
            xs.append(x)
        want.append(xs[1000:])
    streamed = _streamed(model, L, members, STREAM_STEPS, seed, index)[0][:, 0]
    assert streamed.shape == (STREAM_STEPS, members) and streamed.dtype == np.float64
    for m in range(members):
        assert streamed[:, m].tolist() == want[m], m


def _step_major_inputs(model, ensemble, steps, rng):
    """(steps, E) inputs drawn step-major: white normals in one call, or the
    AR(1) mixture step by step after its 1000-step burn-in."""
    if isinstance(model, WhiteGaussian):
        return rng.normal(0.0, math.sqrt(model.variance), size=(steps, ensemble))
    x = np.empty((1000 + steps, ensemble))
    prev = np.zeros(ensemble)
    for t in range(1000 + steps):
        x[t] = _innovations(model, rng, ensemble)
        x[t] += model.alpha * prev
        prev = x[t]
    return x[1000:]


def _reference_leaves(plant, model, cfg, sigma_z2, steps, ensemble, seed, w_init=None):
    """The ensemble leaf by leaf.  The leaves are harness.leaves of the
    ensemble in count = max(1, min(ceil(E / TILE_MEMBERS), E // 2)) parts,
    each one (L, T) block with the full step-major input and noise of its
    own two generators, every step sampled with the oracle's kernels in
    their order.  Yields each leaf's (steps, 5, T) moment samples and
    (steps + 1, T) squared weight errors."""
    L = cfg.L
    count = max(1, min(-(-ensemble // gslms.oracles.TILE_MEMBERS), ensemble // 2))
    for index, _, members in gslms.harness.leaves(ensemble, count):
        x_rng, z_rng = _leaf_generators(seed, index)
        xr = np.zeros((steps + L - 1, members))
        xr[:steps] = _step_major_inputs(model, members, steps, x_rng)[::-1]
        z = z_rng.normal(0.0, math.sqrt(sigma_z2), size=(steps, members))
        w0 = np.zeros(L) if w_init is None else w_init
        Wt = np.broadcast_to((w0 - plant)[:, None], (L, members)).copy()
        P = np.broadcast_to(plant[:, None], (L, members)).copy()
        g_floor = sigma_z2 * (L * stationary_power(model))
        samples = np.zeros((steps, 5, members))
        trq = np.empty((steps + 1, members))
        np.einsum("lt,lt->t", Wt, Wt, out=trq[0])
        a = np.empty(members)
        for t in range(steps):
            U = xr[steps - 1 - t:steps - 1 - t + L]
            np.einsum("lt,lt->t", Wt, U, out=a)
            g, h, ell, r1, r2 = samples[t]
            np.multiply(a, a, out=r1)
            np.einsum("lt,lt->t", U, U, out=g)
            g *= r1
            g += g_floor
            if cfg.mode is not None:
                BS = _attractor_matrix(Wt + P, cfg.partition, cfg.mode, np.empty((L, members)))
                np.einsum("lt,lt->t", BS, BS, out=h)
                np.einsum("lt,lt->t", U, BS, out=ell)
                ell *= a
                np.einsum("lt,lt->t", BS, Wt, out=r2)
            e = np.subtract(z[t], a, out=a)
            e *= cfg.mu
            Wt += e * U
            if cfg.mode is not None and cfg.rho != 0.0:
                Wt -= BS * cfg.rho
            np.einsum("lt,lt->t", Wt, Wt, out=trq[t + 1])
        yield samples, trq


def _reference_means(plant, model, cfg, sigma_z2, steps, ensemble, seed, w_init=None):
    """The reference's (steps, 5) moment means and (steps + 1,) mean squared
    weight errors: each leaf's sums over its members, added in leaf order,
    over the ensemble size."""
    moments, trq = np.zeros((steps, 5)), np.zeros(steps + 1)
    for samples, sq in _reference_leaves(plant, model, cfg, sigma_z2, steps, ensemble, seed,
                                         w_init):
        moments += samples.sum(axis=2)
        trq += sq.sum(axis=1)
    return moments / ensemble, trq / ensemble


def _three_configs():
    gza = FilterConfig(L=35, partition=GroupPartition.contiguous(35, 5),
                       mode=AttractorMode("gza"), mu=0.005, rho=1e-4)
    return {"lms": _lms_config(mu=0.005), "gza": gza, "grza": _grza_config(mu=0.005, rho=1e-4)}


REFERENCE_ENSEMBLE, REFERENCE_HORIZON = 45, 13
# One leaf of 45 members, then 7 leaves of 6 or 7
REFERENCE_TILES = (gslms.oracles.TILE_MEMBERS, 7)


@pytest.mark.parametrize("tag", ["lms", "gza", "grza"])
def test_validation_matches_the_whole_ensemble_reference(monkeypatch, tag):
    """The whole ensemble, leaf by leaf, bit for bit."""
    plant, cfg = benchmark_plants()[0], _three_configs()[tag]
    for tile in REFERENCE_TILES:
        monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", tile)
        report = validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                          horizon=REFERENCE_HORIZON,
                                          ensemble=REFERENCE_ENSEMBLE, seed=8)
        means, trq = _reference_means(plant, WhiteGaussian(1.0), cfg, 0.01, REFERENCE_HORIZON,
                                      REFERENCE_ENSEMBLE, 8)
        g, h, ell, r1, r2 = means.T
        mu, rho = cfg.mu, cfg.rho
        model_inc = (mu * mu * g + rho * rho * h + 2.0 * mu * rho * ell
                     - 2.0 * mu * r1 - 2.0 * rho * r2)
        assert np.array_equal(report.trq, trq), tile
        assert np.array_equal(report.model_increments, model_inc), tile
        assert np.array_equal(report.ensemble_increments, np.diff(report.trq)), tile


@pytest.mark.parametrize("model", [WhiteGaussian(1.0), AR1GaussianMixture()], ids=["white", "ar1"])
@pytest.mark.parametrize("tag", ["lms", "gza", "grza"])
def test_ensemble_moments_match_the_whole_ensemble_reference(monkeypatch, tag, model):
    """The means bit for bit, leaf by leaf.  The standard errors come from
    each leaf's spread about its own mean, merged in leaf order; on one
    leaf they are the bits of the two-pass standard deviation over all
    members, and on several they agree with it to rounding (1e-12 of the
    standard error plus the mean)."""
    plant, cfg, n = benchmark_plants()[0], _three_configs()[tag], REFERENCE_HORIZON
    for tile in REFERENCE_TILES:
        monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", tile)
        m = ensemble_moments(plant, model, cfg, sigma_z2=0.01, n=n, ensemble=REFERENCE_ENSEMBLE,
                             seed=9, w_init=0.5 * plant)
        means, _ = _reference_means(plant, model, cfg, 0.01, n + 1, REFERENCE_ENSEMBLE, 9,
                                    w_init=0.5 * plant)
        last = np.concatenate([samples[n] for samples, _ in _reference_leaves(
            plant, model, cfg, 0.01, n + 1, REFERENCE_ENSEMBLE, 9, w_init=0.5 * plant)], axis=1)
        ses = (last.std(axis=1, ddof=1) / math.sqrt(REFERENCE_ENSEMBLE)).tolist()
        if tile == REFERENCE_TILES[0]:
            assert m == EnsembleMoments(*means[n].tolist(), *ses, ensemble=REFERENCE_ENSEMBLE)
        else:
            got = [getattr(m, f) for f in ("g", "h", "ell", "r1", "r2")]
            assert got == means[n].tolist(), tile
            got_ses = [getattr(m, f) for f in ("g_se", "h_se", "ell_se", "r1_se", "r2_se")]
            # rounding of the deviations scales with the mean, so a spread of
            # rounding noise alone (GZA's h) is compared against the mean
            for got_se, se, mean in zip(got_ses, ses, means[n]):
                assert abs(got_se - se) <= 1e-12 * (se + abs(mean)), (tile, got_se, se)


def test_ensemble_moments_memory_does_not_grow_with_the_horizon():
    """A leaf holds one step's input and noise and its ring, so its traced
    peak at n = 5000 is that at n = 50; holding the whole history of 200
    members would add about 3 x 200 x 4950 x 8 B = 24 MB."""
    plant = benchmark_plants()[0]

    def peak(n):
        tracemalloc.start()
        try:
            ensemble_moments(plant, WhiteGaussian(1.0), _grza_config(mu=0.005, rho=1e-4),
                             sigma_z2=0.01, n=n, ensemble=200, seed=10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # one-time allocations stay out of both peaks
    short, long = peak(50), peak(5000)
    assert long <= short + 64 * 1024, (short, long)


def test_validation_memory_does_not_grow_with_the_ensemble():
    """One leaf's state at a time: a GRZA case's traced peak on 1 worker is
    the same at E = 20000 as at E = 2000, and some 2.5 MB, against 23.9 MB
    when the pass held every member.  Over the horizon it grows only by the
    per-step sums and the report's arrays, under 32 doubles a step."""
    plant, cfg = benchmark_plants()[0], _grza_config(mu=0.005, rho=1e-4)

    def peak(ensemble, horizon):
        tracemalloc.start()
        try:
            validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                     horizon=horizon, ensemble=ensemble, seed=10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000, 10)  # one-time allocations stay out of the peaks
    small, large = peak(2000, 10), peak(20000, 10)
    assert large <= 1.1 * small and large < 4e6, (small, large)
    short, long = peak(100, 200), peak(100, 2000)
    assert long - short < 1800 * 32 * 8, (short, long)


# Both default ``gslms validate-model`` cases and one ensemble_moments call
# from a non-zero start (ensemble 300, horizon 30, seed 2026; moments: n=20,
# ensemble 300, seed 77), recorded from the leaf-by-leaf pass once the
# whole-ensemble reference tests above matched it bit for bit.
# rtol=1e-9 leaves room for the last bits of another summation order in a
# future kernel (about 1e-13 measured) and nothing else.
PINNED_TRQ = {
    "lms": [2.2975, 2.2920970615216696, 2.2843350717149664, 2.275346596400202, 2.265152625336544, 2.2559369567015066, 2.2470113884648892, 2.2374677880291816, 2.229658838134646, 2.2201849210304188, 2.2106485354160723, 2.201346120136191, 2.192102410633579, 2.1811706836132863, 2.171842649502535, 2.1626733021107833, 2.154687075241611, 2.1458034637831065, 2.1370382617685406, 2.1293849570690027, 2.122064533045791, 2.114396721053488, 2.106637757602268, 2.098379276432084, 2.088616036866547, 2.07743925562796, 2.065846373315022, 2.0550280079701686, 2.045434827820286, 2.0357154413600336, 2.026554880708773],
    "grza": [2.2975, 2.2920970615216696, 2.285745899010088, 2.277933115497542, 2.2690897788210274, 2.2611369319347934, 2.2534451194982434, 2.2451203356376044, 2.2384978526417876, 2.2301649289132564, 2.221728220731553, 2.2134798134186235, 2.205268380938629, 2.195293030672272, 2.1869022903561963, 2.178638020901346, 2.1715324375521505, 2.163462923938032, 2.1554759251806686, 2.148573979051308, 2.1420186735612066, 2.135068903453399, 2.127996266929148, 2.1203901876858593, 2.1112723675343146, 2.100760166696789, 2.0899219211644646, 2.0799427171037745, 2.071234940594778, 2.062342719397216, 2.054053131185121],
}
PINNED_MODEL_INCREMENTS = {
    "lms": [-0.00541127649068391, -0.007697778464417414, -0.008994692213090147, -0.010223765546314711, -0.009268014891416107, -0.008896409435546466, -0.009488599838285329, -0.0076996594173245475, -0.009444282947919082, -0.009448044623423918, -0.009278750167602092, -0.009203750542721748, -0.010911443025975425, -0.009223226347462263, -0.00927393227463552, -0.008054076915189886, -0.008899502447469681, -0.008715462102059488, -0.007700205434848147, -0.007348634910309578, -0.007633881168573551, -0.00777398216601214, -0.008355413782891261, -0.009757148123110123, -0.011170762324148752, -0.011502238704673465, -0.010807865250463178, -0.009595709354755939, -0.009719768863012644, -0.0091511307967635],
    "grza": [-0.00541127649068391, -0.006286913173088233, -0.007819039743196695, -0.008873260820594229, -0.008005349271562184, -0.0076626472164628805, -0.008269845868524483, -0.006512655289608213, -0.0083030790909179, -0.00834800417249841, -0.008225064276635668, -0.008170699891390404, -0.009955022416112212, -0.0082857986440549, -0.008370078399168411, -0.007172937543734521, -0.008085881938770741, -0.007936776799894652, -0.006951188753568134, -0.006583518756148149, -0.006915882717338984, -0.007088642798654143, -0.0077025692328097336, -0.009111348235817053, -0.010506934667620971, -0.010744829103919681, -0.009967804048207313, -0.008709523131392137, -0.00889138702008052, -0.008279817494578323],
}
PINNED_MAX_REL_DEVIATION = {"lms": 0.01419419629980999, "grza": 0.016863737035773117}
PINNED_MOMENTS = dict(
    g=0.8293878205162971, h=155.3520241377934, ell=1.3490726286166486, r1=0.020761287070135234,
    r2=1.5882852665320695, g_se=0.04083515895780715, h_se=0.2514229387458916,
    ell_se=0.11279747457798556, r1_se=0.0015066622236504755, r2_se=0.0021115747808327567,
)


def _cli_case_config(tag):
    if tag == "lms":
        return _lms_config(mu=0.005)
    return _grza_config(mu=0.005, rho=1e-4)


@pytest.mark.parametrize("tag", ["lms", "grza"])
def test_validation_matches_pinned_record(tag):
    report = validate_model_recursion(
        benchmark_plants()[0], WhiteGaussian(1.0), _cli_case_config(tag), sigma_z2=0.01,
        horizon=30, ensemble=300, seed=2026,
    )
    assert_allclose(report.trq, PINNED_TRQ[tag], rtol=1e-9, atol=0)
    assert_allclose(report.ensemble_increments, np.diff(PINNED_TRQ[tag]), rtol=1e-9, atol=0)
    assert_allclose(report.model_increments, PINNED_MODEL_INCREMENTS[tag], rtol=1e-9, atol=0)
    assert_allclose(report.max_rel_deviation, PINNED_MAX_REL_DEVIATION[tag], rtol=1e-9, atol=0)


def test_ensemble_moments_match_pinned_record():
    plant = benchmark_plants()[0]
    m = ensemble_moments(
        plant, WhiteGaussian(1.0), _grza_config(mu=0.005, rho=1e-4), sigma_z2=0.01,
        n=20, ensemble=300, seed=77, w_init=plant + 0.05 * np.sin(np.arange(35.0)),
    )
    for name, value in PINNED_MOMENTS.items():
        assert_allclose(getattr(m, name), value, rtol=1e-9, atol=0, err_msg=name)
    assert m.ensemble == 300


# ---------------------------------------------------------------------------
# leaves, workers and the reversed-input regressor ring

LEAF_ENSEMBLE = 45  # 7 leaves of 6 or 7 members at TILE_MEMBERS = 7
HORIZON = 12


def test_results_do_not_depend_on_the_block_length_or_the_worker_count(monkeypatch):
    """The leaves fix the numbers: the same bits on 1, 2 and 3 worker
    processes.  (The stream draws one step at a time, so no block length is
    left to vary.)"""
    plant = benchmark_plants()[0]
    configs = tuple(_three_configs().values())
    monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", 7)
    counts, dispatch = [], gslms.oracles.ordered_map

    def counted(func, spec, total, count, workers):
        counts.append(count)
        return dispatch(func, spec, total, count, workers)

    monkeypatch.setattr(gslms.oracles, "ordered_map", counted)

    def results(workers):
        reports = [
            validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                     horizon=HORIZON, ensemble=LEAF_ENSEMBLE, seed=8,
                                     workers=workers)
            for cfg in configs
        ]
        moments = [
            ensemble_moments(plant, input_model, cfg, sigma_z2=0.01, n=HORIZON,
                             ensemble=LEAF_ENSEMBLE, seed=9, w_init=0.5 * plant,
                             workers=workers)
            for cfg in configs
            for input_model in (WhiteGaussian(1.0), AR1GaussianMixture())
        ]
        return reports, moments

    def same(got, want, label):
        for a, b in zip(want[0], got[0]):
            for field in ("trq", "ensemble_increments", "model_increments", "rel_deviation"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), (label, field)
        assert got[1] == want[1], label  # every field, bit for bit

    want = results(1)
    for workers in (2, 3):
        same(results(workers), want, f"{workers} workers")
    assert set(counts) == {7}


@pytest.mark.parametrize("tile", [1, 7, LEAF_ENSEMBLE - 1, LEAF_ENSEMBLE, LEAF_ENSEMBLE + 5])
def test_results_do_not_depend_on_the_tile_size(monkeypatch, tile):
    """Beyond the leaves it makes.  The tile size sets the leaves (1 makes
    22 of 2 or 3 members, 7 makes 7, 44 makes 2, and 45 and 50 make one),
    and the leaves fix the numbers; at every tile size the validation trace
    and the moment means are the bits of the leaf-by-leaf reference of those
    leaves, in-process and on 2 worker processes."""
    plant = benchmark_plants()[0]
    monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", tile)
    want = {}
    for tag, cfg in _three_configs().items():
        _, trq = _reference_means(plant, WhiteGaussian(1.0), cfg, 0.01, HORIZON,
                                  LEAF_ENSEMBLE, 8)
        means, _ = _reference_means(plant, AR1GaussianMixture(), cfg, 0.01, HORIZON + 1,
                                    LEAF_ENSEMBLE, 9, w_init=0.5 * plant)
        want[tag] = trq, means[HORIZON].tolist()

    def check(label, workers=1):
        for tag, cfg in _three_configs().items():
            trq, means = want[tag]
            report = validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                              horizon=HORIZON, ensemble=LEAF_ENSEMBLE, seed=8,
                                              workers=workers)
            assert np.array_equal(report.trq, trq), (label, tag)
            m = ensemble_moments(plant, AR1GaussianMixture(), cfg, sigma_z2=0.01, n=HORIZON,
                                 ensemble=LEAF_ENSEMBLE, seed=9, w_init=0.5 * plant,
                                 workers=workers)
            assert [m.g, m.h, m.ell, m.r1, m.r2] == means, (label, tag)

    check("1 worker")
    check("2 workers", workers=2)


@pytest.mark.parametrize("ensemble", [2, 1025])
def test_no_tile_is_narrower_than_two_members(monkeypatch, ensemble):
    """A one-member leaf would sum its dot products in another order: at 2
    members a leaf of 1, and at 1025 a last leaf of 1 after 1024.  For any
    tile size the report matches the leaf-by-leaf reference, whose leaves
    have 2 or more members (test_harness checks the split itself)."""
    plant = benchmark_plants()[0]
    cfg = _grza_config(mu=0.005, rho=1e-4)
    for tile in (1, 1024, 2 * ensemble):
        monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", tile)
        report = validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                          horizon=6, ensemble=ensemble, seed=8)
        _, trq = _reference_means(plant, WhiteGaussian(1.0), cfg, 0.01, 6, ensemble, 8)
        assert np.array_equal(report.trq, trq), tile


def test_each_step_reads_the_reversed_sliding_window():
    """Through every turn of the ring, step t reads the reversed,
    zero-padded window of the last L streamed inputs as one C-contiguous
    (L, T) block of the leaf, and the noise is the leaf's own step-major
    draws."""
    L, members, seed, index, model = 35, 7, 13, 2, AR1GaussianMixture()
    x_rng, z_rng = _leaf_generators(seed, index)
    x = _step_major_inputs(model, members, STREAM_STEPS, x_rng)
    z = z_rng.normal(0.0, 0.1, size=(STREAM_STEPS, members))
    padded = np.concatenate([np.zeros((L - 1, members)), x])
    want = np.lib.stride_tricks.sliding_window_view(padded, L, axis=0)  # (steps, T, L)
    want = want[:, :, ::-1].transpose(0, 2, 1)  # (steps, L, T), latest input first
    windows, noise = _streamed(model, L, members, STREAM_STEPS, seed, index)
    assert np.array_equal(windows, want)
    assert np.array_equal(noise, z)


def test_lms_attractor_moments_are_exactly_zero():
    plant = benchmark_plants()[0]
    m = ensemble_moments(
        plant, WhiteGaussian(1.0), _lms_config(mu=0.005), sigma_z2=0.01,
        n=10, ensemble=200, seed=14, w_init=0.5 * plant,
    )
    assert (m.h, m.ell, m.r2, m.h_se, m.ell_se, m.r2_se) == (0.0,) * 6
    assert m.r1 > 0.0 and m.g > 0.0


def test_ensemble_moments_evaluates_the_attractor_only_when_read(monkeypatch):
    """With rho = 0 the update never reads the attractor, so only the final,
    sampled step evaluates it: one call for one tile, not one per step."""
    calls = []
    attractor = gslms.oracles._attractor_matrix

    def counted(*args):
        calls.append(1)
        return attractor(*args)

    monkeypatch.setattr(gslms.oracles, "_attractor_matrix", counted)
    ensemble_moments(benchmark_plants()[0], WhiteGaussian(1.0), _grza_config(mu=0.005, rho=0.0),
                     sigma_z2=0.01, n=12, ensemble=45, seed=3)
    assert len(calls) == 1
