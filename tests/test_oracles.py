"""Unit tests for the brute-force oracles (grid search, finite differences,
ensemble moment estimation, recursion validation)."""

import math
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
import gslms.oracles
from gslms.oracles import (
    EnsembleMoments,
    _EnsemblePass,
    _attractor_matrix,
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
    n = 0 are those of the first step of the whole-ensemble reference."""
    plant, cfg = benchmark_plants()[0], _grza_config(mu=0.005, rho=1e-4)
    report = validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                      horizon=0, ensemble=100, seed=1)
    _, trq = _reference_pass(plant, WhiteGaussian(1.0), cfg, 0.01, 0, 100, 1)
    assert report.trq.tolist() == [trq[0].mean()]
    for field in ("ensemble_increments", "model_increments", "rel_deviation"):
        assert getattr(report, field).shape == (0,), field
    assert report.max_rel_deviation == 0.0
    assert report.to_dict()["rel_deviation"] == []
    m = ensemble_moments(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01, n=0, ensemble=45,
                         seed=9, w_init=0.5 * plant)
    samples, _ = _reference_pass(plant, WhiteGaussian(1.0), cfg, 0.01, 1, 45, 9,
                                 w_init=0.5 * plant)
    assert m.g == samples[0, 0].mean() and m.r2 == samples[0, 4].mean()


def _innovations(model, rng, ensemble):
    """One step of every member's AR(1)-mixture innovation v_t: E uniforms
    pick the signs of the mixture means, then E normals."""
    sd = math.sqrt(model.sigma_v2)
    signs = np.where(rng.random(ensemble) < 0.5, -1.0, 1.0)
    return model.a * sd * signs + rng.normal(0.0, sd, size=ensemble)


@pytest.mark.parametrize("alpha", [0.5, -0.7])
def test_streamed_ar1_inputs_follow_the_scalar_recursion(alpha):
    """After the 1000-step burn-in, each member's streamed input is
    x_t = v_t + alpha x_{t-1} from x_{-1} = 0, over innovations drawn step
    by step from the input generator, whatever blocks it is drawn in."""
    model, ensemble, steps, seed = AR1GaussianMixture(alpha=alpha), 8, 300, 2024
    run = _EnsemblePass(benchmark_plants()[0], model, _lms_config(), 0.01, ensemble, seed)
    streamed = np.concatenate([run._inputs(count) for count in (1, 7, 92, 200)])
    assert streamed.shape == (steps, ensemble) and streamed.dtype == np.float64
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    v = [_innovations(model, rng, ensemble).tolist() for _ in range(1000 + steps)]
    for m in range(ensemble):
        x, xs = 0.0, []
        for v_t in v:
            x = v_t[m] + alpha * x
            xs.append(x)
        assert streamed[:, m].tolist() == xs[1000:], m


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


def _reference_pass(plant, model, cfg, sigma_z2, steps, ensemble, seed, w_init=None):
    """The ensemble as one (L, E) block: the full step-major input and noise
    from the oracle's two generators, every step sampled with the oracle's
    kernels in their order.  Returns the (steps, 5, E) moment samples and
    the (steps + 1, E) squared weight errors."""
    L = cfg.L
    x_rng, z_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    xr = np.zeros((steps + L - 1, ensemble))
    xr[:steps] = _step_major_inputs(model, ensemble, steps, x_rng)[::-1]
    z = z_rng.normal(0.0, math.sqrt(sigma_z2), size=(steps, ensemble))
    w0 = np.zeros(L) if w_init is None else w_init
    Wt = np.broadcast_to((w0 - plant)[:, None], (L, ensemble)).copy()
    P = np.broadcast_to(plant[:, None], (L, ensemble)).copy()
    g_floor = sigma_z2 * (L * stationary_power(model))
    samples = np.zeros((steps, 5, ensemble))
    trq = np.empty((steps + 1, ensemble))
    np.einsum("lt,lt->t", Wt, Wt, out=trq[0])
    a = np.empty(ensemble)
    for t in range(steps):
        U = xr[steps - 1 - t:steps - 1 - t + L]
        np.einsum("lt,lt->t", Wt, U, out=a)
        g, h, ell, r1, r2 = samples[t]
        np.multiply(a, a, out=r1)
        np.einsum("lt,lt->t", U, U, out=g)
        g *= r1
        g += g_floor
        if cfg.mode is not None:
            BS = _attractor_matrix(Wt + P, cfg.partition, cfg.mode, np.empty((L, ensemble)))
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
    return samples, trq


def _three_configs():
    gza = FilterConfig(L=35, partition=GroupPartition.contiguous(35, 5),
                       mode=AttractorMode("gza"), mu=0.005, rho=1e-4)
    return {"lms": _lms_config(mu=0.005), "gza": gza, "grza": _grza_config(mu=0.005, rho=1e-4)}


REFERENCE_ENSEMBLE, REFERENCE_HORIZON = 45, 13  # 13 steps: a block of 8 and a partial one


@pytest.mark.parametrize("tag", ["lms", "gza", "grza"])
def test_validation_matches_the_whole_ensemble_reference(tag):
    plant, cfg = benchmark_plants()[0], _three_configs()[tag]
    report = validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                      horizon=REFERENCE_HORIZON, ensemble=REFERENCE_ENSEMBLE,
                                      seed=8)
    samples, trq = _reference_pass(plant, WhiteGaussian(1.0), cfg, 0.01, REFERENCE_HORIZON,
                                   REFERENCE_ENSEMBLE, 8)
    g, h, ell, r1, r2 = np.stack([s.mean(axis=1) for s in samples], axis=1)
    mu, rho = cfg.mu, cfg.rho
    model_inc = (mu * mu * g + rho * rho * h + 2.0 * mu * rho * ell
                 - 2.0 * mu * r1 - 2.0 * rho * r2)
    assert np.array_equal(report.trq, [row.mean() for row in trq])
    assert np.array_equal(report.model_increments, model_inc)
    assert np.array_equal(report.ensemble_increments, np.diff(report.trq))


@pytest.mark.parametrize("model", [WhiteGaussian(1.0), AR1GaussianMixture()], ids=["white", "ar1"])
@pytest.mark.parametrize("tag", ["lms", "gza", "grza"])
def test_ensemble_moments_match_the_whole_ensemble_reference(tag, model):
    plant, cfg, n = benchmark_plants()[0], _three_configs()[tag], REFERENCE_HORIZON
    m = ensemble_moments(plant, model, cfg, sigma_z2=0.01, n=n, ensemble=REFERENCE_ENSEMBLE,
                         seed=9, w_init=0.5 * plant)
    samples, _ = _reference_pass(plant, model, cfg, 0.01, n + 1, REFERENCE_ENSEMBLE, 9,
                                 w_init=0.5 * plant)
    means = samples[n].mean(axis=1).tolist()
    ses = (samples[n].std(axis=1, ddof=1) / math.sqrt(REFERENCE_ENSEMBLE)).tolist()
    assert m == EnsembleMoments(*means, *ses, ensemble=REFERENCE_ENSEMBLE)


def test_ensemble_moments_memory_does_not_grow_with_the_horizon():
    """The pass holds one block of input and noise, so its traced peak at
    n = 5000 is that at n = 50; holding the whole history of 200 members
    would add about 3 x 200 x 4950 x 8 B = 24 MB."""
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


# Both default ``gslms validate-model`` cases and one ensemble_moments call
# from a non-zero start (ensemble 300, horizon 30, seed 2026; moments: n=20,
# ensemble 300, seed 77), recorded from the step-major streamed pass once
# the whole-ensemble reference tests above matched it bit for bit.
# rtol=1e-9 leaves room for the last bits of another summation order in a
# future kernel (about 1e-13 measured) and nothing else.
PINNED_TRQ = {
    "lms": [2.2975, 2.2915990287024752, 2.2823732407389405, 2.2723349230173095, 2.2619206438674624, 2.251522533830588, 2.2413758506366555, 2.232661085668744, 2.22485437063872, 2.2158820242994115, 2.206472158862903, 2.197702455064001, 2.1900231266356003, 2.1808288530455773, 2.1708645629708605, 2.1618661998572772, 2.1530717046822057, 2.1444464349082177, 2.136814458468331, 2.128797332559759, 2.1205415416348643, 2.111275190346912, 2.1028810540000484, 2.0946002289333183, 2.086517962127383, 2.0751903827823273, 2.0633109272987418, 2.0529688290812818, 2.042325249293061, 2.031775077701427, 2.021677563678176],
    "grza": [2.2975, 2.2915990287024752, 2.283809840471848, 2.2749675954093656, 2.2659141876922977, 2.2567905462242597, 2.2478606717821936, 2.240342613475314, 2.2337349730134903, 2.2259219348072894, 2.2176276450081467, 2.209933477702305, 2.203300238541635, 2.1950836498523594, 2.1860314404745904, 2.1779101636208673, 2.1699649247851807, 2.1621385869129615, 2.15529837903736, 2.1480341953371918, 2.1404834056093165, 2.1318794672925945, 2.124111163358216, 2.1164664369743242, 2.1090203439628508, 2.098333031768553, 2.087201655641826, 2.0777211972418757, 2.0678960205939, 2.0582158741105947, 2.0489971697445],
}
PINNED_MODEL_INCREMENTS = {
    "lms": [-0.005823239344707465, -0.00930736498005911, -0.010148203697455178, -0.010445167595829896, -0.01041410066539246, -0.010080052333375784, -0.008654004044484988, -0.007786396168818354, -0.008973915572807025, -0.009401025338467546, -0.008789283871118337, -0.0076461509407521186, -0.009143788794740253, -0.01000317814902846, -0.009034743683253644, -0.00878059665005094, -0.008591272795141557, -0.00764931586421062, -0.007975937619963765, -0.008248216982247732, -0.00924158804703686, -0.008408446772472085, -0.008229548736419843, -0.007982178957372474, -0.0112901347759447, -0.011869797003908323, -0.01041274667063621, -0.010597414472175442, -0.010526341467197125, -0.010132865612697538],
    "grza": [-0.005823239344707465, -0.00787090833731938, -0.00895234696518324, -0.009084493786688899, -0.009139735272911122, -0.008863053387525082, -0.007457093513987229, -0.006587266857996389, -0.007814818330407404, -0.008285723607881953, -0.00771366622074382, -0.006599638189033975, -0.008166745184725948, -0.009091047338985248, -0.008157755433195248, -0.007931443763865113, -0.007793126934501257, -0.006857333303023015, -0.0072225481479320005, -0.007542964744440244, -0.008578708894141493, -0.0077832255645670385, -0.0075908786996805545, -0.007346706197840056, -0.010649364627441007, -0.011122029387808739, -0.00955034927637363, -0.009780464300407217, -0.009657031072956424, -0.009257074264365991],
}
PINNED_MAX_REL_DEVIATION = {"lms": 0.013348575975643456, "grza": 0.013528077883751497}
PINNED_MOMENTS = dict(
    g=0.7533087724537084, h=155.05444021213864, ell=1.1685269899845812, r1=0.0181148665958092,
    r2=1.5909286443593664, g_se=0.036347843516494754, h_se=0.19640552928423163,
    ell_se=0.1000126842982687, r1_se=0.001319289886836933, r2_se=0.0016594090168826061,
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
# member tiles and the reversed-input regressor layout

TILE_ENSEMBLE = 45  # not a multiple of 7, so most tile sizes below leave a partial tile
HORIZON = 12


@pytest.mark.parametrize("tile", [1, 7, TILE_ENSEMBLE - 1, TILE_ENSEMBLE, TILE_ENSEMBLE + 5])
def test_results_do_not_depend_on_the_tile_size(monkeypatch, tile):
    """Nor on the block length: the same bits for every tile size crossed
    with blocks of 1, 3 and 5 steps (5 leaves a partial block), of the
    horizon, and of more steps than the pass has."""
    plant = benchmark_plants()[0]
    gza = FilterConfig(L=35, partition=GroupPartition.contiguous(35, 5),
                       mode=AttractorMode("gza"), mu=0.005, rho=1e-4)
    configs = (_lms_config(mu=0.005), _grza_config(mu=0.005, rho=1e-4), gza)

    def results():
        reports = [
            validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                     horizon=HORIZON, ensemble=TILE_ENSEMBLE, seed=8)
            for cfg in configs
        ]
        moments = [
            ensemble_moments(plant, input_model, cfg, sigma_z2=0.01, n=HORIZON,
                             ensemble=TILE_ENSEMBLE, seed=9, w_init=0.5 * plant)
            for cfg in configs
            for input_model in (WhiteGaussian(1.0), AR1GaussianMixture())
        ]
        return reports, moments

    reports, moments = results()
    monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", tile)
    for block in (1, 3, 5, HORIZON, HORIZON + 5):
        monkeypatch.setattr(gslms.oracles, "BLOCK_STEPS", block)
        tiled_reports, tiled_moments = results()
        for a, b in zip(reports, tiled_reports):
            for field in ("trq", "ensemble_increments", "model_increments", "rel_deviation"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), (block, field)
        assert tiled_moments == moments, block  # every field, bit for bit


@pytest.mark.parametrize("ensemble", [2, 1025])
def test_no_tile_is_narrower_than_two_members(monkeypatch, ensemble):
    """A one-member tile would sum its dot products in another order: at 2
    members a tile of 1, and at 1025 a last tile of 1 after 1024."""
    plant = benchmark_plants()[0]
    cfg = _grza_config(mu=0.005, rho=1e-4)

    def results():
        report = validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                          horizon=6, ensemble=ensemble, seed=8)
        moments = ensemble_moments(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01, n=6,
                                   ensemble=ensemble, seed=9, w_init=0.5 * plant)
        return report, moments

    report, moments = results()
    for tile in (1, 1024, 2 * ensemble):
        monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", tile)
        tiled_report, tiled_moments = results()
        for field in ("trq", "ensemble_increments", "model_increments", "rel_deviation"):
            assert np.array_equal(getattr(report, field), getattr(tiled_report, field)), field
        assert tiled_moments == moments, tile


def test_each_step_reads_the_reversed_sliding_window(monkeypatch):
    """Block by block, step t reads the reversed, zero-padded window of the
    last L streamed inputs as one C-contiguous (L, T) block of its tile."""
    L, steps, ensemble, seed, model = 35, 40, 7, 13, AR1GaussianMixture()
    monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", 3)  # tiles of 2, 2 and 3 members
    run = _EnsemblePass(benchmark_plants()[0], model, _lms_config(), 0.01, ensemble, seed)
    x_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    x = _step_major_inputs(model, ensemble, steps, x_rng)
    padded = np.concatenate([np.zeros((L - 1, ensemble)), x])
    windows = np.lib.stride_tricks.sliding_window_view(padded, L, axis=0)  # (steps, E, L)
    assert run._spans == [(0, 2), (2, 4), (4, 7)]
    t = 0
    for count in (3, 8, 1, 8, 5, 8, 7):  # blocks of the full and of fewer steps
        run.advance(count)
        for (lo, hi), xr in zip(run._spans, run._xr):
            for k in range(count):
                U = xr[count - 1 - k:count - 1 - k + L]  # the block advance() reads at step t + k
                assert U.shape == (L, hi - lo) and U.flags.c_contiguous
                for j in range(hi - lo):
                    assert np.array_equal(U[:, j], windows[t + k, lo + j, ::-1]), (t + k, lo + j)
        t += count
    assert t == steps


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
