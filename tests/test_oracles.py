"""Unit tests for the brute-force oracles (grid search, finite differences,
ensemble moment estimation, recursion validation)."""

import hashlib

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
    _member_samples,
    ensemble_moments,
    finite_diff_subgradient,
    grid_minimize_quadratic,
    validate_model_recursion,
)
from gslms.signals import AR1GaussianMixture, WhiteGaussian, benchmark_plants
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


# SHA-256 of the (8, 300) AR(1) ensemble drawn from default_rng(2024) as
# computed by scipy.signal.lfilter along axis 1, before the oracle's own
# loop over time replaced it.  The loop must reproduce those bits exactly.
MEMBER_DIGESTS = {
    0.5: "2dd8ffad4fd27a906169c02a24b230432708520a29a328a6bc900984a6fb5975",
    -0.7: "a3b811d158ce577c321ea16d58721813c09cd254e60c115270828051d5188b6d",
}


@pytest.mark.parametrize("alpha", sorted(MEMBER_DIGESTS))
def test_member_samples_ar1_bits_match_lfilter_record(alpha):
    x = _member_samples(AR1GaussianMixture(alpha=alpha), 8, 300, np.random.default_rng(2024))
    assert x.shape == (8, 300) and x.dtype == np.float64
    assert hashlib.sha256(x.tobytes()).hexdigest() == MEMBER_DIGESTS[alpha]


# Both default ``gslms validate-model`` cases and one ensemble_moments call
# from a non-zero start, recorded from the einsum-over-strided-windows
# implementation this one replaced (ensemble 300, horizon 30, seed 2026;
# moments: n=20, ensemble 300, seed 77).  The contiguous-row dot products
# sum in another order, so the last bits may move; rtol=1e-9 leaves room for
# that drift (about 1e-13 measured) and nothing else.
PINNED_TRQ = {
    "lms": [2.2975, 2.2909972590158536, 2.282424536246498, 2.2752507185376967, 2.265886028862154, 2.2578044725963147, 2.248985033301062, 2.2410604632403097, 2.2311799103904773, 2.2217596989253217, 2.2135398900219068, 2.2045170186880356, 2.196098132343535, 2.1866095910768863, 2.177345563977119, 2.169084385118747, 2.1607362289138146, 2.1528094439289847, 2.1444881570386074, 2.136911941017815, 2.129224170323659, 2.120548660556015, 2.1114187289319792, 2.101892249274715, 2.0929272091140523, 2.082138593523244, 2.0716142072741985, 2.061382528495537, 2.049824366355549, 2.0384314049817918, 2.0275601287033624],
    "grza": [2.2975, 2.2909972590158536, 2.2838344913895816, 2.2778007433427208, 2.269786297523368, 2.262989658310787, 2.255419899678434, 2.248697150516324, 2.2400148227753696, 2.231761484197516, 2.2246804880459226, 2.2167485439700987, 2.2093770713332828, 2.2008860921998377, 2.19258340119102, 2.1852593878848645, 2.177806759639639, 2.1707215167762284, 2.1631949694552257, 2.156402997553874, 2.149454231471518, 2.1414860275623724, 2.133012581541766, 2.1241253838798166, 2.1158046151531194, 2.1057194226551132, 2.095933767742265, 2.086477117270984, 2.075728238585087, 2.065149309262129, 2.0551410217739843],
}
PINNED_MODEL_INCREMENTS = {
    "lms": [-0.006489479599899086, -0.008551049198892366, -0.007125901103126901, -0.009339771250908313, -0.008110114598939242, -0.008805927287766541, -0.007874138955684208, -0.009867149551893174, -0.009475211538179694, -0.008214431129498849, -0.008968972778165581, -0.008516935905048685, -0.009496699723485508, -0.00935005153967149, -0.008292683628371692, -0.008338958092627885, -0.007901570164435476, -0.008382818697396164, -0.007655110067319702, -0.007665539073040374, -0.008676729367234907, -0.009047160858926557, -0.009595642226029374, -0.008927535346315043, -0.01077198559657673, -0.010487904559518623, -0.010275210200612174, -0.011526061313888343, -0.011467172626381292, -0.010871699802647313],
    "grza": [-0.006489479599899086, -0.007141043777941097, -0.005985763044910341, -0.007989549617801605, -0.006825293464511956, -0.0075560572701115535, -0.006672063231360057, -0.00866919875802873, -0.008309007475047012, -0.007075485658025519, -0.007877998931599262, -0.007470021440814391, -0.008499366954128373, -0.008389674707694169, -0.007355683488034565, -0.007443945316377489, -0.007059928268256958, -0.007588151412170901, -0.006872402248988906, -0.006926599342927723, -0.00796874739708665, -0.008389032545238194, -0.008957379809055144, -0.008283696928260644, -0.010070630376445878, -0.009749795282137477, -0.009498532690732787, -0.010717145886191826, -0.010653532764603926, -0.010005465223483397],
}
PINNED_MAX_REL_DEVIATION = {"lms": 0.011512304617655164, "grza": 0.013192573110971433}
PINNED_MOMENTS = dict(
    g=0.7366267820062514, h=155.19376299219513, ell=1.1131738906438726,
    r1=0.016902734038019115, r2=1.5896922891536414, g_se=0.03939250946077148,
    h_se=0.23317876044814778, ell_se=0.1104003149867938, r1_se=0.0014479074490060919,
    r2_se=0.0019476406217359653,
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


@pytest.mark.parametrize("tile", [1, 7, TILE_ENSEMBLE - 1, TILE_ENSEMBLE, TILE_ENSEMBLE + 5])
def test_results_do_not_depend_on_the_tile_size(monkeypatch, tile):
    plant = benchmark_plants()[0]
    gza = FilterConfig(L=35, partition=GroupPartition.contiguous(35, 5),
                       mode=AttractorMode("gza"), mu=0.005, rho=1e-4)
    configs = (_lms_config(mu=0.005), _grza_config(mu=0.005, rho=1e-4), gza)

    def results():
        reports = [
            validate_model_recursion(plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
                                     horizon=12, ensemble=TILE_ENSEMBLE, seed=8)
            for cfg in configs
        ]
        moments = [
            ensemble_moments(plant, input_model, cfg, sigma_z2=0.01, n=12,
                             ensemble=TILE_ENSEMBLE, seed=9, w_init=0.5 * plant)
            for cfg in configs
            for input_model in (WhiteGaussian(1.0), AR1GaussianMixture())
        ]
        return reports, moments

    reports, moments = results()
    monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", tile)
    tiled_reports, tiled_moments = results()
    for a, b in zip(reports, tiled_reports):
        for field in ("trq", "ensemble_increments", "model_increments", "rel_deviation"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert tiled_moments == moments  # every field, bit for bit


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


def test_regressor_rows_are_the_reversed_sliding_windows(monkeypatch):
    L, steps, ensemble, seed = 35, 40, 7, 13
    monkeypatch.setattr(gslms.oracles, "TILE_MEMBERS", 3)  # tiles of 2, 2 and 3 members
    run = _EnsemblePass(benchmark_plants()[0], AR1GaussianMixture(), _lms_config(), 0.01,
                        steps, ensemble, seed)
    x_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    x = _member_samples(AR1GaussianMixture(), ensemble, steps, x_rng)
    padded = np.concatenate([np.zeros((ensemble, L - 1)), x], axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, L, axis=1)
    assert run._spans == [(0, 2), (2, 4), (4, 7)]
    for (lo, hi), xr in zip(run._spans, run._xr):
        for t in range(steps):
            U = xr[steps - 1 - t:][:L]  # the block step() reads
            assert U.shape == (L, hi - lo) and U.flags.c_contiguous
            for j in range(hi - lo):
                assert np.array_equal(U[:, j], windows[lo + j, t, ::-1]), (t, lo + j)


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
