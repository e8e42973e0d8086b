"""Unit tests for input, noise and plant generation."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gslms.groups import GroupPartition, group_norms
from gslms.signals import (
    AR1GaussianMixture,
    PlantSchedule,
    WhiteGaussian,
    benchmark_plants,
    benchmark_schedule,
    gen_ar1_mixture,
    gen_white_gaussian,
    scalar_stream,
    simulate_plant,
    stationary_power,
)

N_LARGE = 1_000_000


# ---------------------------------------------------------------------------
# white Gaussian input


def test_white_gaussian_sample_mean():
    x = gen_white_gaussian(N_LARGE, 1.0, seed=101)
    assert abs(x.mean()) < 4.0 / 1000.0


def test_white_gaussian_sample_variance():
    x = gen_white_gaussian(N_LARGE, 1.0, seed=102)
    assert abs(x.var() - 1.0) < 0.01


def test_white_gaussian_deterministic():
    a = gen_white_gaussian(1000, 2.0, seed=7)
    b = gen_white_gaussian(1000, 2.0, seed=7)
    assert_array_equal(a, b)
    c = gen_white_gaussian(1000, 2.0, seed=8)
    assert not np.array_equal(a, c)


def test_white_gaussian_rejects_bad_variance():
    with pytest.raises(ValueError):
        gen_white_gaussian(10, 0.0, seed=1)
    with pytest.raises(ValueError):
        WhiteGaussian(variance=-1.0)


# ---------------------------------------------------------------------------
# AR(1) with Gaussian-mixture innovations


def _innovations(u, alpha):
    """Recover the driving noise from the AR(1) output."""
    return u[1:] - alpha * u[:-1]


def test_ar1_mixture_innovation_variance_is_one():
    # a = 3/2 with sigma_v2 = 4/13 makes (1 + a^2) sigma_v2 = 1 exactly
    u = gen_ar1_mixture(N_LARGE, alpha=0.5, a=1.5, sigma_v2=4.0 / 13.0, seed=201)
    v = _innovations(u, 0.5)
    assert abs(v.var() - 1.0) < 0.01


def test_ar1_mixture_innovation_mean_is_zero():
    u = gen_ar1_mixture(N_LARGE, alpha=0.5, a=1.5, sigma_v2=4.0 / 13.0, seed=202)
    v = _innovations(u, 0.5)
    assert abs(v.mean()) < 0.005


def test_ar1_mixture_lag_one_autocorrelation():
    u = gen_ar1_mixture(N_LARGE, alpha=0.5, a=1.5, sigma_v2=4.0 / 13.0, seed=203)
    u = u - u.mean()
    rho1 = float(np.dot(u[1:], u[:-1]) / np.dot(u, u))
    assert abs(rho1 - 0.5) < 0.01


def test_ar1_mixture_fourth_moment_matches_analytic():
    """E[v^4] of the two-component mixture is sigma_v^4 (a^4 + 6 a^2 + 3)."""
    a, sigma_v2 = 1.5, 4.0 / 13.0
    u = gen_ar1_mixture(N_LARGE, alpha=0.5, a=a, sigma_v2=sigma_v2, seed=204)
    v = _innovations(u, 0.5)
    analytic = sigma_v2**2 * (a**4 + 6.0 * a**2 + 3.0)
    empirical = float(np.mean(v**4))
    assert np.isfinite(empirical)
    assert abs(empirical - analytic) / analytic < 0.05


def test_ar1_mixture_deterministic():
    kw = dict(alpha=0.5, a=1.5, sigma_v2=4.0 / 13.0, seed=11)
    assert_array_equal(gen_ar1_mixture(500, **kw), gen_ar1_mixture(500, **kw))


def test_ar1_mixture_rejects_unstable_alpha():
    with pytest.raises(ValueError):
        gen_ar1_mixture(10, alpha=1.0, a=1.5, sigma_v2=1.0, seed=1)
    with pytest.raises(ValueError):
        AR1GaussianMixture(alpha=-1.5)
    with pytest.raises(ValueError):
        AR1GaussianMixture(sigma_v2=0.0)


def test_ar1_mixture_rejects_a_non_finite_stationary_power():
    # (1 + a^2) overflows here, though a itself is finite
    with pytest.raises(ValueError, match="stationary input power"):
        AR1GaussianMixture(a=1e200)
    with pytest.raises(ValueError, match="stationary input power"):
        AR1GaussianMixture(a=1e100, sigma_v2=1e200)
    assert np.isfinite(stationary_power(AR1GaussianMixture(a=1e150)))


# SHA-256 of gen_ar1_mixture(3000, 0.5, 1.5, 4/13, seed) as computed by
# scipy.signal.lfilter([1], [1, -alpha], v), before the plain recursion
# replaced it.  The recursion must reproduce those bits exactly.
AR1_DIGESTS = {
    0: "d5fb952d87e7dcbe7ed4487450b42455a3ab8eb4bd83701fa0b306d4225c698c",
    1: "1fe25af2a0d5db2e474b7ebef5db872d3be64c39d5532f8b554243b555809e6e",
    7: "c578f0cbb646f9bcb99f82def4d390b4f61b6286ae70ae46040d828c79ffbc60",
    12345: "b81e451faf763143d5c6579f4adea48978757adb019094e8d010aca58a1aad8e",
}


@pytest.mark.parametrize("seed", sorted(AR1_DIGESTS))
def test_ar1_mixture_bits_match_lfilter_record(seed):
    u = gen_ar1_mixture(3000, 0.5, 1.5, 4.0 / 13.0, seed)
    assert u.shape == (3000,) and u.dtype == np.float64
    assert hashlib.sha256(u.tobytes()).hexdigest() == AR1_DIGESTS[seed]


def test_scalar_stream_dispatches_by_process():
    w = scalar_stream(WhiteGaussian(1.0), 100, seed=3)
    assert_array_equal(w, gen_white_gaussian(100, 1.0, seed=3))
    ar = scalar_stream(AR1GaussianMixture(), 100, seed=3)
    assert_array_equal(ar, gen_ar1_mixture(100, 0.5, 1.5, 4.0 / 13.0, seed=3))


# ---------------------------------------------------------------------------
# stationary power


def test_stationary_power_white():
    assert stationary_power(WhiteGaussian(2.5)) == 2.5


def test_stationary_power_ar1_mixture():
    # (1 + 2.25) (4/13) / (1 - 0.25) = 4/3
    assert_allclose(stationary_power(AR1GaussianMixture()), 4.0 / 3.0, rtol=1e-15)


def test_stationary_power_matches_empirical_ar1():
    u = gen_ar1_mixture(N_LARGE, alpha=0.5, a=1.5, sigma_v2=4.0 / 13.0, seed=205)
    assert abs(np.mean(u * u) - 4.0 / 3.0) < 0.03


# ---------------------------------------------------------------------------
# plant schedule


def test_schedule_first_start_must_be_one():
    with pytest.raises(ValueError):
        PlantSchedule(segments=((2, np.zeros(3)),), total_iterations=10)


def test_schedule_starts_strictly_increasing():
    w = np.zeros(3)
    with pytest.raises(ValueError):
        PlantSchedule(segments=((1, w), (5, w), (5, w)), total_iterations=10)


def test_schedule_rejects_a_start_past_the_horizon():
    """A segment that starts after the last iteration would give a stage that
    ends before it starts: ``stage_bounds()`` would read [(0, 19), (19, 10)]."""
    w, w2 = np.zeros(3), np.ones(3)
    with pytest.raises(ValueError, match="segment start 20 lies past total_iterations=10"):
        PlantSchedule(((1, w), (20, w2)), total_iterations=10)
    # a start on the last iteration is a one-sample stage
    assert PlantSchedule(((1, w), (10, w2)), total_iterations=10).stage_bounds() == \
        [(0, 9), (9, 10)]


def test_schedule_requires_shared_length():
    with pytest.raises(ValueError):
        PlantSchedule(segments=((1, np.zeros(3)), (5, np.zeros(4))), total_iterations=10)


def _segment_per_sample(sched, n):
    """Segment active at each 0-based sample ``0..n-1``: sample i is 1-based
    iteration i+1, and the last segment runs to ``n``."""
    starts = [s for s, _ in sched.segments]
    return np.searchsorted(starts, np.arange(1, n + 1), side="right") - 1


def test_schedule_plant_index_and_stage_bounds():
    w = [np.full(2, float(k)) for k in range(3)]
    sched = PlantSchedule(
        segments=((1, w[0]), (5, w[1]), (9, w[2])), total_iterations=12
    )
    assert sched.stage_bounds() == [(0, 4), (4, 8), (8, 12)]
    assert_array_equal(simulate_plant(sched, np.ones(12), 0.0, noise_seed=0).plant_index,
                       [0] * 4 + [1] * 4 + [2] * 4)
    # fewer samples than the schedule clip it; more run the last segment on
    for n in (0, 1, 3, 5, 12, 15):
        index = simulate_plant(sched, np.ones(n), 0.0, noise_seed=0).plant_index
        reference = _segment_per_sample(sched, n)
        assert index.dtype == reference.dtype == np.int64
        assert_array_equal(index, reference)


def test_benchmark_schedule_default_switches():
    sched = benchmark_schedule()
    assert [s for s, _ in sched.segments] == [1, 8000, 16000]
    assert sched.total_iterations == 24000
    assert sched.stage_bounds() == [(0, 7999), (7999, 15999), (15999, 24000)]


def test_benchmark_schedule_drops_switches_past_the_horizon():
    """A switch after the last iteration would give a stage that ends before
    it starts; the schedule keeps only the switches that happen."""
    sched = benchmark_schedule(total_iterations=5000)
    assert [s for s, _ in sched.segments] == [1]
    assert sched.stage_bounds() == [(0, 5000)]
    assert [s for s, _ in benchmark_schedule(total_iterations=8000).segments] == [1, 8000]
    assert [s for s, _ in benchmark_schedule(total_iterations=0).segments] == [1]


# ---------------------------------------------------------------------------
# benchmark plants


def test_benchmark_plants_lengths():
    for w in benchmark_plants():
        assert w.shape == (35,)


def test_first_plant_is_group_sparse():
    w1 = benchmark_plants()[0]
    assert int(np.count_nonzero(w1)) == 15
    norms = group_norms(w1, GroupPartition.contiguous(35, 5))
    assert int(np.count_nonzero(norms)) == 3  # three active blocks of five


def test_second_plant_has_no_zeros():
    w2 = benchmark_plants()[1]
    assert np.all(w2 != 0.0)


def test_third_plant_zero_block():
    w3 = benchmark_plants()[2]
    assert np.all(w3[10:25] == 0.0)
    assert np.all(w3[:10] != 0.0) and np.all(w3[25:] != 0.0)


# ---------------------------------------------------------------------------
# plant simulation


def _single_plant(w, n):
    return PlantSchedule(segments=((1, w),), total_iterations=n)


def test_simulate_identity_channel():
    # plant = e_1 and no noise: the output is the current scalar input
    x = np.arange(1.0, 11.0)
    w = np.zeros(4)
    w[0] = 1.0
    stream = simulate_plant(_single_plant(w, 10), x, 0.0, noise_seed=0)
    assert_array_equal(stream.d, x)


def test_simulate_zero_plant():
    x = np.random.default_rng(5).normal(size=50)
    stream = simulate_plant(_single_plant(np.zeros(6), 50), x, 0.0, noise_seed=0)
    assert_array_equal(stream.d, np.zeros(50))


def test_simulate_tapped_delay_line():
    x = np.arange(1.0, 8.0)
    stream = simulate_plant(_single_plant(np.zeros(3), 7), x, 0.0, noise_seed=0)
    assert_array_equal(stream.U[0], [1.0, 0.0, 0.0])  # zero pre-padding
    assert_array_equal(stream.U[1], [2.0, 1.0, 0.0])
    assert_array_equal(stream.U[4], [5.0, 4.0, 3.0])
    # newest sample first at every step
    assert_array_equal(stream.U[:, 0], x)


def test_simulate_switch_changes_plant_at_exact_sample():
    wa = np.array([1.0, 0.0])
    wb = np.array([0.0, 1.0])
    sched = PlantSchedule(segments=((1, wa), (4, wb)), total_iterations=6)
    x = np.arange(1.0, 7.0)
    stream = simulate_plant(sched, x, 0.0, noise_seed=0)
    # 1-based switch at n=4 is 0-based sample 3
    assert_array_equal(stream.d[:3], x[:3])  # wa picks the current sample
    assert_array_equal(stream.d[3:], x[2:5])  # wb picks the previous one


def test_simulate_input_continuity_across_switch():
    sched = PlantSchedule(
        segments=((1, np.zeros(4)), (4, np.ones(4))), total_iterations=8
    )
    x = np.random.default_rng(9).normal(size=8)
    stream = simulate_plant(sched, x, 0.0, noise_seed=0)
    # the regressor window slides smoothly over the switch
    assert_array_equal(stream.U[3][1:], stream.U[2][:-1])
    assert_array_equal(stream.U[4][1:], stream.U[3][:-1])


def test_simulate_noise_independent_of_input():
    """The input stream is unchanged when only the noise seed differs."""
    sched = _single_plant(np.ones(3), 100)
    x = gen_white_gaussian(100, 1.0, seed=42)
    s1 = simulate_plant(sched, x, 0.01, noise_seed=1)
    s2 = simulate_plant(sched, x, 0.01, noise_seed=2)
    assert_array_equal(s1.U, s2.U)
    assert not np.array_equal(s1.d, s2.d)
    s3 = simulate_plant(sched, x, 0.01, noise_seed=1)
    assert_array_equal(s1.d, s3.d)


@pytest.mark.parametrize("n", [0, 1, 12000, 24000, 30000])
def test_simulate_matches_materialised_regressors(n):
    """``U`` and ``d`` equal the (n, L) regressor matrix and per-sample plant
    gather they replace, for a schedule longer than, equal to and shorter
    than ``n`` (the last plant then runs to ``n``)."""
    sched = benchmark_schedule(total_iterations=24000)
    x = gen_white_gaussian(n, 1.0, seed=n)
    stream = simulate_plant(sched, x, 0.01, noise_seed=n + 1)
    L = sched.L
    padded = np.concatenate([np.zeros(L - 1), x])
    U = np.array([padded[i:i + L][::-1] for i in range(n)]).reshape(n, L)
    plants = np.stack([w for _, w in sched.segments])
    index = _segment_per_sample(sched, n)
    d = np.einsum("ij,ij->i", U, plants[index])
    d = d + np.random.default_rng(n + 1).normal(0.0, np.sqrt(0.01), size=n)
    assert_array_equal(stream.U, U)
    assert_array_equal(stream.d, d)
    assert np.shares_memory(stream.U, stream.x_rev) or n == 0
    assert stream.plant_index.dtype == index.dtype == np.int64
    assert_array_equal(stream.plant_index, index)


def test_simulate_empty_stream():
    stream = simulate_plant(_single_plant(np.zeros(3), 0), np.empty(0), 0.01, noise_seed=0)
    assert stream.U.shape == (0, 3)
    assert stream.d.shape == (0,)
