"""Unit tests for the group partition and the group-sparsity operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gslms.config import ExperimentConfig
from gslms.groups import (
    GRZA,
    GZA,
    ZERO_GROUP_TOL,
    AttractorMode,
    GroupPartition,
    _attractor_rows,
    attractor_direction,
    attractor_term,
    beta_weights,
    expand_group_vector,
    group_norms,
    l12_norm,
    log_sum_penalty,
    row_dot,
)


# Coefficients are exactly zero or of sane magnitude: squaring a double
# below ~1e-154 underflows, which would make even numpy's norm of a nonzero
# vector come out exactly 0.  Filter weights are O(1) everywhere this
# library is used.
coefficient = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=5.0),
    st.floats(min_value=-5.0, max_value=-1e-6),
)


@st.composite
def partitioned_vector(draw, min_norm=0.0):
    """A random weight vector together with a contiguous partition of it.

    With ``min_norm > 0`` every group is guaranteed a norm at least that
    large, keeping the vector away from the nondifferentiable set.
    """
    L = draw(st.integers(min_value=1, max_value=24))
    group_size = draw(st.integers(min_value=1, max_value=L))
    p = GroupPartition.contiguous(L, group_size)
    w = np.array(draw(st.lists(coefficient, min_size=L, max_size=L)))
    if min_norm > 0.0:
        # lift every group that fell too close to zero
        norms = group_norms(w, p)
        for j, (start, stop) in enumerate(p.bounds):
            if norms[j] < min_norm:
                w[start] += min_norm * 2.0
    return w, p


# ---------------------------------------------------------------------------
# GroupPartition


def test_contiguous_partition_covers_range():
    p = GroupPartition.contiguous(35, 5)
    assert p.J == 7
    assert p.bounds[0] == (0, 5)
    assert p.bounds[-1] == (30, 35)


def test_contiguous_allows_short_last_group():
    p = GroupPartition.contiguous(7, 3)
    assert p.bounds == ((0, 3), (3, 6), (6, 7))


def test_singletons_partition():
    p = GroupPartition.singletons(4)
    assert p.J == 4
    assert all(stop - start == 1 for start, stop in p.bounds)


@pytest.mark.parametrize(
    "L, bounds",
    [
        (4, ()),  # no groups at all
        (4, ((0, 2), (3, 4))),  # gap
        (4, ((0, 3), (2, 4))),  # overlap
        (4, ((0, 2), (2, 2), (2, 4))),  # empty group
        (4, ((1, 4),)),  # does not start at 0
        (4, ((0, 2),)),  # does not reach L
        (0, ((0, 0),)),  # zero-length filter
    ],
)
def test_partition_rejects_invalid_bounds(L, bounds):
    with pytest.raises(ValueError):
        GroupPartition(L=L, bounds=bounds)


def test_partition_rejects_more_groups_than_coefficients():
    with pytest.raises(ValueError):
        GroupPartition(L=1, bounds=((0, 1), (1, 1)))


# ---------------------------------------------------------------------------
# l12_norm


def test_l12_norm_two_groups():
    p = GroupPartition.contiguous(4, 2)
    assert l12_norm(np.array([3.0, 4.0, 0.0, 0.0]), p) == 5.0


def test_l12_norm_zero_vector():
    for group_size in (1, 2, 5):
        p = GroupPartition.contiguous(10, group_size)
        assert l12_norm(np.zeros(10), p) == 0.0


def test_l12_norm_singletons_is_l1():
    p = GroupPartition.singletons(3)
    assert l12_norm(np.array([1.0, -2.0, 3.0]), p) == 6.0


def test_l12_norm_length_mismatch():
    p = GroupPartition.contiguous(4, 2)
    with pytest.raises(ValueError):
        l12_norm(np.zeros(5), p)


@given(partitioned_vector())
def test_l12_norm_positive_iff_nonzero(data):
    w, p = data
    norm = l12_norm(w, p)
    assert norm >= 0.0
    assert (norm == 0.0) == bool(np.all(w == 0.0))


@given(partitioned_vector())
def test_l12_norm_singleton_groups_reduce_to_l1(data):
    w, _ = data
    p = GroupPartition.singletons(w.shape[0])
    assert_allclose(l12_norm(w, p), np.abs(w).sum(), rtol=1e-12)


# ---------------------------------------------------------------------------
# log_sum_penalty


def test_log_sum_penalty_zero_vector():
    p = GroupPartition.contiguous(6, 3)
    assert log_sum_penalty(np.zeros(6), p, epsilon=0.5) == 0.0


def test_log_sum_penalty_single_group():
    p = GroupPartition.contiguous(2, 2)
    value = log_sum_penalty(np.array([3.0, 4.0]), p, epsilon=1.0)
    assert_allclose(value, math.log(6.0), rtol=1e-12)


def test_log_sum_penalty_norm_equals_epsilon():
    p = GroupPartition.singletons(4)
    w = np.array([0.1, 0.0, 0.0, 0.0])
    assert_allclose(log_sum_penalty(w, p, epsilon=0.1), math.log(2.0), rtol=1e-12)


@pytest.mark.parametrize("epsilon", [0.0, -1.0])
def test_log_sum_penalty_rejects_bad_epsilon(epsilon):
    p = GroupPartition.contiguous(2, 2)
    with pytest.raises(ValueError):
        log_sum_penalty(np.zeros(2), p, epsilon=epsilon)


# ---------------------------------------------------------------------------
# attractor_direction


def test_attractor_direction_unit_normalizes():
    p = GroupPartition.contiguous(2, 2)
    assert_allclose(attractor_direction(np.array([3.0, 4.0]), p), [0.6, 0.8], rtol=1e-12)


def test_attractor_direction_zero_group_maps_to_zero():
    p = GroupPartition.contiguous(4, 2)
    s = attractor_direction(np.array([3.0, 4.0, 0.0, 0.0]), p)
    assert_array_equal(s[2:], [0.0, 0.0])


def test_attractor_direction_below_threshold_is_zero():
    p = GroupPartition.contiguous(2, 2)
    w = np.full(2, ZERO_GROUP_TOL / 10.0)
    assert_array_equal(attractor_direction(w, p), np.zeros(2))


@given(partitioned_vector(min_norm=1e-3), st.floats(min_value=1e-3, max_value=1e3))
def test_attractor_direction_scale_invariant(data, c):
    w, p = data
    assert_allclose(
        attractor_direction(c * w, p), attractor_direction(w, p), rtol=1e-9, atol=1e-12
    )


@given(partitioned_vector())
def test_attractor_direction_groupwise_norm_is_one_or_zero(data):
    w, p = data
    norms = group_norms(attractor_direction(w, p), p)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


@given(partitioned_vector())
def test_attractor_direction_singletons_is_sign(data):
    w, _ = data
    p = GroupPartition.singletons(w.shape[0])
    expected = np.where(np.abs(w) > ZERO_GROUP_TOL, np.sign(w), 0.0)
    assert_array_equal(attractor_direction(w, p), expected)


@settings(max_examples=50)
@given(partitioned_vector(min_norm=0.1), st.integers(min_value=0, max_value=2**32 - 1))
def test_attractor_direction_is_subgradient_of_l12(data, seed):
    """Directional derivative of the mixed norm matches <s, direction>."""
    w, p = data
    direction = np.random.default_rng(seed).normal(size=w.shape[0])
    direction /= np.linalg.norm(direction)
    t = 1e-5
    fd = (l12_norm(w + t * direction, p) - l12_norm(w - t * direction, p)) / (2.0 * t)
    inner = float(np.dot(attractor_direction(w, p), direction))
    assert math.isclose(fd, inner, rel_tol=1e-6, abs_tol=1e-7)


# ---------------------------------------------------------------------------
# beta_weights


def test_beta_weights_gza_all_ones():
    p = GroupPartition.contiguous(6, 2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = rng.normal(size=6)
        assert_array_equal(beta_weights(w, p, AttractorMode(GZA)), np.ones(3))


def test_beta_weights_grza_inverse_shifted_norm():
    p = GroupPartition.contiguous(2, 2)
    w = np.array([0.4, 0.0])
    assert_allclose(beta_weights(w, p, AttractorMode(GRZA, 0.1)), [2.0], rtol=1e-12)


def test_beta_weights_grza_zero_group_attains_upper_bound():
    p = GroupPartition.contiguous(2, 2)
    assert_allclose(beta_weights(np.zeros(2), p, AttractorMode(GRZA, 0.1)), [10.0], rtol=1e-12)


@given(partitioned_vector(), st.floats(min_value=1e-3, max_value=10.0))
def test_beta_weights_grza_range(data, epsilon):
    w, p = data
    beta = beta_weights(w, p, AttractorMode(GRZA, epsilon))
    assert np.all(beta > 0.0)
    assert np.all(beta <= 1.0 / epsilon + 1e-12)


@given(
    partitioned_vector(min_norm=1e-6),
    st.floats(min_value=1.0, max_value=100.0),
    st.floats(min_value=1e-2, max_value=1.0),
)
def test_beta_weights_grza_non_increasing_in_group_norm(data, scale, epsilon):
    """Scaling any one group up never raises its reweighting coefficient."""
    w, p = data
    mode = AttractorMode(GRZA, epsilon)
    before = beta_weights(w, p, mode)
    for j, (start, stop) in enumerate(p.bounds):
        bigger = w.copy()
        bigger[start:stop] *= scale
        after = beta_weights(bigger, p, mode)
        assert after[j] <= before[j] + 1e-15


def test_attractor_mode_validation():
    with pytest.raises(ValueError):
        AttractorMode("nope")
    with pytest.raises(ValueError):
        AttractorMode(GRZA, 0.0)
    AttractorMode(GZA)  # epsilon not required


@pytest.mark.parametrize("epsilon", [0.1, 1e-308, 1e-320, 5e-324, math.inf, math.nan, 0.0, -1.0])
def test_attractor_mode_and_config_accept_the_same_epsilon(epsilon):
    """A GRZA mode accepts exactly the ``epsilon`` an experiment config
    accepts, finite and positive with a finite ``1 / epsilon``, and an
    accepted one keeps the attractor at a zero group finite."""

    def accepts(make):
        try:
            make()
        except ValueError:  # ConfigError included
            return False
        return True

    accepted = accepts(lambda: AttractorMode(GRZA, epsilon))
    assert accepted == accepts(lambda: ExperimentConfig(epsilon=epsilon))
    assert accepted == (epsilon in (0.1, 1e-308))
    if accepted:
        p = GroupPartition.contiguous(35, 5)
        assert np.all(np.isfinite(attractor_term(np.zeros(35), p, AttractorMode(GRZA, epsilon))))


# ---------------------------------------------------------------------------
# expand_group_vector


def test_expand_group_vector_replicates():
    p = GroupPartition(L=3, bounds=((0, 2), (2, 3)))
    assert_array_equal(expand_group_vector(np.array([2.0, 3.0]), p), [2.0, 2.0, 3.0])


def test_expand_group_vector_ones_identity():
    p = GroupPartition.contiguous(10, 3)
    assert_array_equal(expand_group_vector(np.ones(p.J), p), np.ones(10))


def test_expand_group_vector_singletons_identity():
    p = GroupPartition.singletons(5)
    v = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    assert_array_equal(expand_group_vector(v, p), v)


def test_expand_group_vector_length_mismatch():
    p = GroupPartition.contiguous(4, 2)
    with pytest.raises(ValueError):
        expand_group_vector(np.ones(3), p)


@given(partitioned_vector())
def test_expand_then_reduce_is_identity(data):
    """Picking one representative per group undoes the expansion."""
    w, p = data
    per_group = group_norms(w, p)
    assert_array_equal(expand_group_vector(per_group, p)[p.starts], per_group)


# ---------------------------------------------------------------------------
# attractor_term (fused product used by the filter update)


@given(partitioned_vector(), st.floats(min_value=1e-2, max_value=1.0))
def test_attractor_term_matches_composition(data, epsilon):
    w, p = data
    for mode in (AttractorMode(GZA), AttractorMode(GRZA, epsilon)):
        composed = expand_group_vector(beta_weights(w, p, mode), p) * attractor_direction(w, p)
        assert_allclose(attractor_term(w, p, mode), composed, rtol=1e-12, atol=0.0)


def test_attractor_term_gza_is_direction_bitwise():
    p = GroupPartition.contiguous(6, 3)
    w = np.random.default_rng(3).normal(size=6)
    assert_array_equal(attractor_term(w, p, AttractorMode(GZA)), attractor_direction(w, p))


@settings(deadline=None)
@given(
    st.sampled_from([1, 5, 9, 35]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**16),
    st.floats(min_value=1e-2, max_value=1.0),
)
def test_operators_on_stacks_match_rows_bitwise(group_size, A, R, seed, epsilon):
    """On an ``(A, R, L)`` stack every operator gives, row for row, the bits
    of the call on that row alone (zero groups included)."""
    rng = np.random.default_rng(seed)
    L = 35
    p = GroupPartition.contiguous(L, group_size)
    W = rng.normal(size=(A, R, L)) * rng.uniform(1e-3, 10.0, size=(A, R, 1))
    W[rng.random(size=(A, R, L)) < 0.3] = 0.0
    for mode in (AttractorMode(GZA), AttractorMode(GRZA, epsilon)):
        stacked = attractor_term(W, p, mode)
        betas = beta_weights(W, p, mode)
        assert stacked.shape == W.shape and betas.shape == (A, R, p.J)
        for a in range(A):
            for r in range(R):
                assert_array_equal(stacked[a, r], attractor_term(W[a, r], p, mode))
                assert_array_equal(betas[a, r], beta_weights(W[a, r], p, mode))
    norms = group_norms(W, p)
    directions = attractor_direction(W, p)
    expanded = expand_group_vector(norms, p)
    l12 = l12_norm(W, p)
    for a in range(A):
        for r in range(R):
            assert_array_equal(norms[a, r], group_norms(W[a, r], p))
            assert_array_equal(directions[a, r], attractor_direction(W[a, r], p))
            assert_array_equal(expanded[a, r], expand_group_vector(norms[a, r], p))
            assert l12[a, r] == l12_norm(W[a, r], p)


@settings(deadline=None)
@given(
    st.sampled_from([1, 5, 9, 35]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.data(),
    st.integers(min_value=0, max_value=2**16),
    st.floats(min_value=1e-2, max_value=1.0),
)
def test_attractor_rows_match_attractor_term_bitwise(group_size, K, R, data, seed, epsilon):
    """The one-pass attractor over a ``(K, R, L)`` stack, GRZA on any
    leading-axis row range (none, some or all) and GZA elsewhere, gives each
    row the bits of ``attractor_term`` on that row alone with its own mode,
    written into a view of a larger buffer; zero groups included."""
    lo = data.draw(st.integers(min_value=0, max_value=K), label="lo")
    hi = data.draw(st.integers(min_value=lo, max_value=K), label="hi")
    rng = np.random.default_rng(seed)
    L = 35
    p = GroupPartition.contiguous(L, group_size)
    W = rng.normal(size=(K, R, L)) * rng.uniform(1e-3, 10.0, size=(K, R, 1))
    W[rng.random(size=(K, R, L)) < 0.3] = 0.0
    start, stop = p.bounds[rng.integers(p.J)]
    W[rng.random(size=(K, R)) < 0.5, start:stop] = 0.0  # exact-zero groups
    buffer = np.full((K + 2, R, L), np.nan)
    out = buffer[1:K + 1]
    assert _attractor_rows(W, p, epsilon, slice(lo, hi), out=out) is out
    assert np.isnan(buffer[0]).all() and np.isnan(buffer[-1]).all()
    assert_array_equal(_attractor_rows(W, p, epsilon, slice(lo, hi)), out)
    for k in range(K):
        mode = AttractorMode(GRZA, epsilon) if lo <= k < hi else AttractorMode(GZA)
        for r in range(R):
            assert_array_equal(out[k, r], attractor_term(W[k, r], p, mode))


@pytest.mark.parametrize("group_size", [1, 5, 9, 35])
def test_attractor_rows_on_one_vector(group_size):
    """On 1-D input, no GRZA rows gives the GZA direction and ``slice(None)``
    the GRZA product, bit for bit as the formula written out by hand."""
    p = GroupPartition.contiguous(35, group_size)
    w = np.random.default_rng(group_size).normal(size=35)
    w[p.bounds[-1][0]:] = 0.0
    norms = np.sqrt(np.add.reduceat(w * w, p.starts))
    s = w / np.where(norms > ZERO_GROUP_TOL, norms, np.inf).repeat(p.sizes)
    grza = (1.0 / (norms + 0.1)).repeat(p.sizes) * s
    assert_array_equal(_attractor_rows(w, p, 0.1, None), s)
    assert_array_equal(_attractor_rows(w, p, 0.1, slice(None)), grza)
    assert_array_equal(attractor_term(w, p, AttractorMode(GZA)), s)
    assert_array_equal(attractor_term(w, p, AttractorMode(GRZA, 0.1)), grza)


def test_operators_reject_wrong_trailing_length():
    p = GroupPartition.contiguous(6, 3)
    with pytest.raises(ValueError):
        attractor_term(np.zeros((2, 5)), p, AttractorMode(GZA))
    with pytest.raises(ValueError):
        attractor_term(np.float64(1.0), p, AttractorMode(GZA))
    with pytest.raises(ValueError):
        expand_group_vector(np.zeros((2, 3)), p)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _assert_rows_match_kernel(a, b, out=None):
    """``row_dot(a, b)`` equals, bit for bit, ``row_dot`` on each broadcast
    pair of 1-D rows."""
    got = row_dot(a, b) if out is None else row_dot(a, b, out=out)
    a, b = np.broadcast_arrays(a, b)
    rows = [row_dot(a[idx], b[idx]) for idx in np.ndindex(a.shape[:-1])]
    assert_array_equal(_bits(got), _bits(rows).reshape(a.shape[:-1]))


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=24),
       st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_row_dot_rows_match_the_kernel_on_each_row(A, R, L, seed):
    """The one row-dot kernel sums every row of a batched call as it sums
    that row alone: on an ``(A, R, L)`` stack, on ``(V, R, L)`` slices of
    it, and on the block engine's regressor windows ``xr[:, N-1-i:][:, :L]``
    (broadcast over the algorithms, and written through ``out=`` into a
    step buffer's row as the engine's MSD is)."""
    rng = np.random.default_rng(seed)
    w, b = rng.normal(size=(2, A, R, L))
    _assert_rows_match_kernel(w, b)
    _assert_rows_match_kernel(w, w)
    lo = int(rng.integers(0, A))
    hi = int(rng.integers(lo + 1, A + 1))
    _assert_rows_match_kernel(w[lo:hi], b[lo:hi])
    N = 5
    xr = rng.normal(size=(R, N + L - 1))
    buf = np.empty((N, A, R))
    for i in range(N):
        u = xr[:, N - 1 - i:N - 1 - i + L]
        _assert_rows_match_kernel(w, u)
        _assert_rows_match_kernel(u, u)
        _assert_rows_match_kernel(u, b[lo:hi])
        _assert_rows_match_kernel(w - b, w - b, out=buf[i])
