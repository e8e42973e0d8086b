"""Unit tests for the Monte-Carlo runner and the curve emitter."""

import copy
import csv
import json
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import gslms.filters
import gslms.groups
import gslms.harness
import gslms.varparam
from gslms.config import (
    AlgorithmSpec, ExperimentConfig, builtin_config, config_hash, parse_config,
)
from gslms.filters import DivergenceError, FilterConfig, initial_state, step
from gslms.groups import AttractorMode, GroupPartition
from gslms.harness import (
    STEADY_STATE_WINDOW,
    LearningCurve,
    emit_curves,
    experiment_schedule,
    run_experiment,
    stage_windows,
    steady_state_db,
)
from gslms.signals import (
    AR1GaussianMixture, WhiteGaussian, benchmark_schedule, scalar_stream, simulate_plant,
)
from gslms.varparam import DET_TOL, ModelError, VpState, vp_iteration


def _small_cfg(**kw):
    defaults = dict(
        experiment="unit",
        runs=3,
        iterations=300,
        master_seed=4242,
        algorithms=(
            AlgorithmSpec(name="lms", mu=0.02),
            AlgorithmSpec(name="grza", mode="grza", mu=0.02, rho=1e-4),
        ),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# run_experiment


def test_zero_iterations_gives_empty_curves():
    cfg = _small_cfg(runs=1, iterations=0)
    curves = run_experiment(cfg)
    assert len(curves) == 2
    for c in curves:
        assert c.msd.shape == (0,)
        assert c.metadata["runs_used"] == 1
        assert c.metadata["master_seed"] == 4242
        assert c.metadata["iterations"] == 0


def test_no_algorithms_rejected():
    with pytest.raises(ValueError):
        run_experiment(_small_cfg(algorithms=()))


def test_paired_streams_make_identical_algorithms_agree():
    cfg = _small_cfg(
        algorithms=(
            AlgorithmSpec(name="a", mu=0.02),
            AlgorithmSpec(name="b", mu=0.02),
        )
    )
    a, b = run_experiment(cfg)
    assert_array_equal(a.msd, b.msd)


def test_run_average_is_deterministic():
    cfg = _small_cfg()
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    for c1, c2 in zip(first, second):
        assert_array_equal(c1.msd, c2.msd)


def test_master_seed_changes_results():
    base = run_experiment(_small_cfg())[0]
    other = run_experiment(_small_cfg(master_seed=999))[0]
    assert not np.array_equal(base.msd, other.msd)


def test_worker_count_invariance():
    """Partial sums merge in run-index order, so workers cannot change bits.
    45 runs are three blocks, so two workers take them in a process pool."""
    cfg = _small_cfg(
        runs=45,
        algorithms=(
            AlgorithmSpec(name="lms", mu=0.02),
            AlgorithmSpec(name="vp-gza", mode="gza", variable=True),
        ),
    )
    serial = run_experiment(cfg, workers=1)
    pooled = run_experiment(cfg, workers=2)
    for c1, c2 in zip(serial, pooled):
        assert c1.name == c2.name
        assert_array_equal(c1.msd, c2.msd)
        if c1.mu_trace is not None:
            assert_array_equal(c1.mu_trace, c2.mu_trace)
            assert_array_equal(c1.lambda_trace, c2.lambda_trace)


def test_variable_algorithm_produces_traces():
    cfg = _small_cfg(
        algorithms=(
            AlgorithmSpec(name="vp-grza", mode="grza", variable=True),
            AlgorithmSpec(name="lms", mu=0.02),
        )
    )
    vp, lms = run_experiment(cfg)
    assert vp.mu_trace is not None and vp.lambda_trace is not None
    assert vp.mu_trace.shape == (300,)
    assert np.all(vp.mu_trace >= 0.0)
    assert lms.mu_trace is None and lms.lambda_trace is None


def test_diverged_runs_are_counted_and_excluded(tmp_path):
    # mu = 1.0 at L = 35 grows the weights by roughly half a decade per
    # iteration; their squared deviation overflows after two to three
    # hundred iterations, so the horizon must reach past that
    cfg = _small_cfg(
        runs=2,
        iterations=800,
        algorithms=(
            AlgorithmSpec(name="unstable", mu=1.0),
            AlgorithmSpec(name="stable", mu=0.01),
        ),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        unstable, stable = run_experiment(cfg)
        expected = [[run, _scalar_fold(cfg, cfg.algorithms[0], run)[3]] for run in range(2)]
    assert unstable.metadata["diverged_runs"] == 2
    assert unstable.metadata["runs_used"] == 0
    assert stable.metadata["diverged_runs"] == 0
    assert stable.metadata["runs_used"] == 2
    assert np.all(np.isfinite(stable.msd))
    # each pair is [run, index of the first update whose squared deviation
    # is not finite]
    assert all(it is not None for _, it in expected)
    assert unstable.metadata["diverged"] == expected
    assert stable.metadata["diverged"] == []
    emit_curves([unstable, stable], cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [c["diverged"] for c in manifest["curves"]] == [expected, []]
    assert [c["diverged_runs"] for c in manifest["curves"]] == [2, 0]
    # JSON has no NaN: the unstable curve's NaNs are written as null, and
    # every file parses as strict JSON
    json_dir = tmp_path / "json"
    emit_curves([unstable, stable], replace(cfg, format="json"), json_dir)
    files = {path.name: json.loads(path.read_text(), parse_constant=_reject_constant)
             for path in json_dir.glob("*.json")}
    assert sorted(files) == ["manifest.json", "stable.json", "unstable.json"]
    assert files["unstable.json"]["msd_linear"] == [None] * 800
    assert files["unstable.json"]["msd_db"] == [None] * 800
    assert files["unstable.json"]["iter"] == list(range(1, 801))
    assert files["stable.json"]["msd_linear"] == stable.msd.tolist()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


_UNSTABLE = AlgorithmSpec(name="unstable", mu=1.0)
_STABLE = AlgorithmSpec(name="grza", mode="grza", mu=0.02, rho=1e-4)


def _diverging_cfg():
    """41 runs (three blocks) x 480 iterations: the unstable row's squared
    deviation overflows in every run, the stable row's in none."""
    return _small_cfg(runs=41, iterations=480, algorithms=(_UNSTABLE, _STABLE))


def test_divergence_across_blocks_merges_in_run_order():
    """41 runs make three blocks, and the unstable row diverges in every run:
    the merged ``diverged`` list is sorted by run, each iteration is the
    scalar fold's, the stable row's curve is the one it has without the
    unstable row, and 1 and 2 workers agree."""
    cfg = _diverging_cfg()
    assert list(gslms.harness._blocks(41)) == [(0, 14), (14, 14), (28, 13)]
    with np.errstate(over="ignore", invalid="ignore"):
        serial = run_experiment(cfg, workers=1)
        pooled = run_experiment(cfg, workers=2)
        folds = [_scalar_fold(cfg, _UNSTABLE, run)[3] for run in range(41)]
    assert None not in folds and (min(folds), max(folds)) == (213, 321)
    assert serial[0].metadata["diverged"] == [[run, it] for run, it in enumerate(folds)]
    assert serial[0].metadata["runs_used"] == 0
    assert serial[1].metadata["diverged"] == []
    assert serial[1].metadata["runs_used"] == 41
    alone = run_experiment(replace(cfg, algorithms=(_STABLE,)))[0]
    assert_array_equal(serial[1].msd, alone.msd)
    for c1, c2 in zip(serial, pooled):
        assert c1.metadata == c2.metadata
        assert_array_equal(c1.msd, c2.msd)


@pytest.mark.parametrize("workers", [1, 2])
def test_diverging_runs_are_contained_without_warnings(workers):
    """A row counts as diverged at its first non-finite squared deviation,
    so no run whose deviation overflowed stays in the average, and the
    engine's overflows print no numpy warning: every run of the unstable
    row is dropped, its curve is NaN, and the stable row keeps the bits it
    has alone."""
    cfg = _diverging_cfg()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unstable, stable = run_experiment(cfg, workers=workers)
    assert unstable.metadata["diverged_runs"] == 41
    assert unstable.metadata["runs_used"] == 0
    assert np.isnan(unstable.msd).all()
    assert stable.metadata["runs_used"] == 41
    alone = run_experiment(replace(cfg, algorithms=(_STABLE,)))[0]
    assert_array_equal(stable.msd, alone.msd)


def test_measured_input_power_recorded():
    cfg = _small_cfg(runs=4, iterations=2000)
    power = run_experiment(cfg)[0].metadata["measured_input_power"]
    assert abs(power - 1.0) < 0.1


def test_learning_curve_rejects_negative_msd():
    with pytest.raises(ValueError):
        LearningCurve(
            name="x", msd=np.array([-1.0]), mu_trace=None, lambda_trace=None,
            metadata={},
        )


def test_engine_skips_scalar_update_and_shares_one_attractor_call(monkeypatch):
    """The block engine never calls the scalar ``step``/``vp_iteration`` or
    ``attractor_term``, and evaluates the attractor once per block-step, both
    modes in one call: 45 runs make three blocks."""
    calls = {}

    def count(module, attr, key):
        original = getattr(module, attr, None)

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted, raising=False)

    count(gslms.harness, "step", "step")
    count(gslms.harness, "vp_iteration", "vp_iteration")
    count(gslms.filters, "step", "step")
    count(gslms.varparam, "vp_iteration", "vp_iteration")
    count(gslms.filters, "attractor_term", "attractor_term")
    count(gslms.varparam, "attractor_term", "varparam.attractor_term")
    count(gslms.groups, "attractor_term", "attractor_term")
    count(gslms.groups, "_attractor_rows", "_attractor_rows")
    run_experiment(replace(builtin_config("exp1"), runs=45, iterations=100))
    assert calls == {"_attractor_rows": 3 * 100}


def test_single_loop_matches_reference_step_fold():
    """The harness loop, which shares one attractor evaluation per step, is
    bit-identical to folding ``vp_iteration``/``step`` as the library
    documents it, each evaluating the attractor itself."""
    cfg = _small_cfg(
        runs=1,
        iterations=400,
        algorithms=(
            AlgorithmSpec(name="grza", mode="grza", mu=0.02, rho=1e-4),
            AlgorithmSpec(name="vp-gza", mode="gza", variable=True),
            AlgorithmSpec(name="vp-grza", mode="grza", variable=True),
        ),
    )
    for spec, curve in zip(cfg.algorithms, run_experiment(cfg)):
        msd, mus, rhos, diverged = _scalar_fold(cfg, spec, 0)
        assert diverged is None
        assert_array_equal(curve.msd, msd)
        if spec.variable:
            assert_array_equal(curve.mu_trace, mus)
            assert_array_equal(curve.lambda_trace, _lambda(mus, rhos))


def _scalar_fold(cfg, spec, run):
    """Run ``run`` of one algorithm by folding the scalar ``vp_iteration`` and
    ``step``, each evaluating the attractor itself.  Returns the MSD, mu and
    rho per step and the iteration of the first update whose squared
    deviation is not finite, or whose ``vp_iteration`` raises ``ModelError``
    (None if none); the fold stops there."""
    schedule = experiment_schedule(cfg)
    x = scalar_stream(cfg.input, cfg.iterations, [cfg.master_seed, run, 0])
    stream = simulate_plant(schedule, x, cfg.sigma_z2, [cfg.master_seed, run, 1])
    target = np.stack([w for _, w in schedule.segments])[stream.plant_index]
    mode = AttractorMode(spec.mode, cfg.epsilon) if spec.mode else None
    fcfg = FilterConfig(schedule.L, GroupPartition.contiguous(schedule.L, cfg.group_size),
                        mode, mu=spec.mu, rho=spec.rho, variable_params=spec.variable)
    vp = VpState.for_filter(schedule.L, cfg.sigma_z2, cfg.sigma_u2, gamma=spec.gamma,
                            gamma_prime=spec.gamma_prime, mu_max=spec.mu_max)
    state = initial_state(schedule.L)
    msd, mus, rhos = [], [], []
    for i, (u, d, w_star) in enumerate(zip(stream.U, stream.d, target)):
        mu_n, rho_n = fcfg.mu, fcfg.rho
        if spec.variable:
            e = d - np.dot(state.w, u)
            try:
                mu_n, rho_n = vp_iteration(vp, state, fcfg, u, float(e))
            except ModelError:
                # The transient model broke: the engine's row diverges here.
                return msd, mus, rhos, i
            mus.append(mu_n)
            rhos.append(rho_n)
        try:
            state = step(state, fcfg, u, d, mu_n, rho_n)
        except DivergenceError:
            # Weights outside the finite range: the deviation is not finite.
            return msd, mus, rhos, i
        deviation = np.dot(state.w - w_star, state.w - w_star)
        if not np.isfinite(deviation):
            return msd, mus, rhos, i
        msd.append(deviation)
    return msd, mus, rhos, None


_ENGINE_ALGORITHMS = {
    spec.name: spec for spec in (
        AlgorithmSpec(name="lms", mu=0.02),
        AlgorithmSpec(name="gza", mode="gza", mu=0.02, rho=2e-4),
        AlgorithmSpec(name="gza-rho0", mode="gza", mu=0.015),
        AlgorithmSpec(name="grza", mode="grza", mu=0.02, rho=1e-4),
        AlgorithmSpec(name="vp-lms", variable=True),
        AlgorithmSpec(name="vp-gza", mode="gza", variable=True),
        AlgorithmSpec(name="vp-grza", mode="grza", variable=True, gamma=0.9, mu_max=0.01),
    )
}


def _lambda(mus, rhos):
    return [rho / mu if mu != 0.0 else 0.0 for mu, rho in zip(mus, rhos)]


def _rows_by_name(cfg, first, result):
    """``_advance_block``'s ``result`` for the block that starts at run
    ``first``, indexed by algorithm name through ``_row_specs``: ``{name:
    (msd_sum, mu_sum, lam_sum, diverged)}``, the sums being columns of the
    one sum array (A MSD columns, then V mu and V lambda columns; mu and
    lambda None for a fixed row) and ``diverged`` the row's ``[run,
    iteration]`` pairs."""
    specs = gslms.harness._row_specs(cfg)
    vp_specs = [s for s in specs if s.variable]
    A, V = len(specs), len(vp_specs)
    _, sums, diverged_at = result
    rows = {}
    for a, spec in enumerate(specs):
        traces = (None, None)
        if spec.variable:
            v = A + vp_specs.index(spec)
            traces = (sums[:, v], sums[:, v + V])
        diverged = [[first + int(r), int(diverged_at[a, r])]
                    for r in np.flatnonzero(diverged_at[a] >= 0)]
        rows[spec.name] = (sums[:, a], *traces, diverged)
    return rows


@settings(deadline=None, max_examples=25)
@given(
    group_size=st.sampled_from([1, 5, 9, 35]),
    count=st.integers(min_value=1, max_value=6),
    first=st.integers(min_value=0, max_value=3),
    names=st.lists(st.sampled_from(sorted(_ENGINE_ALGORITHMS)), min_size=1, max_size=5,
                   unique=True),
    colored=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_block_rows_match_scalar_fold(group_size, count, first, names, colored, seed):
    """Every (algorithm, run) row of a block is bit-identical to folding the
    scalar ``vp_iteration``/``step`` over that run alone.  A block's sums
    over a single counted run (``dropped`` masks the others) are that run's
    row."""
    cfg = _small_cfg(
        runs=first + count, iterations=150, group_size=group_size, master_seed=seed,
        input=AR1GaussianMixture() if colored else WhiteGaussian(),
        algorithms=tuple(_ENGINE_ALGORITHMS[n] for n in names),
    )
    for run in range(first, first + count):
        dropped = np.ones((len(names), count), dtype=bool)
        dropped[:, run - first] = False
        rows = _rows_by_name(cfg, first, gslms.harness._advance_block(cfg, first, count, dropped))
        for spec in cfg.algorithms:
            msd, mus, rhos, diverged = _scalar_fold(cfg, spec, run)
            msd_row, mu_row, lam_row, failed = rows[spec.name]
            assert diverged is None and failed == []
            assert_array_equal(msd_row, msd)
            if spec.variable:
                assert_array_equal(mu_row, mus)
                assert_array_equal(lam_row, _lambda(mus, rhos))


def test_block_sums_add_runs_in_order():
    """A block's sums are its runs' rows added one by one from zero, as
    ``run_experiment`` added single runs before blocks existed."""
    cfg = _small_cfg(runs=5, iterations=300, algorithms=tuple(_ENGINE_ALGORITHMS.values()))
    rows = _rows_by_name(cfg, 0, gslms.harness._advance_block(cfg, 0, 5))
    for spec in cfg.algorithms:
        msd_sum, mu_sum, lam_sum = np.zeros(300), np.zeros(300), np.zeros(300)
        for run in range(5):
            msd, mus, rhos, _ = _scalar_fold(cfg, spec, run)
            msd_sum += msd
            if spec.variable:
                mu_sum += mus
                lam_sum += _lambda(mus, rhos)
        assert_array_equal(rows[spec.name][0], msd_sum)
        if spec.variable:
            assert_array_equal(rows[spec.name][1], mu_sum)
            assert_array_equal(rows[spec.name][2], lam_sum)


def test_diverging_row_leaves_other_rows_unchanged():
    """A row that diverges inside a block is dropped at the scalar fold's
    iteration, its first non-finite squared deviation; the other rows, and
    so their sums, keep their bits."""
    others = (
        AlgorithmSpec(name="lms", mu=0.02),
        AlgorithmSpec(name="vp-gza", mode="gza", variable=True),
        AlgorithmSpec(name="grza", mode="grza", mu=0.02, rho=1e-4),
    )
    unstable = AlgorithmSpec(name="unstable", mode="grza", mu=1.0, rho=1e-4)
    cfg = _small_cfg(runs=3, iterations=800, algorithms=others + (unstable,))
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = _rows_by_name(cfg, 0, gslms.harness._advance_block(cfg, 0, 3))
        survivors = _rows_by_name(cfg, *gslms.harness._run_block((cfg, 0, 3)))
        expected = [[r, _scalar_fold(cfg, unstable, r)[3]] for r in range(3)]
    clean_cfg = replace(cfg, algorithms=others)
    clean = _rows_by_name(clean_cfg, 0, gslms.harness._advance_block(clean_cfg, 0, 3))
    assert all(it is not None for _, it in expected)
    assert mixed["unstable"][3] == survivors["unstable"][3] == expected
    assert_array_equal(survivors["unstable"][0], np.zeros(800))
    for spec in others:
        for out in (mixed, survivors):
            msd, mu, lam, failed = out[spec.name]
            assert failed == []
            assert_array_equal(msd, clean[spec.name][0])
            if spec.variable:
                assert_array_equal(mu, clean[spec.name][1])
                assert_array_equal(lam, clean[spec.name][2])


@pytest.mark.parametrize(
    "changes",
    [dict(input=WhiteGaussian(1e200)),
     dict(input=WhiteGaussian(1e-300), sigma_z2=0.0)],
    ids=["moments-overflow", "zero-normalization"],
)
def test_block_diverges_where_the_scalar_model_breaks(changes, monkeypatch):
    """A VP row whose transient model breaks, by non-finite moments or a
    non-positive normalization, diverges at the step where the scalar
    ``vp_iteration`` raises ``ModelError``: the block raises nothing, its
    ``diverged_at`` for the row is the fold's iteration, and
    ``_vp_rows_iteration`` on the inputs of that step returns a NaN mu.  The
    dead row then steps on to the end of the block without raising."""
    vp_spec = _ENGINE_ALGORITHMS["vp-gza"]
    cfg = _small_cfg(runs=1, iterations=50,
                     algorithms=(_ENGINE_ALGORITHMS["lms"], vp_spec), **changes)
    rows_iteration = gslms.harness._vp_rows_iteration
    calls = []

    def recorded(vps, u, e, beta_s, out):
        calls.append(copy.deepcopy((vps, u, e, beta_s)))
        return rows_iteration(vps, u, e, beta_s, out)

    monkeypatch.setattr(gslms.harness, "_vp_rows_iteration", recorded)
    with np.errstate(over="ignore", invalid="ignore"):
        msd, mus, _, broke_at = _scalar_fold(cfg, vp_spec, 0)
        rows = _rows_by_name(cfg, 0, gslms.harness._advance_block(cfg, 0, 1))
    # The fold stopped inside vp_iteration: no mu and no MSD for that step.
    assert broke_at is not None and len(mus) == len(msd) == broke_at
    assert rows["vp-gza"][3] == [[0, broke_at]]
    mu, _ = rows_iteration(*calls[broke_at], np.empty((2, 1, 1)))
    assert np.isnan(mu).all()
    assert len(calls) == cfg.iterations


def test_block_rows_match_scalar_fold_through_every_vp_branch(monkeypatch):
    """On exp1's algorithms plus a VP row with a small step-size cap, the
    scalar fold takes the solve fallback, the ``mu_max`` cap and the EMSE
    floor, and every row of the block is still bitwise equal to it."""
    capped = AlgorithmSpec(name="vp-capped", mode="grza", variable=True, mu_max=0.004)
    cfg = replace(builtin_config("exp1"), runs=1, iterations=3000,
                  algorithms=builtin_config("exp1").algorithms + (capped,))
    fired = {"fallback": 0, "cap": 0, "floor": 0}
    solve, smooth = gslms.varparam.solve_optimal_params, gslms.varparam.smooth_and_clamp

    def counted_solve(m, *args, **kwargs):
        tiny = np.finfo(np.float64).tiny
        fired["fallback"] += not m.g * m.h - m.ell * m.ell > DET_TOL * m.g * max(m.h, tiny)
        return solve(m, *args, **kwargs)

    def counted_smooth(vp, mu_star, rho_star):
        # Called after estimate_emse and before propagate_model_msd, so
        # zeta_min is still the floor that estimate saw.
        fired["floor"] += vp.zeta_min > vp.e_smooth * vp.e_smooth - vp.sigma_z2
        gp = vp.gamma_prime
        fired["cap"] += gp * vp.mu_prev + (1.0 - gp) * mu_star > vp.mu_max
        return smooth(vp, mu_star, rho_star)

    monkeypatch.setattr(gslms.varparam, "solve_optimal_params", counted_solve)
    monkeypatch.setattr(gslms.varparam, "smooth_and_clamp", counted_smooth)
    folds = {spec.name: _scalar_fold(cfg, spec, 0) for spec in cfg.algorithms}
    monkeypatch.undo()
    assert all(count > 0 for count in fired.values()), fired
    rows = _rows_by_name(cfg, 0, gslms.harness._advance_block(cfg, 0, 1))
    for spec in cfg.algorithms:
        msd, mus, rhos, diverged = folds[spec.name]
        msd_row, mu_row, lam_row, failed = rows[spec.name]
        assert diverged is None and failed == []
        assert_array_equal(msd_row, msd)
        if spec.variable:
            assert_array_equal(mu_row, mus)
            assert_array_equal(lam_row, _lambda(mus, rhos))
            # mu is exactly 0 at the first step (zero weights, small error),
            # and lambda there is +0.0, not rho / mu = 0 / 0
            assert mus[0] == 0.0 and lam_row[0] == 0.0 and not np.signbit(lam_row[0])


def _random_vp_step(rng, modes, runs, L=35):
    """Inputs for one ``_vp_rows_iteration`` step over ``len(modes) x runs``
    rows: ``(u, e, beta_s)``, with zero ``beta_s`` rows for plain LMS and an
    error scale that varies from step to step."""
    u = rng.normal(size=(runs, L))
    e = 10.0 ** rng.uniform(-3.0, 0.5) * rng.normal(size=(len(modes), runs))
    attracted = np.array([[mode is not None] for mode in modes], dtype=float)
    return u, e, 0.01 * rng.normal(size=(len(modes), runs, L)) * attracted[..., None]


@settings(deadline=None, max_examples=25)
@given(
    rows=st.lists(st.tuples(st.sampled_from([None, "gza", "grza"]),
                            st.sampled_from([0.0, 0.9, 0.95]),
                            st.sampled_from([0.0, 0.5, 0.95]),
                            st.sampled_from([None, 0.004, 0.05])),
                  min_size=1, max_size=4),
    runs=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_vp_rows_state_matches_scalar_fold(rows, runs, seed):
    """After every step of ``_vp_rows_iteration``, each row's whole
    ``VpState`` (``xi_model`` included) and its ``(mu, rho)`` equal what
    folding ``vp_iteration`` over that row alone leaves."""
    L, sigma_z2, sigma_u2 = 35, 0.01, 1.0
    partition = GroupPartition.contiguous(L, 5)
    fcfgs = [FilterConfig(L, partition, AttractorMode(mode, 0.1) if mode else None)
             for mode, *_ in rows]
    vps, refs = ([VpState.for_filter(L, sigma_z2, sigma_u2, *params)
                  for _, *params in rows for _ in range(runs)] for _ in range(2))
    state = initial_state(L)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        u, e, beta_s = _random_vp_step(rng, [mode for mode, *_ in rows], runs, L)
        mu, rho = gslms.varparam._vp_rows_iteration(vps, u, e, beta_s,
                                                    np.empty((2,) + e.shape))
        for k, (vp, ref) in enumerate(zip(vps, refs)):
            a, r = divmod(k, runs)
            scalar = vp_iteration(ref, state, fcfgs[a], u[r], float(e[a, r]), beta_s[a, r])
            assert (mu[a, r], rho[a, r]) == scalar
            assert asdict(vp) == asdict(ref)


@pytest.mark.parametrize("modes, runs", [(["gza"], 1), ([None, "grza"], 2), (["gza"] * 4, 20)])
def test_vp_rows_step_makes_three_dot_calls(modes, runs, monkeypatch):
    """One ``_vp_rows_iteration`` step batches its dot products into three
    calls of the row-dot kernel, whatever the number of rows."""
    L = 35
    vps = [VpState.for_filter(L, 0.01, 1.0) for _ in modes for _ in range(runs)]
    u, e, beta_s = _random_vp_step(np.random.default_rng(3), modes, runs, L)
    row_dot, calls = gslms.varparam.row_dot, []

    def counted(*args, **kwargs):
        calls.append(args)
        return row_dot(*args, **kwargs)

    monkeypatch.setattr(gslms.varparam, "row_dot", counted)
    gslms.varparam._vp_rows_iteration(vps, u, e, beta_s, np.empty((2,) + e.shape))
    assert len(calls) == 3


def test_block_leaves_a_diverged_vp_row_dead(monkeypatch):
    """When a VP row's squared deviation leaves the finite range, the block
    records it and steps it on as it is: its state and sums stay non-finite,
    its later steps raise and warn nothing, and every other row's state and
    sums keep the bits of the undisturbed block."""
    cfg = _small_cfg(runs=3, iterations=40, algorithms=(
        _ENGINE_ALGORITHMS["vp-gza"], _ENGINE_ALGORITHMS["vp-grza"]))
    rows_iteration = gslms.harness._vp_rows_iteration

    def block(spike):
        seen = []

        def traced(vps, u, e, beta_s, out):
            seen.append([asdict(vp) for vp in vps])
            mu_rho = rows_iteration(vps, u, e, beta_s, out)
            if spike and len(seen) == 20:
                mu_rho[0, 1, 1] = np.inf  # mu of (vp-grza, run 1): diverges at iteration 19
            return mu_rho

        monkeypatch.setattr(gslms.harness, "_vp_rows_iteration", traced)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _rows_by_name(cfg, 0, gslms.harness._advance_block(cfg, 0, 3))
        return seen, out

    seen, out = block(spike=True)
    clean_seen, clean = block(spike=False)
    assert out["vp-grza"][3] == [[1, 19]]
    # Row 4 is (vp-grza, run 1).  Its error turns NaN at the step after the
    # spike and so does its state, not reset to a fresh one; its MSD and mu
    # sums are non-finite from the spike on, its lambda sum from the next step.
    assert all(np.isfinite(list(step[4].values())).all() for step in seen[:21])
    assert all(np.isnan(step[4]["e_smooth"]) for step in seen[21:])
    msd, mu, lam, _ = out["vp-grza"]
    assert np.isfinite(np.concatenate((msd[:19], mu[:19], lam[:20]))).all()
    assert not np.isfinite(np.concatenate((msd[19:], mu[19:], lam[20:]))).any()
    assert len(seen) == len(clean_seen) == 40
    for step, clean_step in zip(seen, clean_seen):
        assert [s for k, s in enumerate(step) if k != 4] == \
            [s for k, s in enumerate(clean_step) if k != 4]
    assert out["vp-gza"][3] == []
    for i in range(3):
        assert_array_equal(out["vp-gza"][i], clean["vp-gza"][i])


def test_blocks_depend_on_run_count_only():
    assert list(gslms.harness._blocks(1)) == [(0, 1)]
    assert list(gslms.harness._blocks(20)) == [(0, 20)]
    assert list(gslms.harness._blocks(45)) == [(0, 15), (15, 15), (30, 15)]
    assert list(gslms.harness._blocks(101)) == [(0, 17), (17, 17), (34, 17), (51, 17),
                                                (68, 17), (85, 16)]
    for runs in range(1, 130):
        blocks = list(gslms.harness._blocks(runs))
        assert max(c for _, c in blocks) <= gslms.harness.BLOCK_RUNS
        assert max(c for _, c in blocks) - min(c for _, c in blocks) <= 1
        assert [f for f, _ in blocks] == [sum(c for _, c in blocks[:k]) for k in range(len(blocks))]
        assert sum(c for _, c in blocks) == runs


# ---------------------------------------------------------------------------
# schedule helpers


def test_experiment_schedule_trims_switches():
    assert [s for s, _ in experiment_schedule(_small_cfg(iterations=5000)).segments] == [1]
    assert [s for s, _ in experiment_schedule(_small_cfg(iterations=9000)).segments] == [1, 8000]
    assert [s for s, _ in experiment_schedule(_small_cfg(iterations=24000)).segments] == [1, 8000, 16000]


def test_stage_windows_cover_stage_tails():
    sched = benchmark_schedule()
    assert stage_windows(sched) == [(6999, 7999), (14999, 15999), (23000, 24000)]


def test_stage_windows_clip_to_short_stages():
    sched = benchmark_schedule(total_iterations=8300)  # switches at 1 and 8000
    assert stage_windows(sched) == [(6999, 7999), (7999, 8300)]


def test_steady_state_db_piecewise_levels():
    sched = benchmark_schedule()
    msd = np.empty(24000)
    for k, (lo, hi) in enumerate(sched.stage_bounds()):
        msd[lo:hi] = 10.0 ** (-(k + 1))
    assert steady_state_db(msd, sched) == pytest.approx([-10.0, -20.0, -30.0])


def test_steady_state_excludes_transition_sample():
    """The error spike on the switch sample must not leak into the window
    of the stage that just ended."""
    sched = benchmark_schedule()
    msd = np.full(24000, 1e-3)
    for lo, _ in sched.stage_bounds()[1:]:
        msd[lo] = 1e6  # plant jump: huge deviation on the first new sample
    values = steady_state_db(msd, sched)
    assert values[0] == pytest.approx(-30.0)
    # stages 2 and 3 contain their own opening spike only outside the tail
    assert values[1] == pytest.approx(-30.0)
    assert values[2] == pytest.approx(-30.0)


def test_parameter_traces_spike_at_plant_switch():
    """Both adapted-parameter traces jump when the plant changes."""
    cfg = _small_cfg(
        runs=2,
        iterations=9000,
        algorithms=(AlgorithmSpec(name="vp-grza", mode="grza", variable=True),),
    )
    (curve,) = run_experiment(cfg)
    for trace in (curve.mu_trace, curve.lambda_trace):
        before = trace[7000:7999].mean()
        spike = trace[7999:8999].max()
        assert spike > 3.0 * before


# ---------------------------------------------------------------------------
# emit_curves


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)


def test_emit_csv_round_trip(tmp_path):
    cfg = _small_cfg(
        algorithms=(
            AlgorithmSpec(name="lms", mu=0.02),
            AlgorithmSpec(name="vp-gza", mode="gza", variable=True),
        )
    )
    curves = run_experiment(cfg)
    paths = emit_curves(curves, cfg, tmp_path)
    assert sorted(p.split("/")[-1] for p in paths) == [
        "config.ini", "lms.csv", "manifest.json", "vp-gza.csv",
    ]

    header, data = _read_csv(tmp_path / "lms.csv")
    assert header == ["iter", "msd_linear", "msd_db"]
    assert_array_equal(data[:, 0], np.arange(1, 301))  # 1-based iterations
    assert_array_equal(data[:, 1], curves[0].msd)  # repr round trip is exact

    header, data = _read_csv(tmp_path / "vp-gza.csv")
    assert header == ["iter", "msd_linear", "msd_db", "mu", "lambda"]
    assert_array_equal(data[:, 3], curves[1].mu_trace)
    assert_array_equal(data[:, 4], curves[1].lambda_trace)


def test_emitted_db_column_is_definitional(tmp_path):
    cfg = _small_cfg()
    curves = run_experiment(cfg)
    emit_curves(curves, cfg, tmp_path)
    _, data = _read_csv(tmp_path / "lms.csv")
    assert_array_equal(data[:, 2], 10.0 * np.log10(data[:, 1]))


def test_emit_json_mirror(tmp_path):
    cfg = _small_cfg(format="json")
    curves = run_experiment(cfg)
    emit_curves(curves, cfg, tmp_path)
    payload = json.loads((tmp_path / "grza.json").read_text())
    assert payload["iter"] == list(range(1, 301))
    assert_array_equal(np.array(payload["msd_linear"]), curves[1].msd)
    assert payload["metadata"]["algorithm"] == "grza"
    assert payload["metadata"]["master_seed"] == 4242


def test_manifest_records_reproduction_inputs(tmp_path):
    cfg = _small_cfg()
    curves = run_experiment(cfg)
    emit_curves(curves, cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["master_seed"] == cfg.master_seed
    assert manifest["runs"] == cfg.runs
    assert manifest["config_hash"] == config_hash(cfg)
    assert {c["algorithm"] for c in manifest["curves"]} == {"lms", "grza"}
    # the emitted config parses back to the exact experiment that ran
    assert parse_config((tmp_path / "config.ini").read_text()) == cfg


def test_emit_rejects_empty_curves(tmp_path):
    cfg = _small_cfg()
    with pytest.raises(ValueError):
        emit_curves([], cfg, tmp_path)


def test_emit_surfaces_io_errors(tmp_path):
    cfg = _small_cfg()
    curves = run_experiment(cfg)
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    with pytest.raises(OSError):
        emit_curves(curves, cfg, target)


def _special_curve(rows, variable):
    """A ``rows``-row curve whose columns hold 0.0 (so ``-inf`` dB), nan and
    inf among random values."""
    cols = np.random.default_rng(rows).random((3, rows))
    cols[:, ::7], cols[:, 3::7], cols[:, 5::7] = 0.0, np.nan, np.inf
    return LearningCurve(name="c", msd=cols[0], mu_trace=cols[1] if variable else None,
                         lambda_trace=cols[2] if variable else None, metadata={})


def _one_shot_csv(curve):
    """``curve``'s CSV text written whole: ``repr`` of every value, joined by
    "," and "\n"."""
    names = ["iter", "msd_linear", "msd_db"]
    cols = [range(1, curve.msd.size + 1), curve.msd.tolist(), gslms.harness._db(curve.msd).tolist()]
    if curve.mu_trace is not None:
        names += ["mu", "lambda"]
        cols += [curve.mu_trace.tolist(), curve.lambda_trace.tolist()]
    return "".join(",".join(row) + "\n" for row in [names, *zip(*(map(repr, c) for c in cols))])


_C = gslms.harness.CHUNK_STEPS


@pytest.mark.parametrize("variable", [False, True], ids=["fixed", "vp"])
@pytest.mark.parametrize("rows", [0, 1, _C - 1, _C, _C + 1, 2 * _C + 1, 40 * _C + 77])
def test_csv_slices_write_the_one_shot_bytes(tmp_path, rows, variable):
    """The CSV writer's ``CHUNK_STEPS``-row slices, each with its own
    iteration and dB values, join into the bytes of one whole-curve write,
    whole-column ``msd_db`` included, on both sides of every slice
    boundary."""
    curve = _special_curve(rows, variable)
    path = tmp_path / "c.csv"
    gslms.harness._write_csv(str(path), curve)
    text = _one_shot_csv(curve)
    assert path.read_bytes() == text.encode()
    if rows > 5:
        assert {"nan", "inf", "-inf"} <= set(text.replace("\n", ",").split(","))


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes ``tracemalloc`` saw during it
    (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_csv_writer_holds_one_slice_of_rows(tmp_path):
    """A 200,000-row VP curve is written under a 1 MB traced peak: one
    slice's iteration and dB values and Python objects, not full-length
    iteration and dB columns (3.2 MB) or a list of every value of a column
    at once (37 MB)."""
    rng = np.random.default_rng(1)
    curve = LearningCurve(name="vp", msd=rng.random(200_000), mu_trace=rng.random(200_000),
                          lambda_trace=rng.random(200_000), metadata={})
    _, peak = _traced_peak(gslms.harness._write_csv, str(tmp_path / "vp.csv"), curve)
    assert peak < 1e6


def test_run_experiment_holds_one_results_array():
    """exp1 at 1 run x 24,000 iterations peaks under 2.5x the bytes of the
    curves it returns: they are views of the first block's sums, scaled in
    place (a zeroed accumulator beside them and a copy per curve read
    3.0x).  A short run first keeps one-time allocations out of the peak."""
    cfg = replace(builtin_config("exp1"), runs=1)
    run_experiment(replace(cfg, iterations=10))
    curves, peak = _traced_peak(run_experiment, cfg)
    held = sum(col.nbytes for c in curves for col in (c.msd, c.mu_trace, c.lambda_trace)
               if col is not None)
    assert held == 9 * 24_000 * 8
    assert peak < 2.5 * held


def test_steady_state_window_constant():
    # the analysis window is the documented final-1000-sample stretch
    assert STEADY_STATE_WINDOW == 1000
