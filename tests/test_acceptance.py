"""Acceptance gate for the packaged benchmark protocol.

One test per release criterion.  Every test prints a single
``[acceptance] criterion N: PASS/FAIL — <measurements>`` line through
``capsys.disabled()`` so the verdicts show up in the live pytest output
regardless of capture, and each collects its sub-checks before asserting so
the verdict line is emitted even on failure.

Criteria 5 and 6 run the two built-in benchmarks at full protocol scale
(100 Monte-Carlo runs x 24000 iterations) and take several minutes each;
everything else is fast.
"""

import filecmp
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gslms.config import builtin_config
from gslms.filters import FilterConfig, FilterState, initial_state, predict, step
from gslms.groups import (
    GRZA,
    GZA,
    ZERO_GROUP_TOL,
    AttractorMode,
    GroupPartition,
    attractor_direction,
    beta_weights,
    expand_group_vector,
    l12_norm,
    log_sum_penalty,
)
from gslms.harness import experiment_schedule, run_experiment, steady_state_db
from gslms.oracles import grid_minimize_quadratic, validate_model_recursion
from gslms.signals import WhiteGaussian, benchmark_plants
from gslms.varparam import (
    MomentEstimates,
    VpState,
    compute_g,
    compute_instantaneous_moments,
    compute_r1,
    estimate_emse,
    one_step_plant_estimate,
    propagate_model_msd,
    smooth_and_clamp,
    solve_optimal_params,
    vp_iteration,
)


def _verdict(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def _failures(checks: list[tuple[str, bool]]) -> list[str]:
    return [label for label, ok in checks if not ok]


# ---------------------------------------------------------------------------
# Criterion 1: every closed-form operation passes its worked examples
# (machine precision for algebraic identities), in under one second.


def test_criterion_1_closed_form_examples(capsys):
    t0 = time.perf_counter()
    checks: list[tuple[str, bool]] = []

    def ok(label, cond):
        checks.append((label, bool(cond)))

    # --- mixed-norm penalties -------------------------------------------
    p22 = GroupPartition(4, ((0, 2), (2, 4)))
    one2 = GroupPartition(2, ((0, 2),))
    s3 = GroupPartition.singletons(3)
    ok("l12 3-4-5", l12_norm(np.array([3.0, 4.0, 0.0, 0.0]), p22) == 5.0)
    ok("l12 zero", l12_norm(np.zeros(4), p22) == 0.0)
    ok("l12 singleton=l1", l12_norm(np.array([1.0, -2.0, 3.0]), s3) == 6.0)
    ok("logsum zero", log_sum_penalty(np.zeros(4), p22, epsilon=0.5) == 0.0)
    ok("logsum log6", math.isclose(
        log_sum_penalty(np.array([3.0, 4.0]), one2, epsilon=1.0), math.log(6.0), rel_tol=1e-12))
    ok("logsum log2", math.isclose(
        log_sum_penalty(np.array([0.1, 0.0, 0.0]), s3, epsilon=0.1), math.log(2.0), rel_tol=1e-12))

    # --- attractor direction and weights --------------------------------
    ok("direction 3-4", np.allclose(
        attractor_direction(np.array([3.0, 4.0]), one2), [0.6, 0.8], rtol=1e-12))
    ok("direction zero group", np.array_equal(
        attractor_direction(np.array([3.0, 4.0, 0.0, 0.0]), p22)[2:], [0.0, 0.0]))
    w_rand = np.array([0.3, -1.2, 0.7, 2.0])
    ok("direction scale-invariant", np.array_equal(
        attractor_direction(2.0 * w_rand, p22), attractor_direction(w_rand, p22)))
    ok("beta gza ones", np.array_equal(
        beta_weights(w_rand, p22, AttractorMode(GZA)), np.ones(2)))
    ok("beta grza 1/(0.4+0.1)", np.allclose(
        beta_weights(np.array([0.4]), GroupPartition.singletons(1), AttractorMode(GRZA, 0.1)),
        [2.0], rtol=1e-12))
    ok("beta grza zero group", np.allclose(
        beta_weights(np.zeros(2), GroupPartition(2, ((0, 2),)), AttractorMode(GRZA, 0.1)),
        [10.0], rtol=1e-12))
    p21 = GroupPartition(3, ((0, 2), (2, 3)))
    ok("expand replicate", np.array_equal(
        expand_group_vector(np.array([2.0, 3.0]), p21), [2.0, 2.0, 3.0]))
    ok("expand ones", np.array_equal(
        expand_group_vector(np.ones(2), p22), np.ones(4)))
    ok("expand singleton identity", np.array_equal(
        expand_group_vector(np.array([1.0, -2.0, 3.0]), s3), [1.0, -2.0, 3.0]))

    # --- filter prediction and the two hand-evaluated updates -----------
    ok("predict zero weights", predict(initial_state(3), np.array([7.0, -2.0, 0.5])) == 0.0)
    ok("predict dot", predict(FilterState(w=np.array([1.0, 2.0])), np.array([3.0, 4.0])) == 11.0)
    basis = np.zeros(4)
    basis[2] = 1.0
    ok("predict selector", predict(FilterState(w=basis), np.array([5.0, -3.0, 2.0, 9.0])) == 2.0)
    lms2 = FilterConfig(L=2, partition=GroupPartition.singletons(2))
    out = step(FilterState(w=np.array([1.0, 0.0])), lms2, np.array([1.0, 1.0]), 2.0, 0.1, 0.0)
    ok("step lms hand", out.last_error == 1.0 and np.allclose(out.w, [1.1, 0.1], rtol=1e-15))
    gza2 = FilterConfig(L=2, partition=one2, mode=AttractorMode(GZA))
    out = step(FilterState(w=np.array([3.0, 4.0])), gza2, np.zeros(2), 0.0, 0.3, 0.5)
    ok("step attractor hand", np.allclose(out.w, [2.7, 3.6], rtol=1e-15))

    # --- error-power estimate and its smoothing -------------------------
    vp = VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, gamma=0.0)
    ok("emse 0.24", estimate_emse(vp, 0.5) == 0.5 * 0.5 - 0.01)
    vp = VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, gamma=0.0, zeta_min=0.05)
    ok("emse clamp", estimate_emse(vp, 0.01) == 0.05)
    vp = VpState(L=4, sigma_z2=0.0, sigma_u2=1.0)
    ok("emse quiescent", all(estimate_emse(vp, 0.0) == 0.0 for _ in range(5)))
    vp = VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, gamma=0.9)
    estimate_emse(vp, 1.0)
    ok("emse smooth 0.1", np.isclose(vp.e_smooth, 0.1, rtol=1e-15))
    estimate_emse(vp, 1.0)
    ok("emse smooth 0.19", np.isclose(vp.e_smooth, 0.19, rtol=1e-15))

    # --- moment formulas -------------------------------------------------
    vp35 = VpState(L=35, sigma_z2=0.01, sigma_u2=1.0)
    ok("g at zeta=0", np.isclose(compute_g(vp35, 0.0), 0.35, rtol=1e-15))
    ok("g at zeta=0.1", np.isclose(compute_g(vp35, 0.1), 0.35 + 3.7, rtol=1e-15))
    ok("r1 identity", all(compute_r1(z) == z for z in (0.0, 0.24, 1e6)))
    w = np.array([1.0, -1.0])
    w_star, w_tilde = one_step_plant_estimate(w, 0.7, np.array([2.0, 1.0]), 0.0, 1.0)
    ok("one-step converged", np.array_equal(w_star, w) and np.array_equal(w_tilde, [0.0, 0.0]))
    _, w_tilde = one_step_plant_estimate(w, 0.0, np.array([2.0, 1.0]), 0.3, 1.0)
    ok("one-step zero error", np.array_equal(w_tilde, [0.0, 0.0]))
    w_star, w_tilde = one_step_plant_estimate(w, 2.0, np.array([1.0, -1.0]), 0.1, 1.0)
    ok("one-step hand", np.allclose(w_tilde, [-0.2, 0.2], rtol=1e-15)
       and np.allclose(w_star, w - w_tilde, rtol=1e-15))
    h, ell, r2 = compute_instantaneous_moments(np.zeros(2), np.zeros(2), np.zeros(2))
    ok("moments all-zero", (h, ell, r2) == (0.0, 0.0, 0.0))
    bs = np.array([0.6, 0.8])
    h, ell, r2 = compute_instantaneous_moments(bs.copy(), np.zeros(2), bs)
    ok("moments hand", np.isclose(h, 1.0, rtol=1e-15) and ell == 0.0
       and np.isclose(r2, 1.0, rtol=1e-15))

    # --- parameter solve, model propagation, smoothing -------------------
    ok("solve diagonal", solve_optimal_params(
        MomentEstimates(g=2.0, h=1.0, ell=0.0, r1=1.0, r2=1.0)) == (0.5, 1.0))
    ok("solve fallback", solve_optimal_params(
        MomentEstimates(g=2.0, h=0.0, ell=0.0, r1=1.0, r2=1.0)) == (0.5, 0.0))
    vp = VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, xi_model=0.7)
    propagate_model_msd(vp, MomentEstimates(g=1.0, h=1.0, ell=0.5, r1=1.0, r2=0.5), 0.0, 0.0)
    ok("propagate no-op", vp.xi_model == 0.7 and vp.zeta_min == 0.7)
    vp = VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, xi_model=2.0)
    propagate_model_msd(vp, MomentEstimates(g=1.0, h=1.0, ell=0.0, r1=1.0, r2=0.0), 1.0, 0.0)
    ok("propagate hand", vp.xi_model == 1.0)
    m = MomentEstimates(g=2.0, h=1.0, ell=0.0, r1=1.0, r2=1.0)
    vp = VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, xi_model=3.0)
    propagate_model_msd(vp, m, *solve_optimal_params(m))
    ok("propagate minimizer non-increasing", vp.xi_model <= 3.0)
    vp = VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, gamma_prime=0.9,
                 mu_max=0.15, mu_prev=0.1)
    mu_n, _ = smooth_and_clamp(vp, 0.2, 0.0)
    ok("smooth 0.11", np.isclose(mu_n, 0.11, rtol=1e-15))
    mu_n, _ = smooth_and_clamp(vp, 1e9, 0.0)
    ok("smooth cap", mu_n == 0.15)
    vp = VpState(L=4, sigma_z2=0.01, sigma_u2=1.0, gamma_prime=0.0, mu_max=0.5)
    ok("smooth passthrough", smooth_and_clamp(vp, 0.3, 0.2) == (0.3, 0.2))

    # --- full first iteration, scalar filter, traced by hand -------------
    vp = VpState(L=1, sigma_z2=0.01, sigma_u2=1.0, gamma=0.0, gamma_prime=0.0,
                 mu_max=2.0 / 3.0)
    cfg1 = FilterConfig(L=1, partition=GroupPartition.singletons(1),
                        mode=AttractorMode(GZA))
    mu_1, rho_1 = vp_iteration(vp, initial_state(1), cfg1, np.array([1.0]), 1.0)
    zeta, g = 0.99, 0.01 + 3.0 * 0.99
    ok("vp first iteration", np.isclose(mu_1, min(zeta / g, 2.0 / 3.0), rtol=1e-12)
       and rho_1 == 0.0)

    elapsed = time.perf_counter() - t0
    failed = _failures(checks)
    ok_all = not failed and elapsed < 1.0
    _verdict(capsys, 1, ok_all,
             f"{len(checks)} closed-form examples, {len(failed)} failed "
             f"({', '.join(failed) if failed else 'none'}), {elapsed:.3f}s (< 1 s)")
    assert ok_all


# ---------------------------------------------------------------------------
# Criterion 2: closed-form parameter solve vs exhaustive 401x401 grid search
# on 1000 random positive-definite moment tuples, plus the stationarity
# residual of the unclamped solution, all inside 30 seconds.


def test_criterion_2_closed_form_vs_grid(capsys):
    rng = np.random.default_rng(20240515)
    t0 = time.perf_counter()
    grid_misses = 0
    worst_resid = 0.0
    checked = 0
    while checked < 1000:
        g = rng.uniform(0.5, 5.0)
        h = rng.uniform(0.1, 5.0)
        ell = rng.uniform(-0.8, 0.8) * math.sqrt(g * h)
        m = MomentEstimates(g=g, h=h, ell=ell,
                            r1=rng.uniform(0.05, 2.0), r2=rng.uniform(0.05, 2.0))
        mu_c, rho_c = solve_optimal_params(m)
        if mu_c <= 1e-3 or rho_c <= 1e-3:
            continue  # keep interior optima so the box and residual are meaningful
        resid = math.hypot(g * mu_c + ell * rho_c - m.r1,
                           ell * mu_c + h * rho_c - m.r2) / math.hypot(m.r1, m.r2)
        worst_resid = max(worst_resid, resid)
        mu_g, rho_g, _ = grid_minimize_quadratic(
            m, ((0.0, 2.0 * mu_c), (0.0, 2.0 * rho_c)), 401)
        if abs(mu_g - mu_c) > 2.0 * mu_c / 400.0 or abs(rho_g - rho_c) > 2.0 * rho_c / 400.0:
            grid_misses += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = grid_misses == 0 and worst_resid <= 1e-10 and elapsed < 30.0
    _verdict(capsys, 2, ok,
             f"1000 tuples, {grid_misses} outside one grid cell, "
             f"worst stationarity residual {worst_resid:.2e} (<= 1e-10), "
             f"{elapsed:.1f}s (< 30 s)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: the one-step deviation model tracks a 5000-member Monte-Carlo
# ensemble within 5% over 50 iterations (white input, L=35, mu=0.005,
# shrinkage 0 and 1e-4).


def test_criterion_3_transient_model_fidelity(capsys):
    plant = benchmark_plants()[0]
    partition = GroupPartition.contiguous(35, 5)
    cases = [
        ("rho=0", FilterConfig(L=35, partition=partition, mu=0.005)),
        ("rho=1e-4", FilterConfig(L=35, partition=partition,
                                  mode=AttractorMode(GRZA, 0.1), mu=0.005, rho=1e-4)),
    ]
    t0 = time.perf_counter()
    deviations = {}
    for label, cfg in cases:
        report = validate_model_recursion(
            plant, WhiteGaussian(1.0), cfg, sigma_z2=0.01,
            horizon=50, ensemble=5000, seed=90210,
        )
        deviations[label] = report.max_rel_deviation
    elapsed = time.perf_counter() - t0
    ok = all(d <= 0.05 for d in deviations.values())
    detail = ", ".join(f"{k}: {v:.2%}" for k, v in deviations.items())
    _verdict(capsys, 3, ok, f"max relative deviation {detail} (<= 5%), {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: reduction identities hold bitwise — zero shrinkage reduces to
# plain LMS, unit group weights make the reweighted and unweighted attractors
# identical, and singleton groups reproduce an independent elementwise
# sign-attractor implementation.


def test_criterion_4_reduction_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4321)
    L, steps = 12, 400
    u_seq = rng.normal(size=(steps, L))
    d_seq = rng.normal(size=steps)
    grouped = GroupPartition.contiguous(L, 4)
    singles = GroupPartition.singletons(L)
    checks: list[tuple[str, bool]] = []

    # zero shrinkage: both attractor modes must retrace plain LMS exactly
    plain = FilterConfig(L=L, partition=grouped)
    ref = initial_state(L)
    for u, d in zip(u_seq, d_seq):
        ref = step(ref, plain, u, d, 0.01, 0.0)
    for tag in (GZA, GRZA):
        cfg = FilterConfig(L=L, partition=grouped, mode=AttractorMode(tag, 0.1))
        st = initial_state(L)
        for u, d in zip(u_seq, d_seq):
            st = step(st, cfg, u, d, 0.01, 0.0)
        checks.append((f"rho=0 {tag} == lms", np.array_equal(st.w, ref.w)))

    # unit group weights: a manual reweighted update with beta forced to one
    # must retrace the unweighted mode bit for bit
    gza_cfg = FilterConfig(L=L, partition=grouped, mode=AttractorMode(GZA))
    st = initial_state(L)
    w_manual = np.zeros(L)
    ones = np.ones(grouped.J)
    agree = True
    for u, d in zip(u_seq, d_seq):
        e = d - np.dot(w_manual, u)
        w_manual = (w_manual + (0.01 * e) * u
                    - 2e-4 * expand_group_vector(ones, grouped) * attractor_direction(w_manual, grouped))
        st = step(st, gza_cfg, u, d, 0.01, 2e-4)
        agree = agree and np.array_equal(st.w, w_manual)
    checks.append(("beta==1 reweighted == unweighted", agree))

    # singleton groups: independent elementwise sign-attractor recursion
    sg_cfg = FilterConfig(L=L, partition=singles, mode=AttractorMode(GZA))
    st = initial_state(L)
    w_sign = np.zeros(L)
    agree = True
    for u, d in zip(u_seq, d_seq):
        e = d - np.dot(w_sign, u)
        pull = np.where(np.abs(w_sign) > ZERO_GROUP_TOL, np.sign(w_sign), 0.0)
        w_sign = w_sign + (0.01 * e) * u - 2e-4 * pull
        st = step(st, sg_cfg, u, d, 0.01, 2e-4)
        agree = agree and np.array_equal(st.w, w_sign)
    checks.append(("singleton == sign attractor", agree))

    elapsed = time.perf_counter() - t0
    failed = _failures(checks)
    ok = not failed and elapsed < 5.0
    _verdict(capsys, 4, ok,
             f"{len(checks)} bitwise identities over {steps} steps, "
             f"{len(failed)} failed ({', '.join(failed) if failed else 'none'}), "
             f"{elapsed:.2f}s (< 5 s)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: white-input benchmark at protocol scale.  In the two
# group-sparse stages the variable-parameter algorithms must order
# vp-grza < vp-gza < lms and beat their slope-matched fixed versions, every
# gap at least 2 dB; in the dense middle stage they must not lose to LMS.


def test_criterion_5_white_input_benchmark(capsys):
    cfg = builtin_config("exp1")
    t0 = time.perf_counter()
    curves = run_experiment(cfg, workers=1)
    elapsed = time.perf_counter() - t0
    sched = experiment_schedule(cfg)
    ss = {c.name: steady_state_db(c.msd, sched) for c in curves}
    checks: list[tuple[str, bool]] = []
    gaps = []
    for stage in (0, 2):
        for label, wide, tight in (
            ("vp-gza over vp-grza", "vp-gza", "vp-grza"),
            ("lms over vp-gza", "lms", "vp-gza"),
            ("gza over vp-gza", "gza", "vp-gza"),
            ("grza over vp-grza", "grza", "vp-grza"),
        ):
            gap = ss[wide][stage] - ss[tight][stage]
            gaps.append(f"s{stage + 1} {label} {gap:+.1f}")
            checks.append((f"stage {stage + 1}: {label} >= 2 dB", gap >= 2.0))
    for name in ("vp-gza", "vp-grza"):
        checks.append((f"stage 2: {name} <= lms", ss[name][1] <= ss["lms"][1]))
    failed = _failures(checks)
    ok = not failed
    levels = "; ".join(
        f"{n} [{', '.join(f'{v:.1f}' for v in ss[n])}]" for n in ss)
    _verdict(capsys, 5, ok,
             f"steady-state dB {levels}; gaps dB {', '.join(gaps)}; "
             f"failed: {', '.join(failed) if failed else 'none'}; {elapsed / 60:.1f} min")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: correlated-input benchmark at protocol scale.  vp-grza must
# reach the lowest steady state of all five algorithms in the group-sparse
# stages, and both adapted parameter traces must spike at every plant switch
# and decay at least 3x by the end of the stage.


def test_criterion_6_correlated_input_benchmark(capsys):
    cfg = builtin_config("exp2")
    t0 = time.perf_counter()
    curves = run_experiment(cfg, workers=1)
    elapsed = time.perf_counter() - t0
    sched = experiment_schedule(cfg)
    ss = {c.name: steady_state_db(c.msd, sched) for c in curves}
    checks: list[tuple[str, bool]] = []
    for stage in (0, 2):
        others = [n for n in ss if n != "vp-grza"]
        lowest = all(ss["vp-grza"][stage] < ss[n][stage] for n in others)
        checks.append((f"stage {stage + 1}: vp-grza lowest", lowest))
    ratios = []
    for c in curves:
        if c.mu_trace is None:
            continue
        for trace, kind in ((c.mu_trace, "mu"), (c.lambda_trace, "lambda")):
            for idx, (lo, hi) in enumerate(sched.stage_bounds()):
                spike = float(trace[lo:lo + 500].max())
                settled = float(trace[hi - 1000:hi].mean())
                ratio = spike / settled if settled > 0 else math.inf
                ratios.append(ratio)
                checks.append(
                    (f"{c.name} {kind} stage {idx + 1} spike ratio >= 3", ratio >= 3.0))
    failed = _failures(checks)
    ok = not failed
    levels = "; ".join(
        f"{n} [{', '.join(f'{v:.1f}' for v in ss[n])}]" for n in ss)
    _verdict(capsys, 6, ok,
             f"steady-state dB {levels}; min spike ratio {min(ratios):.1f} (>= 3); "
             f"failed: {', '.join(failed) if failed else 'none'}; {elapsed / 60:.1f} min")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: the first built-in benchmark emits bit-identical files no
# matter how many worker processes split the Monte-Carlo runs.  Exercised at
# a reduced scale (45 runs x 1000 iterations) that still covers the
# worker-count sweep 1..8 and every output file: 45 runs are three blocks of
# 15, so every worker count above 1 hands them to a process pool.


def test_criterion_7_worker_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    out_dirs = {}
    for workers in (1, 2, 4, 8):
        out = tmp_path / f"workers{workers}"
        env = {k: v for k, v in os.environ.items() if k != "GSLMS_OUTPUT_DIR"}
        subprocess.run(
            [sys.executable, "-m", "gslms.cli", "paper-exp1",
             "--runs", "45", "--iterations", "1000",
             "--workers", str(workers), "--output-dir", str(out)],
            check=True, capture_output=True, env=env,
        )
        out_dirs[workers] = out
    reference = out_dirs[1]
    ref_files = sorted(p.name for p in reference.iterdir())
    checks: list[tuple[str, bool]] = [("reference emits files", len(ref_files) > 0)]
    for workers, out in out_dirs.items():
        if workers == 1:
            continue
        same_names = sorted(p.name for p in out.iterdir()) == ref_files
        checks.append((f"workers={workers} same file set", same_names))
        if same_names:
            for name in ref_files:
                identical = filecmp.cmp(reference / name, out / name, shallow=False)
                checks.append((f"workers={workers} {name} identical", identical))
    elapsed = time.perf_counter() - t0
    failed = _failures(checks)
    ok = not failed
    _verdict(capsys, 7, ok,
             f"{len(ref_files)} files x workers 1/2/4/8, "
             f"failed: {', '.join(failed) if failed else 'none'}; {elapsed:.1f}s")
    assert ok
