"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical gates run at fixed seeds with bias budgets measured by step
refinement on the spot; deterministic gates carry their stated tolerances.
Run with `pytest tests/test_acceptance.py -v` (add -s to stream the lines).
"""

import time

import numpy as np
import pytest

from stablebranch.analysis import (
    kolmogorov_table,
    rv_index_fit,
    yaglom_table,
)
from stablebranch.cumulant import (
    SolverOptions,
    solve_cumulant,
    solve_extinction,
    weighted_extinction_norm,
)
from stablebranch.limitlaw import (
    DelayEquationProblem,
    ZolotarevLaw,
    g_closed,
    laplace,
    mean_diagnostic,
    solve_delay_equation,
)
from stablebranch.model import BranchingMechanism, calibrate_critical, eta, semigroup_apply
from stablebranch.simulate import SimConfig, simulate_paths
from stablebranch.spine import (
    ergodic_average_check,
    feynman_kac_estimate,
    simulate_spine,
    spine_generator,
)

from conftest import normalized_ones

LOOSE = SolverOptions(rel_tol=1e-7)


def report(name, passed, detail):
    line = f"{name} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def richardson_budget(values, ses):
    """Remaining-bias estimate from three refinement levels (coarse to fine).

    bias(h) ~ |E(h) - E(2h)| * rho/(rho-1) with the measured convergence ratio
    rho, clipped to a conservative band, plus the noise of the difference.
    """
    d_coarse = values[1] - values[0]
    d_fine = values[2] - values[1]
    if abs(d_fine) > 1e-300:
        rho = np.clip(abs(d_coarse) / abs(d_fine), 1.3, 4.0)
    else:
        rho = 4.0
    noise = 3.0 * float(np.sqrt(ses[1] ** 2 + ses[2] ** 2))
    return abs(d_fine) * rho / (rho - 1.0) + noise


def test_ac1_scalar_extinction_oracle(scalar_model):
    start = time.monotonic()
    times = np.logspace(-2, 3, 61)
    curve = solve_extinction(scalar_model, times)
    exact = (0.5 * times) ** -2.0
    rel = float(np.abs(curve.values[:, 0] / exact - 1.0).max())
    elapsed = time.monotonic() - start
    report(
        "AC1",
        rel <= 1e-6 and elapsed < 1.0,
        f"scalar extinction max rel err {rel:.2e} (tol 1e-6), {elapsed:.2f}s < 1s",
    )


def test_ac2_delay_equation_vs_closed_form():
    start = time.monotonic()
    results = []
    for a, tol in ((1.5, 1e-8), (1.2, 1e-7), (1.8, 1e-7)):
        grid = np.round(np.arange(0.0, 10.0001, 0.01), 10)
        sol = solve_delay_equation(DelayEquationProblem(a=a, theta_grid=grid, tol=1e-10))
        sup = float(np.abs(sol.values - g_closed(a, grid)).max())
        results.append((a, sup, tol, sup <= tol))
    elapsed = time.monotonic() - start
    detail = "; ".join(f"a={a}: sup {s:.2e} <= {tol:.0e}" for a, s, tol, _ in results)
    report(
        "AC2",
        all(ok for *_, ok in results) and elapsed < 30.0,
        f"{detail}; {elapsed:.1f}s < 30s",
    )


def test_ac3_normalized_survival_limit(three_site_model):
    start = time.monotonic()
    mu = np.array([0.4, 0.3, 0.3])
    table = kolmogorov_table(three_site_model, mu, np.array([1e3, 1e4, 1e5]), LOOSE)
    devs = np.abs(table.ratio - 1.0)
    elapsed = time.monotonic() - start
    report(
        "AC3",
        bool(np.all(np.diff(devs) < 0) and devs[-1] <= 0.05 and elapsed < 60.0),
        f"|ratio-1| at 1e3/1e4/1e5 = {devs[0]:.2e}/{devs[1]:.2e}/{devs[2]:.2e} "
        f"(decreasing, final <= 0.05); {elapsed:.1f}s < 60s",
    )


def test_ac4_decay_index_fits(two_site_model, three_site_model):
    start = time.monotonic()
    results = []
    for model, label in ((two_site_model, "two-site"), (three_site_model, "three-site")):
        times = np.geomspace(1e3, 1e6, 25)
        values = weighted_extinction_norm(model, times, LOOSE)
        est = rv_index_fit(times, values)
        target = -1.0 / (model.gamma0 - 1.0)
        rel = abs(est.slope / target - 1.0)
        results.append((label, est.slope, target, rel, rel <= 0.02))
    elapsed = time.monotonic() - start
    detail = "; ".join(
        f"{lbl}: slope {s:.4f} vs {t:.4f} ({r:.2%})" for lbl, s, t, r, _ in results
    )
    report(
        "AC4",
        all(ok for *_, ok in results) and elapsed < 60.0,
        f"{detail}; {elapsed:.1f}s < 60s",
    )


def test_ac5_simulator_vs_ode_gates(two_site_model):
    start = time.monotonic()
    f = np.ones(2)
    T = 1.0
    hs = (4e-3, 2e-3, 1e-3)

    # Laplace-functional gate from an order-one start
    mu = np.array([0.5, 0.5])
    V = solve_cumulant(two_site_model, f, [T]).values[0]
    lap_oracle = float(np.exp(-two_site_model.inner_m(mu, V)))
    lap_vals, lap_ses = [], []
    for h in hs:
        stats = simulate_paths(two_site_model, mu, SimConfig(h, T, 100_000, seed=1234), f=f)
        mean, se = stats.laplace_functional()
        lap_vals.append(mean)
        lap_ses.append(se)
    lap_budget = richardson_budget(lap_vals, lap_ses)
    lap_dev = abs(lap_vals[-1] - lap_oracle)
    lap_devs = [abs(v - lap_oracle) for v in lap_vals]
    lap_trend = all(
        lap_devs[i + 1] <= lap_devs[i] + 3.0 * (lap_ses[i] + lap_ses[i + 1])
        for i in range(2)
    )
    lap_ok = lap_dev <= 3.0 * lap_ses[-1] + lap_budget and lap_trend

    # Survival gate from a small start (order-one extinction by T)
    mu_s = np.array([4e-4, 4e-4])
    v_T = solve_extinction(two_site_model, [T], LOOSE).values[0]
    surv_oracle = float(-np.expm1(-two_site_model.inner_m(mu_s, v_T)))
    surv_vals, surv_ses = [], []
    for h in hs:
        stats = simulate_paths(two_site_model, mu_s, SimConfig(h, T, 100_000, seed=4321))
        surv_vals.append(stats.survival_rate)
        surv_ses.append(stats.survival_se)
    surv_budget = richardson_budget(surv_vals, surv_ses)
    surv_devs = [abs(v - surv_oracle) for v in surv_vals]
    surv_shrinks = surv_devs[0] > surv_devs[1] > surv_devs[2]
    surv_ok = surv_devs[-1] <= 3.0 * surv_ses[-1] + surv_budget and surv_shrinks

    elapsed = time.monotonic() - start
    report(
        "AC5",
        lap_ok and surv_ok and elapsed < 300.0,
        f"laplace dev {lap_dev:.2e} <= 3se+{lap_budget:.2e}; survival devs "
        f"{surv_devs[0]:.3f}>{surv_devs[1]:.3f}>{surv_devs[2]:.3f} (shrinking), "
        f"final <= 3se+{surv_budget:.3f}; {elapsed:.0f}s < 300s",
    )


def test_ac6_scalar_limit_surface_anchor(scalar_model):
    start = time.monotonic()
    f = normalized_ones(scalar_model)
    thetas = np.concatenate([[0.0], np.geomspace(0.1, 10.0, 25)])
    sups = []
    for T in (1.0, 10.0, 100.0):
        table = yaglom_table(scalar_model, f, thetas, T)
        sups.append(float(table.sup_error.max()))
    elapsed = time.monotonic() - start
    tol = 10.0 * SolverOptions().rel_tol
    report(
        "AC6",
        max(sups) <= tol and elapsed < 10.0,
        f"sup errors at T=1/10/100: {sups[0]:.1e}/{sups[1]:.1e}/{sups[2]:.1e} "
        f"<= {tol:.0e}; {elapsed:.1f}s < 10s",
    )


def test_ac7_surface_trend_two_site(two_site_model):
    start = time.monotonic()
    f = normalized_ones(two_site_model)
    thetas = np.geomspace(0.1, 10.0, 21)
    sups = [
        float(yaglom_table(two_site_model, f, thetas, T, LOOSE).sup_error.max())
        for T in (1e2, 1e3, 1e4)
    ]
    elapsed = time.monotonic() - start
    report(
        "AC7",
        sups[0] > sups[1] > sups[2] and sups[-1] <= 0.05 and elapsed < 120.0,
        f"sup|g-G| at T=1e2/1e3/1e4: {sups[0]:.4f}/{sups[1]:.4f}/{sups[2]:.5f} "
        f"(strictly decreasing, final <= 0.05); {elapsed:.1f}s < 120s",
    )


def test_ac8_spine_feynman_kac(two_site_model):
    start = time.monotonic()
    f = normalized_ones(two_site_model)
    theta, T = 1.0, 2.0
    est, se = feynman_kac_estimate(
        two_site_model, f, theta, T, 100_000, np.random.default_rng(42)
    )
    ode = solve_cumulant(two_site_model, theta * f, [T]).values[0]
    z = (est - ode) / se
    elapsed = time.monotonic() - start
    report(
        "AC8",
        bool(np.all(np.abs(est - ode) <= 3.0 * se)) and elapsed < 120.0,
        f"per-site |FK-ODE| z-scores {z[0]:+.2f}/{z[1]:+.2f} within 3; "
        f"{elapsed:.0f}s < 120s",
    )


def test_ac9_spine_ergodicity(three_site_model):
    start = time.monotonic()
    chain = spine_generator(three_site_model)
    target = chain.stationary * chain.m

    # occupation fractions of one long trajectory, block-means error bars
    T = 1e4
    path = simulate_spine(chain, 0, T, np.random.default_rng(314))
    n_blocks = 100
    edges = np.linspace(0.0, T, n_blocks + 1)
    block_occ = np.empty((n_blocks, 3))
    times = np.concatenate([[0.0], path.jump_times, [T]])
    sites = np.concatenate([[path.start], path.states]).astype(int)
    for b in range(n_blocks):
        lo, hi = edges[b], edges[b + 1]
        seg_lo = np.clip(times[:-1], lo, hi)
        seg_hi = np.clip(times[1:], lo, hi)
        occ = np.zeros(3)
        np.add.at(occ, sites, np.maximum(seg_hi - seg_lo, 0.0))
        block_occ[b] = occ / (hi - lo)
    occ_mean = block_occ.mean(axis=0)
    occ_se = block_occ.std(axis=0, ddof=1) / np.sqrt(n_blocks)
    occ_ok = bool(np.all(np.abs(occ_mean - target) <= 3.0 * occ_se))

    # L2 distance of the time-averaged functional decays with the horizon
    F = lambda y, u: (y == 0) * np.ones_like(u)
    l2 = []
    for i, horizon in enumerate((1e2, 1e3, 1e4)):
        est, tgt, se = ergodic_average_check(
            chain, F, horizon, 300, np.random.default_rng(100 + i)
        )
        sample_var = se**2 * 300
        l2.append(float(np.sqrt(sample_var + (est - tgt) ** 2)))
    l2_ok = l2[0] > l2[1] > l2[2]

    elapsed = time.monotonic() - start
    report(
        "AC9",
        occ_ok and l2_ok and elapsed < 60.0,
        f"occupation devs {np.abs(occ_mean - target).round(4).tolist()} within 3se "
        f"{(3 * occ_se).round(4).tolist()}; L2 {l2[0]:.4f}>{l2[1]:.4f}>{l2[2]:.4f}; "
        f"{elapsed:.0f}s < 60s",
    )


def test_ac10_limit_law_identities():
    start = time.monotonic()
    comp_ok = True
    for gamma0 in (1.2, 1.5, 1.8):
        th = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 999)])
        total = g_closed(gamma0, th) + laplace(ZolotarevLaw(gamma0 - 1.0), th)
        comp_ok &= bool(np.abs(total - 1.0).max() <= 1e-14)
    means = {a: mean_diagnostic(ZolotarevLaw(a)) for a in (0.2, 0.5, 1.0)}
    mean_ok = all(abs(m - 1.0) <= 1e-3 for m in means.values())
    elapsed = time.monotonic() - start
    report(
        "AC10",
        comp_ok and mean_ok and elapsed < 1.0,
        f"complementarity <= 1e-14 on 1e3 points; mean diagnostics "
        f"{ {a: round(m, 6) for a, m in means.items()} }; {elapsed:.2f}s < 1s",
    )


def test_ac11_conditional_mean_trend(scalar_model):
    start = time.monotonic()
    f = np.ones(1)
    mu = np.array([1.0])
    results = []
    for T, h in ((5.0, 2e-3), (20.0, 5e-3)):
        eta_T = eta(scalar_model, T)
        v_T = (0.5 * T) ** -2.0
        p_surv = float(-np.expm1(-v_T))
        target = eta_T * float(semigroup_apply(scalar_model, T, f)[0]) / p_surv
        means, ses = [], []
        for step in (2 * h, h):
            stats = simulate_paths(
                scalar_model, mu, SimConfig(step, T, 100_000, seed=777), f=f
            )
            vals = eta_T * stats.functional_values
            means.append(float(vals.mean()))
            ses.append(float(vals.std(ddof=1) / np.sqrt(stats.survivors)))
        budget = 2.0 * abs(means[1] - means[0]) + 3.0 * float(np.hypot(*ses))
        dev = abs(means[1] - target)
        results.append((T, dev, ses[1], budget, target, dev <= 3.0 * ses[1] + budget))
    # the ODE-side conditional mean itself approaches <f, phi*>_m = 1
    t20_target = results[1][4]
    ode_ok = abs(t20_target - 1.0) <= 0.10
    elapsed = time.monotonic() - start
    detail = "; ".join(
        f"T={T:g}: dev {dev:.4f} <= 3*{se:.4f}+{b:.4f}" for T, dev, se, b, _, _ in results
    )
    report(
        "AC11",
        all(ok for *_, ok in results) and ode_ok and elapsed < 300.0,
        f"{detail}; ODE conditional mean at T=20 is {t20_target:.4f} (within 10% of 1); "
        f"{elapsed:.0f}s < 300s",
    )


def psi(model, lam):
    """The effective mechanism <kappa (lam phi)^gamma, phi*>_m, over every site."""
    mech = model.mechanism
    return float(mech.kappa * (lam * model.phi) ** mech.gamma @ (model.phi_star * model.m))


def test_ac12_front_constant(scalar_model, two_site_model, three_site_model):
    # eta is built from C_X alone: Psi(lam) / (C_X lam^gamma0) - 1 must vanish
    # as lam -> 0, like lam^(gamma1 - gamma0) with gamma1 the next index.  The
    # near tie puts a second site within GAMMA_TIE_TOL of gamma0.
    near_tie = calibrate_critical(three_site_model.motion, BranchingMechanism(
        beta=[0.1, -0.05, 0.2], kappa=[1.0, 0.8, 1.2], gamma=[1.3, 1.3 + 1e-13, 1.7]
    ))
    lams = np.array([1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    cases = [("scalar", scalar_model, None), ("two-site", two_site_model, 0.6),
             ("three-site", three_site_model, 0.4), ("near-tie", near_tie, 0.4)]
    passed, details = True, []
    for name, model, gap in cases:
        excess = np.array([psi(model, lam) for lam in lams])
        excess /= model.c_x * lams**model.gamma0
        excess -= 1.0
        if gap is None:
            ok = bool(np.all(excess == 0.0))
            details.append(f"{name}: excess {np.abs(excess).max():.1e} == 0")
        else:
            with np.errstate(invalid="ignore"):
                slopes = np.diff(np.log(excess)) / np.diff(np.log(lams))
            ok = bool(np.all(np.abs(slopes - gap) <= 1e-6) and excess[-1] < 2e-5)
            details.append(
                f"{name}: excess {excess[0]:.1e} -> {excess[-1]:.1e} (< 2e-5), "
                f"slopes {slopes.min():.7f}..{slopes.max():.7f} vs {gap}"
            )
        passed = passed and ok
    report("AC12", passed, "; ".join(details))
