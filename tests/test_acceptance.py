"""Acceptance gate: full-size end-to-end reproductions of the headline results.

Each test runs one complete workflow at production sample sizes and pins the
agreed tolerance; the last section checks qualitative curve shapes on solved
and simulated output. Heavier than the unit suites, but the whole file stays
well under the one-minute budget asserted inside the distribution test.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from robo_mv.cycle_analytics import (
    CycleStrategy,
    SharpeInputs,
    concavity_at_zero,
    implied_gamma,
    inputs_from_market,
    sensitivity_predicates,
    sharpe_delta,
)
from robo_mv.market import stationary_distribution
from robo_mv.montecarlo import SimConfig, annualized, long_run_sharpe, simulate, stats
from robo_mv.personalization import (
    phi_star,
    r_measure,
    r_tilde,
    r_tilde_dphi,
    r_tilde_sandwich,
    s_measure,
)
from robo_mv.risk_profile import RiskProfileParams
from robo_mv.solver import (
    GridSpec,
    ReducedState,
    allocation,
    allocation_independent,
    brute_force_equilibrium,
    solve,
    step_moments,
)

ROOT_2_PI = math.sqrt(2.0 / math.pi)
SIGMA0 = 0.20 / math.sqrt(12.0)   # per-step vol of the single-state benchmark

# Two-regime calibration: published distribution table, one row per tilt.
# Columns: mean, sd, skewness, kurtosis, var90, var95, var99.
TABLE_TOTAL = {
    -0.3: (0.740, 0.485, 0.838, 4.257, -0.179, -0.067, 0.117),
    0.0: (0.881, 0.589, 0.970, 4.712, -0.213, -0.085, 0.118),
    0.3: (1.036, 0.735, 1.231, 5.934, -0.233, -0.091, 0.134),
}
TABLE_ANNUAL = {
    -0.3: (0.053, 0.029, 0.066, 3.011, -0.017, -0.006, 0.012),
    0.0: (0.061, 0.032, 0.092, 3.016, -0.019, -0.008, 0.012),
    0.3: (0.068, 0.037, 0.162, 3.089, -0.021, -0.009, 0.014),
}
TOL_TOTAL = (0.02, 0.02, 0.1, 0.4, 0.02, 0.02, 0.02)
TOL_ANNUAL = (0.003, 0.02, 0.1, 0.4, 0.02, 0.02, 0.02)


def center_slice(tables, n):
    """Policy values at the window-grid centers for every xi at time n."""
    _, _, np_, nc, _ = tables.pi.shape
    return tables.pi[n, :, np_ // 2, nc // 2, :]


def table_values(s):
    return (s.mean, s.sd, s.skewness, s.kurtosis, s.var90, s.var95, s.var99)


# 1. long-run regime weights -----------------------------------------------------


def test_stationary_distribution_is_two_thirds_one_third(two_state_market):
    dist = stationary_distribution(two_state_market)
    assert np.max(np.abs(dist - np.array([2.0 / 3.0, 1.0 / 3.0]))) < 1e-12
    residual = dist @ two_state_market.transition - dist
    assert np.max(np.abs(residual)) < 1e-12
    assert dist.sum() == pytest.approx(1.0, abs=1e-14)


# 2. return-distribution table ----------------------------------------------------


def test_fixed_mix_return_distribution_table(two_state_market):
    start = time.monotonic()
    for delta in (-0.3, 0.0, 0.3):
        cfg = SimConfig(market=two_state_market,
                        strategy=CycleStrategy(0.6, delta),
                        T=120, n_paths=200_000, seed=4)
        returns = simulate(cfg, threads=4)
        rates, excluded = annualized(returns, 120, 12)
        assert excluded == 0
        for summary, expected, tol in (
            (stats(returns), TABLE_TOTAL[delta], TOL_TOTAL),
            (stats(rates), TABLE_ANNUAL[delta], TOL_ANNUAL),
        ):
            got = table_values(summary)
            for g, want, t in zip(got, expected, tol):
                assert abs(g - want) < t, (delta, got, expected)
    assert time.monotonic() - start < 60.0


# 3. closed-form Sharpe ratio vs long-path simulation -------------------------------


def test_sharpe_closed_form_matches_long_run_simulation(two_state_market):
    inputs = inputs_from_market(two_state_market)
    for delta in (-0.3, 0.0, 0.3):
        closed = sharpe_delta(delta, inputs)
        estimates = [
            long_run_sharpe(CycleStrategy(0.6, delta), two_state_market,
                            10**6, seed=9000 + 7 * k + int(delta * 10))
            for k in range(6)
        ]
        se = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
        assert abs(np.mean(estimates) - closed) < 3.0 * se, (delta, closed, estimates)

    # occupation boundaries: the ratio degenerates to a single regime's ratio
    m = two_state_market
    lo = sharpe_delta(0.3, SharpeInputs(lam=0.0, a=inputs.a, b=inputs.b, u=inputs.u))
    hi = sharpe_delta(0.3, SharpeInputs(lam=1.0, a=inputs.a, b=inputs.b, u=inputs.u))
    assert abs(lo - m.mu_tilde_step[0] / m.sigma_step[0]) < 1e-12
    assert abs(hi - m.mu_tilde_step[1] / m.sigma_step[1]) < 1e-12


# 4. backward induction vs brute-force grid search ----------------------------------


def test_solver_matches_brute_force_oracle(single_state_market):
    m = single_state_market
    for gamma in (2.5, 3.5, 4.5):
        for T in (1, 2, 3):
            oracle = brute_force_equilibrium(m, gamma, T)
            tables = solve(m, RiskProfileParams(gamma0=gamma), T=T)
            ix = int(np.argmin(np.abs(tables.grid.xi - gamma)))
            assert tables.grid.xi[ix] == pytest.approx(gamma, rel=1e-12)
            got = center_slice(tables, slice(None))[:, ix, 0]
            assert np.max(np.abs(got - oracle)) < 1e-4, (gamma, T)
            if T == 1:
                gam = tables.gamma_table(0)[:, 0]
                markowitz = m.mu_tilde_step[0] / (gam * m.sigma_step[0] ** 2)
                assert np.allclose(center_slice(tables, 0)[:, 0], markowitz,
                                   atol=1e-12)


# 5. value tables: terminal identity, Jensen gap, re-simulation ----------------------


def test_value_tables_and_policy_resimulation(single_state_market):
    m = single_state_market
    profile = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64,
                                beta=2.0, phi=3)
    tables = solve(m, profile, T=24)

    # final-period slice is the one-shot mean-variance weight at every point
    gam = tables.gamma_table(23)[:, 0]
    closed = m.mu_tilde_step[0] / (gam * m.sigma_step[0] ** 2)
    assert np.allclose(tables.pi[23, ..., 0], closed[:, None, None], atol=1e-12)

    # second moments dominate squared first moments everywhere
    assert np.min(tables.b - tables.a**2) >= -1e-12

    # simulating the solved policy reproduces the tabulated start-point moments
    ix = int(np.argmin(np.abs(tables.grid.xi - 3.0)))
    assert tables.grid.xi[ix] == pytest.approx(3.0, rel=1e-12)
    ip = len(tables.grid.prev) // 2
    ic = len(tables.grid.cur) // 2
    a0 = float(tables.a[0, ix, ip, ic, 0])
    b0 = float(tables.b[0, ix, ip, ic, 0])

    cfg = SimConfig(market=m, strategy=tables, T=24, n_paths=200_000,
                    seed=4242)
    gross = 1.0 + simulate(cfg, threads=4)
    for sample, want in ((gross, a0), (gross**2, b0)):
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - want) < 4.0 * se, (want, sample.mean(), se)


# 6. general and independence-factorized pipelines coincide --------------------------


def test_general_and_independent_pipelines_collapse(single_state_market,
                                                    two_state_market):
    flat = RiskProfileParams(gamma0=2.0, beta=0.0, phi=1)
    for market in (single_state_market, two_state_market):
        tables = solve(market, flat, T=12)
        worst = 0.0
        for n in range(12):
            gam_n = tables.gamma_table(n)
            for i, xv in enumerate(tables.grid.xi):
                for y in range(market.num_states):
                    st = ReducedState(xi=float(xv), regime=y)
                    mom = step_moments(n, st, tables)
                    general = allocation(n, st, mom, float(gam_n[i, y]), market)
                    indep = allocation_independent(n, st, mom[0], mom[2],
                                                   float(gam_n[i, y]), market)
                    worst = max(worst, abs(general - indep),
                                abs(tables.pi[n, i, 0, 0, y] - general))
        assert worst < 1e-8, market.num_states


# 7. interaction-frequency tradeoff suite -------------------------------------------


def sandwich_allowance(phi, beta, p_eps, sigma_eps, T):
    """Finite-horizon slack for the flanking-multiple envelope.

    Covers the two deliberate gaps between the estimator and its closed-form
    envelope: the anchored start of the first window (a bias share that scales
    like phi/T), and the linearized shock-arrival count (a share of the
    idiosyncratic term that scales like (phi-1)*p_eps/2). The 1.25 headroom
    was sized against a 24-cell measurement grid; see the band test in the
    module suite for the same form at smaller sample sizes.
    """
    c = beta * SIGMA0
    half_tail = 0.5 * (phi - 1.0) * p_eps
    bias = ROOT_2_PI * c / math.sqrt(phi) * (1.0 - half_tail)
    idio = ROOT_2_PI * math.sqrt(c * c / phi + sigma_eps**2) * half_tail
    return 1.25 * (phi / T * bias + half_tail * idio)


def test_interaction_tradeoff_closed_forms_and_monte_carlo(single_state_market):
    # every-step interaction: only the bias term remains, in closed form
    for beta in (0.0, 2.0, 4.0):
        assert r_tilde(1, beta, SIGMA0, 0.05, 0.64) == ROOT_2_PI * beta * SIGMA0

    # degenerate-parameter cases of the optimal spacing
    assert phi_star(0.0, SIGMA0, 0.05, 0.64).phi == 1.0
    assert phi_star(0.0, SIGMA0, 0.05, 0.64).phi_int == 1
    assert phi_star(2.0, SIGMA0, 0.0, 0.64).unbounded
    assert phi_star(2.0, SIGMA0, 0.05, 0.0).unbounded

    # the continuous minimizer moves the right way in every parameter; points
    # clamped at the every-step boundary have no interior derivative to sign
    lattice = [
        (b, s, p, e)
        for b in np.linspace(1.0, 4.0, 5)
        for s in np.linspace(0.03, 0.10, 5)
        for p in np.linspace(0.02, 0.15, 5)
        for e in np.linspace(0.20, 0.80, 5)
    ]
    interior = 0
    for b, s, p, e in lattice:
        base = phi_star(b, s, p, e).phi
        if base <= 1.0 + 1e-9:
            continue
        interior += 1
        assert phi_star(b * 1.001, s, p, e).phi > base
        assert phi_star(b, s * 1.001, p, e).phi > base
        assert phi_star(b, s, p * 1.001, e).phi < base
        assert phi_star(b, s, p, e * 1.001).phi < base
    assert interior > 500

    # the sampled measure sits inside the envelope at full sample size
    profile = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64)
    T = 36
    for beta in (0.0, 2.0, 4.0):
        for phi in (1, 2, 3, 4, 6, 9, 12):
            lo, hi = r_tilde_sandwich(phi, beta, SIGMA0, 0.05, 0.64, T)
            rt = r_tilde(phi, beta, SIGMA0, 0.05, 0.64)
            advisor = replace(profile, phi=phi, beta=beta)
            est, se = r_measure(single_state_market, advisor, T, 50_000,
                                seed=4242 + phi)
            slack = sandwich_allowance(phi, beta, 0.05, 0.64, T)
            lower = lo - slack - 4.0 * se
            upper = hi + 0.02 * rt + 4.0 * se
            assert lower <= est <= upper, (beta, phi, est, lower, upper)


# 8. boundary of the every-step-interaction condition --------------------------------


def test_interaction_condition_boundary_is_exact():
    for beta, sigma0, p_eps in ((2.0, SIGMA0, 0.05), (3.0, 0.04, 0.10),
                                (1.5, 0.08, 0.02)):
        boundary = beta * sigma0 * math.sqrt(1.0 + 2.0 * p_eps) / p_eps
        assert abs(r_tilde_dphi(1.0, beta, sigma0, p_eps, boundary)) < 1e-12
        below = r_tilde_dphi(1.0, beta, sigma0, p_eps, boundary * (1.0 - 1e-3))
        above = r_tilde_dphi(1.0, beta, sigma0, p_eps, boundary * (1.0 + 1e-3))
        assert below < 0.0 < above


# 9. risk-aversion inversion round trip ---------------------------------------------


def equilibrium_from_gamma(gam, market):
    """Backward pass for a deterministic state-only risk-aversion table,
    written from the moment recursions so it shares nothing with the
    inversion under test."""
    T, M = gam.shape
    P = market.transition
    R = market.R_step
    mt = market.mu_tilde_step
    s2 = market.sigma_step**2
    a = np.ones(M)
    b = np.ones(M)
    pis = np.empty((T, M))
    for n in range(T - 1, -1, -1):
        mu_a = P @ a
        mu_b = P @ b
        for y in range(M):
            pis[n, y] = allocation_independent(
                n, ReducedState(xi=1.0, regime=y),
                float(mu_a[y]), float(mu_b[y]), float(gam[n, y]), market)
        m = R + mt * pis[n]
        a = mu_a * m
        b = mu_b * (m * m + s2 * pis[n] ** 2)
    return pis


def test_implied_gamma_round_trip(two_state_market):
    for delta in (-0.3, 0.0, 0.3):
        gam = implied_gamma(0.6, delta, two_state_market, T=60)
        pis = equilibrium_from_gamma(gam, two_state_market)
        target = CycleStrategy(0.6, delta).allocations(2)
        assert np.max(np.abs(pis - target)) < 1e-8, delta


# 10. Sharpe sensitivity predicates ---------------------------------------------------


def _fd(fun, x, h=1e-6):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def test_sensitivity_predicates_and_concavity(two_state_market):
    rng = np.random.default_rng(1906)
    checked = 0
    for _ in range(1000):
        inp = SharpeInputs(lam=rng.uniform(0.02, 0.98), a=rng.uniform(0.2, 3.0),
                           b=rng.uniform(0.3, 3.0), u=rng.uniform(0.5, 100.0))
        delta = rng.uniform(-0.8, 1.5)
        lam, a, b, u = inp.lam, inp.a, inp.b, inp.u
        d1 = 1.0 + delta
        e = a * d1 - 1.0
        c0 = 1.0 + u
        c1 = (a * a + u * b * b) * d1 * d1
        margins = {
            "increasing_in_a": abs(
                a * (1.0 - lam) * d1
                - ((1.0 - lam) * c0 + lam * u * b * b * d1 * d1)),
            "decreasing_in_b": b,
            "increasing_in_lam": abs(
                lam * e * (c1 - c0) - (c1 - c0 * (2.0 * a * d1 - 1.0))),
        }
        grads = {
            "increasing_in_a": _fd(
                lambda x: sharpe_delta(delta, SharpeInputs(lam, x, b, u)), a),
            "decreasing_in_b": -_fd(
                lambda x: sharpe_delta(delta, SharpeInputs(lam, a, x, u)), b),
            "increasing_in_lam": _fd(
                lambda x: sharpe_delta(delta, SharpeInputs(x, a, b, u)), lam),
        }
        for key, pred in sensitivity_predicates(inp, delta).items():
            if margins[key] <= 1e-8:
                continue
            assert pred == (grads[key] > 0), (key, inp, delta)
            checked += 1
    assert checked > 2500

    inputs = inputs_from_market(two_state_market)
    assert concavity_at_zero(inputs) < 0.0
    flat = SharpeInputs(lam=0.0, a=inputs.a, b=inputs.b, u=inputs.u)
    assert concavity_at_zero(flat) == 0.0


# 11. liquidation overlay under unit-interval bounds ----------------------------------


def test_liquidation_overlay_negligible_under_bounds(two_state_market):
    base = SimConfig(market=two_state_market, strategy=CycleStrategy(0.6, 0.3),
                     T=120, n_paths=50_000, seed=31, bounds=(0.0, 1.0))
    plain = simulate(base, threads=4)
    overlay = simulate(replace(base, liquidate=True), threads=4)
    assert abs(plain.mean() - overlay.mean()) < 1e-4
    assert abs(plain.var(ddof=1) - overlay.var(ddof=1)) < 1e-4


# -- curve shapes --------------------------------------------------------------------


def test_allocation_deviation_orderings(single_state_market):
    """Shock-prone and bias-distorted profiles bend the allocation away from
    the undistorted curve — more so for likelier shocks, and more after a
    market drop than after an equal-sized rally."""
    m = single_state_market
    T, n, phi = 36, 12, 3
    grid = GridSpec(xi_count=41, quad_points=16)

    def prof(**kw):
        base = dict(gamma0=3.0, p_eps=0.0, sigma_eps=0.64, beta=0.0, phi=phi)
        base.update(kw)
        return RiskProfileParams(**base)

    gammas = np.linspace(1.5, 8.0, 31)
    bench = solve(m, prof(), T, grid).allocation_at(n, gammas, 0.0, 0.0, 0)

    dev = {}
    for p_eps in (0.05, 0.10):
        tab = solve(m, prof(p_eps=p_eps), T, grid)
        dev[p_eps] = np.mean(np.abs(tab.allocation_at(n, gammas, 0.0, 0.0, 0)
                                    - bench))
    assert dev[0.10] > dev[0.05] > 0.0

    biased = solve(m, prof(beta=4.0), T, grid)
    log_gz = math.log(1.30)
    side = {}
    for gz in (math.exp(log_gz), math.exp(-log_gz)):
        window = -phi * math.log(gz) / 4.0
        pi = biased.allocation_at(n, gammas * gz, window, 0.0, 0)
        side[gz] = np.mean(np.abs(pi - bench))
    assert side[math.exp(log_gz)] > side[math.exp(-log_gz)] > 0.0


def test_tradeoff_curves_have_interior_minima(single_state_market):
    """Both mismatch measures dip at an intermediate interaction spacing, the
    sampled minimizer matches the closed-form integer choice, and the
    allocation-level curve bottoms out no earlier than the tolerance-level
    curve."""
    profile = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64)
    T = 36
    phis = (1, 2, 3, 4, 6, 9, 12)
    for beta in (2.0, 4.0):
        r_curve = {}
        s_curve = {}
        for phi in phis:
            advisor = replace(profile, phi=phi, beta=beta)
            r_curve[phi], _ = r_measure(single_state_market, advisor, T, 20_000,
                                        seed=2718 + phi)
            s_curve[phi] = s_measure(single_state_market, advisor, T, GridSpec(),
                                     10_000, seed=5200 + phi).estimate
        best_r = min(phis, key=lambda p: r_curve[p])
        best_s = min(phis, key=lambda p: s_curve[p])
        assert phis[0] < best_r < phis[-1], (beta, r_curve)
        assert phis[0] < best_s < phis[-1], (beta, s_curve)
        assert best_r <= best_s
        assert best_r == phi_star(beta, SIGMA0, 0.05, 0.64).phi_int
