"""Tests for the backward-induction equilibrium solver."""

import csv
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robo_mv.errors import ConfigError, DegenerateVariance, GridExhausted, NumericalError
from robo_mv.market import MarketParams
from robo_mv.risk_profile import RiskProfileParams
from robo_mv.solver import (
    ClampCounters,
    Grid,
    GridSpec,
    PolicyTables,
    ReducedState,
    _gh_nodes,
    _jump_mixture,
    _locate,
    _ProfileTables,
    _StepOperators,
    allocation,
    allocation_independent,
    brute_force_equilibrium,
    constrain,
    liquidation_overlay,
    load_policy,
    moment_m,
    save_policy,
    solve,
    state_only_ab,
    step_moments,
    update_ab,
)


def exact_const_gamma(gamma, T, mu=0.10, sig=0.20, r=0.0, k=12):
    """Closed-form equilibrium allocations for one state and constant gamma.

    Backward recursion on the scalar moments A = E[prod m], B = E[prod m^2]:
    the five-moment allocation formula collapses to an expression in (A, B)
    because the future tables do not depend on the return path.
    """
    mt, s2, R = (mu - r) / k, sig * sig / k, 1.0 + r / k
    A = B = 1.0
    pis = np.zeros(T)
    for n in range(T - 1, -1, -1):
        pis[n] = mt * (A - gamma * R * (B - A * A)) / (
            gamma * (s2 * B + mt * mt * (B - A * A))
        )
        m = R + mt * pis[n]
        A, B = A * m, B * (m * m + s2 * pis[n] ** 2)
    return pis


def markowitz_step(market, gamma, regime=0):
    y = regime
    return float(market.mu_tilde_step[y]) / (gamma * float(market.sigma_step[y]) ** 2)


def center_policy(tables):
    """Allocation path at the exact-center grid node (xi = gamma0, sums = 0)."""
    nx, npv, nc, _ = tables.grid.shape
    return tables.pi[:, (nx - 1) // 2, (npv - 1) // 2, (nc - 1) // 2, 0]


# -- grid construction and validation -------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"xi_count": 1},
        {"zsum_count": 1},
        {"quad_points": 1},
        {"zsum_span_sd": 0.0},
        {"max_clamp_fraction": 0.0},
        {"max_clamp_fraction": 1.0},
        {"xi_lo": 0.5},
        {"xi_lo": 2.0, "xi_hi": 1.0},
        {"xi_lo": -1.0, "xi_hi": 1.0},
        {"zsum_span_sd": float("nan")},
        {"zsum_span_sd": float("inf")},
        {"max_clamp_fraction": float("nan")},
        {"xi_lo": 1.0, "xi_hi": float("inf")},
        {"xi_lo": float("nan"), "xi_hi": 2.0},
    ],
)
def test_gridspec_rejects_bad_requests(kwargs):
    with pytest.raises(ConfigError):
        GridSpec(**kwargs)


def test_grid_axes_collapse_when_they_cannot_matter(single_state_market):
    flat = RiskProfileParams(gamma0=2.0, beta=0.0, p_eps=0.05, phi=3)
    g = Grid.build(GridSpec(), single_state_market, flat)
    assert g.shape == (41, 1, 1, 1)

    every_step = RiskProfileParams(gamma0=2.0, beta=2.0, phi=1)
    g = Grid.build(GridSpec(), single_state_market, every_step)
    assert g.shape == (41, 21, 1, 1)

    windowed = RiskProfileParams(gamma0=2.0, beta=2.0, phi=3)
    g = Grid.build(GridSpec(), single_state_market, windowed)
    assert g.shape == (41, 21, 21, 1)
    # log-spaced xi axis centered exactly on gamma0, default span [g0/8, 8 g0]
    assert g.xi[0] == pytest.approx(0.25, rel=1e-12)
    assert g.xi[-1] == pytest.approx(16.0, rel=1e-12)
    assert g.xi[20] == pytest.approx(2.0, rel=1e-12)
    # window axes span +/- 4 per-step SDs times sqrt(phi), zero at the center
    span = 4.0 * 0.20 / math.sqrt(12) * math.sqrt(3)
    assert g.prev[-1] == pytest.approx(span, rel=1e-12)
    assert g.prev[10] == 0.0
    assert g.cur_zero_index == 10


def test_grid_forces_odd_window_count(single_state_market):
    prof = RiskProfileParams(gamma0=2.0, beta=2.0, phi=3)
    g = Grid.build(GridSpec(zsum_count=20), single_state_market, prof)
    assert len(g.prev) == 21 and g.prev[10] == 0.0


def test_grid_rejects_malformed_axes():
    with pytest.raises(ConfigError, match="increasing"):
        Grid(np.array([1.0, 3.0, 2.0]), np.zeros(1), np.zeros(1), 16, 1)
    with pytest.raises(ConfigError, match="positive"):
        Grid(np.array([-1.0, 1.0]), np.zeros(1), np.zeros(1), 16, 1)
    with pytest.raises(ConfigError, match="uniform"):
        Grid(np.array([1.0, 2.0, 4.0]), np.array([0.0, 0.1, 0.3]), np.zeros(1), 16, 1)


def test_reduced_state_validation():
    with pytest.raises(ConfigError):
        ReducedState(xi=0.0)
    with pytest.raises(ConfigError):
        ReducedState(xi=1.0, regime=-1)
    st = ReducedState(xi=2.0, prev_window_sum=-0.05, cur_window_sum=0.01, regime=1)
    assert st.xi == 2.0 and st.regime == 1


def test_solve_rejects_bad_horizon_and_bounds(single_state_market):
    prof = RiskProfileParams(gamma0=2.0)
    with pytest.raises(ConfigError):
        solve(single_state_market, prof, T=0)
    with pytest.raises(ConfigError):
        solve(single_state_market, prof, T=4, bounds=(1.0, 0.0))


# -- terminal and one-period identities ------------------------------------


def test_one_period_policy_is_markowitz(single_state_market, two_state_market):
    for market in (single_state_market, two_state_market):
        tab = solve(market, RiskProfileParams(gamma0=2.0), T=1)
        gam = tab.gamma_table(0)
        for y in range(market.num_states):
            want = market.mu_tilde_step[y] / (gam[:, y] * market.sigma_step[y] ** 2)
            assert np.allclose(tab.pi[0, :, 0, 0, y], want, atol=1e-12)


def test_terminal_slice_is_markowitz_under_personalization(single_state_market):
    prof = RiskProfileParams(gamma0=1.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tab = solve(single_state_market, prof, T=6)
    gam = tab.gamma_table(5)[:, 0]
    want = single_state_market.mu_tilde_step[0] / (
        gam * single_state_market.sigma_step[0] ** 2
    )
    got = tab.pi[5, ..., 0]  # every (prev, cur) pair must agree: no lookahead left
    assert np.allclose(got, want[:, None, None], atol=1e-12)


def test_terminal_value_closed_form(single_state_market):
    tab = solve(single_state_market, RiskProfileParams(gamma0=3.5), T=1)
    mt = float(single_state_market.mu_tilde_step[0])
    s2 = float(single_state_market.sigma_step[0]) ** 2
    R = float(single_state_market.R_step[0])
    gam = tab.gamma_table(0)[20, 0]
    want = R - 1.0 + mt * mt / (2.0 * gam * s2)
    assert tab.V[0, 20, 0, 0, 0] == pytest.approx(want, abs=1e-12)


def test_update_ab_single_terminal_step(single_state_market):
    tab = solve(single_state_market, RiskProfileParams(gamma0=2.0), T=3)
    mt = float(single_state_market.mu_tilde_step[0])
    s2 = float(single_state_market.sigma_step[0]) ** 2
    R = float(single_state_market.R_step[0])
    st = ReducedState(xi=2.0)
    a, b = update_ab(2, st, 0.7, tab)
    m = R + mt * 0.7
    assert a == pytest.approx(m, abs=1e-12)
    assert b == pytest.approx(m * m + s2 * 0.49, abs=1e-12)


def test_step_moments_terminal_constants(single_state_market):
    prof = RiskProfileParams(gamma0=1.0, p_eps=0.1, sigma_eps=0.64, beta=2.0, phi=2)
    tab = solve(single_state_market, prof, T=4)
    mt = float(single_state_market.mu_tilde_step[0])
    s2 = float(single_state_market.sigma_step[0]) ** 2
    st = ReducedState(xi=1.3, prev_window_sum=0.02, cur_window_sum=-0.01)
    mu_a, mu_az, mu_b, mu_bz, mu_bz2 = step_moments(3, st, tab)
    assert mu_a == pytest.approx(1.0, abs=1e-12)
    assert mu_az == pytest.approx(mt, abs=1e-12)
    assert mu_b == pytest.approx(1.0, abs=1e-12)
    assert mu_bz == pytest.approx(mt, abs=1e-12)
    assert mu_bz2 == pytest.approx(mt * mt + s2, abs=1e-12)


# -- brute-force oracle -----------------------------------------------------


def test_oracle_guards(single_state_market, two_state_market):
    with pytest.raises(ConfigError):
        brute_force_equilibrium(two_state_market, 3.5, 2)
    with pytest.raises(ConfigError):
        brute_force_equilibrium(single_state_market, 3.5, 4)
    with pytest.raises(ConfigError):
        brute_force_equilibrium(single_state_market, 3.5, 0)


def test_oracle_one_and_two_period(single_state_market):
    pis = brute_force_equilibrium(single_state_market, 3.5, 1)
    assert pis[0] == pytest.approx(markowitz_step(single_state_market, 3.5), abs=1e-12)
    pis = brute_force_equilibrium(single_state_market, 3.5, 2)
    assert pis[1] == pytest.approx(markowitz_step(single_state_market, 3.5), abs=1e-12)
    assert np.allclose(pis, exact_const_gamma(3.5, 2), atol=1e-7)


@pytest.mark.parametrize("gamma", [2.5, 3.5, 4.5])
@pytest.mark.parametrize("T", [1, 2, 3])
def test_solver_matches_oracle(single_state_market, gamma, T):
    oracle = brute_force_equilibrium(single_state_market, gamma, T)
    tab = solve(single_state_market, RiskProfileParams(gamma0=gamma), T=T)
    got = tab.pi[:, 20, 0, 0, 0]
    assert np.max(np.abs(got - oracle)) < 1e-4


def test_no_single_step_improvement(single_state_market):
    """Perturbing the first-step allocation cannot raise the time-0 criterion."""
    gamma, T = 3.5, 3
    tab = solve(single_state_market, RiskProfileParams(gamma0=gamma), T=T)
    pis = tab.pi[:, 20, 0, 0, 0].copy()
    mt = float(single_state_market.mu_tilde_step[0])
    s2 = float(single_state_market.sigma_step[0]) ** 2
    R = float(single_state_market.R_step[0])

    def criterion(first_pi):
        seq = np.concatenate([[first_pi], pis[1:]])
        A = B = 1.0
        for pi in seq[::-1]:
            m = R + mt * pi
            A, B = A * m, B * (m * m + s2 * pi * pi)
        return A - 1.0 - gamma / 2.0 * (B - A * A)

    base = criterion(pis[0])
    for delta in np.linspace(-0.2, 0.2, 41):
        if abs(delta) < 1e-3:
            continue
        assert criterion(pis[0] + delta) <= base + 1e-12


# -- constant-gamma exactness ----------------------------------------------


def test_matches_closed_form_recursion_long_horizon(single_state_market):
    for gamma in (1.0, 3.5):
        tab = solve(single_state_market, RiskProfileParams(gamma0=gamma), T=36)
        want = np.column_stack(
            [exact_const_gamma(g, 36) for g in tab.grid.xi]
        ).T  # (41, 36)
        assert np.max(np.abs(tab.pi[:, :, 0, 0, 0].T - want)) < 1e-10


def test_matches_closed_form_with_positive_rate():
    market = MarketParams(1, np.array([[1.0]]), np.array([0.015]),
                          np.array([0.081]), np.array([0.155]), 12)
    tab = solve(market, RiskProfileParams(gamma0=3.5), T=24)
    want = exact_const_gamma(3.5, 24, mu=0.081, sig=0.155, r=0.015)
    assert np.allclose(tab.pi[:, 20, 0, 0, 0], want, atol=1e-10)
    # allocation drifts upward toward the terminal date
    assert np.all(np.diff(want) > 0)
    assert np.all(np.diff(tab.pi[:, 20, 0, 0, 0]) > 0)


def test_policy_decreasing_in_gamma_at_midhorizon(single_state_market):
    """Mid-horizon allocation falls as the client gets more risk averse.

    Monotonicity genuinely fails at the extreme-leverage edge (gamma below
    ~gamma0/6.5 here): the closed-form recursion itself turns over, so the
    assertion covers gamma >= gamma0/4 and the full slice is instead pinned
    to the recursion values.
    """
    tab = solve(single_state_market, RiskProfileParams(gamma0=2.0, phi=3), T=36)
    sl = tab.pi[12, :, 0, 0, 0]
    exact = np.array([exact_const_gamma(g, 36)[12] for g in tab.grid.xi])
    assert np.allclose(sl, exact, atol=1e-10)
    band = tab.grid.xi >= 0.5
    assert np.all(np.diff(sl[band]) < 0)


# -- interaction-step exactness (lognormal oracle) ---------------------------


def lognormal_two_period_oracle(market, beta):
    """Exact time-0 moments and allocation for T=2, phi=1, no jump shocks.

    With one interaction per step the advisor's gamma after the first step is
    xi0 * exp(-beta d) for the demeaned return d, so every time-1 table is a
    polynomial in u = exp(beta d) and the Gaussian moments

        E[u^m] = exp(m^2 beta^2 s2 / 2),   E[d u^m] = m beta s2 E[u^m],
        E[d^2 u^m] = (s2 + (m beta s2)^2) E[u^m]

    give the five time-0 moments in closed form.
    """
    mt = float(market.mu_tilde_step[0])
    s2 = float(market.sigma_step[0]) ** 2
    R = float(market.R_step[0])
    q = mt / s2  # time-1 Markowitz ratio at xi = 1, scaled by u below
    Eu = [math.exp(m * m * beta * beta * s2 / 2.0) for m in range(3)]
    Edu = [m * beta * s2 * Eu[m] for m in range(3)]
    Ed2u = [(s2 + (m * beta * s2) ** 2) * Eu[m] for m in range(3)]

    mu_a = R + mt * q * Eu[1]
    mu_az = mt * R + mt * q * (Edu[1] + mt * Eu[1])
    c2 = (mt * mt + s2) * q * q
    mu_b = R * R + 2 * R * mt * q * Eu[1] + c2 * Eu[2]
    mu_bz = (
        mt * R * R
        + 2 * R * mt * q * (Edu[1] + mt * Eu[1])
        + c2 * (Edu[2] + mt * Eu[2])
    )
    mu_bz2 = (
        R * R * (s2 + mt * mt)
        + 2 * R * mt * q * (Ed2u[1] + 2 * mt * Edu[1] + mt * mt * Eu[1])
        + c2 * (Ed2u[2] + 2 * mt * Edu[2] + mt * mt * Eu[2])
    )
    moments = (mu_a, mu_az, mu_b, mu_bz, mu_bz2)
    pi0 = allocation(0, ReducedState(xi=1.0), moments, 1.0, market)
    return moments, pi0


def test_interaction_step_matches_lognormal_algebra(single_state_market):
    prof = RiskProfileParams(gamma0=1.0, beta=2.0, phi=1)
    moments, pi0 = lognormal_two_period_oracle(single_state_market, beta=2.0)
    assert pi0 == pytest.approx(2.2586412813475367, abs=1e-12)

    tab = solve(single_state_market, prof, T=2)
    got = step_moments(0, ReducedState(xi=1.0), tab)
    assert np.allclose(got, moments, rtol=1e-3)
    assert tab.pi[0, 20, 10, 0, 0] == pytest.approx(pi0, abs=2e-3)

    # the residual is interpolation error of the time-1 tables: refining the
    # xi axis four-fold shrinks it by roughly sixteen
    fine = solve(single_state_market, prof, T=2,
                 grid=GridSpec(xi_count=161, zsum_count=81, quad_points=32))
    got_fine = step_moments(0, ReducedState(xi=1.0), fine)
    assert np.allclose(got_fine, moments, rtol=5e-5)


def test_interaction_step_error_shrinks_with_refinement(single_state_market):
    prof = RiskProfileParams(gamma0=1.0, beta=2.0, phi=1)
    _, pi0 = lognormal_two_period_oracle(single_state_market, beta=2.0)
    coarse = solve(single_state_market, prof, T=2)
    fine = solve(
        single_state_market, prof, T=2,
        grid=GridSpec(xi_count=81, zsum_count=41, quad_points=32),
    )
    err_coarse = abs(coarse.pi[0, 20, 10, 0, 0] - pi0)
    err_fine = abs(fine.pi[0, 40, 20, 0, 0] - pi0)
    assert err_fine < err_coarse / 3.0


# -- moment-engine consistency ----------------------------------------------


def test_compound_moments_reproduce_tables(single_state_market):
    prof = RiskProfileParams(gamma0=2.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tab = solve(single_state_market, prof, T=12)
    g = tab.grid
    node = ReducedState(
        xi=float(g.xi[20]), prev_window_sum=float(g.prev[10]),
        cur_window_sum=float(g.cur[10]),
    )
    for n in (0, 5, 11):
        assert moment_m(1, tab, node, n) == pytest.approx(
            tab.a[n, 20, 10, 10, 0], abs=1e-12
        )
        assert moment_m(2, tab, node, n) == pytest.approx(
            tab.b[n, 20, 10, 10, 0], abs=1e-12
        )


def test_third_moment_riskfree_market():
    # mu == r makes the excess return zero-mean and the policy vanish, so the
    # m-th compound moment is a pure power of the gross risk-free rate.
    market = MarketParams(1, np.array([[1.0]]), np.array([0.02]),
                          np.array([0.02]), np.array([0.15]), 12)
    tab = solve(market, RiskProfileParams(gamma0=2.0), T=6)
    assert np.max(np.abs(tab.pi)) < 1e-14
    R = float(market.R_step[0])
    st = ReducedState(xi=2.0)
    for n in (0, 3, 5):
        assert moment_m(3, tab, st, n) == pytest.approx(R ** (3 * (6 - n)), abs=1e-12)


def test_quadrature_self_check(single_state_market):
    # Constant-gamma baseline: tables are flat along every axis the return
    # moves, so Gauss-Hermite is exact and doubling nodes changes nothing.
    flat = RiskProfileParams(gamma0=2.0, beta=0.0, phi=3)
    tab = solve(single_state_market, flat, T=36, grid=GridSpec(quad_points=16))
    g = tab.grid
    g64 = Grid(g.xi, g.prev, g.cur, 64, g.num_states, g.max_clamp_fraction)
    st = ReducedState(xi=2.0)
    for n in (0, 11, 20, 35):
        m16 = np.array(step_moments(n, st, tab))
        tab.grid = g64
        m64 = np.array(step_moments(n, st, tab))
        tab.grid = g
        assert np.max(np.abs(m16 - m64)) < 1e-8

    # With return-sensitive personalization the integrand is only piecewise
    # smooth (linear interpolation), so the self-check is looser.
    prof = RiskProfileParams(gamma0=2.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tabp = solve(single_state_market, prof, T=36)
    gp = tabp.grid
    gp64 = Grid(gp.xi, gp.prev, gp.cur, 64, gp.num_states, gp.max_clamp_fraction)
    stp = ReducedState(xi=2.0, cur_window_sum=0.01)
    for n in (2, 12, 35):
        m16 = np.array(step_moments(n, stp, tabp))
        tabp.grid = gp64
        m64 = np.array(step_moments(n, stp, tabp))
        tabp.grid = gp
        assert np.max(np.abs(m16 - m64)) < 5e-4


def test_independence_factorization(single_state_market):
    flat = RiskProfileParams(gamma0=2.0, beta=0.0, phi=1)
    tab = solve(single_state_market, flat, T=12)
    mt = float(single_state_market.mu_tilde_step[0])
    s2 = float(single_state_market.sigma_step[0]) ** 2
    st = ReducedState(xi=2.0)
    for n in (0, 6, 11):
        mu_a, mu_az, mu_b, mu_bz, mu_bz2 = step_moments(n, st, tab)
        assert mu_az == pytest.approx(mt * mu_a, abs=1e-10)
        assert mu_bz == pytest.approx(mt * mu_b, abs=1e-10)
        assert mu_bz2 == pytest.approx((mt * mt + s2) * mu_b, abs=1e-10)


def test_general_and_independent_routes_agree(single_state_market):
    flat = RiskProfileParams(gamma0=2.0, beta=0.0, phi=1)
    tab = solve(single_state_market, flat, T=12)
    for n in (0, 4, 9):
        for i in (5, 20, 35):
            st = ReducedState(xi=float(tab.grid.xi[i]))
            gam = float(tab.gamma_table(n)[i, 0])
            mu_a, mu_az, mu_b, mu_bz, mu_bz2 = step_moments(n, st, tab)
            general = allocation(n, st, (mu_a, mu_az, mu_b, mu_bz, mu_bz2),
                                 gam, single_state_market)
            independent = allocation_independent(
                n, st, mu_a, mu_b, gam, single_state_market
            )
            assert general == pytest.approx(independent, abs=1e-8)
            assert tab.pi[n, i, 0, 0, 0] == pytest.approx(general, abs=1e-8)


def test_allocation_rejects_degenerate_variance(single_state_market):
    st = ReducedState(xi=1.0)
    with pytest.raises(DegenerateVariance):
        allocation(0, st, (1.0, 0.5, 1.0, 0.5, 0.25), 2.0, single_state_market)
    with pytest.raises(DegenerateVariance):
        allocation_independent(0, st, 1.0, -40.0, 2.0, single_state_market)


# -- whole-table invariants ---------------------------------------------------


def test_jensen_gap_nonnegative(single_state_market, two_state_market):
    prof = RiskProfileParams(gamma0=1.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tab = solve(single_state_market, prof, T=36)
    assert np.min(tab.b - tab.a**2) >= -1e-12
    prof1 = RiskProfileParams(gamma0=2.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=1)
    tab2 = solve(two_state_market, prof1, T=24)
    assert np.min(tab2.b - tab2.a**2) >= -1e-12


def test_value_identity_everywhere(single_state_market):
    prof = RiskProfileParams(gamma0=1.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tab = solve(single_state_market, prof, T=12)
    for n in (0, 5, 11):
        gam = tab.gamma_table(n)  # (xi, regime)
        want = (
            tab.a[n] - 1.0
            - gam[:, None, None, :] / 2.0 * (tab.b[n] - tab.a[n] ** 2)
        )
        assert np.allclose(tab.V[n], want, atol=1e-12)


def test_return_feedback_lowers_allocation(single_state_market):
    """A loss-averse update rule creates a negative hedging demand.

    Strictly below the feedback-free policy wherever a future interaction can
    still move gamma; identical inside the final window, where no update ever
    takes effect before the horizon.
    """
    kw = dict(gamma0=1.0, p_eps=0.05, sigma_eps=0.64, phi=3)
    with_fb = solve(single_state_market, RiskProfileParams(beta=2.0, **kw), T=36)
    without = solve(single_state_market, RiskProfileParams(beta=0.0, **kw), T=36)
    band = slice(10, 31)  # interior xi nodes
    p2 = with_fb.pi[:33, band, 10, 10, 0]
    p0 = without.pi[:33, band, 0, 0, 0]
    assert np.all(p2 < p0)
    assert np.allclose(
        with_fb.pi[33:, band, 10, 10, 0], without.pi[33:, band, 0, 0, 0], atol=1e-12
    )


def test_two_state_solve_and_state_only_recursion(two_state_market):
    flat = RiskProfileParams(gamma0=2.0, beta=0.0, phi=1)
    tab = solve(two_state_market, flat, T=24)
    # per-regime policies at the center node feed the exact two-state moment
    # recursion; its a/b must agree with the solved tables
    pis = tab.pi[:, 20, 0, 0, :]
    a, b = state_only_ab(two_state_market, pis)
    assert np.allclose(a, tab.a[:, 20, 0, 0, :], atol=1e-10)
    assert np.allclose(b, tab.b[:, 20, 0, 0, :], atol=1e-10)
    assert np.min(b - a * a) >= -1e-12


def test_state_varying_baseline_needs_every_step_interaction(two_state_market):
    varying = RiskProfileParams(
        gamma0=2.0, beta=2.0, phi=3, gamma_bar=np.array([1.0, 1.5])
    )
    with pytest.raises(ConfigError, match="phi"):
        solve(two_state_market, varying, T=6)
    ok = RiskProfileParams(
        gamma0=2.0, beta=2.0, phi=1, gamma_bar=np.array([1.0, 1.5])
    )
    tab = solve(two_state_market, ok, T=6)
    # with an update every step the slice gamma is xi itself; the baseline
    # ratio only enters the xi transitions, so the terminal policy is the
    # per-regime Markowitz ratio evaluated at gamma = xi
    gam = tab.gamma_table(5)
    assert np.allclose(gam, tab.grid.xi[:, None], rtol=1e-12)
    for y in range(2):
        want = two_state_market.mu_tilde_step[y] / (
            tab.grid.xi * two_state_market.sigma_step[y] ** 2
        )
        assert np.allclose(tab.pi[5, :, :, 0, y], want[:, None], atol=1e-12)


# -- constrained policies ------------------------------------------------------


def exact_const_gamma_bounded(gamma, T, lo, hi, mu=0.10, sig=0.20, r=0.0, k=12):
    mt, s2, R = (mu - r) / k, sig * sig / k, 1.0 + r / k
    A = B = 1.0
    pis = np.zeros(T)
    for n in range(T - 1, -1, -1):
        raw = mt * (A - gamma * R * (B - A * A)) / (
            gamma * (s2 * B + mt * mt * (B - A * A))
        )
        pis[n] = min(max(raw, lo), hi)
        m = R + mt * pis[n]
        A, B = A * m, B * (m * m + s2 * pis[n] ** 2)
    return pis


def test_bounds_are_enforced_inside_the_induction(single_state_market):
    gamma = 0.5  # unconstrained Markowitz ratio is 5: the cap binds
    tab = solve(single_state_market, RiskProfileParams(gamma0=gamma), T=12,
                bounds=(0.0, 1.0))
    assert tab.bounds == (0.0, 1.0)
    assert np.min(tab.pi) >= 0.0 and np.max(tab.pi) <= 1.0
    want = exact_const_gamma_bounded(gamma, 12, 0.0, 1.0)
    assert np.allclose(tab.pi[:, 20, 0, 0, 0], want, atol=1e-10)
    assert want[-1] == 1.0  # the cap actually binds at the terminal step
    mt = float(single_state_market.mu_tilde_step[0])
    s2 = float(single_state_market.sigma_step[0]) ** 2
    assert tab.a[11, 20, 0, 0, 0] == pytest.approx(1.0 + mt, abs=1e-12)
    assert tab.b[11, 20, 0, 0, 0] == pytest.approx((1.0 + mt) ** 2 + s2, abs=1e-12)


def test_constrain_and_liquidation_overlay():
    assert constrain(1.7, 0.0, 1.0) == 1.0
    assert constrain(-0.3, 0.0, 1.0) == 0.0
    assert np.allclose(constrain(np.array([-1.0, 0.5, 2.0]), 0.0, 1.0),
                       [0.0, 0.5, 1.0])
    with pytest.raises(ConfigError):
        constrain(0.5, 1.0, 0.0)
    x = np.array([100.0, 0.0, -5.0])
    assert np.allclose(liquidation_overlay(x, 0.6), [60.0, 0.0, 0.0])
    assert liquidation_overlay(-1.0, 0.6) == 0.0


# -- clamp accounting -----------------------------------------------------------


def test_solve_reports_clamp_fractions(single_state_market):
    flat = solve(single_state_market, RiskProfileParams(gamma0=2.0), T=12)
    assert flat.solve_clamps.xi_fraction == 0.0
    assert flat.solve_clamps.window_fraction == 0.0

    prof = RiskProfileParams(gamma0=1.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tab = solve(single_state_market, prof, T=36)
    assert 0.0 < tab.solve_clamps.xi_fraction < 0.25
    assert 0.0 < tab.solve_clamps.window_fraction < 0.25
    d = tab.solve_clamps.as_dict()
    assert set(d) == {"xi_fraction", "window_fraction", "xi_mass", "window_mass"}


def test_grid_exhaustion_aborts_the_solve(single_state_market):
    wild = RiskProfileParams(gamma0=1.0, p_eps=0.9, sigma_eps=1.0, beta=4.0, phi=1)
    with pytest.raises(GridExhausted, match="xi"):
        solve(single_state_market, wild, T=6, grid=GridSpec(xi_lo=0.99, xi_hi=1.01))


def test_allocation_lookup_and_clamp_counting(single_state_market):
    prof = RiskProfileParams(gamma0=2.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tab = solve(single_state_market, prof, T=12)
    g = tab.grid
    # at exact nodes the interpolation passes through the table
    got = tab.allocation_at(3, g.xi[7], g.prev[4], g.cur[15], 0)
    assert got == pytest.approx(tab.pi[3, 7, 4, 15, 0], abs=1e-14)
    # between two xi nodes the value lies between the neighbours
    mid = math.sqrt(g.xi[7] * g.xi[8])
    lo, hi = sorted([tab.pi[3, 7, 4, 15, 0], tab.pi[3, 8, 4, 15, 0]])
    between = tab.allocation_at(3, mid, g.prev[4], g.cur[15], 0)
    assert lo - 1e-14 <= between <= hi + 1e-14

    counters = ClampCounters()
    inside = np.full(8, 2.0)
    tab.allocation_at(3, inside, 0.0, 0.0, 0, counters=counters)
    assert counters.xi_mass == 8.0 and counters.xi_clamped == 0.0
    tab.allocation_at(3, np.array([1e-6, 2.0, 1e6]), 0.0, 0.0, 0, counters=counters)
    assert counters.xi_clamped == 2.0
    assert counters.xi_fraction == pytest.approx(2.0 / 11.0)
    # clamped lookups return the boundary policy
    edge = tab.allocation_at(3, 1e9, 0.0, 0.0, 0)
    assert edge == pytest.approx(tab.allocation_at(3, g.xi[-1], 0.0, 0.0, 0), abs=1e-14)

    with pytest.raises(ConfigError):
        tab.allocation_at(12, 2.0, 0.0, 0.0, 0)
    with pytest.raises(ConfigError):
        tab.allocation_at(3, 0.0, 0.0, 0.0, 0)
    for regime in (-1, 1):
        with pytest.raises(ConfigError):
            tab.allocation_at(3, 2.0, 0.0, 0.0, regime)


def test_allocation_matches_regular_grid_interpolator(two_state_market):
    """allocation_at against scipy's trilinear interpolation in
    (log xi, prev, cur), one interpolator per regime; out-of-grid queries
    are compared at their projection onto the grid box."""
    from scipy.interpolate import RegularGridInterpolator

    prof = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tab = solve(two_state_market, prof, T=3,
                grid=GridSpec(xi_count=13, zsum_count=9, quad_points=8))
    g = tab.grid
    M = g.num_states
    axes = (g.logxi, g.prev, g.cur)
    rng = np.random.default_rng(11)

    def queries(widen, k=400):
        return [rng.uniform(ax[0] - widen * (ax[-1] - ax[0]),
                            ax[-1] + widen * (ax[-1] - ax[0]), k) for ax in axes]

    for n in range(tab.T):
        for widen in (0.0, 0.5):
            lx, pv, cv = queries(widen)
            xi = np.exp(lx)
            got = tab.allocation_at(n, xi[:, None], pv[:, None], cv[:, None],
                                    np.arange(M)[None, :])
            assert got.shape == (len(xi), M)
            box = np.column_stack([np.clip(q, ax[0], ax[-1])
                                   for q, ax in zip((np.log(xi), pv, cv), axes)])
            for y in range(M):
                want = RegularGridInterpolator(axes, tab.pi[n, ..., y])(box)
                np.testing.assert_allclose(got[:, y], want, rtol=1e-13, atol=1e-13)


# -- advisor-gamma bookkeeping ---------------------------------------------------


def test_solver_gamma_agrees_with_scalar_op(single_state_market):
    from robo_mv.risk_profile import robo_gamma

    prof = RiskProfileParams(gamma0=2.0, alpha=0.01, p_eps=0.05, sigma_eps=0.64,
                             beta=2.0, phi=3)
    T = 12
    tab = solve(single_state_market, prof, T=T)
    for n in (0, 4, 7, 11):
        tau = (n // 3) * 3
        gam = tab.gamma_table(n)
        for i in (0, 20, 40):
            want = robo_gamma(n, float(tab.grid.xi[i]), tau, 0, 0, prof, T, 1)
            assert gam[i, 0] == pytest.approx(want, rel=1e-12)


# -- persistence ------------------------------------------------------------------


def test_policy_round_trip(tmp_path, single_state_market):
    prof = RiskProfileParams(gamma0=2.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=2)
    tab = solve(single_state_market, prof, T=4, bounds=(0.0, 2.0))
    save_policy(tab, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "policy.npz").exists()
    assert sorted(p.name for p in tmp_path.glob("policy_*.csv")) == [
        f"policy_{n:04d}.csv" for n in range(4)
    ]
    back = load_policy(tmp_path)
    assert back.T == 4 and back.bounds == (0.0, 2.0)
    assert np.array_equal(back.grid.xi, tab.grid.xi)
    for name in ("pi", "a", "b", "V"):  # a and b include the terminal slice
        assert np.array_equal(getattr(back, name), getattr(tab, name))
    assert back.solve_clamps == tab.solve_clamps
    # the reloaded policy is directly usable
    assert back.allocation_at(1, 2.0, 0.0, 0.0, 0) == tab.allocation_at(
        1, 2.0, 0.0, 0.0, 0
    )


def test_policy_store_is_byte_deterministic(tmp_path, single_state_market):
    tab = solve(single_state_market, RiskProfileParams(gamma0=2.0), T=3,
                grid=GridSpec(xi_count=5, quad_points=8))
    save_policy(tab, tmp_path / "one")
    save_policy(tab, tmp_path / "two")
    for name in ("policy.npz", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name).read_bytes()


def _old_csv_export(tables, outdir):
    """The row-by-row csv.writer export that policy_NNNN.csv must match."""
    g = tables.grid
    coords = [arr.ravel() for arr in np.meshgrid(
        g.xi, g.prev, g.cur, np.arange(g.num_states), indexing="ij")]
    for n in range(tables.T):
        with open(outdir / f"policy_{n:04d}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["xi", "prev_sum", "cur_sum", "regime",
                        "pi_star", "a", "b", "V"])
            cols = [tables.pi[n].ravel(), tables.a[n].ravel(),
                    tables.b[n].ravel(), tables.V[n].ravel()]
            for i in range(coords[0].size):
                w.writerow([f"{coords[0][i]:.12g}", f"{coords[1][i]:.12g}",
                            f"{coords[2][i]:.12g}", int(coords[3][i])]
                           + [f"{c[i]:.12g}" for c in cols])


def test_policy_csv_export_matches_row_by_row_writer(tmp_path, two_state_market):
    # xi spans 1e-5..1e7 and the values 40 decades, so the export needs
    # exponent notation and rounding to 12 significant digits.
    grid = Grid(np.geomspace(1e-5, 1e7, 5), np.linspace(-0.3, 0.3, 3),
                np.linspace(-0.3, 0.3, 3), quad_points=4, num_states=2)
    T, shape = 3, grid.shape
    rng = np.random.default_rng(5)

    def table(periods):
        size = (periods,) + shape
        return rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)

    pi, V, a, b = table(T), table(T), table(T + 1), table(T + 1)
    pi[0, 0, 0, 0, :] = [-0.0, 0.1]
    tab = PolicyTables(market=two_state_market,
                       profile=RiskProfileParams(gamma0=1.0, beta=1.0, phi=2),
                       T=T, grid=grid, pi=pi, a=a, b=b, V=V)
    save_policy(tab, tmp_path / "new")
    (tmp_path / "old").mkdir()
    _old_csv_export(tab, tmp_path / "old")
    texts = []
    for n in range(T):
        name = f"policy_{n:04d}.csv"
        text = (tmp_path / "new" / name).read_bytes()
        assert text == (tmp_path / "old" / name).read_bytes()
        texts.append(text)
    text = b"".join(texts)
    assert b"e-05," in text and b"e+" in text and b"\r\n" in text
    assert any(float(f"{v:.12g}") != v for v in pi.ravel().tolist())


def test_policy_store_rejects_every_corrupting_bit_flip(tmp_path, single_state_market):
    # A flip in zip metadata the tables do not depend on may load; any other
    # flip must raise ConfigError, never load different tables or crash.
    tab = solve(single_state_market, RiskProfileParams(gamma0=2.0), T=2,
                grid=GridSpec(xi_count=3, quad_points=4))
    save_policy(tab, tmp_path)
    store = tmp_path / "policy.npz"
    raw = store.read_bytes()
    rejected = 0
    for i in range(len(raw)):
        bad = bytearray(raw)
        bad[i] ^= 0x01
        store.write_bytes(bytes(bad))
        try:
            back = load_policy(tmp_path)
        except ConfigError:
            rejected += 1
            continue
        for name in ("pi", "a", "b", "V"):
            assert np.array_equal(getattr(back, name), getattr(tab, name)), i
    assert rejected > len(raw) // 2


# -- the operator engine against the node-by-node loop kernel ---------------------


def _loop_presmooth(table0, grid, mixture, gh, counters):
    """The per-node jump-shock smoothing the smoothing matrix replaced."""
    gh_x, gh_w = gh
    out = np.zeros_like(table0)
    for weight, mean, sd in mixture:
        if sd == 0.0:
            out += weight * table0
            continue
        for xq, wq in zip(gh_x, gh_w):
            shift = mean + sd * math.sqrt(2.0) * xq
            idx, frac, ncl = _locate(grid.logxi, grid.logxi + shift)
            counters.add_xi(weight * wq, len(grid.logxi), ncl)
            f = frac[:, None, None]
            out += (weight * wq) * (
                table0[idx] * (1.0 - f) + table0[idx + 1] * f
            )
    return out


def _loop_slice_expectations(n, specs, market, tabs, grid, counters):
    """The quadrature-node loop kernel the step operators replaced: the
    reference for their values and, bit for bit, their clamp tallies."""
    Nxi, Np, Nc, M = grid.shape
    P = market.transition
    mu, sig, r = market.mu_step, market.sigma_step, market.r_step
    gh_x, gh_w = _gh_nodes(grid.quad_points)
    interaction = (n + 1) % tabs.phi == 0
    out = [np.zeros((jmax + 1, Nxi, Np, Nc, M)) for _, jmax in specs]

    if not interaction:
        contracted = [tbl @ P.T for tbl, _ in specs]
        for y in range(M):
            for xq, wq in zip(gh_x, gh_w):
                dm = math.sqrt(2.0) * sig[y] * xq
                zt = dm + mu[y] - r[y]
                idx, frac, ncl = _locate(grid.cur, grid.cur + dm)
                if Nc > 1:
                    counters.add_window(wq, Nc, ncl)
                idx2 = np.minimum(idx + 1, Nc - 1)
                f = frac[None, None, :]
                for (tbl, jmax), acc in zip(
                    [(c, s[1]) for c, s in zip(contracted, specs)], out
                ):
                    val = tbl[:, :, idx, y] * (1.0 - f) + tbl[:, :, idx2, y] * f
                    ztj = wq
                    for j in range(jmax + 1):
                        acc[j, :, :, :, y] += ztj * val
                        ztj = ztj * zt
        return out

    mixture = _jump_mixture(tabs.profile)
    ic0 = grid.cur_zero_index
    smoothed = [
        _loop_presmooth(tbl[:, :, ic0, :], grid, mixture, (gh_x, gh_w), counters)
        for tbl, _ in specs
    ]
    bp = tabs.beta / tabs.phi
    base = grid.logxi[:, None, None] + bp * grid.prev[None, :, None]
    for y in range(M):
        for xq, wq in zip(gh_x, gh_w):
            dm = math.sqrt(2.0) * sig[y] * xq
            zt = dm + mu[y] - r[y]
            wv = grid.cur + dm
            ip, fp, ncp = _locate(grid.prev, wv)
            if Np > 1:
                counters.add_window(wq, Nc, ncp)
            fp_b = fp[None, None, :]
            for y2 in range(M):
                pw = P[y, y2]
                if pw == 0.0:
                    continue
                shift = tabs.interaction_shift(n, y, y2)
                lx = base + (shift - bp * wv)[None, None, :]
                ix, fx, ncx = _locate(grid.logxi, lx)
                counters.add_xi(wq * pw, lx.size, ncx)
                fx_c = 1.0 - fx
                for (sm, (_, jmax)), acc in zip(zip(smoothed, specs), out):
                    t = sm[:, :, y2]
                    lo = t[ix, ip[None, None, :]]
                    hi = t[ix + 1, ip[None, None, :]]
                    lo2 = t[ix, np.minimum(ip + 1, Np - 1)[None, None, :]]
                    hi2 = t[ix + 1, np.minimum(ip + 1, Np - 1)[None, None, :]]
                    val = (
                        fx_c * ((1.0 - fp_b) * lo + fp_b * lo2)
                        + fx * ((1.0 - fp_b) * hi + fp_b * hi2)
                    )
                    ztj = wq * pw
                    for j in range(jmax + 1):
                        acc[j, :, :, :, y] += ztj * val
                        ztj = ztj * zt
    return out


_unit = st.floats(0.0, 1.0)


@st.composite
def _kernel_cases(draw):
    """A small market, profile, grid, step and moment request."""
    M = draw(st.integers(1, 3))
    transition = np.array([
        draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0, 2.5]),
                      min_size=M, max_size=M))
        for _ in range(M)
    ])
    for y in range(M):
        if transition[y].sum() == 0.0:
            transition[y, y] = 1.0
    transition /= transition.sum(axis=1, keepdims=True)

    def vector(lo, hi):
        return np.array([lo + (hi - lo) * draw(_unit) for _ in range(M)])

    market = MarketParams(
        num_states=M, transition=transition,
        risk_free=vector(0.0, 0.05), mean_return=vector(-0.1, 0.3),
        vol_return=vector(0.05, 0.4), steps_per_year=12,
    )
    phi = draw(st.integers(1, 3))
    T = draw(st.integers(1, 7))
    # A time-varying trend moves the interaction shift with n; without one
    # (and with a scalar gamma_bar) the shift is exactly zero.
    eta = (np.array([draw(st.floats(-0.5, 0.5)) for _ in range(T + 1)])
           if draw(st.booleans()) else None)
    if phi == 1 and M > 1 and draw(st.booleans()):
        gamma_bar = 0.5 + 2.0 * np.array(
            [[draw(_unit) for _ in range(M)] for _ in range(T + 1)])
    else:
        gamma_bar = 0.5 + 2.0 * draw(_unit)
    gamma0 = 1.0 + 7.0 * draw(_unit)
    profile = RiskProfileParams(
        gamma0=gamma0, p_eps=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
        sigma_eps=0.1 + draw(_unit), beta=draw(st.sampled_from([0.0, 2.0])),
        phi=phi, gamma_bar=gamma_bar, eta=eta,
    )
    spread = draw(st.floats(1.2, 10.0))
    spec = GridSpec(
        xi_count=draw(st.integers(3, 9)), xi_lo=gamma0 / spread,
        xi_hi=gamma0 * spread, zsum_count=draw(st.integers(3, 7)),
        zsum_span_sd=draw(st.floats(0.3, 4.0)),
        quad_points=draw(st.integers(2, 8)),
    )
    power = draw(st.integers(0, 4))  # 0: the solve's (a, 1), (b, 2) pair
    return market, profile, spec, T, power, draw(st.integers(0, 2**32 - 1))


def _moving_shift_case(phi):
    """An aging client (alpha > 0) under a gamma_bar that swings in time, so
    the interaction shift, and with it the xi positions, differ from one
    interaction step to the next."""
    market = MarketParams(
        num_states=2, transition=np.array([[0.9, 0.1], [0.3, 0.7]]),
        risk_free=np.array([0.02, 0.0]), mean_return=np.array([0.08, 0.14]),
        vol_return=np.array([0.15, 0.25]), steps_per_year=12,
    )
    T = 7
    swing = 1.0 + 0.6 * np.sin(np.arange(T + 1))[:, None]
    gamma_bar = swing * (np.array([[1.0, 1.4]]) if phi == 1 else np.ones((1, 2)))
    profile = RiskProfileParams(gamma0=3.0, alpha=0.05, p_eps=0.05,
                                sigma_eps=0.64, beta=2.0, phi=phi,
                                gamma_bar=gamma_bar)
    spec = GridSpec(xi_count=9, xi_lo=1.0, xi_hi=9.0, zsum_count=5,
                    quad_points=5)
    return market, profile, spec, T, 0, 7


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
@example(_moving_shift_case(1))
@example(_moving_shift_case(2))
def test_step_operators_match_loop_kernel(case):
    market, profile, spec, T, power, seed = case
    grid = Grid.build(spec, market, profile)
    tabs = _ProfileTables(market, profile, T)
    rng = np.random.default_rng(seed)
    powers = [1, 2] if power == 0 else [power]
    ops = _StepOperators(market, tabs, grid, max(powers))
    # scale of the j-th moment: E|Ztilde|^j times the table's magnitude
    gh_x, gh_w = _gh_nodes(grid.quad_points)
    zt = (math.sqrt(2.0) * market.sigma_step[:, None] * gh_x
          + market.mu_tilde_step[:, None])

    # every step of a solve with one set of operators, tallies accumulating
    want_clamps, got_clamps = ClampCounters(), ClampCounters()
    for n in range(T - 1, -1, -1):
        specs = [(rng.uniform(0.5, 2.0, grid.shape), j) for j in powers]
        want = _loop_slice_expectations(n, specs, market, tabs, grid, want_clamps)
        got = ops.slice_expectations(n, specs, got_clamps)
        assert asdict(got_clamps) == asdict(want_clamps)
        for (tbl, j_top), w, g in zip(specs, want, got):
            assert g.shape == w.shape
            for j in range(j_top + 1):
                scale = np.max(np.abs(tbl)) * np.max(np.abs(zt) ** j @ gh_w)
                assert np.max(np.abs(g[j] - w[j])) <= 1e-12 * scale


def test_step_operators_count_rounded_edge_nodes_like_the_loop_kernel(
        two_state_market):
    # On this axis the locator puts the last xi node a rounding error past
    # the edge, so an unshifted lookup there counts as clamped.
    grid = Grid(np.geomspace(1 / 3.7, 3.7, 8), np.zeros(1), np.zeros(1),
                quad_points=5, num_states=2)
    assert _locate(grid.logxi, grid.logxi)[2] == 1
    profile = RiskProfileParams(gamma0=1.0, p_eps=0.05, sigma_eps=0.64)
    tabs = _ProfileTables(two_state_market, profile, 2)
    specs = [(np.ones(grid.shape), 1), (np.ones(grid.shape), 2)]
    want_clamps, got_clamps = ClampCounters(), ClampCounters()
    _loop_slice_expectations(0, specs, two_state_market, tabs, grid, want_clamps)
    _StepOperators(two_state_market, tabs, grid, 2).slice_expectations(
        0, specs, got_clamps)
    assert asdict(got_clamps) == asdict(want_clamps)


def test_non_finite_solve_raises_numerical_error():
    market = MarketParams(
        num_states=1, transition=np.array([[1.0]]), risk_free=np.array([0.0]),
        mean_return=np.array([1e200]), vol_return=np.array([0.20]),
        steps_per_year=12,
    )
    for profile in (RiskProfileParams(gamma0=3.0),
                    RiskProfileParams(gamma0=3.0, beta=2.0, phi=3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"non-finite .* at n=2$"):
                solve(market, profile, 3, GridSpec(xi_count=5, quad_points=8))


def test_moment_m_overflow_raises_numerical_error(single_state_market):
    tab = solve(single_state_market, RiskProfileParams(gamma0=3.0), 3,
                GridSpec(xi_count=5, quad_points=8))
    pi = tab.pi.copy()
    pi[0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"non-finite moment 4 .* at n=0$"):
            moment_m(4, replace(tab, pi=pi), ReducedState(xi=3.0), 0)
    assert math.isfinite(moment_m(4, tab, ReducedState(xi=3.0), 0))
