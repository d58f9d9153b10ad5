"""Tests for the backward-induction equilibrium solver."""

import csv
import hashlib
import json
import math
import tracemalloc
import zipfile
import warnings
from dataclasses import asdict, replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robo_mv.errors import ConfigError, DegenerateVariance, GridExhausted, NumericalError
from robo_mv.market import MarketParams
from robo_mv.personalization import s_measure
from robo_mv.risk_profile import (
    RiskProfileParams,
    _ProfileTables,
    simulate_clients,
    window_sums,
)
from robo_mv.solver import (
    ClampCounters,
    Grid,
    GridSpec,
    PolicyTables,
    ReducedState,
    _backward_steps,
    _checked_grid,
    _gh_nodes,
    _interp3,
    _jump_mixture,
    _locate,
    _put_regime_last,
    _Q_CHUNK,
    _StepOperators,
    _interp_matrix,
    _require_finite,
    _solve_grid,
    allocation,
    allocation_independent,
    brute_force_equilibrium,
    constrain,
    liquidation_overlay,
    _window_lookup,
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
        {"xi_count": "41"},
        {"xi_count": 41.5},
        {"zsum_count": True},
        {"quad_points": float("nan")},
        {"max_clamp_fraction": "0.01"},
        {"xi_lo": "1", "xi_hi": 2.0},
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
    # A finite xi and window sums, and an integer regime that is not a bool.
    for bad in ({"xi": math.inf}, {"xi": math.nan}, {"xi": "1"},
                {"xi": 1.0, "prev_window_sum": math.nan},
                {"xi": 1.0, "cur_window_sum": "0"},
                {"xi": 1.0, "regime": 1.5}, {"xi": 1.0, "regime": True},
                {"xi": 1.0, "regime": np.bool_(False)}):
        with pytest.raises(ConfigError):
            ReducedState(**bad)
    st = ReducedState(xi=2.0, prev_window_sum=-0.05, cur_window_sum=0.01, regime=1)
    assert st.xi == 2.0 and st.regime == 1
    assert ReducedState(xi=np.float64(2.0), regime=np.int64(1)).regime == 1


def test_solve_rejects_bad_horizon_and_bounds(single_state_market):
    prof = RiskProfileParams(gamma0=2.0)
    spec = GridSpec(xi_count=5, quad_points=4)
    for T in (0, 2.5, 4.0, True):
        with pytest.raises(ConfigError, match="horizon T"):
            solve(single_state_market, prof, T, spec)
    for bounds in ((1.0, 0.0), (math.nan, 1.0), (0.0,), ("0", "1"),
                   (0.0, math.inf), [0.0, 1.0, 2.0]):
        with pytest.raises(ConfigError, match="bounds"):
            solve(single_state_market, prof, 4, spec, bounds)


def test_moment_m_takes_integer_order_and_time(single_state_market):
    tab = solve(single_state_market, RiskProfileParams(gamma0=2.0), 3,
                GridSpec(xi_count=5, quad_points=4))
    state = ReducedState(xi=2.0)
    for m, n in ((True, 0), (1.0, 0), (0, 0), (1, True), (1, 0.0), (1, -1), (1, 3)):
        with pytest.raises(ConfigError):
            moment_m(m, tab, state, n)


def test_max_clamp_fraction_is_enforced(single_state_market):
    # A coarse xi grid that clamps ~2% of the xi quadrature mass: within
    # the default 0.25, above a fraction of 0.005.
    prof = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64)
    spec = GridSpec(xi_count=5, quad_points=4)
    assert spec.max_clamp_fraction == 0.25
    tab = solve(single_state_market, prof, 4, spec)
    assert 0.005 < tab.solve_clamps.xi_fraction < 0.25
    strict = replace(spec, max_clamp_fraction=0.005)
    with pytest.raises(GridExhausted, match="max_clamp_fraction 0.005"):
        solve(single_state_market, prof, 4, strict)
    # S runs the advisor's induction itself, and the check after its last
    # step still holds.
    with pytest.raises(GridExhausted, match="max_clamp_fraction 0.005"):
        s_measure(single_state_market, replace(prof, phi=2, beta=2.0), 4, strict, 100,
                  seed=1)


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
    V = tab.V  # each access recomputes the whole table
    for n in (0, 5, 11):
        gam = tab.gamma_table(n)  # (xi, regime)
        want = (
            tab.a[n] - 1.0
            - gam[:, None, None, :] / 2.0 * (tab.b[n] - tab.a[n] ** 2)
        )
        assert np.allclose(V[n], want, atol=1e-12)


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


@pytest.mark.parametrize("gamma_bar", [[1.0, 1.5], [1.0, 0.75]])
@pytest.mark.parametrize("phi", [3, 4])
def test_unbiased_client_without_shocks_is_tracked_for_any_phi(
        two_state_market, gamma_bar, phi):
    # With beta = 0 and no jumps the advisor's gamma equals the client's at
    # every step, even when the cycle factor switches between interactions:
    # the phi policy is the phi = 1 policy, and S vanishes. No trend (alpha
    # = 0): a trend shift would be interpolated across xi nodes.
    prof = RiskProfileParams(gamma0=3.0, p_eps=0.0, beta=0.0,
                             gamma_bar=np.array(gamma_bar))
    T = 24
    every = solve(two_state_market, prof, T)
    sparse = solve(two_state_market, replace(prof, phi=phi), T)
    assert np.max(np.abs(sparse.pi - every.pi)) <= 1e-13 * np.max(np.abs(every.pi))
    s = s_measure(two_state_market, replace(prof, phi=phi), T, GridSpec(), 400, 7,
                  full_policy=every)
    assert s.estimate <= 1e-12


@pytest.mark.parametrize("phi", [1, 3])
def test_regime_varying_gamma_bar_terminal_policy_is_markowitz(two_state_market, phi):
    prof = RiskProfileParams(gamma0=2.0, beta=2.0, phi=phi,
                             gamma_bar=np.array([1.0, 1.5]))
    tab = solve(two_state_market, prof, T=6)
    # xi divides out the last interaction's cycle factor, so the slice
    # gamma is xi times the current one, and the terminal policy is the
    # per-regime Markowitz ratio at that gamma
    gam = tab.gamma_table(5)
    assert np.allclose(gam, tab.grid.xi[:, None] * [1.0, 1.5], rtol=1e-12)
    for y in range(2):
        want = two_state_market.mu_tilde_step[y] / (
            gam[:, y] * two_state_market.sigma_step[y] ** 2
        )
        assert np.allclose(tab.pi[5, ..., y], want[:, None, None], atol=1e-12)


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


def _one_pass_interp3(grid, table, logxi, prev, cur, regime, counters=None):
    """The trilinear kernel in one pass, as first written: the reference for
    the stencil halves that `_interp3` and `_window_lookup` share."""
    Nx, Np, Nc, M = table.shape
    y = np.asarray(regime)
    if y.size and (y.min() < 0 or y.max() >= M):
        raise ConfigError(f"regime queries must lie in [0, {M})")
    ix, fx, cx = _locate(grid.logxi, logxi)
    ip, fp, cp = _locate(grid.prev, prev)
    ic, fc, cc = _locate(grid.cur, cur)
    if counters is not None:
        counters.add_xi(1.0, np.size(logxi), cx)
        counters.add_window(1.0, np.size(logxi) * 2, cp + cc)
    sc = M if Nc > 1 else 0
    sp = Nc * M if Np > 1 else 0
    sx = Np * Nc * M if Nx > 1 else 0
    flat = table.ravel()
    base = ((ix * Np + ip) * Nc + ic) * M + y
    out = np.zeros(np.broadcast(logxi, prev, cur, y).shape)
    for wx, ox in ((1.0 - fx, 0), (fx, sx)):
        for wp, op in ((1.0 - fp, 0), (fp, sp)):
            for wc, oc in ((1.0 - fc, 0), (fc, sc)):
                out += wx * wp * wc * flat[base + (ox + op + oc)]
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.booleans())
def test_interp3_matches_one_pass_kernel(nx, npv, nc, M, seed, scalar):
    rng = np.random.default_rng(seed)
    grid = Grid(np.geomspace(0.5, 8.0, nx) if nx > 1 else np.array([2.0]),
                np.linspace(-0.3, 0.3, npv), np.linspace(-0.2, 0.2, nc), 5, M)
    table = rng.standard_normal((nx, npv, nc, M))
    k = 1 if scalar else 50
    q = (rng.uniform(-1.5, 3.0, k), rng.uniform(-0.5, 0.5, k),
         rng.uniform(-0.4, 0.4, k), rng.integers(0, M, k))
    if scalar:
        q = tuple(v[0].item() for v in q)
    got_c, want_c = ClampCounters(), ClampCounters()
    got = _interp3(grid, table, *q, counters=got_c)
    want = _one_pass_interp3(grid, table, *q, counters=want_c)
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
    assert got_c == want_c


@pytest.mark.parametrize("phi, gamma_bar", [
    *(pytest.param(phi, 1.0, id=str(phi)) for phi in (1, 2, 3, 9, 10)),
    pytest.param(3, np.array([1.0, 1.5]), id="3-cycle"),
])
def test_window_allocations_match_per_step_lookups(two_state_market, phi, gamma_bar):
    prof = RiskProfileParams(gamma0=3.0, p_eps=0.3, sigma_eps=0.64, beta=2.0, phi=phi,
                             gamma_bar=gamma_bar)
    T = 21
    tab = solve(two_state_market, prof, T,
                GridSpec(xi_count=7, zsum_count=5, quad_points=5))
    batch = simulate_clients(two_state_market, prof, T, 400,
                             np.random.default_rng(phi), y0=1)
    xi, csum, regimes = (np.ascontiguousarray(batch[k].T) for k in
                         ("xi", "window_csum", "regimes"))
    at = _window_lookup(tab.grid, tab.profile, tab.pi.shape, xi, csum, regimes[:T])
    got = [at(n, tab.pi[n]) for n in range(T)]
    gbar = prof.gamma_bar_table(T, 2)
    for n in range(T):
        prev, cur = window_sums(batch["window_csum"], phi, n)
        y, y_tau = batch["regimes"][:, n], batch["regimes"][:, phi * (n // phi)]
        xi_tilde = batch["xi"][:, n] / gbar[phi * (n // phi), y_tau]
        assert np.array_equal(got[n], tab.allocation_at(n, xi_tilde, prev, cur, y))
    # The lookup the S measure makes as the induction yields each period, in
    # backward time order.
    at = _window_lookup(tab.grid, tab.profile, tab.pi.shape, xi, csum, regimes[:T])
    for n in range(T - 1, -1, -1):
        assert np.array_equal(at(n, tab.pi[n]), got[n])


def test_window_allocations_keep_the_lookup_checks(two_state_market):
    prof = RiskProfileParams(gamma0=3.0, beta=2.0, phi=2)
    tab = solve(two_state_market, prof, 4, GridSpec(xi_count=5, zsum_count=3, quad_points=3))
    xi, csum = np.full((5, 6), 3.0), np.zeros((5, 6))
    regimes = np.zeros((4, 6), dtype=np.int64)
    policy = (tab.grid, tab.profile, tab.pi.shape)

    def lookups(xi, regimes):
        at = _window_lookup(*policy, xi, csum, regimes)
        return [at(n, tab.pi[n]) for n in range(len(regimes))]

    assert len(lookups(xi, regimes)) == 4
    with pytest.raises(ConfigError, match="outside"):
        lookups(xi, np.zeros((5, 6), dtype=np.int64))
    for bad in (-1, 2):
        wrong = regimes.copy()
        wrong[3, 5] = bad
        with pytest.raises(ConfigError, match="regime"):
            lookups(xi, wrong)
    for value in (0.0, -1.0):
        nonpositive = xi.copy()
        nonpositive[2, 1] = value
        with pytest.raises(ConfigError, match="positive"):
            lookups(nonpositive, regimes)


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


def test_gamma_table_at_a_paths_xi_is_the_simulated_robo_gamma(two_state_market):
    # gamma_table is linear in xi, so linear interpolation between the xi
    # nodes evaluates it at a path's xi / gamma_bar_tau(Y_tau) to rounding.
    T, phi = 9, 3
    gamma_bar = 1.0 + 0.5 * np.abs(np.sin(np.arange(2 * T + 2))).reshape(T + 1, 2)
    prof = RiskProfileParams(gamma0=3.0, alpha=0.05, p_eps=0.3, sigma_eps=0.64,
                             beta=2.0, phi=phi, gamma_bar=gamma_bar)
    tab = solve(two_state_market, prof, T, GridSpec(
        xi_count=9, xi_lo=0.05, xi_hi=200.0, zsum_count=3, quad_points=4))
    batch = simulate_clients(two_state_market, prof, T, 200,
                             np.random.default_rng(3), y0=0)
    for n in range(T):
        tau = phi * (n // phi)
        y = batch["regimes"][:, n]
        xi_tilde = batch["xi"][:, n] / gamma_bar[tau, batch["regimes"][:, tau]]
        assert tab.grid.xi[0] < xi_tilde.min() and xi_tilde.max() < tab.grid.xi[-1]
        gam = tab.gamma_table(n)
        got = [np.interp(x, tab.grid.xi, gam[:, k]) for x, k in zip(xi_tilde, y)]
        np.testing.assert_allclose(got, batch["gamma_robo"][:, n], rtol=1e-12)


@pytest.mark.parametrize("field", ["xi", "prev", "cur"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_allocation_at_rejects_non_finite_queries(single_state_market, field, bad):
    tab = solve(single_state_market, RiskProfileParams(gamma0=3.0, beta=2.0, phi=2),
                3, GridSpec(xi_count=5, zsum_count=3, quad_points=4))
    query = {"xi": np.full(3, 3.0), "prev": np.zeros(3), "cur": np.zeros(3)}
    query[field][1] = bad
    with pytest.raises(ConfigError, match=f"{field} queries must be finite"):
        tab.allocation_at(1, query["xi"], query["prev"], query["cur"], 0)
    with pytest.raises(ConfigError, match=f"{field} queries must be finite"):
        tab.allocation_at(1, *(query[k][1] for k in ("xi", "prev", "cur")), 0)


@pytest.mark.parametrize("n", [True, 1.5, -1, 3])
def test_time_index_must_be_an_integer_in_range(single_state_market, n):
    tab = solve(single_state_market, RiskProfileParams(gamma0=3.0, beta=2.0, phi=2),
                3, GridSpec(xi_count=5, zsum_count=3, quad_points=4))
    with pytest.raises(ConfigError, match="time index"):
        tab.allocation_at(n, 3.0, 0.0, 0.0, 0)
    with pytest.raises(ConfigError, match="time index"):
        step_moments(n, ReducedState(xi=3.0), tab)
    assert tab.allocation_at(np.int64(1), 3.0, 0.0, 0.0, 0) == tab.allocation_at(
        1, 3.0, 0.0, 0.0, 0)
    assert step_moments(np.int64(1), ReducedState(xi=3.0), tab) == step_moments(
        1, ReducedState(xi=3.0), tab)


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


def test_policy_with_numpy_integer_horizon_round_trips(tmp_path,
                                                       single_state_market):
    # The manifest stores a numpy-integer T as the int it equals.
    tab = solve(single_state_market, RiskProfileParams(gamma0=2.0), np.int64(2),
                GridSpec(xi_count=5))
    back = load_policy(save_policy(tab, tmp_path))
    assert type(back.T) is int and back.T == 2
    assert back.params_sha256 == tab.params_sha256


def test_numpy_float_profile_digests_like_the_python_float(tmp_path,
                                                          single_state_market):
    spec = GridSpec(xi_count=5)
    tab = solve(single_state_market, RiskProfileParams(gamma0=np.float32(3.0)), 2, spec)
    want = solve(single_state_market, RiskProfileParams(gamma0=3.0), 2, spec)
    assert tab.params_sha256 == want.params_sha256
    back = load_policy(save_policy(tab, tmp_path))
    assert back.params_sha256 == tab.params_sha256
    assert np.array_equal(back.pi, tab.pi)


def test_save_policy_leaves_no_partial_manifest(tmp_path, single_state_market):
    tab = solve(single_state_market, RiskProfileParams(gamma0=2.0), 2,
                GridSpec(xi_count=5))
    # A Decimal tally digests as a float but is not JSON serializable.
    clamps = replace(tab.solve_clamps, xi_mass=Decimal("1.0"))
    with pytest.raises(TypeError, match="Decimal"):
        save_policy(replace(tab, solve_clamps=clamps), tmp_path)
    assert not (tmp_path / "manifest.json").exists()


def test_policy_store_holds_exactly_pi_a_and_b(tmp_path, two_state_market):
    # V is derived from a and b, so the store does not hold it.
    tab = solve(two_state_market, RiskProfileParams(gamma0=3.0, beta=2.0, phi=2), 3,
                GridSpec(xi_count=5, zsum_count=3, quad_points=4))
    save_policy(tab, tmp_path)
    with zipfile.ZipFile(tmp_path / "policy.npz") as zf:
        assert zf.namelist() == ["pi.npy", "a.npy", "b.npy"]
    assert json.loads((tmp_path / "manifest.json").read_text())["format"] == 3
    assert np.array_equal(load_policy(tmp_path).V, tab.V)


def test_policy_csv_export_keeps_its_bytes(tmp_path, two_state_market):
    # SHA-256 of the four CSV slices of this solve, as written when the
    # induction still stored V: the derived V column exports the same bytes.
    prof = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=2,
                             alpha=0.02)
    tab = solve(two_state_market, prof, 4,
                GridSpec(xi_count=5, zsum_count=3, quad_points=4), bounds=(-1.0, 2.0))
    save_policy(tab, tmp_path)
    h = hashlib.sha256()
    for n in range(4):
        h.update((tmp_path / f"policy_{n:04d}.csv").read_bytes())
    assert h.hexdigest() == (
        "946cf3fbfba1a9f73732b2753e7b2e0fac65aba525899ccf555fbb2968f3aaf7")


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
    V = tables.V
    for n in range(tables.T):
        with open(outdir / f"policy_{n:04d}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["xi", "prev_sum", "cur_sum", "regime",
                        "pi_star", "a", "b", "V"])
            cols = [tables.pi[n].ravel(), tables.a[n].ravel(),
                    tables.b[n].ravel(), V[n].ravel()]
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

    pi, a, b = table(T), table(T + 1), table(T + 1)
    pi[0, 0, 0, 0, :] = [-0.0, 0.1]
    tab = PolicyTables(market=two_state_market,
                       profile=RiskProfileParams(gamma0=1.0, beta=1.0, phi=2),
                       T=T, grid=grid, pi=pi, a=a, b=b)
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


def test_policy_csv_export_of_repeated_values_matches_row_by_row_writer(
        tmp_path, two_state_market):
    # Values drawn from a small pool repeat, so each slice's strings are
    # formatted once per distinct value and shared. The pool holds -0.0 next
    # to 0.0, distinct floats that print alike at 12 digits, subnormals and
    # +-1e+-300, whose V overflows to inf.
    grid = Grid(np.geomspace(0.5, 8.0, 5), np.linspace(-0.3, 0.3, 3),
                np.linspace(-0.3, 0.3, 3), quad_points=4, num_states=2)
    T, shape = 3, grid.shape
    pool = np.array([0.0, -0.0, 0.1, np.nextafter(0.1, 1.0), 1 / 3,
                     np.nextafter(1 / 3, 0.0), 5e-324, -2.5e-310, 1e300, -1e300,
                     1e-300, -1e-300, 1.0, 2.0])
    assert "%.12g" % pool[2] == "%.12g" % pool[3] and pool[2] != pool[3]
    rng = np.random.default_rng(11)
    pi, a, b = (rng.choice(pool, (periods,) + shape) for periods in (T, T + 1, T + 1))
    pi[0, 0, 0, 0, :] = [-0.0, 0.0]
    tab = PolicyTables(market=two_state_market,
                       profile=RiskProfileParams(gamma0=1.0, beta=1.0, phi=2),
                       T=T, grid=grid, pi=pi, a=a, b=b)
    for n in range(T):
        values = np.stack([pi[n], a[n], b[n], tab.V[n]], axis=-1)
        assert 2 * np.unique(values.view(np.uint64)).size <= values.size
    save_policy(tab, tmp_path / "new")
    (tmp_path / "old").mkdir()
    _old_csv_export(tab, tmp_path / "old")
    text = b""
    for n in range(T):
        name = f"policy_{n:04d}.csv"
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "old" / name).read_bytes()
        text += new
    for printed in (b",-0,", b",0,", b"e-324", b"e-310", b"e+300", b"inf"):
        assert printed in text


def test_policy_csv_export_transient_memory(tmp_path, two_state_market):
    # The benchmark's solve: beta=2, phi=3, T=3 on the default grid. Its
    # slices repeat most values; formatting every value gave a 11.6 MB peak,
    # one string per distinct value 10.8 MB (tracemalloc, numpy 2.4).
    prof = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tab = solve(two_state_market, prof, 3, GridSpec())
    tracemalloc.start()
    try:
        save_policy(tab, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.2e6


@pytest.mark.parametrize("market, beta, phi, block", [
    ("two_state_market", 0.0, 3, (1, 1, 2)),
    ("two_state_market", 2.0, 1, (3, 1, 2)),
    ("single_state_market", 2.0, 3, (3, 3, 1)),
    ("single_state_market", 0.0, 1, (1, 1, 1)),
], ids=["beta0", "phi1", "one-regime", "one-row"])
def test_policy_csv_export_block_shapes_match_row_by_row_writer(
        tmp_path, request, market, beta, phi, block):
    # save_policy writes each slice one xi node at a time, a block of
    # Np*Nc*M rows: beta=0 collapses both window axes, phi=1 the cur axis,
    # a one-regime market the regime axis, and all three leave one row.
    prof = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64, beta=beta, phi=phi)
    tab = solve(request.getfixturevalue(market), prof, 3,
                GridSpec(xi_count=5, zsum_count=3, quad_points=4))
    assert tab.grid.shape == (5, *block)
    save_policy(tab, tmp_path / "new")
    (tmp_path / "old").mkdir()
    _old_csv_export(tab, tmp_path / "old")
    for n in range(3):
        name = f"policy_{n:04d}.csv"
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "old" / name).read_bytes()
        assert new.count(b"\r\n") == 1 + 5 * math.prod(block)


def test_policy_csv_export_transient_memory_of_distinct_slices(tmp_path,
                                                               two_state_market):
    # The benchmark's profile at T=6: slices 0 and 1 are 99.7% and 96.6%
    # distinct, so nearly every value of them is formatted. One slice's
    # strings at a time, written in per-xi-node blocks, gave an 18.5 MB peak;
    # a %-template of the whole slice, with the previous slice's strings
    # still alive, 29.5 MB (tracemalloc, numpy 2.4).
    prof = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64, beta=2.0, phi=3)
    tab = solve(two_state_market, prof, 6, GridSpec())
    values = np.stack([tab.pi[0], tab.a[0], tab.b[0], tab.V[0]], axis=-1)
    assert np.unique(values.view(np.uint64)).size >= 0.95 * values.size
    tracemalloc.start()
    try:
        save_policy(tab, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


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
                shift = tabs.interaction_shift(n)
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
    # the shift is exactly zero. gamma_bar is a scalar, one value per regime
    # or a (T+1, M) table, for every phi.
    eta = (np.array([draw(st.floats(-0.5, 0.5)) for _ in range(T + 1)])
           if draw(st.booleans()) else None)
    rows = draw(st.sampled_from([0, 1, T + 1]))
    if rows == 0:
        gamma_bar = 0.5 + 2.0 * draw(_unit)
    else:
        gamma_bar = 0.5 + 2.0 * np.array(
            [[draw(_unit) for _ in range(M)] for _ in range(rows)])
        gamma_bar = gamma_bar[0] if rows == 1 else gamma_bar
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
    """An aging client (alpha > 0), so the interaction shift, and with it
    the xi positions, differ from one interaction step to the next, under a
    gamma_bar that swings in time and with the regime."""
    market = MarketParams(
        num_states=2, transition=np.array([[0.9, 0.1], [0.3, 0.7]]),
        risk_free=np.array([0.02, 0.0]), mean_return=np.array([0.08, 0.14]),
        vol_return=np.array([0.15, 0.25]), steps_per_year=12,
    )
    T = 7
    swing = 1.0 + 0.6 * np.sin(np.arange(T + 1))[:, None]
    gamma_bar = swing * np.array([[1.0, 1.4]])
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
        # the operators take regime-major tables and give regime-major moments
        got = ops.slice_expectations(
            n, [(np.moveaxis(tbl, -1, 0), j) for tbl, j in specs], got_clamps)
        got = [np.moveaxis(g, 1, -1) for g in got]
        assert asdict(got_clamps) == asdict(want_clamps)
        for (tbl, j_top), w, g in zip(specs, want, got):
            assert g.shape == w.shape
            for j in range(j_top + 1):
                scale = np.max(np.abs(tbl)) * np.max(np.abs(zt) ** j @ gh_w)
                assert np.max(np.abs(g[j] - w[j])) <= 1e-12 * scale


def test_step_operators_count_rounded_edge_nodes_like_the_loop_kernel(
        two_state_market):
    # On this axis the locator's position of the last xi node rounds past
    # the edge; a lookup exactly on it is still not clamped, in either
    # engine.
    grid = Grid(np.geomspace(1 / 3.7, 3.7, 8), np.zeros(1), np.zeros(1),
                quad_points=5, num_states=2)
    span = grid.logxi[-1] - grid.logxi[0]
    assert span / (span / 7) > 7
    assert _locate(grid.logxi, grid.logxi)[2] == 0
    profile = RiskProfileParams(gamma0=1.0, p_eps=0.05, sigma_eps=0.64)
    tabs = _ProfileTables(two_state_market, profile, 2)
    specs = [(np.ones(grid.shape), 1), (np.ones(grid.shape), 2)]
    want_clamps, got_clamps = ClampCounters(), ClampCounters()
    _loop_slice_expectations(0, specs, two_state_market, tabs, grid, want_clamps)
    _StepOperators(two_state_market, tabs, grid, 2).slice_expectations(
        0, [(np.moveaxis(tbl, -1, 0), j) for tbl, j in specs], got_clamps)
    assert asdict(got_clamps) == asdict(want_clamps)


def test_solve_books_no_clamped_mass_at_a_rounded_edge_node(two_state_market):
    # On gamma0/32..32 gamma0 with 101 nodes the locator's position of the
    # last node rounds past the edge. The 99- and 103-node axes clamp 0.0038
    # and 0.0037 of the mass, and so should this one; an edge node counted
    # as clamped reads 0.0132.
    profile = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64)
    spec = GridSpec(xi_count=101, xi_lo=3.0 / 32, xi_hi=3.0 * 32)
    tables = solve(two_state_market, profile, 1, spec)
    assert tables.solve_clamps.xi_fraction < 0.005


# -- the regime-major core against the regime-last one ---------------------------


def _add_at_interp_matrix(nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
    """The per-query interpolation matrix the batched `_interp_matrix`
    replaced: clamped linear interpolation at the 1-D queries x.

    Row k holds the weights _locate gives x[k], so `matrix @ values`
    interpolates one value per node at every query. Also returns the number
    of clamped queries.
    """
    idx, frac, n_clamped = _locate(nodes, x)
    mat = np.zeros((len(x), len(nodes)))
    rows = np.arange(len(x))
    np.add.at(mat, (rows, idx), 1.0 - frac)
    np.add.at(mat, (rows, np.minimum(idx + 1, len(nodes) - 1)), frac)
    return mat, n_clamped


class _RegimeLastOperators(_StepOperators):
    """The regime-last step operators the regime-major ones replaced,
    verbatim: tables (Nxi, Np, Nc, M) in, moments (J, Nxi, Np, Nc, M) out,
    with the interpolation matrices built one query row at a time. The xi
    positions of the interaction step are unchanged and inherited."""

    def __init__(self, market: MarketParams, tabs: _ProfileTables, grid: Grid,
                 jmax: int):
        Nxi, Np, Nc, M = grid.shape
        self.grid, self.tabs, self.P = grid, tabs, market.transition
        gh_x, gh_w = _gh_nodes(grid.quad_points)
        Q, J = len(gh_x), jmax + 1
        self.gh_w = gh_w
        dm = math.sqrt(2.0) * market.sigma_step[:, None] * gh_x  # (M, Q)
        zt = dm + market.mu_step[:, None] - market.r_step[:, None]
        # powers[j, y, q] = w_q zt^j
        powers = np.empty((J, M, Q))
        powers[0] = gh_w
        for j in range(1, J):
            powers[j] = powers[j - 1] * zt

        # Plain step: cur picks up the return, xi and prev are frozen, so
        # sum_q w_q zt^j Interp_q along cur is one Nc x Nc matrix per (y, j),
        # stacked j-major as C[y, j*Nc + c_out, c_in].
        C = np.zeros((M, J, Nc, Nc))
        self._plain_tally = []
        # Interaction step, prev axis: the completed window w = cur + dm.
        self._prev_interp = np.empty((M, Q, Nc, Np))
        self._prev_clamped = np.empty((M, Q), dtype=int)
        for y in range(M):
            for q in range(Q):
                wv = grid.cur + dm[y, q]
                mat, ncl = _add_at_interp_matrix(grid.cur, wv)
                if Nc > 1:
                    self._plain_tally.append((gh_w[q], Nc, ncl))
                C[y] += powers[:, y, q, None, None] * mat
                self._prev_interp[y, q], self._prev_clamped[y, q] = _add_at_interp_matrix(
                    grid.prev, wv)
        self._C = C.reshape(M, J * Nc, Nc)

        # Jump-shock smoothing along log xi: one Nxi x Nxi matrix, with its
        # first and last rows repeated Nxi times on either side so that a
        # window starting anywhere in [0, 2 Nxi) reads the clamped table.
        K = np.zeros((Nxi, Nxi))
        self._smooth_tally = []
        for weight, mean, sd in _jump_mixture(tabs.profile):
            if sd == 0.0:
                K += weight * np.eye(Nxi)
                continue
            for xq, wq in zip(gh_x, gh_w):
                mat, ncl = _add_at_interp_matrix(
                    grid.logxi, grid.logxi + (mean + sd * math.sqrt(2.0) * xq)
                )
                self._smooth_tally.append((weight * wq, Nxi, ncl))
                K += (weight * wq) * mat
        self._K_padded = K[np.clip(np.arange(-Nxi, 2 * Nxi), 0, Nxi - 1)]

        # Interaction step, xi axis: the displacement of log xi depends on
        # (y, q, p, c) but not on the xi node. Keep the operands of the
        # unclamped locator position, t = (logxi + bp prev + shift - bp w
        # - logxi[0]) / step, in the order the locator rounds them.
        bp = tabs.beta / tabs.phi
        self._base = grid.logxi[:, None] + bp * grid.prev[None, :]  # (Nxi, Np)
        self._bp_w = bp * (grid.cur + dm[:, :, None])  # (M, Q, Nc)
        self._xi_step = (grid.logxi[-1] - grid.logxi[0]) / (Nxi - 1)
        self._powers = powers
        # The last interaction shift and its xi positions: with no trend the
        # shift repeats at every interaction step.
        self._xi_cache: tuple[float, tuple] | None = None

    def slice_expectations(self, n: int, specs: list[tuple[np.ndarray, int]],
                           counters: ClampCounters) -> list[np.ndarray]:
        """Conditional moments E[Ztilde^j X(next state)] over the whole grid.

        For each (X_table, max_power) in `specs`, returns an array of shape
        (max_power+1,) + grid.shape whose j-th entry is the conditional
        expectation of Ztilde^j times X evaluated at the transitioned state,
        given the time-n reduced state at each grid point. Clamped quadrature
        mass is added to `counters`.
        """
        if (n + 1) % self.tabs.phi == 0:
            return self._interaction(n, specs, counters)
        for weight, total, ncl in self._plain_tally:
            counters.add_window(weight, total, ncl)
        Nxi, Np, Nc, M = self.grid.shape
        out = []
        for tbl, jmax in specs:
            # contract the next-regime sum first: nxt[..., y] given current y
            nxt = tbl @ self.P.T
            acc = np.empty((jmax + 1,) + tbl.shape)
            for y in range(M):
                res = nxt[..., y] @ self._C[y, : (jmax + 1) * Nc].T
                acc[..., y] = np.moveaxis(res.reshape(Nxi, Np, jmax + 1, Nc), 2, 0)
            out.append(acc)
        return out


    def _interaction(self, n, specs, counters):
        """The window completes (w = cur + next demeaned return), xi jumps,
        cur resets to zero. The jump-shock sum is independent of the return
        and displaces only log xi, so it is integrated first (the smoothing
        matrix); then the return quadrature interpolates along prev (a
        matrix per node) and along log xi (a window gather, since every xi
        node moves by the same amount)."""
        Nxi, Np, Nc, M = self.grid.shape
        Q = len(self.gh_w)
        start, frac, n_clamped = self._xi_positions(n)
        for _ in specs:
            for weight, total, ncl in self._smooth_tally:
                counters.add_xi(weight, total, ncl)
        for y in range(M):
            for q in range(Q):
                if Np > 1:
                    counters.add_window(self.gh_w[q], Nc, int(self._prev_clamped[y, q]))
                for y2 in range(M):
                    if self.P[y, y2] != 0.0:  # weight w_q P[y, y']
                        counters.add_xi(self.gh_w[q] * self.P[y, y2], Nxi * Np * Nc,
                                        int(n_clamped[y, q]))

        S, J = len(specs), max(jmax for _, jmax in specs) + 1
        ic0 = self.grid.cur_zero_index
        # table0[xi, prev, y, spec]: the next-regime sum given current y
        table0 = np.stack([tbl[:, :, ic0, :] @ self.P.T for tbl, _ in specs], axis=-1)
        smoothed = np.tensordot(self._K_padded, table0, axes=(1, 0))
        # rows[y, prev, padded xi, spec], flattened for the prev interpolation
        smoothed = np.ascontiguousarray(smoothed.transpose(2, 1, 0, 3)).reshape(
            M, Np, 3 * Nxi * S)
        # start and frac as (y, p, c, q): one batch per (p, c)
        start = start.transpose(0, 2, 3, 1)
        frac = frac.transpose(0, 2, 3, 1).reshape(M, Np * Nc, 1, Q)
        out = [np.empty((jmax + 1,) + self.grid.shape) for _, jmax in specs]
        for y in range(M):
            acc = np.zeros((Np * Nc, J, Nxi * S))
            for q0 in range(0, Q, _Q_CHUNK):
                qs = slice(q0, min(q0 + _Q_CHUNK, Q))
                Qc = qs.stop - qs.start
                rows = (self._prev_interp[y, qs] @ smoothed[y]).reshape(
                    Qc, Nc, 3 * Nxi, S)
                # every window of Nxi+1 consecutive xi rows, each contiguous
                st = rows.strides
                windows = np.lib.stride_tricks.as_strided(
                    rows, shape=(Qc, Nc, 2 * Nxi, (Nxi + 1) * S),
                    strides=st[:3] + (st[3],), writeable=False)
                W = windows[np.arange(Qc), np.arange(Nc)[:, None],
                            start[y, :, :, qs]].reshape(Np * Nc, Qc, -1)
                # sum over q of coef * ((1-f) row_i + f row_i+1)
                coef = self._powers[:J, y, qs]
                f = frac[y, :, :, qs]
                acc += ((coef * (1.0 - f)) @ W[:, :, : Nxi * S]
                        + (coef * f) @ W[:, :, S:])
            # (p, c, j, xi, spec) -> (j, xi, p, c) per spec
            acc = acc.reshape(Np, Nc, J, Nxi, S)
            for k, (_, jmax) in enumerate(specs):
                out[k][..., y] = acc[:, :, : jmax + 1, :, k].transpose(2, 3, 0, 1)
        return out


def _regime_last_solve(market, profile, T, grid, bounds):
    """The regime-last backward induction `solve` ran before its core went
    regime-major, verbatim: (pi, a, b, V, clamp tallies), no clamp cap."""
    g = _solve_grid(grid, market, profile)
    tabs = _ProfileTables(market, profile, T)

    shape = g.shape
    pi = np.empty((T,) + shape)
    a = np.empty((T + 1,) + shape)
    b = np.empty((T + 1,) + shape)
    V = np.empty((T,) + shape)
    a[T] = 1.0
    b[T] = 1.0
    counters = ClampCounters()
    R = market.R_step  # broadcast over the trailing regime axis

    # Overflow and invalid operations surface as NumericalError below, not
    # as warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ops = _RegimeLastOperators(market, tabs, g, jmax=2)
        for n in range(T - 1, -1, -1):
            ma, mb = ops.slice_expectations(
                n, [(a[n + 1], 1), (b[n + 1], 2)], counters
            )
            mu_a, mu_az = ma[0], ma[1]
            mu_b, mu_bz, mu_bz2 = mb[0], mb[1], mb[2]
            gam = tabs.gamma_slice(n, g.xi)[:, None, None, :]
            denom = mu_bz2 - mu_az**2
            _require_finite("second-moment denominator", denom, n)
            if np.any(denom <= 0.0):
                worst = float(denom.min())
                raise DegenerateVariance(
                    f"nonpositive second-moment denominator ({worst:.3e}) at n={n}"
                )
            p_n = (mu_az - R * gam * (mu_bz - mu_a * mu_az)) / (gam * denom)
            _require_finite("allocation", p_n, n)
            if bounds is not None:
                p_n = np.clip(p_n, bounds[0], bounds[1])
            pi[n] = p_n
            a[n] = R * mu_a + p_n * mu_az
            b[n] = R * R * mu_b + 2.0 * R * p_n * mu_bz + p_n**2 * mu_bz2
            _require_finite("moment table a", a[n], n)
            _require_finite("moment table b", b[n], n)
            V[n] = a[n] - 1.0 - 0.5 * gam * (b[n] - a[n] ** 2)
    return pi, a, b, V, counters


def _regime_last_moment_m(m, policy, state, n):
    """`moment_m` on the regime-last operators, verbatim."""
    market, grid = policy.market, policy.grid
    tabs = _ProfileTables(market, policy.profile, policy.T)
    counters = ClampCounters()
    ops = _RegimeLastOperators(market, tabs, grid, jmax=m)
    R = market.R_step
    binom = [math.comb(m, j) for j in range(m + 1)]
    cur = np.ones(grid.shape)
    # Overflow and invalid operations surface as NumericalError, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(policy.T - 1, n - 1, -1):
            (zm,) = ops.slice_expectations(k, [(cur, m)], counters)
            p_k = policy.pi[k]
            nxt = np.zeros(grid.shape)
            for j in range(m + 1):
                nxt += binom[j] * R ** (m - j) * p_k**j * zm[j]
            _require_finite(f"moment {m} table", nxt, k)
            cur = nxt

    return float(_interp3(grid, cur, math.log(state.xi), state.prev_window_sum,
                          state.cur_window_sum, state.regime))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_interp_matrix_matches_per_query_build(n_nodes, rows, k, seed):
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(-1.0, 1.0) + np.arange(n_nodes) * 0.37
    # queries inside, outside and exactly on the nodes
    x = rng.uniform(nodes[0] - 1.0, nodes[-1] + 1.0, (rows, k))
    x[0, 0] = nodes[-1]
    mats, clamped = _interp_matrix(nodes, x)
    assert mats.shape == (rows, k, n_nodes) and clamped.shape == (rows,)
    for r in range(rows):
        want, want_clamped = _add_at_interp_matrix(nodes, x[r])
        assert np.array_equal(mats[r], want)
        assert clamped[r] == want_clamped


@st.composite
def _solve_cases(draw):
    """A solve request: 1-4 regimes with zero transition entries, phi 1..6,
    beta zero (single-node window axes) or not, an aging client or not, a
    scalar or regime-varying gamma_bar, 3 or 21 window nodes (zsum_count 2
    rounds up to 3), with or without bounds."""
    M = draw(st.integers(1, 4))
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
    gamma_bar = (vector(0.5, 2.0) if draw(st.booleans())
                 else 0.5 + 1.5 * draw(_unit))
    profile = RiskProfileParams(
        gamma0=1.0 + 7.0 * draw(_unit), alpha=draw(st.sampled_from([0.0, 0.03])),
        p_eps=draw(st.sampled_from([0.0, 0.05, 0.3])),
        sigma_eps=0.1 + 0.7 * draw(_unit), beta=draw(st.sampled_from([0.0, 2.0])),
        phi=draw(st.integers(1, 6)), gamma_bar=gamma_bar,
    )
    spec = GridSpec(xi_count=draw(st.integers(3, 9)),
                    zsum_count=draw(st.sampled_from([2, 3, 21])),
                    quad_points=draw(st.integers(2, 8)))
    bounds = draw(st.sampled_from([None, (-0.5, 1.0), (0.0, 0.6)]))
    return market, profile, spec, draw(st.integers(1, 10)), bounds


@settings(max_examples=40, deadline=None)
@given(_solve_cases(), st.data())
def test_regime_major_solve_matches_regime_last_loop(case, data):
    market, profile, spec, T, bounds = case
    *want, want_clamps = _regime_last_solve(market, profile, T, spec, bounds)
    if want_clamps.xi_fraction > spec.max_clamp_fraction:
        with pytest.raises(GridExhausted):
            solve(market, profile, T, spec, bounds)
        return
    tab = solve(market, profile, T, spec, bounds)
    for name, w in zip(("pi", "a", "b", "V"), want):
        assert np.array_equal(getattr(tab, name), w), name
    assert tab.solve_clamps == want_clamps

    g = tab.grid
    state = ReducedState(
        xi=float(g.xi[0]) * data.draw(st.floats(0.5, 2.0)) ** 2,
        prev_window_sum=float(g.prev[-1]) * data.draw(st.floats(-1.2, 1.2)),
        cur_window_sum=float(g.cur[-1]) * data.draw(st.floats(-1.2, 1.2)),
        regime=data.draw(st.integers(0, market.num_states - 1)),
    )
    n = data.draw(st.integers(0, T - 1))
    for m in range(1, 5):
        assert moment_m(m, tab, state, n) == _regime_last_moment_m(m, tab, state, n)


@settings(max_examples=40, deadline=None)
@given(_solve_cases())
def test_backward_steps_yield_the_solved_pi(case):
    # The S measure reads the unbounded induction one period at a time, each
    # allocation slab put regime last into one reused slice; solve's bounded
    # cases are covered by the regime-last oracle test.
    market, profile, spec, T, _ = case
    g = _checked_grid(market, profile, T, spec)
    steps = _backward_steps(market, profile, T, g, None, ClampCounters())
    try:
        want = solve(market, profile, T, spec)
    except GridExhausted:
        with pytest.raises(GridExhausted):
            list(steps)
        return
    assert g.to_dict() == want.grid.to_dict()
    pi_n = np.empty(g.shape)
    times = []
    for n, p_n, _, _ in steps:
        _put_regime_last(pi_n, p_n)
        assert np.array_equal(pi_n, want.pi[n])
        times.append(n)
    assert times == list(range(T - 1, -1, -1))


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
