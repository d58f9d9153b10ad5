"""Tests for forward wealth simulation and distribution statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robo_mv.cycle_analytics import CycleStrategy, inputs_from_market, sharpe_delta
from robo_mv.errors import ConfigError, InsufficientSamples
from robo_mv.market import MarketParams, sample_paths
from robo_mv.montecarlo import (
    SimConfig,
    _chunk_returns,
    annualized,
    long_run_sharpe,
    simulate,
    stats,
)
from robo_mv.risk_profile import RiskProfileParams, simulate_clients, window_sums
from robo_mv.solver import GridSpec, constrain, liquidation_overlay, solve


@pytest.fixture
def small_policy(single_state_market):
    profile = RiskProfileParams(gamma0=3.0, p_eps=0.0)
    return profile, solve(single_state_market, profile, 8, GridSpec(xi_count=5))


# -- configuration -------------------------------------------------------------


def test_config_validation(two_state_market, small_policy):
    profile, policy = small_policy
    good = dict(market=two_state_market, strategy=CycleStrategy(0.6), T=12,
                n_paths=100)
    SimConfig(**good)
    for bad in (
        {"T": 0},
        {"n_paths": 0},
        {"x0": 0.0},
        {"x0": -1.0},
        {"y0": 2},
        {"bounds": (1.0, 0.0)},
        {"x0": float("inf")},
        {"x0": float("nan")},
        {"bounds": (0.0, float("nan"))},
        {"bounds": (float("-inf"), 1.0)},
        {"strategy": object()},
    ):
        with pytest.raises(ConfigError):
            SimConfig(**{**good, **bad})
    # A solved policy needs its client profile and enough solved horizon.
    with pytest.raises(ConfigError):
        SimConfig(market=policy.market, strategy=policy, T=8, n_paths=10)
    with pytest.raises(ConfigError):
        SimConfig(market=policy.market, strategy=policy, T=9, n_paths=10,
                  profile=profile)
    SimConfig(market=policy.market, strategy=policy, T=8, n_paths=10,
              profile=profile)


# -- wealth recursion ----------------------------------------------------------


def test_zero_allocation_compounds_at_risk_free():
    market = MarketParams(
        num_states=1, transition=np.array([[1.0]]),
        risk_free=np.array([0.048]), mean_return=np.array([0.10]),
        vol_return=np.array([0.20]), steps_per_year=12,
    )
    cfg = SimConfig(market=market, strategy=CycleStrategy(1e-12), T=18,
                    n_paths=50, seed=3)
    r = simulate(cfg)
    expected = (1.0 + 0.048 / 12) ** 18 - 1.0
    np.testing.assert_allclose(r, expected, rtol=1e-9)


def test_seed_determinism_and_thread_independence(two_state_market):
    cfg = SimConfig(market=two_state_market, strategy=CycleStrategy(0.6, 0.3),
                    T=30, n_paths=70_000, seed=11)
    a = simulate(cfg)
    assert np.array_equal(a, simulate(cfg))
    assert np.array_equal(a, simulate(cfg, threads=4))
    with pytest.raises(ConfigError):
        simulate(cfg, threads=0)


def test_early_chunks_unaffected_by_total_path_count(two_state_market):
    base = dict(market=two_state_market, strategy=CycleStrategy(0.6), T=12, seed=21)
    a = simulate(SimConfig(n_paths=32_768, **base))
    b = simulate(SimConfig(n_paths=33_000, **base))
    assert np.array_equal(a, b[:32_768])


def test_total_returns_independent_of_initial_wealth(two_state_market):
    base = dict(market=two_state_market, strategy=CycleStrategy(0.6, -0.3),
                T=24, n_paths=500, seed=8)
    a = simulate(SimConfig(x0=1.0, **base))
    b = simulate(SimConfig(x0=4.0, **base))
    assert np.array_equal(a, b)


def test_cycle_returns_match_growth_factor_product(two_state_market):
    cfg = SimConfig(market=two_state_market, strategy=CycleStrategy(0.6, 0.3),
                    T=40, n_paths=300, seed=77)
    got = simulate(cfg)

    rng = np.random.default_rng(np.random.SeedSequence(77).spawn(1)[0])
    regimes, returns = sample_paths(two_state_market, 0, 40, 300, rng)
    y = regimes[:, :-1]
    alloc = np.array([0.6, 0.78])[y]
    growth = (two_state_market.R_step[y]
              + alloc * (returns - two_state_market.r_step[y]))
    expected = np.prod(growth, axis=1) - 1.0
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_policy_returns_match_deterministic_fraction_product(
    single_state_market, small_policy
):
    # With no idiosyncratic shocks and no bias the policy allocation is a
    # deterministic function of time, so terminal wealth has a product form
    # that can be rebuilt outside the simulator.
    profile, policy = small_policy
    T, n = 8, 400
    cfg = SimConfig(market=single_state_market, strategy=policy, T=T,
                    n_paths=n, seed=13, profile=profile)
    got = simulate(cfg)

    xi0 = np.array([3.0])
    frac = np.array([
        float(policy.allocation_at(n_, xi0, np.zeros(1), np.zeros(1), 0)[0])
        for n_ in range(T)
    ])
    assert np.std(frac) > 1e-6  # time-varying, not a disguised fixed mix

    rng = np.random.default_rng(np.random.SeedSequence(13).spawn(1)[0])
    from robo_mv.risk_profile import simulate_clients

    batch = simulate_clients(single_state_market, profile, T, n, rng)
    growth = (single_state_market.R_step[0]
              + frac[None, :] * (batch["returns"] - single_state_market.r_step[0]))
    expected = np.prod(growth, axis=1) - 1.0
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


def _path_major_chunk_returns(config, m, rng):
    """The path-major wealth loop that the time-major recursion replaced,
    kept verbatim as the bit-exact reference."""
    market, T = config.market, config.T
    if isinstance(config.strategy, CycleStrategy):
        regimes, returns = sample_paths(market, config.y0, T, m, rng)
        alloc = np.asarray(config.strategy.allocations(market.num_states))
        if config.bounds is not None:
            alloc = constrain(alloc, *config.bounds)

        def frac_at(n, y):
            return alloc[y]

    else:
        policy = config.strategy
        batch = simulate_clients(market, config.profile, T, m, rng, y0=config.y0)
        regimes, returns = batch["regimes"], batch["returns"]
        phi = config.profile.phi

        def frac_at(n, y):
            prev, cur = window_sums(batch["window_csum"], phi, n)
            f = policy.allocation_at(n, batch["xi"][:, n], prev, cur, y)
            if config.bounds is not None:
                f = constrain(f, *config.bounds)
            return f

    r_step, R_step = market.r_step, market.R_step
    X = np.full(m, float(config.x0))
    for n in range(T):
        y = regimes[:, n]
        f = frac_at(n, y)
        dollars = liquidation_overlay(X, f) if config.liquidate else f * X
        X = R_step[y] * X + (returns[:, n] - r_step[y]) * dollars
    return X / config.x0 - 1.0


def _assert_matches_path_major_loop(config, m, seed):
    want = _path_major_chunk_returns(config, m, np.random.default_rng(seed))
    got = _chunk_returns(config, m, np.random.default_rng(seed))
    assert got.shape == (m,)
    assert np.array_equal(got, want)


@st.composite
def _fixed_mix_cases(draw):
    M = draw(st.integers(1, 3))
    transition = np.array([
        draw(st.lists(st.floats(0.05, 1.0), min_size=M, max_size=M))
        for _ in range(M)
    ])
    transition /= transition.sum(axis=1, keepdims=True)
    market = MarketParams(
        num_states=M, transition=transition,
        risk_free=np.linspace(0.0, 0.03, M), mean_return=np.linspace(0.05, 0.15, M),
        vol_return=np.linspace(0.1, 0.3, M), steps_per_year=12,
    )
    # Large fractions drive wealth negative, so the overlay fires.
    strategy = CycleStrategy(draw(st.floats(0.1, 30.0)), draw(st.floats(-0.9, 2.0)))
    bounds = None
    if draw(st.booleans()):
        lo = draw(st.floats(-5.0, 5.0))
        bounds = (lo, lo + draw(st.floats(0.0, 20.0)))
    config = SimConfig(market=market, strategy=strategy, T=draw(st.integers(1, 60)),
                       n_paths=1, y0=draw(st.integers(0, M - 1)),
                       x0=draw(st.floats(0.01, 100.0)), bounds=bounds,
                       liquidate=draw(st.booleans()))
    return config, draw(st.integers(1, 300)), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None)
@given(_fixed_mix_cases())
def test_time_major_recursion_matches_path_major_loop(case):
    _assert_matches_path_major_loop(*case)


@pytest.mark.parametrize("bounds, liquidate", [(None, False), ((-0.5, 3.0), True)])
def test_time_major_recursion_matches_path_major_loop_under_a_policy(
        two_state_market, bounds, liquidate):
    profile = RiskProfileParams(gamma0=3.0, p_eps=0.3, sigma_eps=0.64, beta=2.0,
                                phi=2)
    policy = solve(two_state_market, profile, 6,
                   GridSpec(xi_count=7, zsum_count=5, quad_points=5))
    config = SimConfig(market=two_state_market, strategy=policy, T=6, n_paths=1,
                       profile=profile, y0=1, x0=2.0, bounds=bounds,
                       liquidate=liquidate)
    _assert_matches_path_major_loop(config, 500, 29)


def test_liquidation_overlay_inert_with_unit_bounds(two_state_market):
    base = dict(market=two_state_market, strategy=CycleStrategy(0.6), T=120,
                n_paths=20_000, seed=42, bounds=(0.0, 1.0))
    off = simulate(SimConfig(liquidate=False, **base))
    on = simulate(SimConfig(liquidate=True, **base))
    # Bounded fractions keep wealth positive here, so the overlay never fires.
    assert np.array_equal(off, on)


def test_liquidation_overlay_absorbs_ruined_paths(single_state_market):
    base = dict(market=single_state_market, strategy=CycleStrategy(40.0),
                T=24, n_paths=2_000, seed=6)
    off = simulate(SimConfig(liquidate=False, **base))
    on = simulate(SimConfig(liquidate=True, **base))
    assert not np.array_equal(off, on)

    # Replay the overlay recursion independently.
    rng = np.random.default_rng(np.random.SeedSequence(6).spawn(1)[0])
    regimes, returns = sample_paths(single_state_market, 0, 24, 2_000, rng)
    R = float(single_state_market.R_step[0])
    r = float(single_state_market.r_step[0])
    X = np.ones(2_000)
    ruined = 0
    for n in range(24):
        dollars = np.where(X >= 0.0, 40.0 * X, 0.0)
        X = R * X + (returns[:, n] - r) * dollars
        ruined = max(ruined, int((X < 0).sum()))
    assert ruined > 0
    np.testing.assert_allclose(on, X - 1.0, rtol=1e-12, atol=1e-12)


def test_regime_occupation_matches_chain_theory(two_state_market):
    T, n = 120, 20_000
    regimes, _ = sample_paths(two_state_market, 0, T, n,
                              np.random.default_rng(1234))
    occ = (regimes[:, :T] == 1).mean(axis=1)
    powers = np.eye(2)
    theory = 0.0
    for _ in range(T):
        theory += powers[0, 1] / T
        powers = powers @ two_state_market.transition
    se = occ.std(ddof=1) / math.sqrt(n)
    assert abs(occ.mean() - theory) < 3 * se


# -- summary statistics ----------------------------------------------------------


def test_stats_small_sample_oracle():
    s = stats([0.1, -0.2, 0.3, 0.0])
    assert s.mean == pytest.approx(0.05, abs=1e-15)
    assert s.sd == pytest.approx(0.20816659994661327, rel=1e-14)
    assert s.skewness == pytest.approx(0.0, abs=1e-14)
    assert s.kurtosis == pytest.approx(1.8520710059171597, rel=1e-13)
    assert s.var90 == pytest.approx(0.14, rel=1e-12)
    assert s.var95 == pytest.approx(0.17, rel=1e-12)
    assert s.var99 == pytest.approx(0.194, rel=1e-12)


def test_stats_gaussian_sample():
    x = np.random.default_rng(0).standard_normal(1_000_000)
    s = stats(x)
    assert s.skewness == pytest.approx(0.0, abs=0.01)
    assert s.kurtosis == pytest.approx(3.0, abs=0.02)
    assert s.mean == pytest.approx(0.0, abs=0.005)
    assert s.sd == pytest.approx(1.0, abs=0.005)
    assert s.var95 == pytest.approx(1.6449, abs=0.01)


def test_stats_constant_sample():
    s = stats([0.25] * 10)
    assert s.sd == 0.0
    assert s.mean == 0.25
    assert s.var90 == -0.25 and s.var99 == -0.25
    assert math.isnan(s.skewness) and math.isnan(s.kurtosis)


def test_stats_needs_two_samples():
    with pytest.raises(InsufficientSamples):
        stats([0.1])


def test_stats_shape_inequalities_hold():
    rng = np.random.default_rng(31415)
    for _ in range(200):
        kind = rng.integers(3)
        if kind == 0:
            x = rng.standard_normal(60)
        elif kind == 1:
            x = rng.exponential(2.0, size=60)
        else:
            x = rng.standard_t(df=5, size=60)
        s = stats(x)
        assert s.sd >= 0.0
        assert s.kurtosis >= 1.0 + s.skewness**2 - 1e-9


# -- annualization ----------------------------------------------------------------


def test_annualized_round_trip():
    g = 0.07
    total = (1.0 + g) ** 10 - 1.0  # T=120 monthly steps = 10 years
    rates, excluded = annualized(np.full(5, total), 120, 12)
    assert excluded == 0
    np.testing.assert_allclose(rates, g, rtol=1e-12)
    rates, _ = annualized(np.zeros(3), 120, 12)
    assert np.all(rates == 0.0)


def test_annualized_excludes_ruined_paths():
    rates, excluded = annualized([-1.0, -1.5, 0.2], 24, 12)
    assert excluded == 2
    assert rates.shape == (1,)
    assert rates[0] == pytest.approx(1.2**0.5 - 1.0, rel=1e-14)


def test_annualized_validation():
    with pytest.raises(ConfigError):
        annualized([0.1], 0, 12)
    with pytest.raises(ConfigError):
        annualized([0.1], 24, 0)


# -- long-run Sharpe ratio ---------------------------------------------------------


def test_long_run_sharpe_single_state(single_state_market):
    est = long_run_sharpe(CycleStrategy(0.6), single_state_market, 200_000, seed=4)
    target = float(single_state_market.mu_tilde_step[0]
                   / single_state_market.sigma_step[0])
    se = math.sqrt((1.0 + target**2 / 2.0) / 200_000)
    assert abs(est - target) < 3 * se


def test_long_run_sharpe_scale_invariant_in_one_state(single_state_market):
    a = long_run_sharpe(CycleStrategy(0.5), single_state_market, 20_000, seed=9)
    b = long_run_sharpe(CycleStrategy(1.0), single_state_market, 20_000, seed=9)
    assert a == b


def test_long_run_sharpe_matches_closed_form(two_state_market):
    target = sharpe_delta(0.0, inputs_from_market(two_state_market))
    runs = [
        long_run_sharpe(CycleStrategy(0.6), two_state_market, 200_000, seed=s)
        for s in range(6)
    ]
    se = np.std(runs, ddof=1) / math.sqrt(len(runs))
    assert abs(np.mean(runs) - target) < 3 * se


def _loop_long_run_sharpe(strategy, market, total_steps, seed, y0=0):
    """The scalar chain loop that long_run_sharpe used before it was built on
    sample_paths, kept verbatim as the bit-exact reference."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(market.transition, axis=1)
    cum[:, -1] = 1.0
    rows = [tuple(row) for row in cum]
    u = rng.random(total_steps)
    ys = np.empty(total_steps, dtype=np.int64)
    y = int(y0)
    for n in range(total_steps):
        ys[n] = y
        row = rows[y]
        k = 0
        while u[n] >= row[k]:
            k += 1
        y = k
    z = market.mu_step[ys] + market.sigma_step[ys] * rng.standard_normal(total_steps)
    alloc = np.asarray(strategy.allocations(market.num_states))
    excess = alloc[ys] * (z - market.r_step[ys])
    return float(excess.mean()) / float(excess.std(ddof=1))


def test_long_run_sharpe_matches_scalar_chain_loop(single_state_market,
                                                   two_state_market):
    three_state = MarketParams(
        num_states=3,
        transition=np.array([[0.90, 0.07, 0.03], [0.10, 0.80, 0.10],
                             [0.00, 0.30, 0.70]]),
        risk_free=np.array([0.02, 0.01, 0.0]),
        mean_return=np.array([0.09, 0.05, 0.14]),
        vol_return=np.array([0.12, 0.18, 0.25]),
        steps_per_year=12,
    )
    cases = [(single_state_market, 0, CycleStrategy(0.6)),
             (two_state_market, 0, CycleStrategy(0.6, 0.3)),
             (two_state_market, 1, CycleStrategy(0.6, -0.2)),
             (three_state, 2, CycleStrategy(0.5, 0.4))]
    for market, y0, strategy in cases:
        for steps, seed in ((10_000, 1), (54_321, 2024)):
            want = _loop_long_run_sharpe(strategy, market, steps, seed, y0)
            assert long_run_sharpe(strategy, market, steps, seed, y0) == want


def test_long_run_sharpe_rejects_unknown_start_regime(two_state_market):
    for y0 in (-1, 2):
        with pytest.raises(ConfigError):
            long_run_sharpe(CycleStrategy(0.6), two_state_market, 20_000, seed=1,
                            y0=y0)


def test_long_run_sharpe_needs_enough_steps(two_state_market):
    with pytest.raises(InsufficientSamples):
        long_run_sharpe(CycleStrategy(0.6), two_state_market, 5_000, seed=1)


# -- headline distribution regression ----------------------------------------------


def test_growth_tilt_orders_the_return_distribution(two_state_market):
    summaries = {}
    for delta in (-0.3, 0.0, 0.3):
        cfg = SimConfig(market=two_state_market,
                        strategy=CycleStrategy(0.6, delta), T=120,
                        n_paths=50_000, seed=99)
        summaries[delta] = stats(simulate(cfg))
    assert summaries[-0.3].mean == pytest.approx(0.740, abs=0.02)
    assert summaries[0.0].mean == pytest.approx(0.881, abs=0.02)
    assert summaries[0.3].mean == pytest.approx(1.036, abs=0.02)
    assert (summaries[-0.3].mean < summaries[0.0].mean < summaries[0.3].mean)
    assert (summaries[-0.3].sd < summaries[0.0].sd < summaries[0.3].sd)
