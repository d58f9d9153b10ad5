"""Tests for client risk-aversion dynamics and the advisor's model."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robo_mv import market as sampler
from robo_mv.errors import ConfigError, NotInteractionTime, WindowLengthMismatch
from robo_mv.market import MarketParams, sample_paths
from robo_mv.risk_profile import (
    _CLIENT_FIELDS,
    RiskProfileParams,
    _client_blocks,
    _client_steps,
    _time_sums,
    bias_factor,
    client_gamma,
    communicated_xi,
    load_profile,
    profile_from_dict,
    robo_gamma,
    sample_eps,
    simulate_clients,
    simulate_trajectory,
    window_sums,
)


# -- parameter validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma0": 0.0},
        {"gamma0": 1.0, "alpha": -0.1},
        {"gamma0": 1.0, "p_eps": 1.5},
        {"gamma0": 1.0, "p_eps": -0.1},
        {"gamma0": 1.0, "sigma_eps": 0.0},
        {"gamma0": 1.0, "beta": -1.0},
        {"gamma0": 1.0, "phi": 0},
        {"gamma0": 1.0, "phi": 2.5},
        {"gamma0": 1.0, "gamma_bar": -1.0},
        {"gamma0": float("nan")},
        {"gamma0": float("inf")},
        {"gamma0": 1.0, "alpha": float("nan")},
        {"gamma0": 1.0, "p_eps": float("nan")},
        {"gamma0": 1.0, "sigma_eps": float("inf")},
        {"gamma0": 1.0, "beta": float("nan")},
        {"gamma0": 1.0, "beta": float("inf")},
        {"gamma0": 1.0, "phi": float("inf")},
        {"gamma0": 1.0, "gamma_bar": float("nan")},
        {"gamma0": 1.0, "gamma_bar": np.array([1.0, float("inf")])},
        {"gamma0": 1.0, "eta": np.array([0.0, float("nan")])},
        {"gamma0": "3"},
        {"gamma0": 1.0, "alpha": "0"},
        {"gamma0": 1.0, "phi": True},
        {"gamma0": 1.0, "gamma_bar": "x"},
        {"gamma0": 1.0, "gamma_bar": True},
        {"gamma0": 1.0, "gamma_bar": [1.0, "x"]},
        {"gamma0": 1.0, "gamma_bar": [1.0, float("nan")]},
        {"gamma0": 1.0, "eta": ["a", 0.0]},
        {"gamma0": 1.0, "alpha": 0.9, "eta": np.zeros(5)},
    ],
)
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(ConfigError):
        RiskProfileParams(**kwargs)


def test_interaction_schedule():
    p = RiskProfileParams(gamma0=1.0, phi=3)
    assert [p.interaction_time(n) for n in range(8)] == [0, 0, 0, 3, 3, 3, 6, 6]


def test_gamma_bar_broadcasting():
    p = RiskProfileParams(gamma0=1.0, gamma_bar=2.0)
    np.testing.assert_array_equal(p.gamma_bar_table(2, 2), np.full((3, 2), 2.0))
    p = RiskProfileParams(gamma0=1.0, gamma_bar=np.array([1.0, 1.5]))
    table = p.gamma_bar_table(2, 2)
    np.testing.assert_array_equal(table, [[1.0, 1.5]] * 3)
    full = np.arange(1, 7, dtype=float).reshape(3, 2)
    p = RiskProfileParams(gamma0=1.0, gamma_bar=full)
    np.testing.assert_array_equal(p.gamma_bar_table(2, 2), full)
    with pytest.raises(ConfigError):
        RiskProfileParams(gamma0=1.0, gamma_bar=np.array([1.0, 1.5, 2.0])).gamma_bar_table(2, 2)


def test_eta_table_override():
    eta = np.linspace(-0.5, 0.0, 5)
    p = RiskProfileParams(gamma0=1.0, eta=eta)
    assert p.eta_at(2, 4) == eta[2]
    np.testing.assert_array_equal(p.eta_at(np.arange(5), 4), eta)
    with pytest.raises(ConfigError):
        p.eta_at(0, 10)  # table too short for this horizon


# -- idiosyncratic shocks ------------------------------------------------------


def test_sample_eps_zero_probability():
    p = RiskProfileParams(gamma0=1.0, p_eps=0.0)
    draws = sample_eps(p, np.random.default_rng(0), size=10_000)
    assert np.all(draws == 0.0)


def test_sample_eps_unit_mean_innovation():
    p = RiskProfileParams(gamma0=1.0, p_eps=1.0, sigma_eps=0.64)
    draws = np.exp(sample_eps(p, np.random.default_rng(1), size=1_000_000))
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - 1.0) < 4 * se


def test_sample_eps_jump_frequency():
    p = RiskProfileParams(gamma0=1.0, p_eps=0.05, sigma_eps=0.64)
    draws = sample_eps(p, np.random.default_rng(2), size=1_000_000)
    frac = np.mean(draws != 0.0)
    se = np.sqrt(0.05 * 0.95 / len(draws))
    assert abs(frac - 0.05) < 4 * se


def test_sample_eps_scalar_mode():
    p = RiskProfileParams(gamma0=1.0, p_eps=1.0, sigma_eps=0.5)
    val = sample_eps(p, np.random.default_rng(3))
    assert isinstance(val, float)


def test_sample_eps_nonzero_branch_moments():
    p = RiskProfileParams(gamma0=1.0, p_eps=1.0, sigma_eps=0.64)
    draws = sample_eps(p, np.random.default_rng(4), size=1_000_000)
    n = len(draws)
    assert abs(draws.mean() + 0.64**2 / 2) < 4 * 0.64 / np.sqrt(n)
    assert abs(draws.std(ddof=1) - 0.64) < 4 * 0.64 * np.sqrt(0.5 / n)


# -- bias factor ---------------------------------------------------------------


def test_bias_factor_zero_beta():
    assert bias_factor([0.03, -0.01, 0.02], beta=0.0, phi=3) == 1.0


def test_bias_factor_at_the_mean():
    assert bias_factor(np.zeros(3), beta=2.0, phi=3) == 1.0


def test_bias_factor_window_length():
    with pytest.raises(WindowLengthMismatch):
        bias_factor([0.01, 0.02], beta=1.0, phi=3)


def test_bias_factor_loss_aversion_asymmetry():
    """A loss inflates risk aversion more than an equal gain deflates it."""
    for s in [0.01, 0.05, 0.2]:
        up = bias_factor(np.full(3, s / 3), beta=2.0, phi=3)
        down = bias_factor(np.full(3, -s / 3), beta=2.0, phi=3)
        assert down - 1.0 > 1.0 - up > 0.0


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_bias_factor_mean_single_state(beta):
    # E exp(-beta/phi * sum of phi demeaned N(mu, sigma) returns)
    #   = exp(beta^2 sigma^2 / (2 phi)),
    # since the demeaned window sum is N(0, phi sigma^2). At beta = 1 this
    # coincides with exp(beta sigma^2 / (2 phi)).
    phi, sigma = 3, 0.20 / np.sqrt(12)
    rng = np.random.default_rng(5)
    windows = rng.normal(0.0, sigma, size=(1_000_000, phi))
    vals = bias_factor(windows, beta=beta, phi=phi)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - np.exp(beta**2 * sigma**2 / (2 * phi))) < 4 * se


def test_bias_factor_mean_discriminates_exponent():
    """At beta = 2 the sample mean rejects exp(beta sigma^2/(2 phi))."""
    phi, sigma, beta = 3, 0.20 / np.sqrt(12), 2.0
    rng = np.random.default_rng(6)
    windows = rng.normal(0.0, sigma, size=(1_000_000, phi))
    vals = bias_factor(windows, beta=beta, phi=phi)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    wrong = np.exp(beta * sigma**2 / (2 * phi))
    assert abs(vals.mean() - wrong) > 4 * se


# -- client gamma --------------------------------------------------------------


def test_client_gamma_constant_when_all_static(two_state_market):
    p = RiskProfileParams(gamma0=3.5)
    rng = np.random.default_rng(7)
    out = simulate_clients(two_state_market, p, T=24, n_paths=3, rng=rng)
    np.testing.assert_allclose(out["gamma_client"], 3.5)


def test_client_gamma_age_trend_endpoints(two_state_market):
    p = RiskProfileParams(gamma0=1.0, alpha=0.01)
    rng = np.random.default_rng(8)
    traj = simulate_trajectory(two_state_market, p, T=36, rng=rng)
    assert traj.gamma_client[0] == pytest.approx(np.exp(-0.36), rel=1e-14)
    assert traj.gamma_client[36] == pytest.approx(1.0, rel=1e-14)


def test_client_gamma_martingale(two_state_market):
    """E[gamma^C_n] = gamma0 for all n when the age trend and cycle are off."""
    p = RiskProfileParams(gamma0=2.0, p_eps=0.05, sigma_eps=0.64)
    rng = np.random.default_rng(9)
    out = simulate_clients(two_state_market, p, T=36, n_paths=100_000, rng=rng)
    g = out["gamma_client"]
    for n in range(37):
        se = g[:, n].std(ddof=1) / np.sqrt(g.shape[0])
        assert abs(g[:, n].mean() - 2.0) < 4 * max(se, 1e-15)


def test_client_gamma_regime_factor(two_state_market):
    p = RiskProfileParams(gamma0=1.0, gamma_bar=np.array([1.0, 1.5]))
    rng = np.random.default_rng(10)
    out = simulate_clients(two_state_market, p, T=60, n_paths=50, rng=rng)
    expect = np.where(out["regimes"] == 1, 1.5, 1.0)
    np.testing.assert_allclose(out["gamma_client"], expect)


def test_client_gamma_function_matches_formula():
    p = RiskProfileParams(gamma0=1.0, alpha=0.02, gamma_bar=np.array([1.0, 2.0]))
    regimes = np.array([0, 1, 1, 0, 1])
    g = client_gamma(regimes, p, T=4, rng=np.random.default_rng(11), num_states=2)
    gbar = np.array([1.0, 2.0])[regimes]
    expect = np.exp(-0.02 * (4 - np.arange(5))) * gbar  # p_eps = 0 so gamma_id = 1
    np.testing.assert_allclose(g, expect, rtol=1e-14)


# -- communicated value and robo gamma ------------------------------------------


def test_xi_equals_client_gamma_without_bias(two_state_market):
    p = RiskProfileParams(gamma0=1.0, alpha=0.01, p_eps=0.05, phi=3)
    traj = simulate_trajectory(two_state_market, p, T=36, rng=np.random.default_rng(12))
    for tau in range(0, 37, 3):
        assert traj.xi[tau] == pytest.approx(traj.gamma_client[tau], rel=1e-14)


def test_xi_product_definition():
    assert 2.0 * 1.30 == pytest.approx(2.6)
    # and on a trajectory: xi at an interaction = gamma^C * gamma^Z there
    m = RiskProfileParams(gamma0=2.0, beta=2.0, phi=3)
    # direct check through communicated_xi on a simulated path below


def test_xi_constant_between_interactions(two_state_market):
    p = RiskProfileParams(gamma0=1.0, beta=2.0, phi=3, p_eps=0.05)
    traj = simulate_trajectory(two_state_market, p, T=36, rng=np.random.default_rng(13))
    assert traj.xi[4] == traj.xi[3]
    assert traj.xi[5] == traj.xi[3]
    for n in range(37):
        assert traj.xi[n] == traj.xi[traj.tau[n]]


def test_communicated_xi_schedule(two_state_market):
    p = RiskProfileParams(gamma0=1.0, beta=2.0, phi=3, p_eps=0.05)
    traj = simulate_trajectory(two_state_market, p, T=36, rng=np.random.default_rng(14))
    xi3 = communicated_xi(traj, 3)
    assert xi3 == pytest.approx(traj.gamma_client[3] * traj.gamma_z[3], rel=1e-14)
    with pytest.raises(NotInteractionTime):
        communicated_xi(traj, 4)


def test_gamma_z_is_one_at_time_zero(two_state_market):
    p = RiskProfileParams(gamma0=1.0, beta=4.0, phi=3)
    out = simulate_clients(two_state_market, p, T=12, n_paths=20, rng=np.random.default_rng(15))
    np.testing.assert_array_equal(out["gamma_z"][:, 0], 1.0)


def test_gamma_z_matches_window_formula(two_state_market):
    p = RiskProfileParams(gamma0=1.0, beta=2.0, phi=3)
    traj = simulate_trajectory(two_state_market, p, T=12, rng=np.random.default_rng(16))
    mu_step = two_state_market.mu_step
    window = traj.returns[3:6] - mu_step[traj.regimes[3:6]]
    assert traj.gamma_z[6] == pytest.approx(
        bias_factor(window, beta=2.0, phi=3), rel=1e-14
    )


def test_window_sums_match_direct_sums(two_state_market):
    p = RiskProfileParams(gamma0=1.0, beta=2.0, phi=3)
    out = simulate_clients(two_state_market, p, T=12, n_paths=5, rng=np.random.default_rng(19))
    demeaned = out["returns"] - two_state_market.mu_step[out["regimes"][:, :-1]]
    for n in range(12):
        tau = 3 * (n // 3)
        prev, cur = window_sums(out["window_csum"], 3, n)
        want_prev = demeaned[:, tau - 3:tau].sum(axis=1) if tau >= 3 else np.zeros(5)
        np.testing.assert_allclose(prev, want_prev, rtol=0, atol=1e-15)
        np.testing.assert_allclose(cur, demeaned[:, tau:n].sum(axis=1), rtol=0, atol=1e-15)


def test_robo_gamma_at_interaction_is_xi():
    p = RiskProfileParams(gamma0=1.0, alpha=0.02, phi=3)
    assert robo_gamma(3, 1.7, 3, 0, 0, p, T=36, num_states=2) == pytest.approx(1.7)


def test_robo_gamma_held_constant_without_trend():
    p = RiskProfileParams(gamma0=1.0, phi=4)
    for n in range(4, 8):
        assert robo_gamma(n, 2.2, 4, 0, 0, p, T=24, num_states=2) == pytest.approx(2.2)


def test_robo_gamma_regime_ratio():
    p = RiskProfileParams(gamma0=1.0, phi=1, gamma_bar=np.array([1.0, 1.5]))
    val = robo_gamma(1, 2.0, 1, 1, 0, p, T=12, num_states=2)
    assert val == pytest.approx(3.0)


def test_robo_gamma_rejects_bad_tau():
    p = RiskProfileParams(gamma0=1.0, phi=3)
    with pytest.raises(NotInteractionTime):
        robo_gamma(2, 1.0, 4, 0, 0, p, T=12, num_states=2)
    with pytest.raises(NotInteractionTime):
        robo_gamma(2, 1.0, 3, 0, 0, p, T=12, num_states=2)


def test_full_personalization_coincides(two_state_market):
    """With beta = 0 and phi = 1 the advisor tracks the client exactly."""
    p = RiskProfileParams(
        gamma0=1.5, alpha=0.01, p_eps=0.1, sigma_eps=0.5, beta=0.0, phi=1,
        gamma_bar=np.array([1.0, 1.3]),
    )
    out = simulate_clients(two_state_market, p, T=48, n_paths=200, rng=np.random.default_rng(17))
    np.testing.assert_allclose(out["gamma_robo"], out["gamma_client"], rtol=1e-13)


def test_gamma_id_martingale_every_step(two_state_market):
    p = RiskProfileParams(gamma0=1.0, p_eps=0.05, sigma_eps=0.64)
    out = simulate_clients(two_state_market, p, T=36, n_paths=100_000, rng=np.random.default_rng(18))
    g = out["gamma_id"]
    assert np.all(g > 0)
    for n in range(37):
        se = g[:, n].std(ddof=1) / np.sqrt(g.shape[0])
        assert abs(g[:, n].mean() - 1.0) < 4 * max(se, 1e-15)


def test_robo_gamma_consistency_on_paths(two_state_market):
    """The vectorized simulation agrees with the scalar robo_gamma op."""
    p = RiskProfileParams(
        gamma0=1.0, alpha=0.01, p_eps=0.1, beta=2.0, phi=3,
        gamma_bar=np.array([1.0, 1.4]),
    )
    traj = simulate_trajectory(two_state_market, p, T=18, rng=np.random.default_rng(19))
    for n in range(19):
        tau = int(traj.tau[n])
        expect = robo_gamma(
            n, float(traj.xi[tau]), tau, int(traj.regimes[n]),
            int(traj.regimes[tau]), p, T=18, num_states=2,
        )
        assert traj.gamma_robo[n] == pytest.approx(expect, rel=1e-13)


# -- the time-major core against the path-major simulator -------------------------


def _path_major_sample_eps(params, rng, size):
    """The idiosyncratic draw as first written, kept as the reference."""
    jump = rng.random(size) < params.p_eps
    w = rng.standard_normal(size)
    return np.where(jump, params.sigma_eps * w - 0.5 * params.sigma_eps**2, 0.0)


def _path_major_window_log_bias(demeaned, beta, phi):
    n_paths, T = demeaned.shape
    out = np.zeros((n_paths, T // phi + 1))
    for k in range(1, T // phi + 1):
        tau = k * phi
        out[:, k] = -beta * demeaned[:, tau - phi:tau].sum(axis=1) / phi
    return out


def _path_major_simulate_clients(market, profile, T, n_paths, rng, y0=0):
    """The path-major client simulator that the time-major core replaced,
    kept verbatim as the bit-exact reference."""
    phi, beta = profile.phi, profile.beta
    regimes, returns = sample_paths(market, y0, T, n_paths, rng)
    gbar = profile.gamma_bar_table(T, market.num_states)
    eta = np.asarray(profile.eta_at(np.arange(T + 1), T), dtype=float)

    # Idiosyncratic martingale: one potential jump per step 1..T.
    eps = _path_major_sample_eps(profile, rng, size=(n_paths, T))
    log_id = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(eps, axis=1)], axis=1
    )
    gamma_id = profile.gamma0 * np.exp(log_id)

    demeaned = returns - market.mu_step[regimes[:, :-1]]
    window_csum = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(demeaned, axis=1)], axis=1
    )
    gz_at_inter = np.exp(_path_major_window_log_bias(demeaned, beta, phi))

    times = np.arange(T + 1)
    tau_of_n = phi * (times // phi)
    k_of_n = times // phi

    gbar_path = gbar[np.broadcast_to(times, regimes.shape), regimes]
    gamma_client = np.exp(eta)[None, :] * gamma_id * gbar_path
    gamma_z = gz_at_inter[:, k_of_n]
    xi = gamma_client[np.arange(n_paths)[:, None], tau_of_n[None, :]] * gamma_z
    gbar_now = gbar_path
    gbar_anchor = gbar[
        np.broadcast_to(tau_of_n, regimes.shape),
        regimes[np.arange(n_paths)[:, None], tau_of_n[None, :]],
    ]
    gamma_robo = np.exp(eta - eta[tau_of_n])[None, :] * xi * gbar_now / gbar_anchor

    return {
        "regimes": regimes,
        "returns": returns,
        "gamma_id": gamma_id,
        "gamma_client": gamma_client,
        "gamma_z": gamma_z,
        "xi": xi,
        "gamma_robo": gamma_robo,
        "tau": np.broadcast_to(tau_of_n, (n_paths, T + 1)),
        "window_csum": window_csum,
    }


@st.composite
def _client_cases(draw):
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
    phi = draw(st.integers(1, 13))
    T = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["scalar", "per_regime", "table"]))
    if kind == "scalar":
        gamma_bar = draw(st.floats(0.5, 2.0))
    elif kind == "per_regime":
        gamma_bar = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=M, max_size=M)))
    else:
        gamma_bar = np.exp(np.random.default_rng(T).normal(0.0, 0.2, (T + 1, M)))
    eta = None
    if draw(st.booleans()):
        eta = np.random.default_rng(phi).normal(0.0, 0.3, T + 1)
    profile = RiskProfileParams(
        gamma0=draw(st.floats(0.5, 6.0)),
        alpha=0.0 if eta is not None else draw(st.floats(0.0, 0.2)),
        p_eps=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
        sigma_eps=draw(st.floats(0.1, 1.0)), beta=draw(st.floats(0.0, 4.0)),
        phi=phi, gamma_bar=gamma_bar, eta=eta,
    )
    fields = draw(st.lists(st.sampled_from(_CLIENT_FIELDS), min_size=1, unique=True))
    # Small sampler widths for the core, so that its draws span several
    # pieces and blocks and a path longer than a piece is drawn in slices.
    widths = {"_BLOCK": draw(st.integers(1, 200)),
              "_RETURNS": draw(st.integers(1, 2_000))}
    return (market, profile, T, draw(st.integers(1, 40)), draw(st.integers(0, M - 1)),
            draw(st.integers(0, 2**32 - 1)), fields, widths)


def _assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(deadline=None, max_examples=150)
@given(_client_cases())
def test_client_core_matches_path_major_simulator(case):
    market, profile, T, n_paths, y0, seed, fields, widths = case
    rng = np.random.default_rng(seed)
    want = _path_major_simulate_clients(market, profile, T, n_paths, rng, y0)
    after = rng.random()

    rng = np.random.default_rng(seed)
    with mock.patch.multiple(sampler, **widths):
        got = simulate_clients(market, profile, T, n_paths, rng, y0)
    assert rng.random() == after
    assert list(got) == list(want)
    for name in want:
        _assert_same_array(got[name], want[name])
        assert got[name].flags.writeable == want[name].flags.writeable

    # The core draws the same numbers whatever it builds, and builds only
    # the named fields, as contiguous time-major rows.
    rng = np.random.default_rng(seed)
    with mock.patch.multiple(sampler, **widths):
        rows = _client_steps(market, profile, T, n_paths, rng, y0, fields)
    assert rng.random() == after
    assert sorted(rows) == sorted(fields)
    for name in fields:
        if name == "regimes":  # kept in the narrowest unsigned dtype for M
            assert rows[name].dtype == np.min_scalar_type(market.num_states - 1)
            assert np.array_equal(rows[name], want[name].T)
        else:
            _assert_same_array(rows[name], want[name].T)
        assert rows[name].flags.c_contiguous or name == "tau"


@settings(deadline=None, max_examples=100)
@given(_client_cases(), st.integers(1, 50))
def test_client_blocks_match_the_core(case, width):
    # The core in path blocks draws the same numbers in the same order and
    # assembles each block's columns of every field bit for bit.
    market, profile, T, n_paths, y0, seed, fields, widths = case
    rng = np.random.default_rng(seed)
    with mock.patch.multiple(sampler, **widths):
        want = _client_steps(market, profile, T, n_paths, rng, y0, fields)
    after = rng.random()

    rng = np.random.default_rng(seed)
    start = 0
    with mock.patch.multiple(sampler, **widths):
        for paths, rows in _client_blocks(market, profile, T, n_paths, rng, y0, fields,
                                          width):
            assert (paths.start, paths.stop) == (start, min(start + width, n_paths))
            start = paths.stop
            assert sorted(rows) == sorted(fields)
            for name in fields:
                _assert_same_array(rows[name], want[name][:, paths])
    assert start == n_paths
    assert rng.random() == after


def test_client_core_window_bias_sums_pairwise_from_eight_terms(two_state_market):
    # numpy sums 8 or more terms of a row pairwise, so an in-order time-major
    # sum would miss the path-major window bias in its last bits.
    p = RiskProfileParams(gamma0=2.0, p_eps=0.3, beta=3.0, phi=12)
    want = _path_major_simulate_clients(two_state_market, p, 36, 2000,
                                        np.random.default_rng(8))
    rows = _client_steps(two_state_market, p, 36, 2000, np.random.default_rng(8),
                         fields=("gamma_z", "xi"))
    for name in ("gamma_z", "xi"):
        assert np.array_equal(rows[name], want[name].T)


@pytest.mark.parametrize("k", [1, 3, 7, 8, 9, 15, 16, 17, 63, 128, 129, 200, 1000])
def test_time_sums_match_numpy_row_sums(k):
    rows = np.random.default_rng(k).standard_normal((k, 300))
    rows *= np.exp(np.random.default_rng(k + 1).normal(0.0, 4.0, (k, 300)))
    assert np.array_equal(_time_sums(rows), np.ascontiguousarray(rows.T).sum(axis=1))
    zeros = np.full((k, 2), -0.0)
    assert np.array_equal(np.signbit(_time_sums(zeros)),
                          np.signbit(np.ascontiguousarray(zeros.T).sum(axis=1)))


# -- config I/O ------------------------------------------------------------------


def test_profile_from_dict_round_trip():
    p = profile_from_dict(
        {"gamma0": 1.0, "alpha": 0.01, "p_eps": 0.05, "sigma_eps": 0.64,
         "beta": 2.0, "phi": 3, "gamma_bar": [1.0, 1.5]}
    )
    assert p.phi == 3
    np.testing.assert_array_equal(p.gamma_bar, [1.0, 1.5])


def test_profile_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        profile_from_dict({"gamma0": 1.0, "gamma": 2.0})


@pytest.mark.parametrize("doc", [3, 0.5, None, "gamma0", [1, 2], [["gamma0", 3.0]]])
def test_profile_from_dict_rejects_a_config_that_is_not_a_mapping(doc):
    with pytest.raises(ConfigError, match="must be a mapping"):
        profile_from_dict(doc)


def test_profile_from_dict_requires_gamma0():
    with pytest.raises(ConfigError):
        profile_from_dict({"alpha": 0.01})


def test_load_profile(tmp_path):
    doc = {"risk_profile": {"gamma0": 2.5, "phi": 6}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    p = load_profile(path)
    assert p.gamma0 == 2.5
    assert p.phi == 6
