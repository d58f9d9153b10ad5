"""Tests for the regime-switching market model."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robo_mv.errors import BadDimension, ConfigError, NegativeVol, NonErgodic, NonStochasticRow
from robo_mv.market import (
    MarketParams,
    _sample_steps,
    check,
    excess_moments,
    load_market,
    market_from_dict,
    sample_paths,
    sample_step,
    stationary_distribution,
    validate,
)


def _mk(transition, risk_free, mean_return, vol_return, k=12):
    transition = np.atleast_2d(np.asarray(transition, dtype=float))
    return MarketParams(
        num_states=transition.shape[0],
        transition=transition,
        risk_free=np.asarray(risk_free, dtype=float),
        mean_return=np.asarray(mean_return, dtype=float),
        vol_return=np.asarray(vol_return, dtype=float),
        steps_per_year=k,
    )


# -- validation ----------------------------------------------------------


def test_validate_accepts_two_state_calibration(two_state_market):
    validate(two_state_market)
    assert check(two_state_market) == []


def test_validate_accepts_single_state():
    validate(_mk([[1.0]], [0.0], [0.05], [0.1]))


def test_validate_rejects_non_stochastic_row():
    with pytest.raises(NonStochasticRow):
        validate(_mk([[0.9, 0.2], [0.1, 0.9]], [0, 0], [0.1, 0.1], [0.2, 0.2]))


def test_validate_rejects_negative_entries():
    with pytest.raises(NonStochasticRow):
        validate(_mk([[1.2, -0.2], [0.1, 0.9]], [0, 0], [0.1, 0.1], [0.2, 0.2]))


def test_validate_rejects_nonpositive_vol():
    with pytest.raises(NegativeVol):
        validate(_mk([[1.0]], [0.0], [0.1], [0.0]))
    with pytest.raises(NegativeVol):
        validate(_mk([[1.0]], [0.0], [0.1], [-0.2]))


def test_validate_rejects_shape_mismatches():
    with pytest.raises(BadDimension):
        validate(_mk([[0.5, 0.5], [0.5, 0.5]], [0.0], [0.1, 0.1], [0.2, 0.2]))
    with pytest.raises(BadDimension):
        validate(_mk([[0.5, 0.5]], [0, 0], [0.1, 0.1], [0.2, 0.2]))  # non-square P


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["transition", "risk_free", "mean_return", "vol_return"])
def test_validate_rejects_non_finite_values(field, bad):
    args = {"transition": [[0.9, 0.1], [0.2, 0.8]], "risk_free": [0.01, 0.0],
            "mean_return": [0.08, 0.12], "vol_return": [0.15, 0.2]}
    args[field] = np.array(args[field], dtype=float)
    args[field].flat[1] = bad
    p = _mk(**args)
    assert any("finite" in msg for msg in check(p))
    with pytest.raises(ConfigError, match="finite"):
        validate(p)


def test_check_collects_all_violations():
    p = MarketParams.__new__(MarketParams)
    object.__setattr__(p, "num_states", 2)
    object.__setattr__(p, "transition", np.array([[0.9, 0.2], [0.1, 0.9]]))
    object.__setattr__(p, "risk_free", np.array([0.0, 0.0]))
    object.__setattr__(p, "mean_return", np.array([0.1, 0.1]))
    object.__setattr__(p, "vol_return", np.array([0.2, -0.2]))
    object.__setattr__(p, "steps_per_year", 12)
    object.__setattr__(p, "labels", None)
    msgs = check(p)
    assert len(msgs) >= 2  # one stochasticity violation, one vol violation


# -- per-step conversion ---------------------------------------------------


def test_step_conversion_values(two_state_market):
    m = two_state_market
    np.testing.assert_allclose(m.r_step, [0.015 / 12, 0.0])
    np.testing.assert_allclose(m.mu_step, [0.081 / 12, 0.137 / 12])
    np.testing.assert_allclose(m.sigma_step, [0.155 / np.sqrt(12), 0.173 / np.sqrt(12)])
    np.testing.assert_allclose(m.R_step, [1 + 0.015 / 12, 1.0])


def test_step_conversion_round_trip(two_state_market):
    m = two_state_market
    np.testing.assert_array_equal(m.sigma_step * np.sqrt(12), m.vol_return)


def test_excess_moments_hand_values(two_state_market):
    mu1, var1 = excess_moments(two_state_market, 0)
    assert mu1 == pytest.approx((0.081 - 0.015) / 12, abs=1e-15)
    assert mu1 == pytest.approx(0.0055, abs=1e-15)
    assert var1 == pytest.approx((0.155 / np.sqrt(12)) ** 2, rel=1e-14)
    mu2, _ = excess_moments(two_state_market, 1)
    assert mu2 == pytest.approx(0.137 / 12, abs=1e-15)


def test_excess_moments_zero_when_r_equals_mu():
    m = _mk([[1.0]], [0.06], [0.06], [0.2])
    mu, _ = excess_moments(m, 0)
    assert mu == 0.0


# -- stationary distribution ------------------------------------------------


def test_stationary_two_thirds_one_third(two_state_market):
    lam = stationary_distribution(two_state_market)
    np.testing.assert_allclose(lam, [2 / 3, 1 / 3], atol=1e-12)


def test_stationary_single_state():
    lam = stationary_distribution(_mk([[1.0]], [0.0], [0.1], [0.2]))
    np.testing.assert_allclose(lam, [1.0])


def test_stationary_symmetric_chain():
    lam = stationary_distribution(
        _mk([[0.7, 0.3], [0.3, 0.7]], [0, 0], [0.1, 0.1], [0.2, 0.2])
    )
    np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-12)


def test_stationary_is_left_fixed_point(two_state_market):
    lam = stationary_distribution(two_state_market)
    resid = lam @ two_state_market.transition - lam
    assert np.max(np.abs(resid)) < 1e-12
    assert lam.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(lam >= 0) and np.all(lam <= 1)


def test_stationary_matches_power_iteration(two_state_market):
    # independent route: iterate lam <- lam P to convergence
    lam = np.full(2, 0.5)
    for _ in range(10_000):
        lam = lam @ two_state_market.transition
    np.testing.assert_allclose(stationary_distribution(two_state_market), lam, atol=1e-12)


def test_stationary_matches_occupation_frequency(two_state_market):
    n = 1_000_000
    rng = np.random.default_rng(20260814)
    regimes, _ = sample_paths(two_state_market, 0, n, 1, rng)
    freq = np.mean(regimes[0, :-1] == 0)
    # exact asymptotic SE for a two-state chain: the occupation frequency has
    # variance lam0*lam1*(1+rho)/((1-rho)*n) with rho the second eigenvalue
    rho = 1.0 - 0.05 - 0.10
    se = np.sqrt((2 / 3) * (1 / 3) * (1 + rho) / ((1 - rho) * n))
    assert abs(freq - 2 / 3) < 3 * se


def test_stationary_rejects_two_closed_classes():
    with pytest.raises(NonErgodic):
        stationary_distribution(
            _mk([[1.0, 0.0], [0.0, 1.0]], [0, 0], [0.1, 0.1], [0.2, 0.2])
        )


def test_stationary_rejects_periodic_chain():
    with pytest.raises(NonErgodic):
        stationary_distribution(
            _mk([[0.0, 1.0], [1.0, 0.0]], [0, 0], [0.1, 0.1], [0.2, 0.2])
        )


def test_stationary_accepts_transient_state():
    # state 1 is transient but there is a unique aperiodic closed class {0}
    lam = stationary_distribution(
        _mk([[1.0, 0.0], [0.5, 0.5]], [0, 0], [0.1, 0.1], [0.2, 0.2])
    )
    np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-12)


# -- sampling ----------------------------------------------------------------


def test_sample_step_identity_chain_stays_put():
    m = _mk([[1.0, 0.0], [0.0, 1.0]], [0, 0], [0.1, 0.1], [0.2, 0.2])
    rng = np.random.default_rng(1)
    for _ in range(50):
        y_next, _ = sample_step(m, 1, rng)
        assert y_next == 1


def test_sample_step_degenerate_vol_recovers_mean():
    m = _mk([[1.0]], [0.0], [0.10], [1e-12])
    rng = np.random.default_rng(2)
    _, z = sample_step(m, 0, rng)
    assert z == pytest.approx(0.10 / 12, abs=1e-10)


def test_sample_step_rejects_unknown_regime(two_state_market):
    rng = np.random.default_rng(0)
    for y in (-1, 2, 0.5):
        with pytest.raises(ConfigError):
            sample_step(two_state_market, y, rng)


def test_sample_step_law_of_large_numbers(two_state_market):
    n = 1_000_000
    rng = np.random.default_rng(3)
    draws = np.array([sample_step(two_state_market, 0, rng)[1] for _ in range(2000)])
    # the scalar API is a convenience wrapper; use the vectorized path for bulk
    regimes, z = sample_paths(
        _mk([[1.0]], [0.015], [0.081], [0.155]), 0, n, 1, rng
    )
    z = z[0]
    mu = 0.081 / 12
    sigma = 0.155 / np.sqrt(12)
    assert abs(z.mean() - mu) < 4 * sigma / np.sqrt(n)
    assert abs(draws.mean() - mu) < 4 * sigma / np.sqrt(len(draws))
    # empirical variance within 3 SE (Gaussian: SE of s^2 is sigma^2 sqrt(2/n))
    assert abs(z.var(ddof=1) - sigma**2) < 3 * sigma**2 * np.sqrt(2 / n)


def test_sample_paths_variance_per_state(two_state_market):
    rng = np.random.default_rng(4)
    regimes, z = sample_paths(two_state_market, 0, 1_000_000, 1, rng)
    for y in range(2):
        sel = z[0][regimes[0, :-1] == y]
        sigma2 = two_state_market.sigma_step[y] ** 2
        n = len(sel)
        assert abs(sel.var(ddof=1) - sigma2) < 3 * sigma2 * np.sqrt(2 / n)


def test_return_independent_of_next_state_given_current(two_state_market):
    """Conditional on y, the step return carries no information about y'."""
    rng = np.random.default_rng(5)
    regimes, z = sample_paths(two_state_market, 0, 2_000_000, 1, rng)
    cur, nxt, ret = regimes[0, :-1], regimes[0, 1:], z[0]
    sel = cur == 0
    ind = (nxt[sel] == 1).astype(float)
    r = ret[sel]
    n = sel.sum()
    cov = np.mean((ind - ind.mean()) * (r - r.mean()))
    se = ind.std() * r.std() / np.sqrt(n)
    assert abs(cov) < 4 * se


def test_sample_paths_reproducible(two_state_market):
    a = sample_paths(two_state_market, 0, 100, 8, np.random.default_rng(42))
    b = sample_paths(two_state_market, 0, 100, 8, np.random.default_rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_sample_paths_shapes(two_state_market):
    regimes, z = sample_paths(two_state_market, 1, 36, 7, np.random.default_rng(0))
    assert regimes.shape == (7, 37)
    assert z.shape == (7, 36)
    assert np.all(regimes[:, 0] == 1)


def test_sample_paths_rejects_bad_inputs(two_state_market):
    rng = np.random.default_rng(0)
    for y0, n_steps, n_paths in ((-1, 5, 2), (2, 5, 2), (0.5, 50, 1), (0, -1, 2),
                                 (0, 5, 0)):
        with pytest.raises(ConfigError):
            sample_paths(two_state_market, y0, n_steps, n_paths, rng)


def _loop_sample_paths(params, y0, n_steps, n_paths, rng):
    """The per-column sampler loop that the block scheme replaced, kept
    verbatim as the bit-exact reference."""
    regimes = np.empty((n_paths, n_steps + 1), dtype=np.int64)
    regimes[:, 0] = y0
    cum = np.cumsum(params.transition, axis=1)
    # guard against rounding: the last column must be an upper bound for u
    cum[:, -1] = 1.0
    u = rng.random((n_paths, n_steps))
    gauss = rng.standard_normal((n_paths, n_steps))
    returns = np.empty((n_paths, n_steps))
    for n in range(n_steps):
        y = regimes[:, n]
        regimes[:, n + 1] = (u[:, n, None] >= cum[y]).sum(axis=1)
        returns[:, n] = params.mu_step[y] + params.sigma_step[y] * gauss[:, n]
    return regimes, returns


@st.composite
def _sampler_cases(draw):
    M = draw(st.integers(1, 4))
    rows = []
    for y in range(M):
        # Zero entries are common; an all-zero draw makes the row absorbing.
        w = np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=M, max_size=M)))
        if w.sum() == 0.0:
            w[y] = 1.0
        rows.append(w / w.sum())
    market = _mk(rows, np.linspace(0.0, 0.02, M), np.linspace(0.05, 0.15, M),
                 np.linspace(0.1, 0.25, M))
    return (market, draw(st.integers(0, M - 1)), draw(st.integers(0, 3000)),
            draw(st.integers(1, 64)), draw(st.integers(0, 2**32 - 1)))


@settings(deadline=None)
@given(_sampler_cases())
def test_sample_paths_matches_per_column_loop(case):
    market, y0, n_steps, n_paths, seed = case
    want = _loop_sample_paths(market, y0, n_steps, n_paths, np.random.default_rng(seed))
    got = sample_paths(market, y0, n_steps, n_paths, np.random.default_rng(seed))
    for w, g in zip(want, got):
        assert g.dtype == w.dtype
        assert g.flags.c_contiguous
        assert np.array_equal(g, w)


_TWO_STATE = _mk([[0.95, 0.05], [0.10, 0.90]], [0.015, 0.0], [0.081, 0.137],
                 [0.155, 0.173])


@settings(deadline=None)
@given(_sampler_cases())
@example((_TWO_STATE, 1, 120, 300, 17))  # wide: one block from y0
@example((_TWO_STATE, 1, 40_000, 1, 17))  # long: B = 200 chained blocks
@example((_TWO_STATE, 0, 5_000, 3, 17))  # B = 40 blocks over three paths
def test_time_major_core_is_the_transpose_of_sample_paths(case):
    market, y0, n_steps, n_paths, seed = case
    want = sample_paths(market, y0, n_steps, n_paths, np.random.default_rng(seed))
    got = _sample_steps(market, y0, n_steps, n_paths, np.random.default_rng(seed))
    for w, g in zip(want, got):
        assert g.dtype == w.dtype
        assert g.flags.c_contiguous
        assert np.array_equal(g.T, w)


# -- config I/O ---------------------------------------------------------------


DOC = {
    "states": 2,
    "transition": [[0.95, 0.05], [0.10, 0.90]],
    "risk_free": [0.015, 0.0],
    "mean_return": [0.081, 0.137],
    "vol_return": [0.155, 0.173],
    "steps_per_year": 12,
}


def test_market_from_dict_round_trip(two_state_market):
    m = market_from_dict(DOC)
    np.testing.assert_array_equal(m.transition, two_state_market.transition)
    np.testing.assert_array_equal(m.vol_return, two_state_market.vol_return)
    assert m.steps_per_year == 12


def test_market_from_dict_scalar_broadcast():
    doc = dict(DOC, risk_free=0.0, mean_return=0.1, vol_return=0.2)
    m = market_from_dict(doc)
    np.testing.assert_array_equal(m.risk_free, [0.0, 0.0])
    np.testing.assert_array_equal(m.vol_return, [0.2, 0.2])


def test_market_from_dict_state_labels():
    doc = dict(DOC, states=["bull", "bear"])
    m = market_from_dict(doc)
    assert m.num_states == 2
    assert m.labels == ("bull", "bear")


def test_market_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        market_from_dict(dict(DOC, volatility=[0.1, 0.2]))


def test_market_from_dict_rejects_missing_key():
    doc = dict(DOC)
    del doc["transition"]
    with pytest.raises(ConfigError):
        market_from_dict(doc)


def test_load_market(tmp_path, two_state_market):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(DOC))
    m = load_market(path)
    np.testing.assert_array_equal(m.transition, two_state_market.transition)
