"""Tests for the regime-switching market model."""

import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from robo_mv.errors import BadDimension, ConfigError, NegativeVol, NonErgodic, NonStochasticRow
from robo_mv.market import (
    _BLOCK,
    MarketParams,
    _closed_classes,
    _draw_piece,
    _pieces,
    check,
    check_bounds,
    check_number,
    excess_moments,
    load_market,
    market_from_dict,
    sample_paths,
    sample_step,
    stationary_distribution,
    validate,
)
from robo_mv.risk_profile import RiskProfileParams, _client_steps


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
    with pytest.raises(ConfigError, match="finite"):
        _mk(**args)


def test_a_market_is_validated_when_built(two_state_market):
    # Each of these returned numbers or a bare IndexError from the functions
    # that take a market, which validated it only if they chose to.
    with pytest.raises(NegativeVol):  # and row 0 sums to 1.1
        _mk([[0.9, 0.2], [0.1, 0.9]], [0, 0], [0.1, 0.1], [0.2, -0.2])
    with pytest.raises(BadDimension):
        MarketParams(3, [[0.9, 0.1], [0.1, 0.9]], [0, 0], [0.1, 0.1], [0.2, 0.2])
    with pytest.raises(NegativeVol):
        replace(two_state_market, vol_return=[0.155, -0.1])
    with pytest.raises(NonStochasticRow, match=r"row 1 sums to 1\.1, not 1$"):
        replace(two_state_market, transition=[[0.95, 0.05], [0.2, 0.9]])
    with pytest.raises(ValueError):
        two_state_market.vol_return[1] = -0.1  # read-only: it stays valid
    assert check(replace(two_state_market, risk_free=[0.0, 0.0])) == []


@pytest.mark.parametrize("bounds, value, message", [
    ({"gt": 0}, 0, "x must be > 0, got 0.0"),
    ({"ge": 1}, np.float64(0.5), "x must be >= 1, got 0.5"),
    ({"le": 1}, np.int64(2), "x must be <= 1, got 2.0"),
    ({"lt": 1}, 1.0, "x must be < 1, got 1.0"),
    ({"ge": 0, "le": 1}, -0.5, "x must lie in [0, 1], got -0.5"),
    ({"gt": 0, "lt": 1}, np.float32(1.0), "x must lie in (0, 1), got 1.0"),
    ({"gt": -1, "le": 2}, 3, "x must lie in (-1, 2], got 3.0"),
])
def test_check_number_names_the_range_and_prints_a_plain_number(bounds, value, message):
    with pytest.raises(ConfigError) as info:
        check_number(value, "x", **bounds)
    assert str(info.value) == message
    assert check_number(np.int64(3), "n", integer=True, ge=3) == 3
    for bad, shown in ((np.float64(np.nan), "x must be finite, got nan"),
                       (np.float64(2.5), "x must be an integer, got 2.5")):
        with pytest.raises(ConfigError, match=f"^{re.escape(shown)}$"):
            check_number(bad, "x", integer=True)


def test_check_bounds_keeps_the_numbers_as_given():
    assert check_bounds(None) is None
    pair = check_bounds([0, 1])
    assert pair == (0, 1) and all(type(v) is int for v in pair)
    assert check_bounds((np.float64(-0.5), 3.0)) == (-0.5, 3.0)
    for bad in ((np.nan, 1.0), (0.0,), ("0", "1"), (0.0, np.inf), (1.0, 0.0),
                (0.0, True), (0.0, 1.0, 2.0), "01", 1.0):
        with pytest.raises(ConfigError, match="allocation bounds"):
            check_bounds(bad, "allocation bounds")


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


def _csgraph_closed_classes(P: np.ndarray) -> list[np.ndarray]:
    """Strongly connected components with no edges leaving them: the
    scipy-based implementation the numpy closure replaced, kept verbatim as
    the reference."""
    support = P > 0
    n_comp, comp = connected_components(support, directed=True, connection="strong")
    closed = []
    for c in range(n_comp):
        members = np.nonzero(comp == c)[0]
        # A class is closed iff no member can transition outside the class.
        outside = np.ones(P.shape[0], dtype=bool)
        outside[members] = False
        if not support[np.ix_(members, outside)].any():
            closed.append(members)
    return closed


def _is_aperiodic(support: np.ndarray) -> bool:
    """An irreducible support is aperiodic iff its Wielandt power
    (n-1)^2 + 1 is all positive."""
    n = support.shape[0]
    power = support
    for _ in range((n - 1) ** 2):
        power = power @ support
    return bool(power.all())


@st.composite
def _supports(draw):
    """Row-stochastic matrices whose supports mix absorbing, transient and
    periodic states: a permutation's cycles (periodic classes, or absorbing
    states at its fixed points) under random extra edges of random density."""
    M = draw(st.integers(1, 7))
    support = np.zeros((M, M), dtype=bool)
    if draw(st.booleans()):
        support[np.arange(M), draw(st.permutations(range(M)))] = True
    density = draw(st.integers(0, 4))
    bits = np.array(draw(st.lists(st.integers(0, 7), min_size=M * M, max_size=M * M)))
    support |= (bits < density).reshape(M, M)
    for y in np.nonzero(~support.any(axis=1))[0]:
        support[y, y] = True
    return support / support.sum(axis=1, keepdims=True)


@settings(deadline=None, max_examples=300)
@given(_supports())
@example(np.eye(3))  # three absorbing states
@example(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))  # period 3
@example(np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]]))  # transients
def test_closed_classes_match_csgraph(P):
    want = _csgraph_closed_classes(P)
    got = _closed_classes(P)
    assert sorted(map(tuple, got)) == sorted(map(tuple, want))
    for c in got:
        assert c.dtype == np.intp and np.all(np.diff(c) > 0)

    M = P.shape[0]
    market = _mk(P, np.zeros(M), np.full(M, 0.1), np.full(M, 0.2))
    ergodic = len(want) == 1 and _is_aperiodic(P[np.ix_(want[0], want[0])] > 0)
    if ergodic:
        lam = stationary_distribution(market)
        np.testing.assert_allclose(lam @ P, lam, atol=1e-9)
        assert lam.sum() == pytest.approx(1.0)
    else:
        with pytest.raises(NonErgodic) as exc:
            stationary_distribution(market)
        if len(want) != 1:
            assert str(exc.value) == (
                f"chain has {len(want)} closed classes; stationary law not unique")
        else:
            assert str(exc.value).startswith("closed class is periodic with period ")


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


_TWO_STATE = _mk([[0.95, 0.05], [0.10, 0.90]], [0.015, 0.0], [0.081, 0.137],
                 [0.155, 0.173])
_THREE_STATE = _mk([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.3, 0.0, 0.7]],
                   [0.0, 0.01, 0.02], [0.05, 0.1, 0.15], [0.1, 0.2, 0.25])


@settings(deadline=None)
@given(_sampler_cases())
# Draw-block boundaries, at market._BLOCK = 2**17 numbers per block of paths.
@example((_TWO_STATE, 1, 120, 3_000, 17))  # three blocks, the last partial
@example((_TWO_STATE, 0, 200_000, 2, 17))  # one-path blocks, B = 316
@example((_TWO_STATE, 1, 0, 5, 17))  # no steps: empty draws
@example((_THREE_STATE, 2, 1_500, 100, 17))  # M = 3, B = 3, two blocks
def test_sample_paths_matches_per_column_loop(case):
    market, y0, n_steps, n_paths, seed = case
    rng_want, rng_got = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _loop_sample_paths(market, y0, n_steps, n_paths, rng_want)
    got = sample_paths(market, y0, n_steps, n_paths, rng_got)
    for w, g in zip(want, got):
        assert g.dtype == w.dtype
        assert g.flags.c_contiguous
        assert np.array_equal(g, w)
    assert rng_got.random() == rng_want.random()


@settings(deadline=None)
@given(_sampler_cases())
@example((_TWO_STATE, 1, 120, 300, 17))  # wide: one block from y0
@example((_TWO_STATE, 1, 40_000, 1, 17))  # long: B = 200 chained blocks
@example((_TWO_STATE, 0, 5_000, 3, 17))  # B = 40 blocks over three paths
# Draw-block boundaries, at market._BLOCK = 2**17 numbers per block of paths.
@example((_TWO_STATE, 1, 120, 3_000, 17))  # three blocks, the last partial
@example((_TWO_STATE, 0, 200_000, 2, 17))  # one-path blocks, B = 316
@example((_TWO_STATE, 1, 0, 5, 17))  # no steps: empty draws
@example((_THREE_STATE, 2, 1_500, 100, 17))  # M = 3, B = 3, two blocks
def test_time_major_core_is_the_transpose_of_sample_paths(case):
    market, y0, n_steps, n_paths, seed = case
    rng_want, rng_got = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _sample_paths_then_shocks(market, y0, n_steps, n_paths, rng_want)
    got = _market_rows(market, y0, n_steps, n_paths, rng_got)
    # The core keeps regimes in the narrowest unsigned dtype for M regimes.
    for w, g, dtype in zip(want, got, (np.min_scalar_type(market.num_states - 1),
                                       np.float64)):
        assert g.dtype == dtype
        assert g.flags.c_contiguous
        assert np.array_equal(g.T, w)
    assert rng_got.random() == rng_want.random()


_SHOCKY = RiskProfileParams(gamma0=3.0, p_eps=0.05)


def _market_rows(market, y0, n_steps, n_paths, rng):
    """The regimes and returns of the client simulator's time-major core."""
    rows = _client_steps(market, _SHOCKY, n_steps, n_paths, rng, y0, ("regimes", "returns"))
    return rows["regimes"], rows["returns"]


def _sample_paths_then_shocks(market, y0, n_steps, n_paths, rng):
    """`sample_paths`, then the client simulator's other draws: its jump
    uniforms and shock Gaussians, one per path-step."""
    paths = sample_paths(market, y0, n_steps, n_paths, rng)
    rng.random((n_paths, n_steps))
    rng.standard_normal((n_paths, n_steps))
    return paths


def _wide_market(M, seed):
    """M regimes with sparse random rows, a fifth of the entries zero."""
    rng = np.random.default_rng(seed)
    w = rng.random((M, M)) * (rng.random((M, M)) < 0.8)
    w[np.arange(M), np.arange(M)] += 0.01
    return _mk(w / w.sum(axis=1, keepdims=True), np.linspace(0.0, 0.02, M),
               np.linspace(0.05, 0.15, M), np.linspace(0.1, 0.25, M))


@pytest.mark.parametrize("n_steps,n_paths", [(30, 5), (300, 1)])  # B = 1, B = 17
def test_sampler_with_257_regimes_keeps_uint16_regimes(n_steps, n_paths):
    market = _wide_market(257, n_steps)
    want = _loop_sample_paths(market, 256, n_steps, n_paths,
                              np.random.default_rng(n_steps))
    rng_paths, rng_steps = np.random.default_rng(n_steps), np.random.default_rng(n_steps)
    got = _sample_paths_then_shocks(market, 256, n_steps, n_paths, rng_paths)
    regimes, returns = _market_rows(market, 256, n_steps, n_paths, rng_steps)
    assert regimes.dtype == np.uint16 and got[0].dtype == np.int64
    assert want[0].max() > 255
    for w, g, core in zip(want, got, (regimes, returns)):
        assert np.array_equal(g, w)
        assert np.array_equal(core.T, w)
    assert rng_paths.random() == rng_steps.random()


@pytest.mark.parametrize("draw", ["random", "standard_normal"])
def test_block_draws_concatenate_to_one_draw(draw):
    """The sampler draws in blocks of whole paths: numpy fills sequentially,
    so uneven blocks concatenate to the one-call draw and leave the
    generator where the one call does."""
    one, blocked = np.random.default_rng(5), np.random.default_rng(5)
    want = getattr(one, draw)((1_000, 37))
    got = np.concatenate([getattr(blocked, draw)((k, 37))
                          for k in (1, 0, 333, 2, 600, 64)])
    assert np.array_equal(got, want)
    assert blocked.random() == one.random()


@pytest.mark.parametrize("draw", ["random", "standard_normal"])
def test_time_sliced_draws_concatenate_to_one_draw(draw):
    """A path longer than `_BLOCK` steps is drawn in time slices of it, path
    after path: numpy fills a row in order, so the slices of each 1-D path
    concatenate to the one-call draw."""
    n_steps = 1_000_003  # seven whole slices and a partial one per path
    one, sliced = np.random.default_rng(6), np.random.default_rng(6)
    want = getattr(one, draw)((2, n_steps))
    got = np.full((n_steps, 2), np.nan)
    for paths, steps in _pieces(n_steps, 2, _BLOCK):
        got[steps, paths] = _draw_piece(getattr(sliced, draw), paths, steps)
    assert np.array_equal(got.T, want)
    assert sliced.random() == one.random()


def test_sample_paths_peak_memory_is_its_outputs_plus_blocks(two_state_market):
    """No full-size path-major draw or temporary is alive: the peak is the
    two outputs, the time-major returns they are copied from and a few draw
    blocks (the one-call draws needed another full-size draw)."""
    tracemalloc.start()
    try:
        regimes, returns = sample_paths(two_state_market, 0, 120, 8192,
                                        np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= regimes.nbytes + 2 * returns.nbytes + 2 * 2**20


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


@pytest.mark.parametrize("doc", [3, 0.5, None, "two-state", [1, 2], [["states", 2]]])
def test_market_from_dict_rejects_a_config_that_is_not_a_mapping(doc):
    with pytest.raises(ConfigError, match="must be a mapping"):
        market_from_dict(doc)


def test_market_from_dict_rejects_missing_key():
    doc = dict(DOC)
    del doc["transition"]
    with pytest.raises(ConfigError):
        market_from_dict(doc)


@pytest.mark.parametrize("key,value", [
    ("states", True), ("states", "2"), ("states", 2.5), ("states", -1),
    ("steps_per_year", "12"), ("steps_per_year", 12.5), ("steps_per_year", True),
    ("steps_per_year", float("nan")), ("transition", [[0.95, 0.05], [0.1]]),
    ("transition", [[0.95, 0.05], [0.1, "0.9"]]), ("risk_free", [0.0, True]),
    ("mean_return", "0.1"), ("vol_return", ["a", "b"]), ("vol_return", False),
    ("vol_return", [0.2, float("inf")]),
])
def test_market_from_dict_rejects_non_numbers(key, value):
    with pytest.raises(ConfigError):
        market_from_dict(dict(DOC, **{key: value}))


def test_market_counts_accept_integral_floats():
    m = market_from_dict(dict(DOC, states=2.0, steps_per_year=12.0))
    assert type(m.num_states) is int and type(m.steps_per_year) is int
    assert m.steps_per_year == 12
    with pytest.raises(ConfigError):
        MarketParams(num_states=1, transition=[[1.0]], risk_free=[0.0],
                     mean_return=[0.1], vol_return=np.array([True]))


def test_load_market(tmp_path, two_state_market):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(DOC))
    m = load_market(path)
    np.testing.assert_array_equal(m.transition, two_state_market.transition)
