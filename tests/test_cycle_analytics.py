"""Tests for the closed-form Sharpe analytics and the risk-aversion inversion."""

import math
import warnings

import numpy as np
import pytest

from robo_mv import cycle_analytics
from robo_mv.cycle_analytics import (
    CycleStrategy,
    SharpeInputs,
    annualize_sharpe,
    concavity_at_zero,
    implied_gamma,
    inputs_from_market,
    monotone_in_delta,
    sensitivity_predicates,
    sharpe_delta,
    sharpe_general,
    sharpe_sweep,
)
from robo_mv.errors import (
    BadDimension,
    ConfigError,
    DegenerateDenominator,
    NonErgodic,
    RootBracketFailure,
)
from robo_mv.market import MarketParams, stationary_distribution
from robo_mv.solver import ReducedState, allocation_independent

# Two-regime calibration rounded to display precision; the exact counterparts
# come from inputs_from_market on the fixture.
ROUNDED_INPUTS = SharpeInputs(lam=1.0 / 3.0, a=2.1, b=1.1, u=66.18)


def market_from_inputs(lam, a, b, u, mix=0.4, mt1=0.006, k=12):
    """Two-state market whose reduced parameters are exactly (lam, a, b, u).

    The transition matrix [[1-mix*lam, mix*lam], [mix*(1-lam), 1-mix*(1-lam)]]
    has stationary law (1-lam, lam) for any mixing rate in (0, 1].
    """
    mt = np.array([mt1, a * mt1])
    sg = np.array([math.sqrt(u) * mt1, b * math.sqrt(u) * mt1])
    return MarketParams(
        num_states=2,
        transition=np.array(
            [[1.0 - mix * lam, mix * lam], [mix * (1.0 - lam), 1.0 - mix * (1.0 - lam)]]
        ),
        risk_free=np.zeros(2),
        mean_return=mt * k,
        vol_return=sg * math.sqrt(k),
        steps_per_year=k,
    )


def equilibrium_from_gamma(gam, market):
    """Backward pass recovering the equilibrium policy of a state-only
    risk-aversion table, written out from the moment recursions so the
    round trip does not reuse implied_gamma internals."""
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
                n,
                ReducedState(xi=1.0, regime=y),
                float(mu_a[y]),
                float(mu_b[y]),
                float(gam[n, y]),
                market,
            )
        m = R + mt * pis[n]
        a = mu_a * m
        b = mu_b * (m * m + s2 * pis[n] ** 2)
    return pis


# ---------------------------------------------------------------------------
# domain types


def test_cycle_strategy_allocations():
    s = CycleStrategy(pi_bar=0.6, delta=0.3)
    assert np.allclose(s.allocations(3), [0.6, 0.78, 0.78], rtol=0, atol=1e-15)
    assert CycleStrategy(0.6).delta == 0.0
    assert np.array_equal(CycleStrategy(0.6).allocations(2), [0.6, 0.6])


@pytest.mark.parametrize("pi_bar,delta", [
    (0.0, 0.0), (-0.4, 0.0), (0.6, -1.0), (0.6, -1.5),
    (float("inf"), 0.0), (float("nan"), 0.0), (0.6, float("inf")), (0.6, float("nan")),
    ("0.6", 0.0), (True, 0.0), (0.6, "0"), (0.6, None),
])
def test_cycle_strategy_rejects_bad_fields(pi_bar, delta):
    with pytest.raises(ConfigError):
        CycleStrategy(pi_bar=pi_bar, delta=delta)


@pytest.mark.parametrize(
    "kw",
    [
        {"lam": -0.1},
        {"lam": 1.1},
        {"a": 0.0},
        {"a": -2.0},
        {"b": 0.0},
        {"u": 0.0},
        {"u": -1.0},
        {"a": math.inf},
        {"u": math.inf},
        {"lam": True},
        {"a": "2"},
    ],
)
def test_sharpe_inputs_validation(kw):
    base = {"lam": 0.3, "a": 2.0, "b": 1.1, "u": 60.0}
    with pytest.raises(ConfigError):
        SharpeInputs(**{**base, **kw})


def test_inputs_from_market_hand_values(two_state_market):
    inp = inputs_from_market(two_state_market)
    # Stationary law of [[.95,.05],[.10,.90]] is (2/3, 1/3); the ratios and
    # the squared inverse Sharpe recompute directly from the calibration.
    mt1 = (0.081 - 0.015) / 12
    assert inp.lam == pytest.approx(1.0 / 3.0, rel=0, abs=1e-12)
    assert inp.a == pytest.approx((0.137 / 12) / mt1, rel=1e-12)
    assert inp.b == pytest.approx(0.173 / 0.155, rel=1e-12)
    assert inp.u == pytest.approx((0.155 / math.sqrt(12)) ** 2 / mt1**2, rel=1e-12)


def test_inputs_from_market_needs_two_states(single_state_market):
    with pytest.raises(BadDimension):
        inputs_from_market(single_state_market)


def test_inputs_round_trip_through_market():
    src = SharpeInputs(lam=0.27, a=1.7, b=0.9, u=44.0)
    got = inputs_from_market(market_from_inputs(src.lam, src.a, src.b, src.u))
    assert got.lam == pytest.approx(src.lam, abs=1e-12)
    assert got.a == pytest.approx(src.a, rel=1e-12)
    assert got.b == pytest.approx(src.b, rel=1e-12)
    assert got.u == pytest.approx(src.u, rel=1e-12)


# ---------------------------------------------------------------------------
# sharpe_general


def test_sharpe_general_single_state_allocation_cancels(single_state_market):
    m = single_state_market
    want = m.mu_tilde_step[0] / m.sigma_step[0]
    for pi in (0.37, 0.6, 2.5):
        assert sharpe_general([pi], m) == pytest.approx(want, rel=0, abs=1e-15)


def test_sharpe_general_unreachable_state_drops_out(two_state_market):
    # With state 1 transient the stationary law is (1, 0) and the ratio
    # reduces to the state-0 market Sharpe, whatever the tilt.
    m = MarketParams(
        num_states=2,
        transition=np.array([[1.0, 0.0], [0.10, 0.90]]),
        risk_free=two_state_market.risk_free,
        mean_return=two_state_market.mean_return,
        vol_return=two_state_market.vol_return,
        steps_per_year=12,
    )
    want = m.mu_tilde_step[0] / m.sigma_step[0]
    s = sharpe_general(CycleStrategy(0.6, 0.3).allocations(2), m)
    assert s == pytest.approx(want, rel=0, abs=1e-14)


def test_sharpe_general_errors(two_state_market):
    with pytest.raises(BadDimension):
        sharpe_general([0.6], two_state_market)
    with pytest.raises(DegenerateDenominator):
        sharpe_general([0.0, 0.0], two_state_market)
    broken = MarketParams(
        num_states=2,
        transition=np.eye(2),
        risk_free=two_state_market.risk_free,
        mean_return=two_state_market.mean_return,
        vol_return=two_state_market.vol_return,
        steps_per_year=12,
    )
    with pytest.raises(NonErgodic):
        sharpe_general([0.6, 0.78], broken)


def _one_rule_sharpe(allocations, market):
    """The stationary Sharpe ratio of one rule, solved on its own."""
    pi = np.asarray(allocations, dtype=float)
    lam = stationary_distribution(market)
    mt, sg = market.mu_tilde_step, market.sigma_step
    mean = float(np.sum(lam * mt * pi))
    var = float(np.sum(lam * (sg**2 * pi**2 + (mt * pi - mean) ** 2)))
    return mean / math.sqrt(var)


def test_sharpe_sweep_matches_one_rule_at_a_time(two_state_market, monkeypatch):
    rules = [CycleStrategy(0.6, float(d)).allocations(2)
             for d in np.linspace(-0.5, 0.5, 201)]
    want = [_one_rule_sharpe(pi, two_state_market) for pi in rules]
    calls = []

    def counted(market):
        calls.append(market)
        return stationary_distribution(market)

    monkeypatch.setattr(cycle_analytics, "stationary_distribution", counted)
    assert sharpe_sweep(rules, two_state_market) == want
    assert len(calls) == 1
    assert [sharpe_general(pi, two_state_market) for pi in rules] == want


def test_sharpe_sweep_errors(two_state_market):
    # Every shape is checked before any ratio; a degenerate rule raises.
    with pytest.raises(BadDimension):
        sharpe_sweep([[0.6, 0.6], [0.6]], two_state_market)
    with pytest.raises(DegenerateDenominator):
        sharpe_sweep([[0.6, 0.6], [0.0, 0.0]], two_state_market)
    assert sharpe_sweep([], two_state_market) == []
    # A non-finite allocation read as a NaN ratio, and inf also warned.
    for bad in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite"):
                sharpe_sweep([[0.6, 0.6], [bad, 0.5]], two_state_market)
            with pytest.raises(ConfigError, match="finite"):
                sharpe_general([bad, 0.5], two_state_market)


def test_sharpe_general_upper_bound_random_draws():
    rng = np.random.default_rng(20260814)
    # Closed-form two-state draws: bound is the better single-state ratio.
    for _ in range(7000):
        inp = SharpeInputs(
            lam=rng.uniform(0.01, 0.99),
            a=rng.uniform(0.2, 3.0),
            b=rng.uniform(0.3, 3.0),
            u=rng.uniform(0.5, 120.0),
        )
        delta = rng.uniform(-0.7, 1.5)
        s = sharpe_delta(delta, inp)
        bound = max(1.0 / math.sqrt(inp.u), inp.a / (inp.b * math.sqrt(inp.u)))
        assert s < bound + 1e-12
    # General-form draws across one to three regimes.
    for _ in range(3000):
        M = int(rng.integers(1, 4))
        P = rng.uniform(0.05, 1.0, size=(M, M))
        P /= P.sum(axis=1, keepdims=True)
        r = rng.uniform(0.0, 0.03, size=M)
        mu = r + rng.uniform(0.01, 0.15, size=M)
        sig = rng.uniform(0.05, 0.4, size=M)
        m = MarketParams(
            num_states=M,
            transition=P,
            risk_free=r,
            mean_return=mu,
            vol_return=sig,
            steps_per_year=12,
        )
        pi = rng.uniform(0.1, 2.0, size=M)
        s = sharpe_general(pi, m)
        bound = float(np.max(m.mu_tilde_step / m.sigma_step))
        if M == 1:
            assert s == pytest.approx(bound, rel=0, abs=1e-15)
        else:
            assert s < bound


def test_sharpe_general_large_mean_limit():
    # As the recession mean grows the ratio approaches sqrt(lam/(1-lam)),
    # governed by the between-state variance alone.
    lam = 1.0 / 3.0
    pi = CycleStrategy(0.6).allocations(2)
    errs = []
    for a in (1e2, 1e4, 1e6):
        m = market_from_inputs(lam, a, 1.12, 66.18)
        errs.append(abs(sharpe_general(pi, m) - math.sqrt(lam / (1.0 - lam))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


# ---------------------------------------------------------------------------
# sharpe_delta


def test_sharpe_delta_matches_general_on_constructed_markets():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        inp = SharpeInputs(
            lam=rng.uniform(0.05, 0.95),
            a=rng.uniform(0.3, 3.0),
            b=rng.uniform(0.3, 3.0),
            u=rng.uniform(0.5, 120.0),
        )
        delta = rng.uniform(-0.7, 1.5)
        m = market_from_inputs(inp.lam, inp.a, inp.b, inp.u)
        s_closed = sharpe_delta(delta, inp)
        for pi_bar in (0.6, 1.3):
            s_mkt = sharpe_general(CycleStrategy(pi_bar, delta).allocations(2), m)
            worst = max(worst, abs(s_closed - s_mkt))
    assert worst < 1e-12


def test_sharpe_delta_fixture_market(two_state_market):
    inp = inputs_from_market(two_state_market)
    for delta in (-0.3, 0.0, 0.3):
        s1 = sharpe_delta(delta, inp)
        s2 = sharpe_general(
            CycleStrategy(0.6, delta).allocations(2), two_state_market
        )
        assert s1 == pytest.approx(s2, rel=0, abs=1e-12)


def test_sharpe_delta_lambda_boundaries():
    inp0 = SharpeInputs(lam=0.0, a=2.1, b=1.1, u=66.18)
    inp1 = SharpeInputs(lam=1.0, a=2.1, b=1.1, u=66.18)
    for delta in (-0.5, 0.0, 2.0):
        assert sharpe_delta(delta, inp0) == pytest.approx(
            1.0 / math.sqrt(66.18), rel=0, abs=1e-12
        )
        assert sharpe_delta(delta, inp1) == pytest.approx(
            2.1 / (1.1 * math.sqrt(66.18)), rel=0, abs=1e-12
        )


def test_sharpe_delta_vanishes_for_huge_vol_ratio():
    inp = SharpeInputs(lam=1.0 / 3.0, a=2.1, b=1e6, u=66.18)
    assert sharpe_delta(0.0, inp) < 1e-5


def test_sharpe_delta_degenerate_mean_raises():
    inp = SharpeInputs(lam=0.8, a=1.0, b=1.1, u=66.18)
    with pytest.raises(DegenerateDenominator):
        sharpe_delta(-2.0, inp)  # mean excess return flips negative
    inp1 = SharpeInputs(lam=1.0, a=1.0, b=1.1, u=66.18)
    with pytest.raises(DegenerateDenominator):
        sharpe_delta(-1.0, inp1)  # only visited state fully de-risked


# ---------------------------------------------------------------------------
# derivative predicates


def test_monotone_in_delta_rounded_inputs(two_state_market):
    assert monotone_in_delta(0.0, ROUNDED_INPUTS)
    assert monotone_in_delta(0.0, inputs_from_market(two_state_market))
    # Far enough out the tilt overweights recession variance and the ratio
    # turns: a(1 + b^2 u / a^2)(1+delta) > 1+u.
    assert not monotone_in_delta(1.0, ROUNDED_INPUTS)


def _random_admissible(rng):
    return (
        SharpeInputs(
            lam=rng.uniform(0.02, 0.98),
            a=rng.uniform(0.2, 3.0),
            b=rng.uniform(0.3, 3.0),
            u=rng.uniform(0.5, 100.0),
        ),
        rng.uniform(-0.8, 1.5),
    )


def _fd(fun, x, h=1e-6):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def test_monotone_in_delta_matches_finite_difference():
    rng = np.random.default_rng(42)
    seen = {True: 0, False: 0}
    for _ in range(1000):
        inp, delta = _random_admissible(rng)
        margin = abs(
            (1.0 + inp.u)
            - (inp.a + inp.u * inp.b**2 / inp.a) * (1.0 + delta)
        )
        if margin <= 1e-8:
            continue
        pred = monotone_in_delta(delta, inp)
        grad = _fd(lambda d: sharpe_delta(d, inp), delta)
        assert pred == (grad > 0)
        seen[pred] += 1
    assert seen[True] > 50 and seen[False] > 50


def test_sensitivity_predicates_rounded_inputs(two_state_market):
    p = sensitivity_predicates(ROUNDED_INPUTS, 0.0)
    assert p["increasing_in_a"]
    assert p["decreasing_in_b"]
    assert sensitivity_predicates(inputs_from_market(two_state_market), 0.0) == {
        "increasing_in_a": True,
        "decreasing_in_b": True,
        "increasing_in_lam": True,
    }


def test_lambda_predicate_threshold_at_equal_ratios():
    # With b = a and no tilt the ratio is minimized at lam = 1/(a+1):
    # below the threshold it is still falling, above it rising.
    a = 2.0
    low = SharpeInputs(lam=0.30, a=a, b=a, u=20.0)
    high = SharpeInputs(lam=0.35, a=a, b=a, u=20.0)
    assert not sensitivity_predicates(low, 0.0)["increasing_in_lam"]
    assert sensitivity_predicates(high, 0.0)["increasing_in_lam"]
    assert _fd(lambda l: sharpe_delta(0.0, SharpeInputs(l, a, a, 20.0)), 0.30) < 0
    assert _fd(lambda l: sharpe_delta(0.0, SharpeInputs(l, a, a, 20.0)), 0.35) > 0


def test_sensitivity_predicates_match_finite_differences():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        inp, delta = _random_admissible(rng)
        lam, a, b, u = inp.lam, inp.a, inp.b, inp.u
        d1 = 1.0 + delta
        e = a * d1 - 1.0
        c0 = 1.0 + u
        c1 = (a * a + u * b * b) * d1 * d1
        margins = {
            "increasing_in_a": abs(
                a * (1.0 - lam) * d1 - ((1.0 - lam) * c0 + lam * u * b * b * d1 * d1)
            ),
            "decreasing_in_b": b,
            "increasing_in_lam": abs(lam * e * (c1 - c0) - (c1 - c0 * (2.0 * a * d1 - 1.0))),
        }
        grads = {
            "increasing_in_a": _fd(
                lambda x: sharpe_delta(delta, SharpeInputs(lam, x, b, u)), a
            ),
            "decreasing_in_b": -_fd(
                lambda x: sharpe_delta(delta, SharpeInputs(lam, a, x, u)), b
            ),
            "increasing_in_lam": _fd(
                lambda x: sharpe_delta(delta, SharpeInputs(x, a, b, u)), lam
            ),
        }
        preds = sensitivity_predicates(inp, delta)
        for key, pred in preds.items():
            if margins[key] <= 1e-8:
                continue
            assert pred == (grads[key] > 0), (key, inp, delta)
            checked += 1
    assert checked > 2500


# ---------------------------------------------------------------------------
# concavity at zero tilt


def test_concavity_zero_when_recession_never_visited():
    inp = SharpeInputs(lam=0.0, a=2.1, b=1.1, u=66.18)
    assert abs(concavity_at_zero(inp)) < 1e-9


def test_concavity_negative_and_step_stable(two_state_market):
    inp = inputs_from_market(two_state_market)
    c_full = concavity_at_zero(inp, step=1e-3)
    c_half = concavity_at_zero(inp, step=5e-4)
    assert c_full < 0 and c_half < 0
    assert c_half == pytest.approx(c_full, rel=1e-4)
    assert concavity_at_zero(ROUNDED_INPUTS) < 0


def test_concavity_scales_linearly_in_lambda():
    base = dict(a=2.1, b=1.1, u=66.18)
    c1 = concavity_at_zero(SharpeInputs(lam=1e-3, **base))
    c2 = concavity_at_zero(SharpeInputs(lam=2e-3, **base))
    assert c1 < 0 and c2 < 0
    assert c2 / c1 == pytest.approx(2.0, rel=0.05)


def test_concavity_rejects_bad_step(two_state_market):
    for step in (0.0, math.inf, math.nan, True, "1e-3"):
        with pytest.raises(ConfigError):
            concavity_at_zero(inputs_from_market(two_state_market), step=step)


@pytest.mark.parametrize("delta", [math.nan, math.inf, True, "0.1"])
def test_tilt_closed_forms_reject_non_numbers(delta):
    # NaN used to give a NaN ratio and all-False predicates, not an error.
    for call in (lambda: sharpe_delta(delta, ROUNDED_INPUTS),
                 lambda: monotone_in_delta(delta, ROUNDED_INPUTS),
                 lambda: sensitivity_predicates(ROUNDED_INPUTS, delta)):
        with pytest.raises(ConfigError, match="delta"):
            call()


# ---------------------------------------------------------------------------
# implied risk aversion


def test_implied_gamma_single_period_is_markowitz(two_state_market):
    m = two_state_market
    gam = implied_gamma(0.6, 0.3, m, T=1)
    pi = CycleStrategy(0.6, 0.3).allocations(2)
    want = m.mu_tilde_step / (pi * m.sigma_step**2)
    assert gam.shape == (1, 2)
    np.testing.assert_allclose(gam[0], want, rtol=1e-15)


def test_implied_gamma_round_trip_single_state(single_state_market):
    m = single_state_market
    gam = implied_gamma(0.6, 0.0, m, T=36)
    assert gam.shape == (36, 1)
    assert np.all(gam > 0)
    assert gam[-1, 0] == pytest.approx(
        m.mu_tilde_step[0] / (0.6 * m.sigma_step[0] ** 2), rel=1e-15
    )
    pis = equilibrium_from_gamma(gam, m)
    assert np.max(np.abs(pis - 0.6)) < 1e-8


@pytest.mark.parametrize("delta", [-0.3, 0.3])
def test_implied_gamma_round_trip_two_state(two_state_market, delta):
    T = 60
    gam = implied_gamma(0.6, delta, two_state_market, T=T)
    pis = equilibrium_from_gamma(gam, two_state_market)
    target = CycleStrategy(0.6, delta).allocations(2)
    assert np.max(np.abs(pis - target)) < 1e-8


@pytest.mark.parametrize("delta", [-0.3, 0.0, 0.3])
def test_implied_gamma_cycle_config_positive_finite(two_state_market, delta):
    gam = implied_gamma(0.6, delta, two_state_market, T=120)
    assert gam.shape == (120, 2)
    assert np.all(np.isfinite(gam))
    assert np.all(gam > 0)


@pytest.mark.parametrize("T", [1, 12])
def test_implied_gamma_rejects_negative_excess_return(T):
    """A regime whose mean return is below the risk-free rate makes the
    Markowitz inversion negative at the last step; no positive risk aversion
    holds a positive allocation there at any horizon."""
    m = MarketParams(
        num_states=2,
        transition=np.array([[0.95, 0.05], [0.10, 0.90]]),
        risk_free=np.array([0.015, 0.0]),
        mean_return=np.array([0.081, -0.02]),
        vol_return=np.array([0.155, 0.173]),
    )
    with pytest.raises(RootBracketFailure):
        implied_gamma(0.6, 0.3, m, T=T)


def test_implied_gamma_rejects_bad_args(two_state_market):
    with pytest.raises(ConfigError):
        implied_gamma(0.6, 0.0, two_state_market, T=0)
    with pytest.raises(ConfigError):
        implied_gamma(-0.6, 0.0, two_state_market, T=12)
    with pytest.raises(ConfigError):
        implied_gamma(0.6, -1.0, two_state_market, T=12)
    for T in (True, 2.5, math.nan):
        with pytest.raises(ConfigError, match="horizon T"):
            implied_gamma(0.6, 0.0, two_state_market, T=T)


# ---------------------------------------------------------------------------
# annualization


def test_annualize_sharpe():
    assert annualize_sharpe(0.1, 12) == pytest.approx(0.3464, abs=5e-5)
    assert annualize_sharpe(0.1, 12) == pytest.approx(0.1 * math.sqrt(12), rel=1e-15)
    assert annualize_sharpe(0.42, 1) == 0.42
    assert annualize_sharpe(0.0, 12) == 0.0
    for steps_per_year in (0, True, 12.5, math.nan, math.inf):
        with pytest.raises(ConfigError):
            annualize_sharpe(0.1, steps_per_year)
