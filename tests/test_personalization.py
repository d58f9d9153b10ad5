"""Tests for the interaction-frequency tradeoff analytics."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import robo_mv.personalization as personalization
from robo_mv.errors import ConfigError, GridExhausted, InsufficientSamples
from robo_mv.market import MarketParams
from robo_mv.personalization import (
    PhiStar,
    full_information_policy,
    interact_every_step_suboptimal,
    phi_star,
    r_measure,
    r_tilde,
    r_tilde_dphi,
    r_tilde_sandwich,
    s_measure,
)
from robo_mv.risk_profile import (
    RiskProfileParams,
    _client_steps,
    _time_sums,
    simulate_clients,
    window_sums,
)
from robo_mv.solver import GridSpec, _window_lookup, solve

ROOT_2_PI = math.sqrt(2.0 / math.pi)

# Shared configuration for the Monte Carlo checks: single regime, zero rate,
# 10%/20% annual mean/vol at monthly steps, three-year horizon, and a client
# with occasional large idiosyncratic shocks.
SIGMA0 = 0.20 / math.sqrt(12.0)
HORIZON = 36
SHOCK_P = 0.05
SHOCK_SD = 0.64


def shocky_profile(**overrides):
    kwargs = {"gamma0": 1.0, "p_eps": SHOCK_P, "sigma_eps": SHOCK_SD}
    kwargs.update(overrides)
    return RiskProfileParams(**kwargs)


def sandwich_band(phi, beta, sigma0, p_eps, sigma_eps, T):
    """Allowance for the systematic gap between the Monte Carlo measure and
    its closed-form approximation.

    Two documented effects push the simulated measure below the closed form:
    the first interaction window carries no bias history (the advisor starts
    from an unbiased communication at time 0), which removes roughly phi of
    the T steps' bias contribution; and the closed form linearizes the
    shock-arrival probability, overweighting the idiosyncratic term by a
    relative (phi-1)*p/2. The 1.25 factor is calibration headroom on top of
    the modeled magnitudes, established on a 24-cell sweep at 50,000 paths.
    """
    c = beta * sigma0
    half_tail = 0.5 * (phi - 1.0) * p_eps
    bias = ROOT_2_PI * c / math.sqrt(phi) * (1.0 - half_tail)
    idio = ROOT_2_PI * math.sqrt(c * c / phi + sigma_eps**2) * half_tail
    return 1.25 * (phi / T * bias + half_tail * idio)


# -- inputs and flanking multiples ---------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beta": -1.0},
        {"p_eps": 1.5},
        {"p_eps": -0.1},
        {"sigma_eps": -1.0},
        {"sigma0": -0.1},
        {"T": 0},
        {"beta": math.nan},
        {"T": 10.5},
        {"sigma0": math.inf},
        {"p_eps": "0.05"},
        {"T": True},
    ],
)
def test_inputs_validation(kwargs):
    base = {"phi": 3, "beta": 2.0, "sigma0": SIGMA0, "p_eps": 0.05,
            "sigma_eps": 0.64, "T": 36}
    base.update(kwargs)
    with pytest.raises(ConfigError):
        r_tilde_sandwich(**base)


def test_flanking_multiples():
    # The sandwich scales r_tilde by the multiples of phi flanking T, over T.
    args = (2.0, SIGMA0, 0.05, 0.64)
    for phi, lo, hi in ((5, 35, 40), (6, 36, 36), (1, 36, 36), (7, 35, 42),
                        (36, 36, 36), (50, 0, 50)):
        rt = r_tilde(phi, *args)
        assert r_tilde_sandwich(phi, *args, 36) == (lo / 36 * rt, hi / 36 * rt)
    for phi in (0, 2.5, True):
        with pytest.raises(ConfigError):
            r_tilde_sandwich(phi, *args, 36)


# -- closed-form approximation ---------------------------------------------------


@pytest.mark.parametrize("beta", [0.0, 2.0, 4.0])
def test_r_tilde_collapses_at_phi_one(beta):
    assert r_tilde(1, beta, SIGMA0, SHOCK_P, SHOCK_SD) == ROOT_2_PI * beta * SIGMA0


@pytest.mark.parametrize("phi", [1, 2, 5, 12])
def test_r_tilde_without_bias_is_pure_shock_drift(phi):
    expected = ROOT_2_PI * SHOCK_SD * (phi - 1) * SHOCK_P / 2.0
    assert r_tilde(phi, 0.0, SIGMA0, SHOCK_P, SHOCK_SD) == expected
    assert r_tilde(1, 0.0, SIGMA0, SHOCK_P, SHOCK_SD) == 0.0


def test_r_tilde_rejects_phi_below_one():
    with pytest.raises(ConfigError):
        r_tilde(0.5, 2.0, SIGMA0, SHOCK_P, SHOCK_SD)
    with pytest.raises(ConfigError):
        r_tilde_dphi(0.0, 2.0, SIGMA0, SHOCK_P, SHOCK_SD)


CLOSED_FORM_ARGS = {"phi": 3, "beta": 2.0, "sigma0": SIGMA0, "p_eps": SHOCK_P,
                    "sigma_eps": SHOCK_SD}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("name", list(CLOSED_FORM_ARGS))
def test_closed_forms_reject_non_finite_and_negative_inputs(name, bad):
    args = dict(CLOSED_FORM_ARGS, **{name: bad})
    rates = [args[k] for k in ("beta", "sigma0", "p_eps", "sigma_eps")]
    calls = [
        lambda: r_tilde(*args.values()),
        lambda: r_tilde_dphi(*args.values()),
        lambda: r_tilde_sandwich(*args.values(), HORIZON),
    ]
    if name != "phi":
        calls += [lambda: interact_every_step_suboptimal(*rates), lambda: phi_star(*rates)]
    for call in calls:
        with pytest.raises(ConfigError, match=name):
            call()


@pytest.mark.parametrize("p_eps", [1.5, np.nextafter(1.0, 2.0)])
def test_closed_forms_reject_shock_probability_above_one(p_eps):
    # p_eps is a probability, as RiskProfileParams says; r_tilde at 1.5
    # returned 0.744 and phi_star phi=1.
    args = dict(CLOSED_FORM_ARGS, p_eps=p_eps)
    rates = [args[k] for k in ("beta", "sigma0", "p_eps", "sigma_eps")]
    for call in (
        lambda: r_tilde(*args.values()),
        lambda: r_tilde_dphi(*args.values()),
        lambda: r_tilde_sandwich(*args.values(), HORIZON),
        lambda: interact_every_step_suboptimal(*rates),
        lambda: phi_star(*rates),
    ):
        with pytest.raises(ConfigError, match=r"p_eps must lie in \[0, 1\]"):
            call()


def test_closed_forms_take_shock_probability_one():
    args = dict(CLOSED_FORM_ARGS, p_eps=1.0)
    rates = [args[k] for k in ("beta", "sigma0", "p_eps", "sigma_eps")]
    assert math.isfinite(r_tilde(*args.values()))
    assert math.isfinite(r_tilde_dphi(*args.values()))
    assert phi_star(*rates).phi >= 1.0
    assert interact_every_step_suboptimal(*rates) in (True, False)
    assert all(map(math.isfinite, r_tilde_sandwich(*args.values(), 36)))


def test_r_tilde_continuous_and_unbounded():
    args = (2.0, SIGMA0, SHOCK_P, SHOCK_SD)
    for phi in (1.0, 2.5, 7.0, 30.0):
        assert abs(r_tilde(phi + 1e-9, *args) - r_tilde(phi, *args)) < 1e-7
    assert r_tilde(1e6, *args) > 1e3


def test_r_tilde_dphi_matches_finite_differences():
    rng = np.random.default_rng(515)
    for _ in range(60):
        beta = rng.uniform(0.0, 5.0)
        sigma0 = rng.uniform(0.01, 0.3)
        p = rng.uniform(0.0, 0.5)
        se = rng.uniform(0.05, 1.5)
        phi = rng.uniform(1.05, 20.0)
        h = 1e-6 * phi
        fd = (r_tilde(phi + h, beta, sigma0, p, se)
              - r_tilde(phi - h, beta, sigma0, p, se)) / (2 * h)
        an = r_tilde_dphi(phi, beta, sigma0, p, se)
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-10)


# -- when is waiting better than weekly calls ------------------------------------


def test_interact_condition_direction():
    # Negligible shock drift against a strong bias: waiting wins.
    assert interact_every_step_suboptimal(4.0, 0.06, 0.01, 0.1)
    # Shock drift at twice the bias rate: interact every step.
    assert not interact_every_step_suboptimal(1.0, 0.016, SHOCK_P, SHOCK_SD)


def test_interact_condition_needs_positive_bias():
    with pytest.raises(ZeroDivisionError):
        interact_every_step_suboptimal(0.0, SIGMA0, SHOCK_P, SHOCK_SD)
    with pytest.raises(ZeroDivisionError):
        interact_every_step_suboptimal(2.0, 0.0, SHOCK_P, SHOCK_SD)


def test_interact_condition_matches_closed_form():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(300):
        beta = rng.uniform(0.1, 5.0)
        sigma0 = rng.uniform(0.01, 0.3)
        p = rng.uniform(0.001, 0.9)
        se = rng.uniform(0.01, 2.0)
        ratio = p * se / (beta * sigma0)
        threshold = math.sqrt(1.0 + 2.0 * p)
        if abs(ratio - threshold) < 1e-9:
            continue
        assert interact_every_step_suboptimal(beta, sigma0, p, se) == (ratio < threshold)
        checked += 1
    assert checked > 290


@pytest.mark.parametrize(
    "beta,sigma0,p",
    [(2.0, 0.0577, 0.05), (1.0, 0.1, 0.2), (3.0, 0.02, 0.5)],
)
def test_interact_boundary_derivative_vanishes(beta, sigma0, p):
    sigma_eps = beta * sigma0 * math.sqrt(1.0 + 2.0 * p) / p
    assert abs(r_tilde_dphi(1.0, beta, sigma0, p, sigma_eps)) < 1e-12


# -- optimal interaction period ---------------------------------------------------


def test_phi_star_case_table():
    res = phi_star(0.0, SIGMA0, SHOCK_P, SHOCK_SD)
    assert (res.phi, res.unbounded, res.phi_int) == (1.0, False, 1)
    res = phi_star(2.0, 0.0, SHOCK_P, SHOCK_SD)
    assert (res.phi, res.unbounded, res.phi_int) == (1.0, False, 1)
    res = phi_star(4.0, SIGMA0, 0.0, SHOCK_SD)
    assert res.unbounded and math.isinf(res.phi) and res.phi_int is None
    res = phi_star(2.0, SIGMA0, SHOCK_P, 0.0)
    assert res.unbounded and math.isinf(res.phi) and res.phi_int is None
    # Shock drift already dominating at phi = 1: stay there.
    res = phi_star(1.0, 0.016, SHOCK_P, SHOCK_SD)
    assert (res.phi, res.unbounded, res.phi_int) == (1.0, False, 1)


@pytest.mark.parametrize(
    "beta,phi0,phi_int", [(2.0, 2.4829, 3), (4.0, 4.0305, 4)]
)
def test_phi_star_interior_minimum(beta, phi0, phi_int):
    res = phi_star(beta, SIGMA0, SHOCK_P, SHOCK_SD)
    assert not res.unbounded
    assert res.phi == pytest.approx(phi0, abs=1e-3)
    assert res.phi_int == phi_int
    # Local minimality and a coarse global scan.
    args = (beta, SIGMA0, SHOCK_P, SHOCK_SD)
    at_min = r_tilde(res.phi, *args)
    assert r_tilde(res.phi - 0.01, *args) >= at_min - 1e-12
    assert r_tilde(res.phi + 0.01, *args) >= at_min - 1e-12
    grid = np.linspace(1.0, 60.0, 4000)
    assert min(r_tilde(g, *args) for g in grid) >= at_min - 1e-9


def test_phi_star_snaps_to_better_integer():
    for beta in (1.5, 2.0, 3.0, 4.0):
        res = phi_star(beta, SIGMA0, SHOCK_P, SHOCK_SD)
        args = (beta, SIGMA0, SHOCK_P, SHOCK_SD)
        fl, ce = math.floor(res.phi), math.ceil(res.phi)
        assert r_tilde(res.phi_int, *args) == min(r_tilde(fl, *args), r_tilde(ce, *args))


def test_phi_star_parameter_monotonicity():
    base = dict(beta=2.0, sigma0=SIGMA0, p_eps=SHOCK_P, sigma_eps=SHOCK_SD)

    def opt(**over):
        kw = dict(base)
        kw.update(over)
        return phi_star(kw["beta"], kw["sigma0"], kw["p_eps"], kw["sigma_eps"]).phi

    assert opt(beta=4.0) > opt()
    assert opt(sigma0=2 * SIGMA0) > opt()
    assert opt(p_eps=0.02) > opt()
    assert opt(sigma_eps=0.3) > opt()


def test_phi_star_scan_exhaustion_reports_unbounded():
    res = phi_star(2.0, 0.06, 1e-9, 1e-6)
    assert res.unbounded and res.phi_int is None


def test_phi_star_rejects_negative_parameters():
    with pytest.raises(ConfigError):
        phi_star(-1.0, SIGMA0, SHOCK_P, SHOCK_SD)
    # Non-numbers too, and a phi_max below 1.
    good = dict(beta=2.0, sigma0=SIGMA0, p_eps=SHOCK_P, sigma_eps=SHOCK_SD)
    for bad in ({"beta": "2"}, {"sigma0": math.nan}, {"p_eps": True},
                {"sigma_eps": math.inf}, {"phi_max": 0.5}, {"phi_max": math.nan}):
        with pytest.raises(ConfigError):
            phi_star(**{**good, **bad})


def _bracket_phi_star(
    beta: float,
    sigma0: float,
    p_eps: float,
    sigma_eps: float,
    phi_max: float = 1200.0,
) -> PhiStar:
    """The bracket-doubling and brentq search the closed-form quartic root
    replaced, kept verbatim as the reference (scipy is imported above)."""
    for name, val in (("beta", beta), ("sigma0", sigma0), ("p_eps", p_eps),
                      ("sigma_eps", sigma_eps)):
        if val < 0:
            raise ConfigError(f"{name} must be >= 0, got {val}")
    if beta * sigma0 == 0.0:
        return PhiStar(phi=1.0, unbounded=False, phi_int=1)
    if p_eps == 0.0 or sigma_eps == 0.0:
        return PhiStar(phi=math.inf, unbounded=True, phi_int=None)

    def d(x):
        return r_tilde_dphi(x, beta, sigma0, p_eps, sigma_eps)

    if d(1.0) >= 0.0:
        return PhiStar(phi=1.0, unbounded=False, phi_int=1)
    lo, hi = 1.0, 2.0
    while d(hi) <= 0.0:
        lo, hi = hi, hi * 2.0
        if hi > phi_max:
            return PhiStar(phi=math.inf, unbounded=True, phi_int=None)
    phi0 = float(brentq(d, lo, hi, xtol=1e-10, maxiter=200))
    fl, ce = math.floor(phi0), math.ceil(phi0)
    args = (beta, sigma0, p_eps, sigma_eps)
    best = fl if r_tilde(fl, *args) <= r_tilde(ce, *args) else ce
    return PhiStar(phi=phi0, unbounded=False, phi_int=int(best))


def _zero_or(lo: float, hi: float):
    return st.just(0.0) | st.floats(min_value=lo, max_value=hi)


# Each parameter is 0 or spans several decades of its range. Far below
# these floors the products inside r_tilde_dphi underflow, and the
# reference's derivative (not the quartic) loses its sign.
@settings(deadline=None, max_examples=500)
@given(_zero_or(1e-3, 20.0), _zero_or(1e-4, 1.0), _zero_or(1e-12, 1.0),
       _zero_or(1e-6, 10.0))
# The scan stopped doubling at 1024, so a root in (1024, 1200] read as
# unbounded; phi_max is now applied as it is named.
@example(2.6667911490944576, 0.2421014889943255, 0.00014086359160606616,
         0.1499496208061462)
@example(2.0, SIGMA0, SHOCK_P, SHOCK_SD)  # interior minimum at 2.48
@example(2.0, 0.06, 1e-9, 1e-6)  # root far above phi_max
def test_phi_star_matches_bracket_search(beta, sigma0, p_eps, sigma_eps):
    got = phi_star(beta, sigma0, p_eps, sigma_eps)
    ref = _bracket_phi_star(beta, sigma0, p_eps, sigma_eps)
    if ref.unbounded and not got.unbounded:
        assert 1024.0 < got.phi <= 1200.0
        return
    assert got.unbounded == ref.unbounded
    assert got.phi_int == ref.phi_int
    if not ref.unbounded:
        assert abs(got.phi - ref.phi) <= 1e-9 * ref.phi


def test_phi_star_applies_phi_max_as_named():
    args = (2.6667911490944576, 0.2421014889943255, 0.00014086359160606616,
            0.1499496208061462)
    res = phi_star(*args)
    assert not res.unbounded and res.phi == pytest.approx(1024.07, abs=0.01)
    assert _bracket_phi_star(*args).unbounded
    assert phi_star(*args, phi_max=1024.0).unbounded
    assert phi_star(*args, phi_max=res.phi + 1e-6).phi == res.phi


# -- sandwich arithmetic ----------------------------------------------------------


def test_sandwich_flanking_scales():
    rt = r_tilde(6, 2.0, SIGMA0, SHOCK_P, SHOCK_SD)
    assert r_tilde_sandwich(6, 2.0, SIGMA0, SHOCK_P, SHOCK_SD, 36) == (rt, rt)
    rt = r_tilde(5, 2.0, SIGMA0, SHOCK_P, SHOCK_SD)
    lo, hi = r_tilde_sandwich(5, 2.0, SIGMA0, SHOCK_P, SHOCK_SD, 36)
    assert lo == pytest.approx(35 / 36 * rt, rel=1e-15)
    assert hi == pytest.approx(40 / 36 * rt, rel=1e-15)
    # The flanking multiples exist for an integer spacing only.
    assert r_tilde_sandwich(5.0, 2.0, SIGMA0, SHOCK_P, SHOCK_SD, 36) == (lo, hi)
    for phi in (2.5, True):
        with pytest.raises(ConfigError, match="phi"):
            r_tilde_sandwich(phi, 2.0, SIGMA0, SHOCK_P, SHOCK_SD, 36)


# -- Monte Carlo measure of the risk-model gap ------------------------------------


def test_r_measure_zero_without_shocks_or_bias(single_state_market):
    quiet = RiskProfileParams(gamma0=1.0, p_eps=0.0, phi=3)
    est, se = r_measure(single_state_market, quiet, HORIZON, 500, seed=5)
    assert est == 0.0 and se == 0.0


def test_r_measure_zero_when_unbiased_and_always_interacting(single_state_market):
    est, se = r_measure(single_state_market, shocky_profile(), HORIZON, 500, seed=5)
    assert est == 0.0 and se == 0.0


def test_r_measure_needs_enough_paths(single_state_market):
    with pytest.raises(InsufficientSamples):
        r_measure(single_state_market, shocky_profile(phi=3, beta=2.0), HORIZON, 99,
                  seed=1)


def test_r_measure_matches_identity_recomputation(two_state_market):
    # The measured ratio gamma^C/gamma must equal the pure client-side form
    # gamma_id_n / (gamma_id_tau * gamma_z_tau): regime and trend factors
    # cancel exactly, for any regime path.
    prof = shocky_profile(alpha=0.9, phi=4, beta=2.0,
                          gamma_bar=np.array([1.0, 1.6]))
    T, n = 24, 400
    est, _ = r_measure(two_state_market, prof, T, n, seed=31)

    batch = simulate_clients(two_state_market, prof, T, n, np.random.default_rng(31))
    rows = np.arange(n)[:, None]
    tau = batch["tau"][:, :T]
    anchor = batch["gamma_id"][rows, tau] * batch["gamma_z"][:, :T]
    ratio = batch["gamma_id"][:, :T] / anchor
    assert est == pytest.approx(float(np.abs(ratio - 1.0).mean()), abs=1e-12)


@pytest.mark.parametrize("beta,phi", [(0.0, 3), (2.0, 1), (2.0, 3), (4.0, 12)])
def test_r_measure_tracks_closed_form_band(single_state_market, beta, phi):
    # The frozen-regime measure that r_tilde approximates is R on a
    # one-regime market, whose per-step SD is SIGMA0.
    assert single_state_market.sigma_step[0] == pytest.approx(SIGMA0, rel=1e-15)
    prof = shocky_profile(phi=phi, beta=beta)
    est, se = r_measure(single_state_market, prof, HORIZON, 20_000, seed=12345)
    lo, hi = r_tilde_sandwich(phi, beta, SIGMA0, SHOCK_P, SHOCK_SD, HORIZON)
    err = sandwich_band(phi, beta, SIGMA0, SHOCK_P, SHOCK_SD, HORIZON)
    rt = r_tilde(phi, beta, SIGMA0, SHOCK_P, SHOCK_SD)
    assert lo - err - 4.0 * se <= est <= hi + 0.02 * rt + 4.0 * se


def _path_major_r_measure(phi, beta, market, profile, T, n_paths, seed, y0=0):
    """R as first written, on path-major arrays: the bit-exact reference."""
    prof = replace(profile, phi=int(phi), beta=float(beta))
    batch = simulate_clients(market, prof, T, n_paths, np.random.default_rng(seed), y0=y0)
    ratio = batch["gamma_client"][:, :T] / batch["gamma_robo"][:, :T]
    per_path = np.abs(ratio - 1.0).mean(axis=1)
    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(n_paths))


@pytest.mark.parametrize("phi", [1, 2, 4, 6, 8, 9, 12, 13])
def test_r_measure_equals_path_major_formula(two_state_market, phi):
    # Floats, not a printed digest: %.12g would hide a last-bit change.
    prof = shocky_profile(alpha=0.05, gamma_bar=np.array([1.0, 1.3]))
    got = r_measure(two_state_market, replace(prof, phi=phi, beta=2.0), 30, 3000,
                    seed=phi, y0=1)
    want = _path_major_r_measure(phi, 2.0, two_state_market, prof, 30, 3000,
                                 seed=phi, y0=1)
    assert got == want


# What R and S sample and solve with, each patched out to show that a check
# comes first.
_SAMPLERS_AND_SOLVERS = ("_client_blocks", "_client_steps", "_backward_steps", "solve")


@pytest.mark.parametrize("phi, beta, T", [
    (2.5, 2.0, 12), (True, 2.0, 12), (0, 2.0, 12), (math.nan, 2.0, 12), ("3", 2.0, 12),
    (3, True, 12), (3, -1.0, 12), (3, math.nan, 12), (3, math.inf, 12),
    (3, 2.0, 0), (3, 2.0, 2.5), (3, 2.0, True),
])
def test_measures_reject_bad_phi_beta_and_horizon_before_sampling(
        two_state_market, monkeypatch, phi, beta, T):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled or solved before checking phi, beta and T")

    for name in _SAMPLERS_AND_SOLVERS:
        monkeypatch.setattr(personalization, name, no_work)
    # phi and beta are the advisor profile's, which checks them itself.
    with pytest.raises(ConfigError):
        prof = shocky_profile(phi=phi, beta=beta)
        r_measure(two_state_market, prof, T, 200, seed=1)
    with pytest.raises(ConfigError):
        prof = shocky_profile(phi=phi, beta=beta)
        s_measure(two_state_market, prof, T, GridSpec(), 200, seed=1)


@pytest.mark.parametrize("n_paths", [True, 150.5, math.nan, "200", 0, -5])
def test_measures_reject_non_count_paths_before_sampling(
        two_state_market, monkeypatch, n_paths):
    # A non-count is a plain ConfigError naming n_paths, not the
    # InsufficientSamples of a count below 100.
    def no_work(*args, **kwargs):
        raise AssertionError("sampled or solved before checking n_paths")

    for name in _SAMPLERS_AND_SOLVERS:
        monkeypatch.setattr(personalization, name, no_work)
    prof = shocky_profile(phi=3, beta=2.0)
    for call in (
        lambda: r_measure(two_state_market, prof, 12, n_paths, seed=1),
        lambda: s_measure(two_state_market, prof, 12, GridSpec(), n_paths, seed=1),
    ):
        with pytest.raises(ConfigError, match="n_paths") as info:
            call()
        assert not isinstance(info.value, InsufficientSamples)


def test_measures_take_numpy_path_counts(two_state_market):
    prof = shocky_profile(phi=3, beta=2.0)
    grid = GridSpec(xi_count=7, zsum_count=5, quad_points=5)
    assert (r_measure(two_state_market, prof, 12, np.int64(200), seed=1)
            == r_measure(two_state_market, prof, 12, 200, seed=1))
    assert (s_measure(two_state_market, prof, 12, grid, np.int64(200), seed=1)
            == s_measure(two_state_market, prof, 12, grid, 200, seed=1))


def test_measures_take_integral_phi_and_beta_of_any_number_type(two_state_market):
    prof, grid = shocky_profile(), GridSpec(xi_count=7, zsum_count=5, quad_points=5)
    advisor = replace(prof, phi=3, beta=2.0)
    r = r_measure(two_state_market, advisor, 12, 200, seed=1)
    s = s_measure(two_state_market, advisor, 12, grid, 200, seed=1)
    for phi, beta in ((3.0, 2), (np.int64(3), np.float64(2.0))):
        advisor = replace(prof, phi=phi, beta=beta)
        assert r_measure(two_state_market, advisor, 12, 200, seed=1) == r
        assert s_measure(two_state_market, advisor, 12, grid, 200, seed=1) == s


@pytest.mark.parametrize("y0", [-1, 2, 1.0])
def test_r_measure_rejects_unknown_start_regime(two_state_market, y0):
    with pytest.raises(ConfigError, match="y0"):
        r_measure(two_state_market, shocky_profile(phi=3, beta=2.0), 12, 200, seed=1,
                  y0=y0)


# -- Monte Carlo measure of the allocation gap ------------------------------------


def test_s_measure_zero_when_fully_informed(single_state_market):
    res = s_measure(single_state_market, shocky_profile(), HORIZON, GridSpec(), 400,
                    seed=7)
    assert res.estimate == 0.0 and res.se == 0.0
    assert res.excluded_steps == 0 and res.total_steps == HORIZON * 400


def test_s_measure_needs_enough_paths(single_state_market):
    with pytest.raises(InsufficientSamples):
        s_measure(single_state_market, shocky_profile(phi=3, beta=2.0), HORIZON,
                  GridSpec(), 50, seed=7)


def test_s_measure_reuses_a_given_full_information_policy(single_state_market):
    prof, grid, T = shocky_profile(), GridSpec(xi_count=9, quad_points=8), 12
    full = full_information_policy(single_state_market, prof, T, grid)
    for phi in (2, 3):
        advisor = replace(prof, phi=phi, beta=2.0)
        shared = s_measure(single_state_market, advisor, T, grid, 300, seed=11,
                           full_policy=full)
        alone = s_measure(single_state_market, advisor, T, grid, 300, seed=11)
        assert shared == alone
    shorter = full_information_policy(single_state_market, prof, T - 1, grid)
    with pytest.raises(ConfigError, match="full_policy"):
        s_measure(single_state_market, replace(prof, phi=2, beta=2.0), T, grid, 300,
                  seed=11, full_policy=shorter)


def test_s_measure_basic_cell(single_state_market):
    res = s_measure(single_state_market, shocky_profile(phi=3, beta=2.0), HORIZON,
                    GridSpec(), 2000, seed=7)
    assert 0.10 < res.estimate < 0.18
    assert 0.0 < res.se < res.estimate
    assert res.excluded_steps == 0
    assert res.total_steps == HORIZON * 2000


def test_s_measure_gap_to_r_measure_within_band(single_state_market):
    # The allocation gap exceeds the risk-model gap (bias feeds the earlier
    # investment decisions), by an amount bounded by the shock-drift and
    # squared-bias scales. The 2.5 constant was calibrated on a 14-cell
    # sweep where the observed ratio stayed below 1.7.
    beta, phi = 2.0, 3
    prof = shocky_profile(phi=phi, beta=beta)
    r, se_r = r_measure(single_state_market, prof, HORIZON, 20_000, seed=2718)
    s = s_measure(single_state_market, prof, HORIZON, GridSpec(), 4000, seed=2718)
    gap = s.estimate - r
    band = 2.5 * ((phi - 1) * SHOCK_P * SHOCK_SD**2 + beta**2 * 0.20**2 / phi**2)
    assert gap > 4.0 * (se_r + s.se)
    assert gap < band


def _path_major_s_measure(phi, beta, market, profile, T, grid, n_paths, seed, y0,
                          full_policy):
    """S as first written, one allocation_at per policy and step on
    path-major arrays: the bit-exact reference."""
    robo_prof = replace(profile, phi=int(phi), beta=float(beta))
    policy_robo = solve(market, robo_prof, T, grid)
    batch = simulate_clients(market, robo_prof, T, n_paths,
                             np.random.default_rng(seed), y0=y0)
    regimes = batch["regimes"]
    zeros = np.zeros(n_paths)
    path_sum = np.zeros(n_paths)
    path_cnt = np.zeros(n_paths, dtype=int)
    for n in range(T):
        prev, cur = window_sums(batch["window_csum"], robo_prof.phi, n)
        y = regimes[:, n]
        pi_robo = policy_robo.allocation_at(n, batch["xi"][:, n], prev, cur, y)
        pi_full = full_policy.allocation_at(n, batch["gamma_client"][:, n], zeros, zeros, y)
        ok = np.abs(pi_full) >= 1e-10
        gap = np.where(
            ok, np.abs(pi_robo - pi_full) / np.where(ok, np.abs(pi_full), 1.0), 0.0
        )
        path_sum += gap
        path_cnt += ok
    live = path_cnt > 0
    per_path = path_sum[live] / path_cnt[live]
    return (float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(live.sum())),
            int(T * n_paths - path_cnt.sum()))


@pytest.mark.parametrize("phi", [1, 2, 3, 9])
def test_s_measure_equals_path_major_formula(two_state_market, phi):
    prof = shocky_profile(gamma0=3.0, alpha=0.02)
    grid, T = GridSpec(xi_count=9, zsum_count=7, quad_points=5), 18
    full = full_information_policy(two_state_market, prof, T, grid)
    got = s_measure(two_state_market, replace(prof, phi=phi, beta=2.0), T, grid, 500,
                    seed=phi, y0=1, full_policy=full)
    want = _path_major_s_measure(phi, 2.0, two_state_market, prof, T, grid, 500,
                                 phi, 1, full)
    assert (got.estimate, got.se, got.excluded_steps) == want


def test_s_measure_rejects_unknown_start_regime_before_solving(two_state_market,
                                                              monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking y0")

    # s_measure runs the advisor's backward induction itself and solves the
    # full-information policy with solve.
    monkeypatch.setattr(personalization, "_backward_steps", no_solve)
    monkeypatch.setattr(personalization, "solve", no_solve)
    for y0 in (-1, 2, 1.0):
        with pytest.raises(ConfigError, match="y0"):
            s_measure(two_state_market, shocky_profile(phi=3, beta=2.0), 12, GridSpec(),
                      200, seed=1, y0=y0)


def test_s_measure_keeps_only_the_advisor_allocations(two_state_market):
    # The benchmark's shape: T=18, phi=2, the default grid, 4 000 paths. The
    # full PolicyTables of the advisor's solve (pi, a, b and V) peaked at
    # 30.0 MB under tracemalloc, and its allocation table alone is 5.2 MB.
    # Stored without the moment tables, the estimate peaked at 13.8 MB; read
    # one period at a time as the induction yields it, with one regime-last
    # slice and the advisor's allocation per path-step (0.6 MB), it peaks
    # at 11.5 MB.
    prof = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64)
    T, grid = 18, GridSpec()
    full = full_information_policy(two_state_market, prof, T, grid)
    tracemalloc.start()
    try:
        s_measure(two_state_market, replace(prof, phi=2, beta=2.0), T, grid, 4_000,
                  seed=41, full_policy=full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13e6


def test_s_measure_rejects_a_full_policy_solved_for_other_inputs(single_state_market,
                                                                two_state_market):
    prof, grid, T = shocky_profile(), GridSpec(xi_count=9, quad_points=8), 12
    others = [
        full_information_policy(two_state_market, prof, T, grid),
        full_information_policy(single_state_market, replace(prof, gamma0=2.0), T, grid),
        full_information_policy(single_state_market, prof, T, replace(grid, xi_count=11)),
        solve(single_state_market, replace(prof, phi=1, beta=0.0), T, grid,
              bounds=(-1.0, 2.0)),
    ]
    for other in others:
        with pytest.raises(ConfigError, match="full_policy"):
            s_measure(single_state_market, replace(prof, phi=2, beta=2.0), T, grid, 300,
                      seed=11, full_policy=other)


# -- the streamed measures against their whole-batch forms -------------------------


def _whole_batch_r_measure(market, profile, T, n_paths, seed, y0=0):
    """R as it was computed before it streamed its paths in blocks: the whole
    batch's rows from the time-major client core, kept as the bit-exact
    reference."""
    rows = _client_steps(market, profile, T, n_paths, np.random.default_rng(seed), y0,
                         ("gamma_client", "gamma_robo"))
    ratio = rows["gamma_client"][:T]
    ratio /= rows["gamma_robo"][:T]
    ratio -= 1.0
    per_path = _time_sums(np.abs(ratio, out=ratio)) / T
    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(n_paths))


def _whole_batch_s_measure(market, profile, T, grid, n_paths, seed, y0=0):
    """S as it was computed before it read the induction one period at a
    time: the advisor's whole allocation table, then the rows, then one
    lookup of each policy per step, kept as the bit-exact reference."""
    robo_tab = solve(market, profile, T, grid)
    full = full_information_policy(market, profile, T, grid)
    rows = _client_steps(market, profile, T, n_paths, np.random.default_rng(seed), y0,
                         ("regimes", "gamma_client", "xi", "window_csum"))
    regimes = rows["regimes"][:T]
    robo_at = _window_lookup(robo_tab.grid, profile, robo_tab.pi.shape, rows["xi"],
                             rows["window_csum"], regimes)
    full_at = _window_lookup(full.grid, full.profile, full.pi.shape,
                             rows["gamma_client"], rows["window_csum"], regimes)
    path_sum = np.zeros(n_paths)
    path_cnt = np.zeros(n_paths, dtype=int)
    for n in range(T):
        pi_robo, pi_full = robo_at(n, robo_tab.pi[n]), full_at(n, full.pi[n])
        ok = np.abs(pi_full) >= 1e-10
        gap = np.where(
            ok, np.abs(pi_robo - pi_full) / np.where(ok, np.abs(pi_full), 1.0), 0.0
        )
        path_sum += gap
        path_cnt += ok
    live = path_cnt > 0
    per_path = path_sum[live] / path_cnt[live]
    return (float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(live.sum())),
            int(T * n_paths - path_cnt.sum()))


@st.composite
def _measure_cases(draw):
    M = draw(st.integers(1, 3))
    transition = np.array([
        draw(st.lists(st.floats(0.05, 1.0), min_size=M, max_size=M)) for _ in range(M)
    ])
    transition /= transition.sum(axis=1, keepdims=True)
    market = MarketParams(
        num_states=M, transition=transition, risk_free=np.linspace(0.0, 0.02, M),
        mean_return=np.linspace(0.06, 0.14, M), vol_return=np.linspace(0.12, 0.25, M),
        steps_per_year=12,
    )
    T = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["scalar", "per_regime", "table"]))
    if kind == "scalar":
        gamma_bar = draw(st.floats(0.5, 2.0))
    elif kind == "per_regime":
        gamma_bar = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=M, max_size=M)))
    else:
        gamma_bar = np.exp(np.random.default_rng(T).normal(0.0, 0.2, (T + 1, M)))
    eta = None
    if draw(st.booleans()):
        eta = np.random.default_rng(M).normal(0.0, 0.3, T + 1)
    profile = RiskProfileParams(
        gamma0=draw(st.floats(1.0, 6.0)),
        alpha=0.0 if eta is not None else draw(st.floats(0.0, 0.1)),
        p_eps=draw(st.sampled_from([0.0, 0.05, 0.5])),
        sigma_eps=draw(st.floats(0.1, 0.8)), beta=draw(st.sampled_from([0.0, 2.0, 3.5])),
        phi=draw(st.integers(1, 7)), gamma_bar=gamma_bar, eta=eta,
    )
    # Path-steps per R block, small so that the blocks do not divide n_paths.
    r_block = draw(st.integers(1, 700))
    return (market, profile, T, draw(st.integers(100, 321)), draw(st.integers(0, M - 1)),
            draw(st.integers(0, 2**32 - 1)), r_block)


@settings(deadline=None, max_examples=60)
@given(_measure_cases())
def test_streamed_measures_equal_their_whole_batch_forms(case):
    market, profile, T, n_paths, y0, seed, r_block = case
    with mock.patch.object(personalization, "_R_BLOCK", r_block):
        got = r_measure(market, profile, T, n_paths, seed, y0=y0)
    assert got == _whole_batch_r_measure(market, profile, T, n_paths, seed, y0)

    grid = GridSpec(xi_count=5, zsum_count=3, quad_points=3)
    try:
        want = _whole_batch_s_measure(market, profile, T, grid, n_paths, seed, y0)
    except GridExhausted:
        with pytest.raises(GridExhausted):
            s_measure(market, profile, T, grid, n_paths, seed, y0=y0)
        return
    got = s_measure(market, profile, T, grid, n_paths, seed, y0=y0)
    assert (got.estimate, got.se, got.excluded_steps) == want


def test_r_measure_builds_the_profile_tables_once_per_client_simulation(
        two_state_market):
    # check_sampling builds the cycle-factor table once and the client
    # simulator once for all its path blocks (11 at 20 000 x 18).
    profile = RiskProfileParams(gamma0=3.0, p_eps=0.05, beta=2.0, phi=3,
                                gamma_bar=np.array([1.0, 1.5]))
    with mock.patch.object(RiskProfileParams, "gamma_bar_table", autospec=True,
                           side_effect=RiskProfileParams.gamma_bar_table) as spy:
        r_measure(two_state_market, profile, 18, 20_000, 5)
    assert spy.call_count == 2


def test_r_measure_streams_within_its_memory_bound(two_state_market):
    # The benchmark's shape: 20 000 paths, T=18, phi=1, the longest bias
    # row. The whole batch peaked at 13.25 MB under tracemalloc; blocks of
    # _R_BLOCK path-steps keep 1 B of regime and of jump mask per path-step
    # and 8 B of bias factor per path and interaction time, and peak at
    # 5.5 MB.
    prof = RiskProfileParams(gamma0=3.0, p_eps=0.05, sigma_eps=0.64, beta=2.0)
    tracemalloc.start()
    try:
        r_measure(two_state_market, prof, 18, 20_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
