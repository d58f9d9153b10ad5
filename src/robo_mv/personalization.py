"""Interaction-frequency tradeoff: personalization gained by frequent client
contact versus behavioral bias picked up at each contact.

Two Monte Carlo measures quantify the tradeoff. R averages the relative gap
between the client's true risk tolerance and the advisor's model of it; S
averages the relative gap between the corresponding equilibrium allocations.
R has a closed-form approximation (r_tilde) whose unique minimizer in the
interaction period phi -- when one exists -- is computed analytically, along
with the sign test for whether interacting every step is suboptimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from robo_mv.errors import ConfigError, InsufficientSamples, ZeroAllocation
from robo_mv.market import MarketParams, check_count, check_number, check_regime
from robo_mv.risk_profile import (
    RiskProfileParams,
    _ProfileTables,
    _client_blocks,
    _client_steps,
    _time_sums,
)
from robo_mv.solver import (
    ClampCounters,
    GridSpec,
    PolicyTables,
    _backward_steps,
    _checked_grid,
    _params_digest,
    _put_regime_last,
    _window_lookup,
    solve,
)

_ROOT_2_PI = math.sqrt(2.0 / math.pi)


def _check_inputs(phi=None, integer: bool = False, **rates):
    """The one input rule of the closed forms: phi, unless None, is a
    finite number >= 1 (an integer when `integer`), and each named rate a
    finite number >= 0 (`check_number`, then the sign), p_eps, a
    probability, also <= 1; anything else raises ConfigError. Returns phi
    as checked."""
    for name, value in rates.items():
        if check_number(value, name) < 0:
            raise ConfigError(f"{name} must be >= 0, got {value!r}")
        if name == "p_eps" and value > 1:
            raise ConfigError(f"p_eps must lie in [0, 1], got {value!r}")
    if phi is None:
        return None
    checked = check_number(phi, "phi", integer)
    if checked < 1:
        raise ConfigError(f"phi must be >= 1, got {phi!r}")
    return checked


def r_tilde(phi: float, beta: float, sigma0: float, p_eps: float, sigma_eps: float) -> float:
    """Closed-form approximation of the personalization measure R.

    sqrt(2/pi) * ( beta*sigma0/sqrt(phi) * (1 - (phi-1)/2 * p_eps)
                   + sqrt(beta^2 sigma0^2/phi + sigma_eps^2) * (phi-1)/2 * p_eps )

    The first term is the behavioral bias accrued over the return window; the
    second is the drift of idiosyncratic shocks since the last interaction.
    """
    _check_inputs(phi, beta=beta, sigma0=sigma0, p_eps=p_eps, sigma_eps=sigma_eps)
    c = beta * sigma0
    half_tail = 0.5 * (phi - 1.0) * p_eps
    return _ROOT_2_PI * (
        c / math.sqrt(phi) * (1.0 - half_tail)
        + math.sqrt(c * c / phi + sigma_eps * sigma_eps) * half_tail
    )


def r_tilde_dphi(phi: float, beta: float, sigma0: float, p_eps: float, sigma_eps: float) -> float:
    """Analytic derivative of r_tilde with respect to phi."""
    _check_inputs(phi, beta=beta, sigma0=sigma0, p_eps=p_eps, sigma_eps=sigma_eps)
    c = beta * sigma0
    v = math.sqrt(c * c / phi + sigma_eps * sigma_eps)
    terms = (
        -0.5 * c * phi**-1.5 * (1.0 - 0.5 * (phi - 1.0) * p_eps)
        - 0.5 * c * p_eps / math.sqrt(phi)
        + 0.5 * v * p_eps
    )
    if v > 0.0:
        terms -= c * c * (phi - 1.0) * p_eps / (4.0 * phi * phi * v)
    return _ROOT_2_PI * terms


def interact_every_step_suboptimal(
    beta: float, sigma0: float, p_eps: float, sigma_eps: float
) -> bool:
    """Whether r_tilde is falling at phi = 1, so that waiting beats
    interacting every step.

    Equivalent to p_eps*sigma_eps/(beta*sigma0) < sqrt(1 + 2 p_eps): the
    idiosyncratic drift rate must stay below the (slightly inflated)
    behavioral-bias rate.
    """
    _check_inputs(beta=beta, sigma0=sigma0, p_eps=p_eps, sigma_eps=sigma_eps)
    if beta * sigma0 == 0.0:
        raise ZeroDivisionError("the condition compares against beta*sigma0 > 0")
    return r_tilde_dphi(1.0, beta, sigma0, p_eps, sigma_eps) < 0.0


@dataclass(frozen=True)
class PhiStar:
    """Minimizer of r_tilde over phi >= 1.

    phi is +inf with unbounded=True when r_tilde is strictly decreasing
    (no idiosyncratic shocks to track) or still falling at phi_max. phi_int
    is the better of the two adjacent integers, since actual schedules are
    integer-spaced.
    """

    phi: float
    unbounded: bool
    phi_int: int | None


def phi_star(
    beta: float,
    sigma0: float,
    p_eps: float,
    sigma_eps: float,
    phi_max: float = 1200.0,
) -> PhiStar:
    """Unique minimizer of r_tilde in phi, in closed form.

    Case table: no bias (beta*sigma0 = 0) -> 1; bias but no shocks to chase
    (p_eps = 0 or sigma_eps = 0) -> unbounded; r_tilde already rising at
    phi = 1 -> 1; otherwise the root of the derivative, which starts
    negative and crosses zero once. A root above phi_max reports unbounded;
    a root at or below it is returned.

    With c = beta*sigma0, p = p_eps, s = sigma_eps and
    v = sqrt(c^2/phi + s^2), the derivative vanishes where

        c sqrt(phi) v (2 + p + p phi) = p (2 s^2 phi^2 + c^2 phi + c^2).

    Both sides are positive, so squaring loses nothing: the derivative has
    the sign of the quartic

        p^2 (2 s^2 phi^2 + c^2 phi + c^2)^2 - c^2 (s^2 phi + c^2) (p phi + 2 + p)^2,

    and the root is the quartic's one root >= 1. The quartic is negative at
    phi = 1 and its leading coefficient is positive, so that root is its
    largest real root (np.roots returns real roots with imaginary part
    exactly 0), and it lies above phi_max exactly when the quartic is still
    negative there. Divided by c^4 the quartic depends on p and s/c alone,
    so c and s are scaled to max(c, s) = 1 and it is divided by c^2, which
    keeps its coefficients in floating-point range. A root a rounding error
    outside [1, phi_max] is read as the nearer end.
    """
    _check_inputs(beta=beta, sigma0=sigma0, p_eps=p_eps, sigma_eps=sigma_eps)
    if check_number(phi_max, "phi_max") < 1:
        raise ConfigError(f"phi_max must be >= 1, got {phi_max}")
    if beta * sigma0 == 0.0:
        return PhiStar(phi=1.0, unbounded=False, phi_int=1)
    if p_eps == 0.0 or sigma_eps == 0.0:
        return PhiStar(phi=math.inf, unbounded=True, phi_int=None)

    args = (beta, sigma0, p_eps, sigma_eps)
    if r_tilde_dphi(1.0, *args) >= 0.0:
        return PhiStar(phi=1.0, unbounded=False, phi_int=1)

    scale = max(beta * sigma0, sigma_eps)
    c, s = beta * sigma0 / scale, sigma_eps / scale
    u = p_eps / c
    bias = [2.0 * s * s, c * c, c * c]
    shock = [p_eps, 2.0 + p_eps]
    quartic = np.polysub(
        u * u * np.polymul(bias, bias),
        np.polymul([s * s, c * c], np.polymul(shock, shock)),
    )
    if np.polyval(quartic, phi_max) < 0.0:
        return PhiStar(phi=math.inf, unbounded=True, phi_int=None)
    roots = np.roots(quartic)
    phi0 = min(max(float(roots.real[roots.imag == 0.0].max()), 1.0), phi_max)
    fl, ce = math.floor(phi0), math.ceil(phi0)
    best = fl if r_tilde(fl, *args) <= r_tilde(ce, *args) else ce
    return PhiStar(phi=phi0, unbounded=False, phi_int=int(best))


def r_tilde_sandwich(
    phi: int, beta: float, sigma0: float, p_eps: float, sigma_eps: float, T: int
) -> tuple[float, float]:
    """Bracketing values (T_phi/T * r_tilde, T^phi/T * r_tilde) for the Monte
    Carlo R, where T_phi and T^phi are the largest multiple of phi <= T and
    the smallest >= T; T and phi must be integers >= 1. sigma0 is the
    per-step return SD in the starting regime (annual vol divided by
    sqrt(steps per year))."""
    check_count(T, "T", 1)
    phi = _check_inputs(phi, integer=True)
    rt = r_tilde(phi, beta, sigma0, p_eps, sigma_eps)
    return phi * (T // phi) / T * rt, phi * math.ceil(T / phi) / T * rt


# -- Monte Carlo measures -----------------------------------------------------


# Path-steps per block of r_measure's client paths: 1 820 paths at T = 18,
# so that a block's few float rows stay well under 1 MB each.
_R_BLOCK = 1 << 15


def check_sampling(market: MarketParams, profile: RiskProfileParams, T, n_paths,
                   y0=0) -> None:
    """The input checks that r_measure and s_measure make first, so that a
    bad value fails before any sampling or solve: the horizon T, the start
    regime y0, n_paths (at least 100), and the profile's gamma_bar and eta
    tables against the market and T. Raises ConfigError (InsufficientSamples
    for too few paths)."""
    check_regime(market, y0, "y0")
    check_count(T, "T", 1)
    check_count(n_paths, "n_paths", 1)
    if n_paths < 100:
        raise InsufficientSamples(f"need at least 100 paths, got {n_paths}")
    _ProfileTables(market, profile, T)


def r_measure(
    market: MarketParams,
    profile: RiskProfileParams,
    T: int,
    n_paths: int,
    seed,
    y0: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the personalization
    measure R: the time-averaged relative gap |gamma^C_n/gamma_n - 1| along
    the full regime-switching dynamics from the start regime y0.

    `profile` is the advisor's: its phi and beta are the interaction period
    and the bias under study. The frozen-regime measure that r_tilde
    approximates is this measure on a one-regime market whose per-step
    return SD is sigma0.

    The paths are simulated in blocks of about `_R_BLOCK` path-steps
    (`risk_profile._client_blocks`), each reduced to its per-path averages
    before the next is built; the estimate has the bits of the whole batch.
    """
    check_sampling(market, profile, T, n_paths, y0)
    rng = np.random.default_rng(seed)
    per_path = np.empty(n_paths)
    for paths, rows in _client_blocks(market, profile, T, n_paths, rng, y0,
                                      ("gamma_client", "gamma_robo"),
                                      max(1, _R_BLOCK // T)):
        ratio = rows["gamma_client"][:T]
        ratio /= rows["gamma_robo"][:T]
        ratio -= 1.0
        # Per-path time averages of |ratio - 1|, summed pairwise like a
        # contiguous path-major row so that the estimate keeps its bits for
        # a given seed.
        per_path[paths] = _time_sums(np.abs(ratio, out=ratio)) / T
        del rows, ratio  # freed before the next block is built
    est = float(per_path.mean())
    se = float(per_path.std(ddof=1) / math.sqrt(n_paths))
    return est, se


@dataclass(frozen=True)
class SMeasure:
    """Monte Carlo estimate of the allocation-gap measure S."""

    estimate: float
    se: float
    excluded_steps: int
    total_steps: int


def full_information_policy(
    market: MarketParams,
    profile: RiskProfileParams,
    T: int,
    grid: GridSpec,
) -> PolicyTables:
    """The benchmark policy of S: every-step interaction (phi = 1) and no
    behavioral bias (beta = 0). It does not depend on the phi and beta under
    study, so a sweep over them needs it only once."""
    return solve(market, _full_information(profile), T, grid)


def _full_information(profile: RiskProfileParams) -> RiskProfileParams:
    return replace(profile, phi=1, beta=0.0)


def s_measure(
    market: MarketParams,
    profile: RiskProfileParams,
    T: int,
    grid: GridSpec,
    n_paths: int,
    seed,
    y0: int = 0,
    full_policy: PolicyTables | None = None,
) -> SMeasure:
    """Monte Carlo estimate of S: the time-averaged relative gap between the
    allocation the advisor's model produces and the allocation under full
    information (every-step interaction, no bias). `profile` is the
    advisor's, as for r_measure.

    Both policies are solved on the same grid and evaluated along shared
    simulated paths. The paths are simulated first; the advisor's policy is
    then read one period at a time as the backward induction yields it, so
    only one regime-last slice of it is kept, plus the advisor's allocation
    at every path-step. `full_policy`, if given, is the full-information
    policy already solved by full_information_policy for the same market,
    profile, T and grid; its parameter digest must match, or ConfigError is
    raised. Path-steps where the full-information allocation is below 1e-10
    in magnitude are excluded from the average and counted in
    excluded_steps; if nothing remains the estimate is undefined.
    """
    check_sampling(market, profile, T, n_paths, y0)
    if full_policy is not None and full_policy.params_sha256 != _params_digest(
        market, _full_information(profile), T, grid, None
    ):
        raise ConfigError(
            "full_policy is not the full_information_policy of this market, "
            f"profile, grid and horizon T = {T}"
        )
    rng = np.random.default_rng(seed)
    rows = _client_steps(market, profile, T, n_paths, rng, y0,
                         ("regimes", "gamma_client", "xi", "window_csum"))
    regimes = rows["regimes"][:T]

    g = _checked_grid(market, profile, T, grid)
    robo_at = _window_lookup(g, profile, (T,) + g.shape, rows.pop("xi"),
                             rows["window_csum"], regimes)
    pi_n = np.empty(g.shape)
    robo = np.empty((T, n_paths))
    for n, p_n, _, _ in _backward_steps(market, profile, T, g, None, ClampCounters()):
        _put_regime_last(pi_n, p_n)
        robo[n] = robo_at(n, pi_n)
    del robo_at, pi_n

    policy_full = (full_policy if full_policy is not None
                   else full_information_policy(market, profile, T, grid))
    # The full-information client reports gamma^C every step, unbiased. Its
    # beta = 0 grid has one node on each window axis, where every window sum
    # reads the same, so it shares the advisor's rows of window sums.
    full_at = _window_lookup(policy_full.grid, policy_full.profile,
                             policy_full.pi.shape, rows["gamma_client"],
                             rows["window_csum"], regimes)
    path_sum = np.zeros(n_paths)
    path_cnt = np.zeros(n_paths, dtype=int)
    for n, pi_robo in enumerate(robo):
        pi_full = full_at(n, policy_full.pi[n])
        ok = np.abs(pi_full) >= 1e-10
        gap = np.where(
            ok, np.abs(pi_robo - pi_full) / np.where(ok, np.abs(pi_full), 1.0), 0.0
        )
        path_sum += gap
        path_cnt += ok

    excluded = int(T * n_paths - path_cnt.sum())
    live = path_cnt > 0
    if not live.any():
        raise ZeroAllocation(
            "every path-step had a full-information allocation below 1e-10"
        )
    per_path = path_sum[live] / path_cnt[live]
    est = float(per_path.mean())
    se = float(per_path.std(ddof=1) / math.sqrt(live.sum()))
    return SMeasure(
        estimate=est, se=se, excluded_steps=excluded, total_steps=T * n_paths
    )
