"""Long-run Sharpe-ratio analytics for state-homogeneous allocation rules.

A rule here keeps the risky fraction constant within each regime: a base
allocation in the growth state and a tilted allocation in the recessionary
state. The long-run (stationary) Sharpe ratio of such a rule has a closed
form, and so do the signs of its derivatives with respect to the market
asymmetry parameters. The module also inverts the construction: given the
rule, it recovers the unique risk-aversion process that makes the rule the
equilibrium policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robo_mv.errors import (
    BadDimension,
    ConfigError,
    DegenerateDenominator,
    RootBracketFailure,
)
from robo_mv.market import (
    MarketParams,
    check_count,
    check_number,
    stationary_distribution,
    validate,
)
from robo_mv.solver import state_only_ab


@dataclass(frozen=True)
class CycleStrategy:
    """Fixed-mix rule: `pi_bar` in the growth state, `pi_bar*(1+delta)` in
    every other state."""

    pi_bar: float
    delta: float = 0.0

    def __post_init__(self):
        for name in ("pi_bar", "delta"):
            check_number(getattr(self, name), name)
        if not self.pi_bar > 0:
            raise ConfigError(f"pi_bar must be > 0, got {self.pi_bar}")
        if not self.delta > -1.0:
            raise ConfigError(f"delta must be > -1, got {self.delta}")

    def allocations(self, num_states: int) -> np.ndarray:
        """Per-regime risky fractions, the tilt applied to states 1, 2, ..."""
        out = np.full(num_states, self.pi_bar * (1.0 + self.delta))
        out[0] = self.pi_bar
        return out


@dataclass(frozen=True)
class SharpeInputs:
    """Reduced two-state parameters of the closed-form Sharpe ratio.

    lam  -- stationary probability of the recessionary state,
    a    -- ratio of mean excess returns, state 2 over state 1,
    b    -- ratio of return volatilities, state 2 over state 1,
    u    -- squared inverse market Sharpe ratio of state 1, per step.

    All per-step: u scales with the number of steps per year, a and b do not.
    """

    lam: float
    a: float
    b: float
    u: float

    def __post_init__(self):
        for name in ("lam", "a", "b", "u"):
            check_number(getattr(self, name), name)
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must lie in [0, 1], got {self.lam}")
        for name in ("a", "b", "u"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")


def inputs_from_market(market: MarketParams) -> SharpeInputs:
    """Reduce a two-state market to the (lam, a, b, u) parameterization."""
    validate(market)
    if market.num_states != 2:
        raise BadDimension(
            f"the reduced parameterization needs exactly 2 states, "
            f"got {market.num_states}"
        )
    mt = market.mu_tilde_step
    sg = market.sigma_step
    if mt[0] == 0.0:
        raise DegenerateDenominator("state-1 excess mean is zero")
    lam = float(stationary_distribution(market)[1])
    return SharpeInputs(
        lam=lam,
        a=float(mt[1] / mt[0]),
        b=float(sg[1] / sg[0]),
        u=float((sg[0] / mt[0]) ** 2),
    )


def sharpe_general(allocations, market: MarketParams) -> float:
    """Stationary per-step Sharpe ratio of a per-regime fixed-mix rule.

    Mean and variance of the one-step excess return are taken under the
    stationary regime distribution; the variance splits into a within-state
    part and a between-state part, which is what caps the ratio at the best
    single-state market Sharpe ratio.
    """
    return sharpe_sweep([allocations], market)[0]


def sharpe_sweep(rules, market: MarketParams) -> list[float]:
    """`sharpe_general` of each rule in turn, bit for bit, with the market
    validated and its stationary distribution solved once for all of them.
    Every rule's shape is checked first; a rule with zero return variance
    raises DegenerateDenominator when its turn comes."""
    validate(market)
    M = market.num_states
    pis = [np.asarray(allocations, dtype=float) for allocations in rules]
    for pi in pis:
        if pi.shape != (M,):
            raise BadDimension(
                f"need one allocation per state, got shape {pi.shape} "
                f"for {M} states"
            )
    lam = stationary_distribution(market)
    mt = market.mu_tilde_step
    sg = market.sigma_step
    out = []
    for pi in pis:
        mean = float(np.sum(lam * mt * pi))
        var = float(np.sum(lam * (sg**2 * pi**2 + (mt * pi - mean) ** 2)))
        if var <= 0.0:
            raise DegenerateDenominator("the rule has zero return variance")
        out.append(mean / math.sqrt(var))
    return out


def sharpe_delta(delta: float, inputs: SharpeInputs) -> float:
    """Closed-form per-step Sharpe ratio of the tilted rule as a function of
    the tilt.

    The base allocation cancels, leaving s = 1/sqrt(h - 1) with

        h = ((1-lam)(1+u) + lam (a^2 + u b^2)(1+delta)^2) / g^2,
        g = 1 + lam (a (1+delta) - 1).
    """
    check_number(delta, "delta")
    lam, a, b, u = inputs.lam, inputs.a, inputs.b, inputs.u
    g = 1.0 + lam * (a * (1.0 + delta) - 1.0)
    if g <= 0.0:
        raise DegenerateDenominator(
            f"mean excess return is not positive at delta={delta}"
        )
    h = ((1.0 - lam) * (1.0 + u) + lam * (a * a + u * b * b) * (1.0 + delta) ** 2) / (
        g * g
    )
    if h - 1.0 <= 0.0:
        raise DegenerateDenominator(f"zero return variance at delta={delta}")
    return 1.0 / math.sqrt(h - 1.0)


def monotone_in_delta(delta: float, inputs: SharpeInputs) -> bool:
    """Whether the Sharpe ratio is rising in the tilt at this point:

        ds/ddelta > 0  <=>  1 + u > a (1 + (b^2/a^2) u) (1 + delta).
    """
    check_number(delta, "delta")
    a, b, u = inputs.a, inputs.b, inputs.u
    return 1.0 + u > (a + u * b * b / a) * (1.0 + delta)


def sensitivity_predicates(inputs: SharpeInputs, delta: float = 0.0) -> dict:
    """Signs of the Sharpe ratio's derivatives in (a, b, lam) at a tilt.

    Each entry is the exact inequality characterization, rearranged into a
    division-free form so it stays valid at the lam = 1 boundary and when
    a (1+delta) crosses 1 (the textbook single-fraction display silently
    assumes both factors of its denominator are positive):

        increasing_in_a:   a (1-lam)(1+delta) < (1-lam)(1+u) + lam u b^2 (1+delta)^2
        decreasing_in_b:   always, for b > 0
        increasing_in_lam: lam * e * (c1 - c0) > c1 - c0 (2 a (1+delta) - 1)

    with e = a(1+delta) - 1, c0 = 1 + u, c1 = (a^2 + u b^2)(1+delta)^2.
    """
    check_number(delta, "delta")
    lam, a, b, u = inputs.lam, inputs.a, inputs.b, inputs.u
    d1 = 1.0 + delta
    e = a * d1 - 1.0
    c0 = 1.0 + u
    c1 = (a * a + u * b * b) * d1 * d1
    return {
        "increasing_in_a": a * (1.0 - lam) * d1 < (1.0 - lam) * c0 + lam * u * b * b * d1 * d1,
        "decreasing_in_b": b > 0.0,
        "increasing_in_lam": lam * e * (c1 - c0) > c1 - c0 * (2.0 * a * d1 - 1.0),
    }


def concavity_at_zero(inputs: SharpeInputs, step: float = 1e-3) -> float:
    """Central second difference of the Sharpe ratio at zero tilt.

    Negative for small positive lam (the ratio is locally concave: cutting
    the recession allocation hurts more than raising it helps) and zero at
    lam = 0, where the tilt never applies.
    """
    if not check_number(step, "step") > 0:
        raise ConfigError(f"step must be > 0, got {step}")
    s = lambda d: sharpe_delta(d, inputs)
    return (s(step) - 2.0 * s(0.0) + s(-step)) / (step * step)


def implied_gamma(pi_bar: float, delta: float, market: MarketParams, T: int) -> np.ndarray:
    """Risk-aversion table (T, num_states) whose equilibrium policy is the
    tilted fixed-mix rule.

    At the final step the one-period ratio is inverted directly. Earlier, at
    the rule's own future moments mu_a, mu_b (gap = mu_b - mu_a^2), solving
    allocation_independent for gamma gives

        gamma = mu_tilde mu_a / (pi sigma^2 D + mu_tilde R gap),
        D = mu_b + (mu_tilde/sigma)^2 gap,

    admissible when gap > 0 and 0 < gamma < mu_a / (R gap), where the
    allocation is strictly decreasing in gamma; the final step needs only
    gamma > 0. Raises RootBracketFailure when any entry is inadmissible.
    """
    validate(market)
    strategy = CycleStrategy(pi_bar, delta)
    check_count(T, "horizon T", 1)
    M = market.num_states
    alloc = strategy.allocations(M)
    a, b = state_only_ab(market, np.tile(alloc, (T, 1)))

    P = market.transition
    mt = market.mu_tilde_step
    s2 = market.sigma_step**2
    R = market.R_step
    gam = np.empty((T, M))
    gam[T - 1] = mt / (alloc * s2)
    mu_a = a[1:T] @ P.T
    mu_b = b[1:T] @ P.T
    gap = mu_b - mu_a**2
    D = mu_b + (mt * mt / s2) * gap
    with np.errstate(divide="ignore", invalid="ignore"):
        gam[: T - 1] = mt * mu_a / (alloc * s2 * D + mt * R * gap)
        hi = mu_a / (R * gap)
    ok = gam > 0.0
    ok[: T - 1] &= (gap > 0.0) & (gam[: T - 1] < hi)
    if not ok.all():
        n, y = np.argwhere(~ok)[-1]
        raise RootBracketFailure(
            f"no admissible risk aversion at n={n}, state {y}: "
            f"closed form gives {gam[n, y]!r}"
        )
    return gam


def annualize_sharpe(s_step: float, steps_per_year: int) -> float:
    """Scale a per-step Sharpe ratio to an annual one."""
    check_count(steps_per_year, "steps_per_year", 1)
    return s_step * math.sqrt(steps_per_year)
