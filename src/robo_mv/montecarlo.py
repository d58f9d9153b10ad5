"""Forward simulation of wealth paths and terminal-distribution statistics.

A strategy is either a fixed state-keyed allocation cycle (CycleStrategy) or
a solved policy (PolicyTables together with the client profile that drives
its risk-aversion inputs). Either way the wealth recursion is

    X_{n+1} = R_step(y_n) X_n + (z_{n+1} - r_step(y_n)) * dollars_n,

with dollars_n the fraction-of-wealth allocation times current wealth, or the
liquidation overlay thereof. The recursion runs time-major: each step reads
one contiguous row of regimes and returns, straight from the regime sampler's
time-major core for a fixed mix, or from `simulate_clients`' path-major
arrays transposed once per chunk for a solved policy. Simulation is chunked
into fixed-size blocks of paths with RNG streams spawned per block from the
master seed, so results are bit-identical for a given seed regardless of the
thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from robo_mv.cycle_analytics import CycleStrategy
from robo_mv.errors import ConfigError, InsufficientSamples
from robo_mv.market import MarketParams, _sample_steps
from robo_mv.risk_profile import RiskProfileParams, simulate_clients, window_sums
from robo_mv.solver import PolicyTables, constrain, liquidation_overlay

_CHUNK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """One simulation experiment: market, strategy, horizon, and bookkeeping.

    profile is required when the strategy is a solved policy (it drives the
    client's communicated risk aversion along each path) and ignored for
    fixed cycles. bounds, when given, clamp every allocation fraction; the
    liquidate flag zeroes the risky position on any path whose wealth has
    gone negative.
    """

    market: MarketParams
    strategy: CycleStrategy | PolicyTables
    T: int
    n_paths: int
    seed: object = None
    profile: RiskProfileParams | None = None
    y0: int = 0
    x0: float = 1.0
    bounds: tuple[float, float] | None = None
    liquidate: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if not (math.isfinite(self.x0) and self.x0 > 0):
            raise ConfigError(f"x0 must be finite and > 0, got {self.x0}")
        if not 0 <= self.y0 < self.market.num_states:
            raise ConfigError(f"y0={self.y0} outside the market's regimes")
        if self.bounds is not None:
            if not all(math.isfinite(v) for v in self.bounds):
                raise ConfigError(f"bounds must be finite, got {self.bounds}")
            if self.bounds[0] > self.bounds[1]:
                raise ConfigError(f"bounds out of order: {self.bounds}")
        if isinstance(self.strategy, PolicyTables):
            if self.profile is None:
                raise ConfigError("a solved-policy strategy needs a client profile")
            if self.T > self.strategy.T:
                raise ConfigError(
                    f"horizon {self.T} exceeds the policy's {self.strategy.T}"
                )
        elif not isinstance(self.strategy, CycleStrategy):
            raise ConfigError(f"unsupported strategy {type(self.strategy).__name__}")


def _chunk_returns(config: SimConfig, m: int, rng: np.random.Generator) -> np.ndarray:
    market, T = config.market, config.T
    if isinstance(config.strategy, CycleStrategy):
        regimes, returns = _sample_steps(market, config.y0, T, m, rng)
        alloc = np.asarray(config.strategy.allocations(market.num_states))
        if config.bounds is not None:
            alloc = constrain(alloc, *config.bounds)

        def frac_at(n, y):
            return alloc[y]

    else:
        policy = config.strategy
        batch = simulate_clients(market, config.profile, T, m, rng, y0=config.y0)
        # One time-major copy each; the path-major arrays are dropped as we go.
        regimes = np.ascontiguousarray(batch.pop("regimes").T)
        returns = np.ascontiguousarray(batch.pop("returns").T)
        phi = config.profile.phi

        def frac_at(n, y):
            prev, cur = window_sums(batch["window_csum"], phi, n)
            f = policy.allocation_at(n, batch["xi"][:, n], prev, cur, y)
            if config.bounds is not None:
                f = constrain(f, *config.bounds)
            return f

    # X_{n+1} = R_step[y] X + (z - r_step[y]) dollars over one contiguous row
    # per step, in place: IEEE products and sums commute, so every element
    # gets the same bits as the expression written out.
    r_step, R_step = market.r_step, market.R_step
    X = np.full(m, float(config.x0))
    for n, (y, z) in enumerate(zip(regimes, returns)):
        f = frac_at(n, y)
        dollars = liquidation_overlay(X, f) if config.liquidate else f * X
        excess = z - r_step[y]
        excess *= dollars
        X *= R_step[y]
        X += excess
    return X / config.x0 - 1.0


def simulate(config: SimConfig, threads: int = 1) -> np.ndarray:
    """Terminal total returns (X_T - x0)/x0, one per path.

    Deterministic for a given config seed: paths are generated in fixed-size
    chunks with independently spawned RNG streams, so neither the thread
    count nor the total path count changes the values of earlier chunks.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    sizes = [
        min(_CHUNK, config.n_paths - start)
        for start in range(0, config.n_paths, _CHUNK)
    ]
    seeds = np.random.SeedSequence(config.seed).spawn(len(sizes))
    jobs = [(m, np.random.default_rng(s)) for m, s in zip(sizes, seeds)]
    if threads == 1 or len(jobs) == 1:
        parts = [_chunk_returns(config, m, rng) for m, rng in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(lambda job: _chunk_returns(config, *job), jobs)
            )
    return np.concatenate(parts)


@dataclass(frozen=True)
class StatsSummary:
    """Distribution summary in the house format.

    Kurtosis is raw (a Gaussian scores 3); skewness is the standardized third
    moment; VaR at level alpha is minus the empirical (1-alpha)-quantile with
    linear interpolation, so a gain at that quantile reports as negative VaR.
    For a constant sample both shape statistics are NaN.
    """

    mean: float
    sd: float
    skewness: float
    kurtosis: float
    var90: float
    var95: float
    var99: float


def stats(returns) -> StatsSummary:
    """Summary statistics of a sample of (total or annualized) returns."""
    x = np.asarray(returns, dtype=float)
    if x.size < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {x.size}")
    mean = float(x.mean())
    d = x - mean
    m2 = float((d * d).mean())
    if m2 > 0.0:
        skew = float((d**3).mean()) / m2**1.5
        kurt = float((d**4).mean()) / m2**2
    else:
        skew = kurt = math.nan
    q10, q05, q01 = np.quantile(x, [0.10, 0.05, 0.01])
    return StatsSummary(
        mean=mean,
        sd=float(x.std(ddof=1)),
        skewness=skew,
        kurtosis=kurt,
        var90=-float(q10),
        var95=-float(q05),
        var99=-float(q01),
    )


def annualized(returns, T: int, steps_per_year: int) -> tuple[np.ndarray, int]:
    """Per-path annualized rates (1+r)^(k/T) - 1 and the count of excluded
    paths (total return at or below -100%, where the power is undefined)."""
    if T < 1 or steps_per_year < 1:
        raise ConfigError(f"need T >= 1 and steps_per_year >= 1, got {T}, {steps_per_year}")
    x = np.asarray(returns, dtype=float)
    ok = x > -1.0
    rates = (1.0 + x[ok]) ** (steps_per_year / T) - 1.0
    return rates, int(x.size - ok.sum())


def long_run_sharpe(
    strategy: CycleStrategy,
    market: MarketParams,
    total_steps: int,
    seed,
    y0: int = 0,
) -> float:
    """Per-step Sharpe ratio of pooled excess returns over one long path.

    The path is the one of ``sample_paths(market, y0, total_steps, 1, rng)``
    with ``rng = default_rng(seed)``, read from the sampler's time-major core
    without a transposed copy, so it shares the regime sampler (and its block
    scheme for long paths) with `simulate`.
    """
    if total_steps < 10_000:
        raise InsufficientSamples(
            f"need at least 10000 steps for a stable estimate, got {total_steps}"
        )
    regimes, z = _sample_steps(market, y0, total_steps, 1, np.random.default_rng(seed))
    ys, z = regimes[:-1, 0], z[:, 0]
    alloc = np.asarray(strategy.allocations(market.num_states))
    excess = alloc[ys] * (z - market.r_step[ys])
    sd = float(excess.std(ddof=1))
    if sd == 0.0:
        raise InsufficientSamples("degenerate excess returns: zero variance")
    return float(excess.mean()) / sd
