"""Forward simulation of wealth paths and terminal-distribution statistics.

A strategy is either a fixed state-keyed allocation cycle (CycleStrategy) or
a solved policy (PolicyTables, whose own client profile drives its
risk-aversion inputs). Either way the wealth recursion is

    X_{n+1} = R_step(y_n) X_n + (z_{n+1} - r_step(y_n)) * dollars_n,

with dollars_n the fraction-of-wealth allocation times current wealth, or the
liquidation overlay thereof. The recursion runs time-major, in place: each
step reads one contiguous row of regimes and returns. For a fixed mix they
come from the regime sampler's two phases: the regimes of the whole chunk
(`market._sample_regimes`), then the returns in blocks of whole paths
(`market._return_blocks`), and each block is advanced over every step
before the next is drawn. For a solved policy they come from the client
simulator, one time-major block of all the chunk's paths
(`risk_profile._client_steps`, which takes it from `_client_blocks`), and
the allocations are looked up once per step (`solver._window_lookup`) with
the xi and prev stencil located once per interaction window. Simulation is
chunked into fixed-size blocks of paths with RNG streams spawned per block
from the master seed, so results are bit-identical for a given seed
regardless of the thread count.

The samplers hand over regimes one byte wide (``np.min_scalar_type(M -
1)``), and each row is cast to intp once for its gathers. A fixed-mix
chunk's working set is therefore 1 B of regime per path-step plus one
~8 MB block of returns and a few ~1 MB draw buffers, ~16 MB for 32 768
paths over 120 steps (M + 1 B per path-step while the regimes are built);
each thread holds one.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from robo_mv.cycle_analytics import CycleStrategy
from robo_mv.errors import ConfigError, InsufficientSamples, NumericalError
from robo_mv.market import (
    MarketParams,
    _return_blocks,
    _sample_regimes,
    check_bounds,
    check_count,
    check_number,
    check_regime,
)
from robo_mv.risk_profile import _client_steps
from robo_mv.solver import (
    PolicyTables,
    _params_digest,
    _window_lookup,
    constrain,
    liquidation_overlay,
)

_CHUNK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """One simulation experiment: market, strategy, horizon, and bookkeeping.

    A solved policy brings the client profile it was solved for, which
    drives the client's communicated risk aversion along each path. It must
    have been solved for this market (its `params_sha256` is checked), and
    keeps the bounds it was solved with: bounds, which clamp a fixed cycle's
    fractions, must then be None or equal. liquidate zeroes the risky
    position of ruined paths.
    """

    market: MarketParams
    strategy: CycleStrategy | PolicyTables
    T: int
    n_paths: int
    seed: object = None
    y0: int = 0
    x0: float = 1.0
    bounds: tuple[float, float] | None = None
    liquidate: bool = False

    def __post_init__(self):
        check_count(self.T, "T", 1)
        check_count(self.n_paths, "n_paths", 1)
        if not check_number(self.x0, "x0") > 0:
            raise ConfigError(f"x0 must be finite and > 0, got {self.x0}")
        check_regime(self.market, self.y0, "y0")
        object.__setattr__(self, "bounds", check_bounds(self.bounds))
        if not isinstance(self.liquidate, bool):
            raise ConfigError(f"liquidate must be a bool, got {self.liquidate!r}")
        if isinstance(self.strategy, PolicyTables):
            if self.T > self.strategy.T:
                raise ConfigError(
                    f"horizon {self.T} exceeds the policy's {self.strategy.T}"
                )
            s = self.strategy
            if _params_digest(self.market, s.profile, s.T, s.grid,
                              s.bounds) != s.params_sha256:
                raise ConfigError("the policy was solved for another market")
            if self.bounds not in (None, s.bounds):
                raise ConfigError(f"bounds {self.bounds} differ from the bounds "
                                  f"{s.bounds} the policy was solved with")
        elif not isinstance(self.strategy, CycleStrategy):
            raise ConfigError(f"unsupported strategy {type(self.strategy).__name__}")


def _chunk_returns(config: SimConfig, m: int, rng: np.random.Generator) -> np.ndarray:
    market, T = config.market, config.T
    if isinstance(config.strategy, CycleStrategy):
        alloc = np.asarray(config.strategy.allocations(market.num_states))
        if config.bounds is not None:
            alloc = constrain(alloc, *config.bounds)
        # The returns stream in blocks of whole paths, each advanced over
        # all T steps through its view of X.
        regimes = _sample_regimes(market, config.y0, T, m, rng)
        X = np.full(m, float(config.x0))
        for paths, steps, z in _return_blocks(market, regimes, rng):
            _advance(X[paths], regimes[steps, paths], z, config, alloc)
    else:
        policy = config.strategy
        rows = _client_steps(market, policy.profile, T, m, rng, config.y0,
                             ("regimes", "returns", "xi", "window_csum"))
        regimes = rows["regimes"][:T]
        at = _window_lookup(policy.grid, policy.profile, policy.pi.shape, rows["xi"],
                            rows["window_csum"], regimes)
        fracs = (at(n, policy.pi[n]) for n in range(T))
        if policy.bounds is not None:
            fracs = (constrain(f, *policy.bounds) for f in fracs)
        X = np.full(m, float(config.x0))
        _advance(X, regimes, rows["returns"], config, fracs=fracs)
    # A value the recursion makes inf or NaN stays non-finite to the end.
    with np.errstate(over="ignore"):
        total = X / config.x0 - 1.0
    if not np.isfinite(total).all():
        raise NumericalError("simulated wealth overflowed: a terminal total "
                             "return is not finite")
    return total


def _advance(X, regimes, returns, config: SimConfig, alloc=None, fracs=None) -> None:
    """Advance wealth X in place over time-major rows of regimes and
    returns, with the fraction alloc[y] of a fixed mix or the next of the
    per-step fractions `fracs`:
    X_{n+1} = R_step[y] X + (z - r_step[y]) dollars, one contiguous row per
    step. IEEE products and sums commute, so every element gets the same
    bits as the expression written out. Each narrow regime row is cast to
    intp once for its gathers. Overflow and invalid operations give inf or
    NaN without a warning; the caller checks the terminal wealth."""
    r_step, R_step = config.market.r_step, config.market.R_step
    for y, z in zip(regimes, returns):
        y = y.astype(np.intp)
        f = alloc[y] if fracs is None else next(fracs)
        with np.errstate(over="ignore", invalid="ignore"):
            dollars = liquidation_overlay(X, f) if config.liquidate else f * X
            excess = z - r_step[y]
            excess *= dollars
            X *= R_step[y]
            X += excess


def simulate(config: SimConfig, threads: int = 1) -> np.ndarray:
    """Terminal total returns (X_T - x0)/x0, one per path.

    Deterministic for a given config seed: paths are generated in fixed-size
    chunks with independently spawned RNG streams, so neither the thread
    count nor the total path count changes the values of earlier chunks.
    """
    check_count(threads, "threads", 1)
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
    # products, not d**3 and d**4: numpy hands integer powers above 2 to
    # libm pow, several times slower
    d2 = d * d
    m2 = float(d2.mean())
    if m2 > 0.0:
        skew = float((d2 * d).mean()) / m2**1.5
        kurt = float((d2 * d2).mean()) / m2**2
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
    check_count(T, "T", 1)
    check_count(steps_per_year, "steps_per_year", 1)
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
    with ``rng = default_rng(seed)``: the regimes of `_sample_regimes` and
    the returns of `_return_blocks`, the two phases of the regime sampler
    that `simulate` shares. The returns are drawn straight into the array
    of excess returns, a time slice at a time, and each slice becomes
    ``alloc[y] * (z - r_step[y])`` in place, so the excess returns, 8 B per
    step, are the only full-length float array.
    """
    check_count(total_steps, "total_steps", 0)
    if total_steps < 10_000:
        raise InsufficientSamples(
            f"need at least 10000 steps for a stable estimate, got {total_steps}"
        )
    rng = np.random.default_rng(seed)
    regimes = _sample_regimes(market, y0, total_steps, 1, rng)
    alloc = np.asarray(strategy.allocations(market.num_states))
    excess = np.empty(total_steps)
    for _, steps, z in _return_blocks(market, regimes, rng, out=excess[:, None]):
        # The slice of returns becomes (z - r_step[y]) * alloc[y] in place,
        # the product commuted.
        ys = regimes[steps, 0].astype(np.intp)
        z = z[:, 0]
        z -= market.r_step[ys]
        z *= alloc[ys]
        del ys  # before the next slice is drawn
    # np.mean, then np.std(ddof=1) step by step in place: the same sums,
    # squares and divisions, without its full-length temporary.
    mean = float(excess.mean())
    excess -= mean
    np.square(excess, out=excess)
    sd = math.sqrt(float(excess.sum()) / (total_steps - 1))
    if sd == 0.0:
        raise InsufficientSamples("degenerate excess returns: zero variance")
    return mean / sd
