"""Regime-switching market model.

The economy is a time-homogeneous Markov chain over a small set of regimes.
Each regime carries an annual risk-free rate, an annual mean market return,
and an annual return volatility; per-step (e.g. monthly) quantities are
derived by simple scaling: r/k, mu/k, sigma/sqrt(k). Within a step, the
market return is Gaussian conditional on the current regime, and the next
regime is drawn independently of the return.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import BadDimension, ConfigError, NegativeVol, NonErgodic, NonStochasticRow

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class MarketParams:
    """Parameters of the regime-switching economy.

    Attributes:
        num_states: number of regimes M >= 1.
        transition: M x M row-stochastic matrix of per-step probabilities.
        risk_free: per-regime annual risk-free rate.
        mean_return: per-regime annual mean market return.
        vol_return: per-regime annual return volatility (> 0).
        steps_per_year: step count k per year (12 for monthly steps).
        labels: optional regime names, purely cosmetic.
    """

    num_states: int
    transition: np.ndarray
    risk_free: np.ndarray
    mean_return: np.ndarray
    vol_return: np.ndarray
    steps_per_year: int = 12
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        # Normalize to read-only float arrays so instances are safely shareable.
        for name in ("transition", "risk_free", "mean_return", "vol_return"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # Per-step quantities. Annual rates scale by 1/k, volatility by 1/sqrt(k).

    @property
    def r_step(self) -> np.ndarray:
        return self.risk_free / self.steps_per_year

    @property
    def mu_step(self) -> np.ndarray:
        return self.mean_return / self.steps_per_year

    @property
    def sigma_step(self) -> np.ndarray:
        return self.vol_return / math.sqrt(self.steps_per_year)

    @property
    def R_step(self) -> np.ndarray:
        """Gross per-step money-market return 1 + r/k."""
        return 1.0 + self.r_step

    @property
    def mu_tilde_step(self) -> np.ndarray:
        """Per-step excess mean return mu/k - r/k."""
        return self.mu_step - self.r_step


def check(params: MarketParams) -> list[str]:
    """Collect every invariant violation as a human-readable message."""
    errors: list[str] = []
    M = params.num_states
    if M < 1:
        errors.append(f"num_states must be >= 1, got {M}")
        return errors
    if params.transition.shape != (M, M):
        errors.append(
            f"transition must be {M}x{M}, got shape {params.transition.shape}"
        )
    for name in ("risk_free", "mean_return", "vol_return"):
        arr = getattr(params, name)
        if arr.shape != (M,):
            errors.append(f"{name} must have length {M}, got shape {arr.shape}")
    if params.steps_per_year < 1:
        errors.append(f"steps_per_year must be >= 1, got {params.steps_per_year}")
    if errors:
        return errors  # shape problems make the value checks meaningless

    for name in ("transition", "risk_free", "mean_return", "vol_return"):
        if not np.all(np.isfinite(getattr(params, name))):
            errors.append(f"{name} must be finite (no NaN or inf)")
    if np.any(params.transition < 0):
        errors.append("transition has negative entries")
    row_sums = params.transition.sum(axis=1)
    bad = np.nonzero(np.abs(row_sums - 1.0) > _ROW_SUM_TOL)[0]
    for y in bad:
        errors.append(f"transition row {y} sums to {row_sums[y]!r}, not 1")
    if np.any(params.vol_return <= 0):
        errors.append("vol_return must be strictly positive in every regime")
    return errors


def validate(params: MarketParams) -> None:
    """Raise the most specific error for the first violated invariant."""
    errors = check(params)
    if not errors:
        return
    msg = "; ".join(errors)
    if any("finite" in e for e in errors):
        raise ConfigError(msg)
    if any("shape" in e or "length" in e or "num_states" in e or "steps_per_year" in e
           for e in errors):
        raise BadDimension(msg)
    if any("vol_return" in e for e in errors):
        raise NegativeVol(msg)
    raise NonStochasticRow(msg)


def _closed_classes(P: np.ndarray) -> list[np.ndarray]:
    """Strongly connected components with no edges leaving them."""
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


def _period(P: np.ndarray, members: np.ndarray) -> int:
    """Period of an irreducible chain restricted to `members`.

    Uses the BFS-level trick: assign each state a distance from a root, then
    the period is gcd over edges (u, v) of d[u] + 1 - d[v].
    """
    sub = P[np.ix_(members, members)] > 0
    n = len(members)
    dist = np.full(n, -1)
    dist[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for v in np.nonzero(sub[u])[0]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    g = 0
    for u in range(n):
        for v in np.nonzero(sub[u])[0]:
            g = math.gcd(g, dist[u] + 1 - dist[v])
    return abs(g) if g else 1


def stationary_distribution(params: MarketParams) -> np.ndarray:
    """Long-run regime occupation probabilities.

    Solves lambda P = lambda, sum(lambda) = 1 by a dense linear solve
    (the regime count is tiny). Raises NonErgodic when the chain has more
    than one closed communicating class or its closed class is periodic.
    """
    P = params.transition
    M = params.num_states
    if M == 1:
        return np.array([1.0])

    closed = _closed_classes(P)
    if len(closed) != 1:
        raise NonErgodic(
            f"chain has {len(closed)} closed classes; stationary law not unique"
        )
    period = _period(P, closed[0])
    if period != 1:
        raise NonErgodic(f"closed class is periodic with period {period}")

    # (P^T - I) lam = 0 with the last equation replaced by sum(lam) = 1.
    A = P.T - np.eye(M)
    A[-1, :] = 1.0
    rhs = np.zeros(M)
    rhs[-1] = 1.0
    lam = np.linalg.solve(A, rhs)
    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum()
    return lam


def check_regime(params: MarketParams, y, name: str = "y") -> None:
    """Raise ConfigError unless y is an integer regime index in [0, M)."""
    M = params.num_states
    if not (isinstance(y, (int, np.integer)) and 0 <= y < M):
        raise ConfigError(f"{name}={y!r} is not a regime index in [0, {M})")


def sample_step(
    params: MarketParams, y: int, rng: np.random.Generator
) -> tuple[int, float]:
    """One market transition: next regime and the step's market return.

    The return is drawn from the current regime's per-step Gaussian and is
    conditionally independent of the next regime. Raises ConfigError when y
    is not a regime index.
    """
    check_regime(params, y)
    y_next = int(rng.choice(params.num_states, p=params.transition[y]))
    z = float(rng.normal(params.mu_step[y], params.sigma_step[y]))
    return y_next, z


def _sample_steps(
    params: MarketParams,
    y0: int,
    n_steps: int,
    n_paths: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The regime sampler, time-major: one contiguous row per step.

    Returns regimes, int64 (n_steps + 1, n_paths), and returns, float64
    (n_steps, n_paths), both C-contiguous: the transposes of what
    `sample_paths` returns, under the same draw-order contract. The wealth
    recursion of `montecarlo.simulate` and `montecarlo.long_run_sharpe` read
    these rows directly; `sample_paths` is the path-major view for everyone
    else.

    Block scheme: the time axis is split into B blocks of L steps, with
    ``B = max(1, isqrt(n_steps // n_paths))``. Every block after the first is
    run from every possible start regime at once (speculation), one
    time-major row of uniforms per step, so the Python loop has L
    iterations. The true start of each block then follows from the end of
    the previous one in B cheap steps (Blelloch, *Prefix sums and their
    applications*, CMU-CS-90-190), and each path's regimes are gathered
    from the matching speculative runs. A wide batch gets B = 1: a plain
    time-major loop from ``y0``. A single million-step path gets B ~ 1000.
    """
    check_regime(params, y0, "y0")
    if n_steps < 0:
        raise ConfigError(f"n_steps must be >= 0, got {n_steps}")
    if n_paths < 1:
        raise ConfigError(f"n_paths must be >= 1, got {n_paths}")
    M = params.num_states
    # thresholds[k, y] = cumsum(P[y])[k]; the last column would be 1 > u.
    thresholds = np.cumsum(params.transition, axis=1)[:, :-1].T

    B = max(1, math.isqrt(n_steps // n_paths))
    L = -(-n_steps // B)  # the last block may be padded
    u = rng.random((n_paths, n_steps))
    rows = np.zeros((B * L, n_paths))
    rows[:n_steps] = u.T
    del u
    rows = np.ascontiguousarray(rows.reshape(B, L, n_paths).swapaxes(0, 1))

    # runs[t, s, b, p]: regime after t steps of block b on path p, started
    # in regime s. Block 0 starts at y0, so a lone block needs no speculation.
    runs = np.empty((L + 1, M if B > 1 else 1, B, n_paths), dtype=np.int64)
    runs[0] = np.arange(M)[:, None, None] if B > 1 else y0
    for t in range(L):
        runs[t + 1] = sum(rows[t] >= thresholds[k][runs[t]] for k in range(M - 1))
    del rows

    if B == 1:
        regimes = runs[:, 0, 0]
    else:
        # Chain the blocks: block b + 1 starts in the regime where block b ends.
        path = np.empty((B * L + 1, n_paths), dtype=np.int64)
        y, paths = np.full(n_paths, y0), np.arange(n_paths)
        for b in range(B):
            path[b * L:(b + 1) * L + 1] = runs[:, y, b, paths]
            y = runs[L, y, b, paths]
        del runs
        regimes = path[:n_steps + 1]

    # u and rows are freed by now: the peak is regimes, the Gaussian draws
    # and the returns, then regimes, returns and one gathered factor.
    gauss = rng.standard_normal((n_paths, n_steps))
    ys = regimes[:-1]
    returns = params.sigma_step[ys]
    returns *= gauss.T
    del gauss
    returns += params.mu_step[ys]
    return regimes, returns


def sample_paths(
    params: MarketParams,
    y0: int,
    n_steps: int,
    n_paths: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized path sampler, for wide batches and long paths alike.

    Draw-order contract: the sampler draws ``u = rng.random((n_paths,
    n_steps))`` and then ``rng.standard_normal((n_paths, n_steps))``, and
    nothing else. The next regime after step n is ``#{k < M-1 : u[:, n] >=
    cumsum(P[y])[k]}``, and the return is ``mu_step[y] + sigma_step[y] * g``.
    The output for a given ``rng`` state is therefore fixed, whatever the
    shape or the internal scheme.

    This is the path-major layout, one row per path, used by
    `risk_profile.simulate_clients` and by callers that want whole paths.
    It copies the time-major output of the one sampler core, `_sample_steps`
    (see there for the block scheme), which the wealth recursion reads as is.

    Returns:
        regimes: int64 array (n_paths, n_steps + 1); regimes[:, n] is the
            regime holding over step n -> n+1 (column n_steps is the
            terminal regime).
        returns: float64 array (n_paths, n_steps); returns[:, n] is the
            market return over step n -> n+1, Gaussian conditional on
            regimes[:, n].

    Both arrays are C-contiguous. Raises ConfigError when y0 is not an
    integer regime index, n_steps < 0 or n_paths < 1.
    """
    regimes, returns = _sample_steps(params, y0, n_steps, n_paths, rng)
    # One copy at a time, so at most three of the four arrays are alive.
    regimes = np.ascontiguousarray(regimes.T)
    return regimes, np.ascontiguousarray(returns.T)


def excess_moments(params: MarketParams, y: int) -> tuple[float, float]:
    """Per-step mean and variance of the excess return z - r_step in regime y."""
    return float(params.mu_tilde_step[y]), float(params.sigma_step[y] ** 2)


# -- config I/O ---------------------------------------------------------------

_MARKET_KEYS = {
    "states", "transition", "risk_free", "mean_return", "vol_return",
    "steps_per_year",
}


def market_from_dict(doc: dict) -> MarketParams:
    """Build MarketParams from a plain config mapping (see docs/formats.md)."""
    unknown = set(doc) - _MARKET_KEYS - {"risk_profile"}
    if unknown:
        raise BadDimension(f"unknown market config keys: {sorted(unknown)}")
    missing = _MARKET_KEYS - set(doc)
    if missing:
        raise BadDimension(f"missing market config keys: {sorted(missing)}")

    states = doc["states"]
    if isinstance(states, int):
        M, labels = states, None
    elif isinstance(states, Sequence) and not isinstance(states, (str, bytes)):
        M, labels = len(states), tuple(str(s) for s in states)
    else:
        raise BadDimension("'states' must be an integer count or a list of labels")

    def per_state(key):
        v = doc[key]
        if isinstance(v, (int, float)):
            return np.full(M, float(v))
        return np.asarray(v, dtype=float)

    params = MarketParams(
        num_states=M,
        transition=np.asarray(doc["transition"], dtype=float),
        risk_free=per_state("risk_free"),
        mean_return=per_state("mean_return"),
        vol_return=per_state("vol_return"),
        steps_per_year=int(doc["steps_per_year"]),
        labels=labels,
    )
    validate(params)
    return params


def load_market(path: str | Path) -> MarketParams:
    """Load and validate MarketParams from a JSON config file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return market_from_dict(doc)
