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
from typing import Mapping, Sequence

import numpy as np

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
        # Counts become ints and the arrays read-only float arrays; then the
        # values are validated, so a built market is valid and stays so (and
        # dataclasses.replace validates again).
        for name in ("num_states", "steps_per_year"):
            object.__setattr__(
                self, name, check_number(getattr(self, name), name, integer=True))
        for name in ("transition", "risk_free", "mean_return", "vol_return"):
            object.__setattr__(self, name, check_array(getattr(self, name), name))
        validate(self)

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
        errors.append(f"transition row {y} sums to {float(row_sums[y])!r}, not 1")
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
    """Communicating classes with no edges leaving them, by boolean closure.

    ``reach[i, j]`` says j is reachable from i in zero or more steps: squaring
    ``(P > 0) | I`` until it stops changing gets there within ceil(log2 M)
    squarings. The class of i is ``reach[i] & reach[:, i]``, and it is closed
    iff i reaches nothing outside it. Members come in ascending order.
    """
    M = P.shape[0]
    reach = (P > 0) | np.eye(M, dtype=bool)
    while True:
        nxt = reach @ reach
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    mutual = reach & reach.T
    closed, seen = [], np.zeros(M, dtype=bool)
    for i in range(M):
        if not seen[i]:
            seen |= mutual[i]
            if np.array_equal(reach[i], mutual[i]):
                closed.append(np.nonzero(mutual[i])[0])
    return closed


def _period(P: np.ndarray, members: np.ndarray) -> int:
    """Period of an irreducible chain restricted to `members`: the gcd over
    edges (u, v) of d[u] + 1 - d[v], where d labels each state with the
    length of some path to it from the root, as this depth-first search
    (pop()) does; any path-length labelling gives the same gcd."""
    sub = P[np.ix_(members, members)] > 0
    n = len(members)
    dist = np.full(n, -1)
    dist[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in np.nonzero(sub[u])[0]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                stack.append(v)
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


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_regime(params: MarketParams | int, y, name: str = "y") -> None:
    """Raise ConfigError unless y is an integer regime index in [0, M), M
    the regime count of params or params itself when it is an int.

    A bool is not a regime index, though Python counts it as an int."""
    M = params if _is_int(params) else params.num_states
    if not (_is_int(y) and 0 <= y < M):
        raise ConfigError(f"{name}={y!r} is not a regime index in [0, {M})")


def check_count(n, name: str, lo: int) -> None:
    """Raise ConfigError unless n is an integer >= lo (Python or numpy, not
    a bool)."""
    if not (_is_int(n) and n >= lo):
        raise ConfigError(f"{name} must be an integer >= {lo}, got {n!r}")


# Each bound of check_number: its test, its word and its bracket.
_BOUNDS = {"gt": (lambda x, b: x > b, ">", "("), "ge": (lambda x, b: x >= b, ">=", "["),
           "le": (lambda x, b: x <= b, "<=", "]"), "lt": (lambda x, b: x < b, "<", ")")}


def check_number(value, name: str, integer: bool = False, *,
                 gt=None, ge=None, le=None, lt=None):
    """A config value or parameter as a float, or as an int when integer.

    The one rule for numbers read from configs and given to the params
    dataclasses: anything but a finite Python or numpy number (a string, a
    bool, NaN or inf) raises ConfigError, and so does a value with a
    fractional part when integer. An integral float such as 12.0 is a valid
    integer. The keyword bounds, at most one lower (gt or ge) and one upper
    (le or lt), give the range; a value outside it raises ConfigError that
    reads "must be > 0", say, or "must lie in [0, 1)" with two bounds.
    Messages print the number converted, never a numpy repr.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {float(value)!r}")
    if integer and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {float(value)!r}")
    x = int(value) if integer else float(value)
    bounds = [(key, b) for key, b in dict(gt=gt, ge=ge, le=le, lt=lt).items() if b is not None]
    if not all(_BOUNDS[key][0](x, b) for key, b in bounds):
        if len(bounds) == 2:
            (lo_key, lo), (hi_key, hi) = bounds
            span = f"lie in {_BOUNDS[lo_key][2]}{lo}, {hi}{_BOUNDS[hi_key][2]}"
        else:
            (key, b), = bounds
            span = f"be {_BOUNDS[key][1]} {b}"
        raise ConfigError(f"{name} must {span}, got {x!r}")
    return x


def check_keys(doc, allowed, name: str) -> Mapping:
    """The one rule for the keys of a config section or of stored flags:
    doc must be a mapping whose every key is in allowed, else ConfigError
    naming the section and its unknown keys. Returns doc."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{name} must be a mapping, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return doc


def check_bounds(value, name: str = "bounds"):
    """The one rule for allocation bounds: None, or a list or tuple of two
    finite numbers with lower <= upper, returned as a tuple of the numbers
    as given (a policy digests them unconverted); else ConfigError."""
    if value is not None:
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ConfigError(f"{name} must be a [lower, upper] pair, got {value!r}")
        if check_number(value[0], name) > check_number(value[1], name):
            raise ConfigError(f"{name} out of order: {value!r}")
        value = tuple(value)
    return value


def check_array(value, name: str) -> np.ndarray:
    """value as a read-only float array.

    A numpy array of integers or floats is taken as it is, and its caller
    checks it for NaN and inf. Anything else (a number, or nested lists of
    numbers as a config holds them) must hold only entries that pass
    check_number, so a string, a bool or a ragged list raises ConfigError.
    """
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        for v in np.asarray(value, dtype=object).flat:
            check_number(v, name)
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    return arr


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


# Numbers per drawn piece, about 1 MB of float64: a piece is reduced or
# transposed into the time-major rows while it is still in cache.
_BLOCK = 1 << 17
# Numbers per block of returns that `_return_blocks` yields, about 8 MB:
# eight draw pieces, and rows wide enough (8 738 paths over 120 steps) that
# a caller's loop over a block's steps costs little Python overhead per
# path-step.
_RETURNS = 1 << 20


def _pieces(n_steps: int, n_paths: int, size: int):
    """Split a path-major ``(n_paths, n_steps)`` draw into consecutive
    ``(path slice, step slice)`` pieces in stream order: blocks of as many
    whole paths as fill `size` numbers (at least one), or, when one path is
    longer than `_BLOCK`, time slices of `_BLOCK` steps of one path.
    ``Generator.random`` and ``standard_normal`` fill in order, so the
    pieces' draws concatenate to the one-call draw and leave the generator
    in the same state."""
    if n_steps > _BLOCK:
        for p in range(n_paths):
            for t in range(0, n_steps, _BLOCK):
                yield slice(p, p + 1), slice(t, min(t + _BLOCK, n_steps))
        return
    paths = max(1, size // max(n_steps, 1))
    for p in range(0, n_paths, paths):
        yield slice(p, min(p + paths, n_paths)), slice(0, n_steps)


def _draw_piece(draw, paths: slice, steps: slice) -> np.ndarray:
    """``draw`` of one piece, time-major: the transpose of its path-major
    draw, a view."""
    return draw((paths.stop - paths.start, steps.stop - steps.start)).T


def _sample_regimes(
    params: MarketParams,
    y0: int,
    n_steps: int,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The regime phase of the sampler: draws every uniform of the
    draw-order contract (see `sample_paths`) and returns the regimes,
    time-major (n_steps + 1, n_paths), C-contiguous, in
    ``np.min_scalar_type(M - 1)`` (uint8 for up to 256 regimes).

    The uniforms are drawn in `_pieces`, and no uniform outlives its piece:
    each becomes the transition code ``nxt[t, s, p]``, the regime after step
    t of path p when the step starts in regime s (M small integers per
    path-step).

    Block scheme: the time axis is split into B blocks of L steps, with
    ``B = max(1, isqrt(n_steps // n_paths))``. Every block is run from every
    possible start regime at once (speculation), one time-major row of
    codes per step, so the Python loop has L iterations. The true start of
    each block then follows from the end of the previous one in B cheap
    steps (Blelloch, *Prefix sums and their applications*, CMU-CS-90-190),
    and each path's regimes are gathered from the matching speculative runs.
    A wide batch gets B = 1: a plain time-major loop from ``y0``. A single
    million-step path gets B ~ 1000.
    """
    check_regime(params, y0, "y0")
    check_count(n_steps, "n_steps", 0)
    check_count(n_paths, "n_paths", 1)
    M = params.num_states
    code = np.min_scalar_type(M - 1)
    # thresholds[s, k] = cumsum(P[s])[k]; the last column would be 1 > u.
    thresholds = np.cumsum(params.transition, axis=1)[:, :-1]

    B = max(1, math.isqrt(n_steps // n_paths))
    L = -(-n_steps // B)  # the last block may be padded
    # nxt[t, s, p] = #{k : u[t, p] >= thresholds[s, k]}, summed in the code
    # dtype (a sum of bools would be their OR). Padded steps keep code 0.
    nxt = np.zeros((B * L, M, n_paths), dtype=code)
    for cols, steps in _pieces(n_steps, n_paths, _BLOCK):
        ut = _draw_piece(rng.random, cols, steps)
        for s in range(M):
            dst = nxt[steps, s, cols]
            for k in range(M - 1):
                dst += ut >= thresholds[s, k]
        del ut
    nxt = np.ascontiguousarray(nxt.reshape(B, L, M, n_paths).transpose(1, 2, 0, 3))

    # runs[t, s, b, p]: regime after t steps of block b on path p, started
    # in regime s. Block 0 starts at y0, so a lone block needs no speculation.
    # Exactly one term of each step's sum is nonzero, so it fits the code.
    runs = np.empty((L + 1, M if B > 1 else 1, B, n_paths), dtype=code)
    runs[0] = np.arange(M)[:, None, None] if B > 1 else y0
    for t in range(L):
        y, out = runs[t], runs[t + 1]
        np.multiply(y == 0, nxt[t, 0], out=out)
        for s in range(1, M):
            out += (y == s) * nxt[t, s]
    del nxt

    if B == 1:
        return runs[:, 0, 0]
    # Chain the blocks: block b + 1 starts in the regime where block b ends.
    path = np.empty((B * L + 1, n_paths), dtype=code)
    y, paths = np.full(n_paths, y0), np.arange(n_paths)
    for b in range(B):
        path[b * L:(b + 1) * L + 1] = runs[:, y, b, paths]
        y = runs[L, y, b, paths]
    del runs
    return path[:n_steps + 1]


def _return_blocks(params: MarketParams, regimes: np.ndarray,
                   rng: np.random.Generator, out: np.ndarray | None = None):
    """The return phase of the sampler: draws every Gaussian g of the
    draw-order contract and yields the returns ``sigma_step[y] * g +
    mu_step[y]`` over `regimes` (the time-major output of `_sample_regimes`)
    as ``(paths, steps, z)``, with z the block ``returns[steps, paths]`` of
    the time-major returns. The blocks come in stream order and tile the
    (steps, paths) rectangle: blocks of whole paths, about `_RETURNS`
    numbers each, or the `_BLOCK`-step time slices of one path when a path
    is longer than `_BLOCK` (see `_pieces`).

    z is that view of `out` when it is given. Otherwise it is a C-contiguous
    view of one buffer, the size of the first block, which every block
    overwrites: a caller reads each block before it asks for the next.
    """
    n_steps, n_paths = len(regimes) - 1, regimes.shape[1]
    buf = None
    for paths, steps in _pieces(n_steps, n_paths, _RETURNS):
        ys = regimes[steps, paths]
        if out is not None:
            z = out[steps, paths]
        else:
            if buf is None:
                buf = np.empty(ys.size)
            z = buf[:ys.size].reshape(ys.shape)
        _fill_returns(params, ys, rng, z)
        yield paths, steps, z


def _fill_returns(params: MarketParams, ys: np.ndarray, rng: np.random.Generator,
                  z: np.ndarray) -> None:
    """Fill the time-major block z with ``sigma_step[ys] * g + mu_step[ys]``,
    the Gaussians g drawn for its paths in `_pieces` of about `_BLOCK`
    numbers; each piece is scaled while it is in cache, through one intp
    copy of its regimes. The bits are those of the one-call draw. (A
    function of its own, so that a piece's temporaries are freed before
    `_return_blocks` hands the block over.)"""
    sigma, mu = params.sigma_step, params.mu_step
    for sub, rows in _pieces(*z.shape, _BLOCK):
        piece = z[rows, sub]
        piece[...] = _draw_piece(rng.standard_normal, sub, rows)
        y = ys[rows, sub].astype(np.intp)
        piece *= sigma[y]
        piece += mu[y]


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

    This is the path-major layout, one row per path, for callers that want
    whole paths. It runs the sampler's two phases time-major, one contiguous
    row per step: `_sample_regimes` (see there for the block scheme), then
    the return blocks of `_return_blocks`, gathered into one array, and
    copies the transposes. The wealth recursion of a fixed mix and
    `montecarlo.long_run_sharpe` stream the blocks instead, and the client
    simulator `risk_profile._client_blocks` draws the returns of its own
    path blocks with `_fill_returns`.

    Returns:
        regimes: int64 array (n_paths, n_steps + 1); regimes[:, n] is the
            regime holding over step n -> n+1 (column n_steps is the
            terminal regime).
        returns: float64 array (n_paths, n_steps); returns[:, n] is the
            market return over step n -> n+1, Gaussian conditional on
            regimes[:, n].

    Both arrays are C-contiguous. Raises ConfigError when y0 is not an
    integer regime index, or n_steps and n_paths are not integers with
    n_steps >= 0 and n_paths >= 1 (a bool counts as neither).
    """
    regimes = _sample_regimes(params, y0, n_steps, n_paths, rng)
    returns = np.empty((n_steps, n_paths))
    for _ in _return_blocks(params, regimes, rng, out=returns):
        pass
    # One copy at a time, so at most three of the four arrays are alive.
    regimes = np.ascontiguousarray(regimes.T, dtype=np.int64)
    return regimes, np.ascontiguousarray(returns.T)


def excess_moments(params: MarketParams, y: int) -> tuple[float, float]:
    """Per-step mean and variance of the excess return z - r_step in regime
    y. Raises ConfigError when y is not a regime index."""
    check_regime(params, y)
    return float(params.mu_tilde_step[y]), float(params.sigma_step[y] ** 2)


# -- config I/O ---------------------------------------------------------------

_MARKET_KEYS = {
    "states", "transition", "risk_free", "mean_return", "vol_return",
    "steps_per_year",
}


def market_from_dict(doc: dict) -> MarketParams:
    """Build MarketParams from a plain config mapping (see docs/formats.md)."""
    check_keys(doc, _MARKET_KEYS, "market")
    missing = _MARKET_KEYS - set(doc)
    if missing:
        raise BadDimension(f"missing market config keys: {sorted(missing)}")

    states = doc["states"]
    if isinstance(states, Sequence) and not isinstance(states, (str, bytes)):
        M, labels = len(states), tuple(str(s) for s in states)
    else:
        M, labels = check_number(states, "states", integer=True), None
        if M < 1:
            raise BadDimension(f"'states' must be >= 1, got {M}")

    def per_state(key):
        v = doc[key]
        if isinstance(v, (list, tuple, np.ndarray)):
            return v
        return np.full(M, check_number(v, key))

    return MarketParams(
        num_states=M,
        transition=doc["transition"],
        risk_free=per_state("risk_free"),
        mean_return=per_state("mean_return"),
        vol_return=per_state("vol_return"),
        steps_per_year=doc["steps_per_year"],
        labels=labels,
    )


def load_market(path: str | Path) -> MarketParams:
    """Load and validate MarketParams from a JSON config file, which may
    also hold a `risk_profile` section (see load_profile)."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc.pop("risk_profile", None)
    return market_from_dict(doc)
