"""Equilibrium allocation by backward induction over a reduced state grid.

The per-period objective E[r] - (gamma_n/2) Var[r] is time-inconsistent, so the
"optimum" is the subgame-perfect policy of the sequential game in which each
time-n decision maker takes all later decisions as fixed. That policy admits a
backward recursion in terms of two tables: a_n(d) and b_n(d), the first and
second conditional moments of the compounded return of one dollar invested
from n to the horizon, as functions of a reduced state

    d = (xi, prev_window_sum, cur_window_sum, regime),

where xi is the risk aversion communicated at the last client interaction
tau over that time's business-cycle factor, xi_tau / gamma_bar_tau(Y_tau),
and the window sums hold demeaned market returns (the completed window before
the last interaction, and the partial window since). The advisor's gamma is
exp(eta_n - eta_tau) xi gamma_bar_n(Y_n), so with the time index these four
coordinates are a sufficient statistic for the advisor's model of client risk
aversion and its law of motion, for every phi and gamma_bar.

Two kinds of time step alternate:

* plain steps (n+1 not an interaction time): xi and prev_window_sum are
  frozen; cur_window_sum picks up the next demeaned return;
* interaction steps (n+1 = k*phi): the window completes, the client
  communicates a new xi, cur resets to zero. The new xi equals the old one
  times exp(eta_{n+1} - eta_tau), times the exponential of the phi-fold sum
  of idiosyncratic jump shocks, times the ratio of behavioral bias factors
  exp(-beta w/phi)/exp(-beta p/phi) of the new and old windows.

Expectations over the Gaussian return use Gauss-Hermite quadrature; the
phi-fold jump-shock sum is integrated exactly as a binomial mixture of
Gaussians (J jumps with probability C(phi,J) p^J (1-p)^(phi-J), conditionally
N(-J sigma_eps^2/2, J sigma_eps^2)). Off-grid evaluations use multilinear
interpolation with clamping at the grid boundary; clamped quadrature mass is
counted and reported.

Both step kinds are linear in the next tables, and everything but the tables
is fixed for a solve, so the engine builds its operators once per solve:

* plain step: the quadrature shift along cur depends only on (regime, node),
  so sum_q w_q Ztilde_q^j Interp_q is one Nc x Nc matrix C[y, j], and the
  step is (P @ X)[y] @ C[y, j].T on regime-major tables X[y, xi, prev, cur];
* interaction step: xi moves alike for every next regime, so the step takes
  P @ X too. The jump-shock smoothing is one Nxi x Nxi matrix K. The return
  quadrature then interpolates the smoothed slice along prev (an Nc x Np
  matrix per (regime, node)) and along log xi. The log-xi axis is uniform and
  the displacement does not depend on the xi node, so every xi node reads
  the same fraction of a window of consecutive rows of the edge-padded slice
  (the padding reproduces the clamp), and the sum over nodes is a matrix
  product with w_q Ztilde_q^j.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import zipfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import (
    ConfigError,
    DegenerateVariance,
    GridExhausted,
    NumericalError,
)
from .market import (
    MarketParams,
    check_bounds,
    check_count,
    check_number,
    check_regime,
    market_from_dict,
)
from .risk_profile import RiskProfileParams, _ProfileTables, profile_from_dict


# -- reduced state and grid ----------------------------------------------------


@dataclass(frozen=True)
class ReducedState:
    """One point of the reduced state space (time index carried externally)."""

    xi: float
    prev_window_sum: float = 0.0
    cur_window_sum: float = 0.0
    regime: int = 0

    def __post_init__(self):
        check_number(self.xi, "xi", gt=0)
        for name in ("prev_window_sum", "cur_window_sum"):
            check_number(getattr(self, name), name)
        check_count(self.regime, "regime", 0)


@dataclass(frozen=True)
class GridSpec:
    """Discretization request; concrete axes are derived from the parameters.

    xi nodes are log-spaced over [xi_lo, xi_hi] (defaults: gamma0/8 to
    8*gamma0, whatever gamma_bar: xi divides out the cycle factor). Each
    window-sum axis is uniform over +/- zsum_span_sd per-step return SDs
    times sqrt(phi). Axes that cannot matter are collapsed to a single node:
    both window axes when beta = 0, the current-window axis when phi = 1.
    A solve raises GridExhausted above max_clamp_fraction of clamped xi mass.
    """

    xi_count: int = 41
    xi_lo: float | None = None
    xi_hi: float | None = None
    zsum_count: int = 21
    zsum_span_sd: float = 4.0
    quad_points: int = 16
    max_clamp_fraction: float = 0.25

    def __post_init__(self):
        for name in ("xi_count", "zsum_count", "quad_points"):
            object.__setattr__(self, name, check_number(getattr(self, name), name,
                                                        integer=True, ge=2))
        check_number(self.zsum_span_sd, "zsum_span_sd", gt=0)
        check_number(self.max_clamp_fraction, "max_clamp_fraction", gt=0, lt=1)
        if (self.xi_lo is None) != (self.xi_hi is None):
            raise ConfigError("set both of xi_lo/xi_hi or neither")
        if self.xi_lo is not None:
            lo = check_number(self.xi_lo, "xi_lo", gt=0)
            check_number(self.xi_hi, "xi_hi", gt=lo)


class Grid:
    """Materialized axes of the reduced-state discretization."""

    def __init__(
        self,
        xi: np.ndarray,
        prev: np.ndarray,
        cur: np.ndarray,
        quad_points: int,
        num_states: int,
        max_clamp_fraction: float = GridSpec.max_clamp_fraction,
    ):
        self.xi = np.asarray(xi, dtype=float)
        self.prev = np.asarray(prev, dtype=float)
        self.cur = np.asarray(cur, dtype=float)
        self.quad_points = int(quad_points)
        self.num_states = int(num_states)
        self.max_clamp_fraction = float(max_clamp_fraction)
        for name, nodes in (("xi", self.xi), ("prev", self.prev), ("cur", self.cur)):
            if len(nodes) > 1 and np.any(np.diff(nodes) <= 0):
                raise ConfigError(f"{name} grid must be strictly increasing")
        if np.any(self.xi <= 0):
            raise ConfigError("xi grid must be strictly positive")
        self.logxi = np.log(self.xi)
        # Uniform spacing (in log space for xi) is assumed by the locators.
        for name, nodes in (("logxi", self.logxi), ("prev", self.prev), ("cur", self.cur)):
            if len(nodes) > 2:
                steps = np.diff(nodes)
                if np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(steps[0]), 1e-300):
                    raise ConfigError(f"{name} grid must be uniformly spaced")

    @classmethod
    def build(cls, spec: GridSpec, market: MarketParams, profile: RiskProfileParams) -> "Grid":
        lo = spec.xi_lo if spec.xi_lo is not None else profile.gamma0 / 8.0
        hi = spec.xi_hi if spec.xi_hi is not None else profile.gamma0 * 8.0
        xi = np.geomspace(lo, hi, spec.xi_count)
        if profile.beta == 0.0:
            prev = np.zeros(1)
            cur = np.zeros(1)
        else:
            span = spec.zsum_span_sd * float(np.max(market.sigma_step)) * math.sqrt(profile.phi)
            count = spec.zsum_count if spec.zsum_count % 2 == 1 else spec.zsum_count + 1
            prev = np.linspace(-span, span, count)
            cur = np.zeros(1) if profile.phi == 1 else np.linspace(-span, span, count)
        return cls(xi, prev, cur, spec.quad_points, market.num_states,
                   spec.max_clamp_fraction)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (len(self.xi), len(self.prev), len(self.cur), self.num_states)

    @property
    def cur_zero_index(self) -> int:
        return int(np.argmin(np.abs(self.cur)))

    def to_dict(self) -> dict:
        return {
            "xi": self.xi.tolist(),
            "prev": self.prev.tolist(),
            "cur": self.cur.tolist(),
            "quad_points": self.quad_points,
            "num_states": self.num_states,
            "max_clamp_fraction": self.max_clamp_fraction,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Grid":
        return cls(
            np.asarray(doc["xi"]), np.asarray(doc["prev"]), np.asarray(doc["cur"]),
            doc["quad_points"], doc["num_states"], doc["max_clamp_fraction"],
        )


# -- clamp accounting ----------------------------------------------------------


@dataclass
class ClampCounters:
    """Quadrature-mass (solve) or per-lookup (simulation) clamp tallies."""

    xi_mass: float = 0.0
    xi_clamped: float = 0.0
    window_mass: float = 0.0
    window_clamped: float = 0.0

    def add_xi(self, weight: float, n_total: int, n_clamped: int) -> None:
        self.xi_mass += weight * n_total
        self.xi_clamped += weight * n_clamped

    def add_window(self, weight: float, n_total: int, n_clamped: int) -> None:
        self.window_mass += weight * n_total
        self.window_clamped += weight * n_clamped

    @property
    def xi_fraction(self) -> float:
        return self.xi_clamped / self.xi_mass if self.xi_mass > 0 else 0.0

    @property
    def window_fraction(self) -> float:
        return self.window_clamped / self.window_mass if self.window_mass > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "xi_fraction": self.xi_fraction,
            "window_fraction": self.window_fraction,
            "xi_mass": self.xi_mass,
            "window_mass": self.window_mass,
        }


def _locate(nodes: np.ndarray, x: np.ndarray, axis: int | None = None):
    """Linear-interpolation indices on a uniform grid, clamped to the range.

    Returns (idx, frac, n_clamped): x is approximated by
    nodes[idx]*(1-frac) + nodes[idx+1]*frac. A single-node axis absorbs every
    query at its only node (collapsed axes are exact by construction, so such
    queries are not clamping events). n_clamped counts the clamped queries
    along `axis` (all of them, as an int, when None): those outside
    [nodes[0], nodes[-1]], so that a query on an edge node never is.
    """
    x = np.asarray(x, dtype=float)
    n = len(nodes)
    if n == 1:
        frac = np.zeros(x.shape)
        idx, clamped = frac.astype(np.intp), np.zeros(x.shape, dtype=bool)
    else:
        step = (nodes[-1] - nodes[0]) / (n - 1)
        t = (x - nodes[0]) / step
        clamped = (x < nodes[0]) | (x > nodes[-1])
        t = np.clip(t, 0.0, n - 1.0)
        idx = np.minimum(t.astype(np.intp), n - 2)
        frac = t - idx
    n_clamped = np.count_nonzero(clamped, axis=axis)
    return idx, frac, int(n_clamped) if axis is None else n_clamped


def _interp3(grid: Grid, table: np.ndarray, logxi, prev, cur, regime,
             counters: ClampCounters | None = None):
    """Trilinear interpolation of a (xi, prev, cur, regime) table at
    broadcast queries, clamped to the grid box; clamped lookups are tallied
    into `counters` if given. A collapsed axis has corner stride 0."""
    y = _checked_regimes(regime, table.shape[-1])
    xp, corners, cx, cp = _xp_stencil(grid, table.shape, logxi, prev)
    ic, fc, cc = _locate(grid.cur, cur)
    if counters is not None:
        counters.add_xi(1.0, np.size(logxi), cx)
        counters.add_window(1.0, np.size(logxi) * 2, cp + cc)
    return _corner_sum(table, xp, corners, ic, fc, y)


def _checked_regimes(regime, M: int) -> np.ndarray:
    y = np.asarray(regime)
    if y.size and (y.min() < 0 or y.max() >= M):
        raise ConfigError(f"regime queries must lie in [0, {M})")
    return y


def _xp_stencil(grid: Grid, shape, logxi, prev):
    """The xi and prev half of the trilinear stencil: the partial flat index
    ``ix * Np + ip``, the four (wx * wp, offset) corner pairs in the order
    the corner sum takes them, and the two clamp counts."""
    Nx, Np, Nc, M = shape
    ix, fx, cx = _locate(grid.logxi, logxi)
    ip, fp, cp = _locate(grid.prev, prev)
    sp = Nc * M if Np > 1 else 0
    sx = Np * Nc * M if Nx > 1 else 0
    corners = [(wx * wp, ox + op)
               for wx, ox in ((1.0 - fx, 0), (fx, sx))
               for wp, op in ((1.0 - fp, 0), (fp, sp))]
    return ix * Np + ip, corners, cx, cp


def _corner_sum(table: np.ndarray, xp, corners, ic, fc, y) -> np.ndarray:
    """Sum of the 8 weighted corners, each term ``wx * wp * wc * value``
    added in (xi, prev, cur) corner order onto 0.0."""
    Nx, Np, Nc, M = table.shape
    sc = M if Nc > 1 else 0
    flat = table.ravel()
    base = (xp * Nc + ic) * M + y
    out = np.zeros(np.shape(base))
    cur_corners = ((1.0 - fc, 0), (fc, sc))
    for wxp, oxp in corners:
        for wc, oc in cur_corners:
            out += wxp * wc * flat[base + (oxp + oc)]
    return out


def _window_lookup(grid: Grid, profile: RiskProfileParams, shape, xi, window_csum,
                   regimes):
    """The allocation lookup along time-major rows of simulated clients:
    returns ``at(n, pi_n)``, the allocation that ``allocation_at`` reads at
    time n from `pi_n`, the regime-last slice at n of a table of `shape`
    ``(T, xi, prev, cur, M)`` solved on `grid` for `profile`, at the state
    ``(xi[n] / gamma_bar_tau(regimes[tau]), prev_n, cur_n, regimes[n])``,
    bit for bit, with tau the window's first time and xi the communicated
    risk aversion of the client simulator. More than T rows of regimes
    raise ConfigError, as do regimes outside [0, M) and xi <= 0.

    The window sums (prev_n, cur_n) come from the rows of `window_csum` as
    `risk_profile.window_sums` forms them for the profile's phi. xi must be
    constant over each interaction window [k*phi, (k+1)*phi), as the client
    simulator's is: xi and prev are then checked and located once for the
    latest window asked for, so asking for the times of each window
    together, in either order, locates each window once, and only cur moves
    the stencil.
    """
    T, table_shape = shape[0], shape[1:]
    if len(regimes) > T:
        raise ConfigError(f"time index {T} outside [0, {T})")
    _checked_regimes(regimes, table_shape[-1])
    tabs = _ProfileTables(grid, profile, T)
    phi = profile.phi
    window = {}

    def at(n: int, pi_n: np.ndarray) -> np.ndarray:
        tau = tabs.tau[n]
        if window.get("tau") != tau:
            y = regimes[tau]
            x = np.asarray(xi[tau], dtype=float) / tabs.gbar[tau, y]
            if np.any(x <= 0):
                raise ConfigError("xi queries must be strictly positive")
            if tau >= phi:
                prev = window_csum[tau] - window_csum[tau - phi]
            else:
                prev = np.zeros(len(y))
            xp, corners, _, _ = _xp_stencil(grid, table_shape, np.log(x), prev)
            # x and prev live as long as the stencil: freed between lookups,
            # they move the two-thread policy simulation into a glibc heap
            # mode with ~3 MB more peak RSS.
            window.update(tau=tau, xp=xp, corners=corners, x=x, prev=prev)
        cur = window_csum[n] - window_csum[tau]
        ic, fc, _ = _locate(grid.cur, cur)
        return _corner_sum(pi_n, window["xp"], window["corners"], ic, fc, regimes[n])

    return at


# -- jump-shock mixture ----------------------------------------------------------


def _jump_mixture(profile: RiskProfileParams) -> list[tuple[float, float, float]]:
    """Binomial mixture for the phi-fold sum of idiosyncratic shocks.

    Returns (weight, mean, sd) triples: J jumps occur with binomial
    probability and contribute a N(-J sigma^2/2, J sigma^2) total.
    """
    phi, p, s = profile.phi, profile.p_eps, profile.sigma_eps
    out = []
    for j in range(phi + 1):
        w = math.comb(phi, j) * p**j * (1.0 - p) ** (phi - j)
        if w > 0.0:
            out.append((w, -j * s * s / 2.0, s * math.sqrt(j)))
    return out


# -- policy tables ----------------------------------------------------------------


@dataclass
class PolicyTables:
    """Backward-induction output: per-time tables over the reduced-state grid.

    pi covers times 0..T-1; a and b carry the extra terminal slice
    (a[T] = b[T] = 1). All tables have the grid shape
    (len(xi), len(prev), len(cur), num_states). The value table V is not
    stored: it is derived from a and b on access (see `V`), so the
    constructor takes pi, a and b only.
    """

    market: MarketParams
    profile: RiskProfileParams
    T: int
    grid: Grid
    pi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    bounds: tuple[float, float] | None = None
    solve_clamps: ClampCounters = field(default_factory=ClampCounters)

    @property
    def V(self) -> np.ndarray:
        """Mean-variance objective value over times 0..T-1, computed from a
        and b: V_n = a_n - 1 - (gamma_n/2) (b_n - a_n^2), with the advisor
        gamma of `gamma_table`.

        Each access recomputes and allocates the whole (T,) + grid table;
        read it once into a local rather than as ``tables.V[n]`` in a loop.
        """
        tabs = _ProfileTables(self.market, self.profile, self.T)
        V = np.empty(self.pi.shape)
        for n in range(self.T):
            V[n] = _value_slice(self.a[n], self.b[n], tabs, self.grid.xi, n)
        return V

    @property
    def params_sha256(self) -> str:
        """Digest of the market, profile, grid, T and bounds the tables were
        solved for, as stored in the manifest."""
        return _params_digest(self.market, self.profile, self.T, self.grid,
                              self.bounds)

    def gamma_table(self, n: int) -> np.ndarray:
        """Advisor gamma over (xi node, regime) at time n:
        exp(eta_n - eta_tau) * xi * gamma_bar_n(y)."""
        return _ProfileTables(self.market, self.profile, self.T).gamma_slice(
            n, self.grid.xi
        )

    def allocation_at(
        self,
        n: int,
        xi,
        prev,
        cur,
        regime,
        counters: ClampCounters | None = None,
    ) -> np.ndarray:
        """Interpolated equilibrium allocation at scattered states at time n.

        `xi` is the risk aversion communicated at the last interaction over
        that time's cycle factor gamma_bar_tau(Y_tau). NaN or inf queries
        raise ConfigError; queries outside the grid are clamped to the
        boundary; if `counters` is given, clamped lookups are tallied per
        lookup (xi axis and window axes separately).
        """
        check_count(n, "time index", 0)
        if n >= self.T:
            raise ConfigError(f"time index {n} outside [0, {self.T})")
        for name, values in (("xi", xi), ("prev", prev), ("cur", cur)):
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"{name} queries must be finite")
        xi = np.asarray(xi, dtype=float)
        if np.any(xi <= 0):
            raise ConfigError("xi queries must be strictly positive")
        return _interp3(self.grid, self.pi[n], np.log(xi), prev, cur, regime,
                        counters)


def _value_slice(a_n: np.ndarray, b_n: np.ndarray, tabs: _ProfileTables,
                 xi: np.ndarray, n: int) -> np.ndarray:
    """V_n = a_n - 1 - (gamma_n/2) (b_n - a_n^2) over a regime-last slice,
    in that order of operations; an overflow gives inf, not a warning."""
    gam = tabs.gamma_slice(n, xi)[:, None, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        return a_n - 1.0 - 0.5 * gam * (b_n - a_n**2)


# -- core expectation engine -------------------------------------------------------

# Quadrature nodes per block of an interaction step: the gathered windows
# then take a few MB on the default grid.
_Q_CHUNK = 4


def _gh_nodes(q: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = hermgauss(q)
    return x, w / math.sqrt(math.pi)


def _interp_matrix(nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped linear interpolation at the queries x[..., k] as matrices.

    Row k of mat[...] holds the weights _locate gives x[..., k], so
    `mat[...] @ values` interpolates one value per node at every query of
    x[...]. Also returns the number of clamped queries of each x[...].
    All queries are located at once. The two weights of a query land in
    distinct columns, or both in the one column of a single-node axis
    (1, then + 0), so one assignment and one in-place add give the bits of
    accumulating both onto zero.
    """
    idx, frac, n_clamped = _locate(nodes, x, axis=-1)
    mat = np.zeros(frac.shape + (len(nodes),))
    flat = mat.reshape(-1, len(nodes))
    rows = np.arange(len(flat))
    flat[rows, idx.ravel()] = 1.0 - frac.ravel()
    flat[rows, np.minimum(idx + 1, len(nodes) - 1).ravel()] += frac.ravel()
    return mat, n_clamped


def _tally(weight, n_total: int, n_clamped) -> np.ndarray:
    """The (mass, clamped) increments ``weight * n_total`` and
    ``weight * n_clamped`` of ClampCounters.add_xi/add_window, flattened in
    C order into a (2, K) array."""
    weight, n_clamped = np.broadcast_arrays(np.asarray(weight, dtype=float),
                                            n_clamped)
    return np.stack([(weight * n_total).ravel(), (weight * n_clamped).ravel()])


def _add_tallies(counters: ClampCounters, axis: str, tally: np.ndarray) -> None:
    """Add the increments tally[0] to counters.<axis>_mass and tally[1] to
    counters.<axis>_clamped one at a time, in order: np.add.accumulate sums
    sequentially, so the totals have the bits of one add_xi/add_window call
    per increment."""
    for name, inc in zip((f"{axis}_mass", f"{axis}_clamped"), tally):
        total = np.add.accumulate(np.concatenate(([getattr(counters, name)], inc)))
        setattr(counters, name, float(total[-1]))


class _StepOperators:
    """The expectation engine as linear operators built once per solve.

    Everything that depends only on the grid, the market and the profile --
    quadrature nodes, interpolation weights, clamp counts and the jump-shock
    smoothing -- is computed here; slice_expectations then applies it to the
    tables of one step. Moments up to the power `jmax` are available.

    The operators take and give regime-major tables, (M, Nxi, Np, Nc), so
    that each regime's slab is contiguous and the per-step algebra of the
    backward induction runs on whole slabs; see slice_expectations.
    """

    def __init__(self, market: MarketParams, tabs: _ProfileTables, grid: Grid,
                 jmax: int):
        Nxi, Np, Nc, M = grid.shape
        self.grid, self.tabs, self.P = grid, tabs, market.transition
        gh_x, gh_w = _gh_nodes(grid.quad_points)
        Q, J = len(gh_x), jmax + 1
        self.gh_w = gh_w
        dm = math.sqrt(2.0) * market.sigma_step[:, None] * gh_x  # (M, Q)
        zt = dm + market.mu_step[:, None] - market.r_step[:, None]
        # powers[j, y, q] = w_q zt^j
        powers = np.empty((J, M, Q))
        powers[0] = gh_w
        for j in range(1, J):
            powers[j] = powers[j - 1] * zt

        # Plain step: cur picks up the return, xi and prev are frozen, so
        # sum_q w_q zt^j Interp_q along cur is one Nc x Nc matrix per (y, j),
        # stacked j-major as C[y, j*Nc + c_out, c_in].
        wv = grid.cur + dm[:, :, None]  # (M, Q, Nc)
        cur_interp, cur_clamped = _interp_matrix(grid.cur, wv)
        C = np.zeros((M, J, Nc, Nc))
        for y in range(M):
            for q in range(Q):
                C[y] += powers[:, y, q, None, None] * cur_interp[y, q]
        self._C = C.reshape(M, J * Nc, Nc)
        # The clamp tallies of a step as (mass, clamped) increments in the
        # order the tallies are added, (y, q) here; see _add_tallies.
        self._plain_tally = (_tally(gh_w, Nc, cur_clamped) if Nc > 1
                             else np.empty((2, 0)))
        # Interaction step, prev axis: the completed window w = cur + dm.
        self._prev_interp, prev_clamped = _interp_matrix(grid.prev, wv)
        self._prev_tally = (_tally(gh_w, Nc, prev_clamped) if Np > 1
                            else np.empty((2, 0)))

        # Jump-shock smoothing along log xi: one Nxi x Nxi matrix, with its
        # first and last rows repeated Nxi times on either side so that a
        # window starting anywhere in [0, 2 Nxi) reads the clamped table.
        K = np.zeros((Nxi, Nxi))
        smooth = [np.empty((2, 0))]
        for weight, mean, sd in _jump_mixture(tabs.profile):
            if sd == 0.0:
                K += weight * np.eye(Nxi)
                continue
            mats, ncl = _interp_matrix(
                grid.logxi, grid.logxi + (mean + sd * math.sqrt(2.0) * gh_x)[:, None])
            for wq, mat in zip(gh_w, mats):
                K += (weight * wq) * mat
            smooth.append(_tally(weight * gh_w, Nxi, ncl))
        self._K_padded = K[np.clip(np.arange(-Nxi, 2 * Nxi), 0, Nxi - 1)]
        self._smooth_tally = np.concatenate(smooth, axis=1)

        # Interaction step, xi axis: the displacement of log xi depends on
        # (y, q, p, c) but not on the xi node. Keep the operands of the
        # unclamped locator position, t = (logxi + bp prev + shift - bp w
        # - logxi[0]) / step, in the order the locator rounds them.
        bp = tabs.beta / tabs.phi
        self._base = grid.logxi[:, None] + bp * grid.prev[None, :]  # (Nxi, Np)
        self._bp_w = bp * (grid.cur + dm[:, :, None])  # (M, Q, Nc)
        self._xi_step = (grid.logxi[-1] - grid.logxi[0]) / (Nxi - 1)
        self._powers = powers
        # The last interaction shift, its xi positions and its xi tallies:
        # with no trend the shift repeats at every interaction step.
        self._xi_cache: tuple[float, tuple, np.ndarray] | None = None

    def slice_expectations(self, n: int, specs: list[tuple[np.ndarray, int]],
                           counters: ClampCounters) -> list[np.ndarray]:
        """Conditional moments E[Ztilde^j X(next state)] over the whole grid.

        Tables are regime-major: for each (X_table, max_power) in `specs`,
        X_table has shape (M, Nxi, Np, Nc), and the result has shape
        (max_power+1, M, Nxi, Np, Nc); its [j, y] entry is the conditional
        expectation of Ztilde^j times X evaluated at the transitioned state,
        given the time-n reduced state at each grid point in regime y.
        Clamped quadrature mass is added to `counters`.

        Regime-major because with the M regimes last every per-regime
        slice, broadcast or contraction runs as M-element inner loops. On
        the default 41x21x21x2 grid (one BLAS thread), R_step times a table
        takes 119-130 us regime-last against 11-13 us on regime-major slabs,
        and the next-regime sum takes 150-350 us as 861 (21x2)@(2x2)
        products against 15-21 us as one P @ X.
        """
        if (n + 1) % self.tabs.phi == 0:
            return self._interaction(n, specs, counters)
        _add_tallies(counters, "window", self._plain_tally)
        Nxi, Np, Nc, M = self.grid.shape
        out = []
        for tbl, jmax in specs:
            # contract the next-regime sum first: nxt[y] given current y
            nxt = self._next_regime_sum(tbl.reshape(M, -1), Nc).reshape(tbl.shape)
            acc = np.empty((jmax + 1,) + tbl.shape)
            for y in range(M):
                res = nxt[y] @ self._C[y, : (jmax + 1) * Nc].T
                acc[:, y] = np.moveaxis(res.reshape(Nxi, Np, jmax + 1, Nc), 2, 0)
            out.append(acc)
        return out

    def _next_regime_sum(self, X: np.ndarray, rows: int) -> np.ndarray:
        """sum_y' P[y, y'] X[y'] over regime-major rows X of shape (M, K).

        Bit for bit what the regime-last product ``X.T @ P.T`` gives when
        numpy takes it in batches of `rows` rows: a one-row batch is a
        vector-matrix product, whose bits a stack of matrix-vector products
        reproduces, and a batch of two or more rows is a matrix product,
        whose bits ``P @ X`` reproduces.
        """
        if rows == 1:
            return np.matmul(self.P, X.T[:, :, None])[:, :, 0].T
        return self.P @ X

    def _xi_positions(self, n: int):
        """Where each quadrature branch of the interaction step into n+1
        lands on the log-xi axis.

        Returns (start, frac, n_clamped): start[y, q, p, c] is the first row
        of the edge-padded smoothed table that the xi node 0 reads, frac the
        common interpolation weight of its successor, and n_clamped[y, q] the
        number of clamped (xi, prev, cur) lookups, identical to what the
        locator counts node by node. They depend on n only through the
        interaction shift, so a repeated shift reuses the previous result;
        the cache also keeps the shift's xi tallies for _interaction.
        """
        Nxi, Np, Nc, M = self.grid.shape
        shift = self.tabs.interaction_shift(n)
        if self._xi_cache is not None and self._xi_cache[0] == shift:
            return self._xi_cache[1]
        # d[y, q, 0, c] = shift - bp w
        d = (shift - self._bp_w)[:, :, None, :]
        prev = np.arange(Np)[:, None]
        lo, hi = self.grid.logxi[0], self.grid.logxi[-1]

        def lx_at(k):
            """The log xi that xi node k reads (-inf/+inf beyond the axis),
            shape (M, Q, Np, Nc)."""
            lx = self._base[np.clip(k, 0, Nxi - 1), prev] + d
            return np.where(k < 0, -np.inf, np.where(k >= Nxi, np.inf, lx))

        t0 = (self._base[0, prev] + d - lo) / self._xi_step
        # Node i sits at t0 + i up to rounding, so the clamped nodes follow
        # in closed form; log xi is monotone in i, so checking the two nodes
        # next to each edge in log xi, as the locator does, makes it exact.
        first_in = np.clip(np.ceil(-t0), 0, Nxi).astype(np.intp)
        below = first_in - 1 + (lx_at(first_in - 1) < lo) + (lx_at(first_in) < lo)
        first_above = Nxi - np.clip(np.ceil(t0), 0, Nxi).astype(np.intp)
        above = (Nxi - first_above - 1 + (lx_at(first_above - 1) > hi)
                 + (lx_at(first_above) > hi))
        n_clamped = (below + above).sum(axis=(2, 3))
        s = np.clip(t0, -Nxi, Nxi - 1)
        k0 = np.floor(s)
        positions = ((k0 + Nxi).astype(np.intp), s - k0, n_clamped)
        # The xi tallies of the return quadrature, weight w_q P[y, y'] per
        # (y, q, y') with P[y, y'] != 0, as (mass, clamped) increments.
        y, q, y2 = np.nonzero(
            np.broadcast_to(self.P[:, None, :] != 0.0, (M, len(self.gh_w), M)))
        tally = _tally(self.gh_w[q] * self.P[y, y2], Nxi * Np * Nc, n_clamped[y, q])
        for arr in (*positions, tally):
            arr.setflags(write=False)
        self._xi_cache = (shift, positions, tally)
        return positions

    def _interaction(self, n, specs, counters):
        """The window completes (w = cur + next demeaned return), xi jumps,
        cur resets to zero. The jump-shock sum is independent of the return
        and displaces only log xi, so it is integrated first (the smoothing
        matrix); then the return quadrature interpolates along prev (a
        matrix per node) and along log xi (a window gather, since every xi
        node moves by the same amount)."""
        Nxi, Np, Nc, M = self.grid.shape
        Q = len(self.gh_w)
        start, frac, _ = self._xi_positions(n)
        # the smoothing's tallies once per spec, then the return quadrature's
        _add_tallies(counters, "xi", np.concatenate(
            [self._smooth_tally] * len(specs) + [self._xi_cache[2]], axis=1))
        _add_tallies(counters, "window", self._prev_tally)

        S, J = len(specs), max(jmax for _, jmax in specs) + 1
        ic0 = self.grid.cur_zero_index
        # table0[xi, prev, y, spec]: the next-regime sum given current y. The
        # smoothing contracts this regime-last operand, as it always has:
        # contracting a regime-major one sums in another order.
        table0 = np.stack([
            np.moveaxis(self._next_regime_sum(tbl[..., ic0].reshape(M, -1), Np)
                        .reshape(M, Nxi, Np), 0, -1)
            for tbl, _ in specs], axis=-1)
        smoothed = np.tensordot(self._K_padded, table0, axes=(1, 0))
        # rows[y, prev, padded xi, spec], flattened for the prev interpolation
        smoothed = np.ascontiguousarray(smoothed.transpose(2, 1, 0, 3)).reshape(
            M, Np, 3 * Nxi * S)
        # start and frac as (y, p, c, q): one batch per (p, c)
        start = start.transpose(0, 2, 3, 1)
        frac = frac.transpose(0, 2, 3, 1).reshape(M, Np * Nc, 1, Q)
        out = [np.empty((jmax + 1, M, Nxi, Np, Nc)) for _, jmax in specs]
        for y in range(M):
            acc = np.zeros((Np * Nc, J, Nxi * S))
            for q0 in range(0, Q, _Q_CHUNK):
                qs = slice(q0, min(q0 + _Q_CHUNK, Q))
                Qc = qs.stop - qs.start
                rows = (self._prev_interp[y, qs] @ smoothed[y]).reshape(
                    Qc, Nc, 3 * Nxi, S)
                # every window of Nxi+1 consecutive xi rows, each contiguous
                st = rows.strides
                windows = np.lib.stride_tricks.as_strided(
                    rows, shape=(Qc, Nc, 2 * Nxi, (Nxi + 1) * S),
                    strides=st[:3] + (st[3],), writeable=False)
                W = windows[np.arange(Qc), np.arange(Nc)[:, None],
                            start[y, :, :, qs]].reshape(Np * Nc, Qc, -1)
                # sum over q of coef * ((1-f) row_i + f row_i+1)
                coef = self._powers[:J, y, qs]
                f = frac[y, :, :, qs]
                acc += ((coef * (1.0 - f)) @ W[:, :, : Nxi * S]
                        + (coef * f) @ W[:, :, S:])
            # (p, c, j, xi, spec) -> (j, xi, p, c) per spec
            acc = acc.reshape(Np, Nc, J, Nxi, S)
            for k, (_, jmax) in enumerate(specs):
                out[k][:, y] = acc[:, :, : jmax + 1, :, k].transpose(2, 3, 0, 1)
        return out


# -- public operations ---------------------------------------------------------------


def constrain(pi, lower: float, upper: float):
    """Clamp an allocation into [lower, upper], bounds as check_bounds takes."""
    check_bounds((lower, upper))
    return np.clip(pi, lower, upper)


def liquidation_overlay(x, pi):
    """Dollar position under forced liquidation at nonpositive wealth.

    Returns pi*x when wealth x is nonnegative and 0 otherwise; applied at
    simulation time only, never inside the backward induction.
    """
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, np.asarray(pi, dtype=float) * x, 0.0)


def allocation(n, state: ReducedState, moments, gamma_n: float, market: MarketParams):
    """Equilibrium allocation from the five conditional moments.

    `moments` is (mu_a, mu_az, mu_b, mu_bz, mu_bz2) as produced by
    step_moments. The first-order condition of the per-period objective gives

        pi* = (mu_az - R gamma (mu_bz - mu_a mu_az)) / (gamma (mu_bz2 - mu_az^2)),

    whose denominator is a conditional-variance-like quantity, positive
    whenever the return is non-degenerate.
    """
    check_regime(market, state.regime, "regime")
    mu_a, mu_az, mu_b, mu_bz, mu_bz2 = moments
    R = float(market.R_step[state.regime])
    denom = mu_bz2 - mu_az**2
    if denom <= 0.0:
        raise DegenerateVariance(
            f"second-moment denominator {float(denom)!r} at n={n}, state={state}"
        )
    return (mu_az - R * gamma_n * (mu_bz - mu_a * mu_az)) / (gamma_n * denom)


def allocation_independent(
    n, state: ReducedState, mu_a: float, mu_b: float, gamma_n: float,
    market: MarketParams,
):
    """Allocation when future moment tables are independent of the return.

    When the advisor's risk-aversion path does not react to market returns
    (e.g. beta = 0 with no idiosyncratic feedback into the state), the mixed
    moments factorize (mu_az = mu_tilde*mu_a etc.) and the allocation becomes
    the Markowitz ratio times a horizon correction:

        pi* = mu_tilde/(gamma sigma^2)
              * (mu_a - R gamma (mu_b - mu_a^2)) / (mu_b + (mu_tilde/sigma)^2 (mu_b - mu_a^2)).
    """
    check_regime(market, state.regime, "regime")
    y = state.regime
    mt = float(market.mu_tilde_step[y])
    s2 = float(market.sigma_step[y]) ** 2
    R = float(market.R_step[y])
    denom = mu_b + (mt * mt / s2) * (mu_b - mu_a * mu_a)
    if denom <= 0.0:
        raise DegenerateVariance(f"degenerate denominator {float(denom)!r} at n={n}")
    return mt / (gamma_n * s2) * (mu_a - R * gamma_n * (mu_b - mu_a * mu_a)) / denom


def step_moments(n: int, state: ReducedState, tables: PolicyTables):
    """Conditional moments (mu_a, mu_az, mu_b, mu_bz, mu_bz2) at one state.

    Expectations of a_{n+1} and b_{n+1} (weighted by powers of the excess
    return Ztilde) over the step into n+1, conditional on the time-n reduced
    state, under the market and client profile the tables were solved for.
    The jump-shock sum at an interaction step is integrated directly at the
    query point (exact binomial mixture x quadrature), so this routine is an
    independent, slower counterpart of the vectorized slice engine.
    """
    market, profile, grid = tables.market, tables.profile, tables.grid
    tabs = _ProfileTables(market, profile, tables.T)
    check_regime(market, state.regime, "regime")
    check_count(n, "time index", 0)
    if n >= tables.T:
        raise ConfigError(f"time index {n} outside [0, {tables.T})")
    a_next, b_next = tables.a[n + 1], tables.b[n + 1]
    P = market.transition
    y = state.regime
    mu, sig, r = market.mu_step[y], market.sigma_step[y], market.r_step[y]
    gh_x, gh_w = _gh_nodes(grid.quad_points)
    interaction = (n + 1) % profile.phi == 0

    acc = np.zeros(5)
    lxi = math.log(state.xi)
    mixture = _jump_mixture(profile) if interaction else [(1.0, 0.0, 0.0)]
    for xq, wq in zip(gh_x, gh_w):
        dm = math.sqrt(2.0) * sig * xq
        zt = dm + mu - r
        for y2 in range(market.num_states):
            pw = P[y, y2]
            if pw == 0.0:
                continue
            if interaction:
                w = state.cur_window_sum + dm
                base_lx = (
                    lxi
                    + tabs.interaction_shift(n)
                    + (tabs.beta / tabs.phi) * (state.prev_window_sum - w)
                )
                av = bv = 0.0
                for jw, jm, jsd in mixture:
                    if jsd == 0.0:
                        av += jw * _interp3(grid, a_next, base_lx, w, 0.0, y2)
                        bv += jw * _interp3(grid, b_next, base_lx, w, 0.0, y2)
                        continue
                    for exq, ewq in zip(gh_x, gh_w):
                        shift = jm + jsd * math.sqrt(2.0) * exq
                        av += jw * ewq * _interp3(grid, a_next, base_lx + shift, w, 0.0, y2)
                        bv += jw * ewq * _interp3(grid, b_next, base_lx + shift, w, 0.0, y2)
            else:
                cv = state.cur_window_sum + dm
                av = _interp3(grid, a_next, lxi, state.prev_window_sum, cv, y2)
                bv = _interp3(grid, b_next, lxi, state.prev_window_sum, cv, y2)
            wgt = wq * pw
            acc[0] += wgt * av
            acc[1] += wgt * zt * av
            acc[2] += wgt * bv
            acc[3] += wgt * zt * bv
            acc[4] += wgt * zt * zt * bv
    return tuple(acc)


def update_ab(n: int, state: ReducedState, pi_star: float, tables: PolicyTables):
    """One-state moment recursion: a_n = E[(R+Ztilde pi) a_{n+1}], same for b."""
    mu_a, mu_az, mu_b, mu_bz, mu_bz2 = step_moments(n, state, tables)
    R = float(tables.market.R_step[state.regime])
    a_n = R * mu_a + pi_star * mu_az
    b_n = R * R * mu_b + 2.0 * R * pi_star * mu_bz + pi_star**2 * mu_bz2
    return a_n, b_n


def _require_finite(name: str, values: np.ndarray, n: int) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"non-finite {name} at n={n}")


def _solve_grid(grid: GridSpec | Grid | None, market: MarketParams,
                profile: RiskProfileParams) -> Grid:
    """The grid `solve` runs on: a Grid as given, else one built from the
    spec (GridSpec() when None)."""
    if isinstance(grid, Grid):
        return grid
    return Grid.build(grid if grid is not None else GridSpec(), market, profile)


def _checked_grid(market: MarketParams, profile: RiskProfileParams, T: int,
                  grid: GridSpec | Grid | None) -> Grid:
    """Check a solve request's horizon and return the grid it runs on."""
    check_count(T, "horizon T", 1)
    return _solve_grid(grid, market, profile)


def _backward_steps(market: MarketParams, profile: RiskProfileParams, T: int,
                    g: Grid, bounds, counters: ClampCounters):
    """The backward induction: yield (n, p_n, a_n, b_n) for n = T-1 down to 0.

    The slabs are regime-major, (M, xi, prev, cur), and are the core's own
    working arrays: a caller copies what it keeps before asking for the next
    step, and ignores the rest. Clamped quadrature mass is added to
    `counters`; after the last step a clamped xi mass fraction above
    `g.max_clamp_fraction` raises GridExhausted. Overflow and invalid
    operations surface as NumericalError, not as warnings; the error state
    is set around each step's arithmetic only, never across a yield.
    """
    tabs = _ProfileTables(market, profile, T)
    shape = g.shape
    R = market.R_step[:, None, None, None]  # broadcast over regime-major slabs
    # the next step's a and b
    a_n = np.ones((shape[-1],) + shape[:-1])
    b_n = np.ones_like(a_n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ops = _StepOperators(market, tabs, g, jmax=2)
    for n in range(T - 1, -1, -1):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ma, mb = ops.slice_expectations(n, [(a_n, 1), (b_n, 2)], counters)
            mu_a, mu_az = ma[0], ma[1]
            mu_b, mu_bz, mu_bz2 = mb[0], mb[1], mb[2]
            gam = tabs.gamma_slice(n, g.xi).T[:, :, None, None]
            denom = mu_bz2 - mu_az**2
            _require_finite("second-moment denominator", denom, n)
            if np.any(denom <= 0.0):
                worst = float(denom.min())
                raise DegenerateVariance(
                    f"nonpositive second-moment denominator ({worst:.3e}) at n={n}"
                )
            p_n = (mu_az - R * gam * (mu_bz - mu_a * mu_az)) / (gam * denom)
            _require_finite("allocation", p_n, n)
            if bounds is not None:
                p_n = np.clip(p_n, bounds[0], bounds[1])
            a_n = R * mu_a + p_n * mu_az
            b_n = R * R * mu_b + 2.0 * R * p_n * mu_bz + p_n**2 * mu_bz2
            _require_finite("moment table a", a_n, n)
            _require_finite("moment table b", b_n, n)
        yield n, p_n, a_n, b_n

    if counters.xi_fraction > g.max_clamp_fraction:
        raise GridExhausted(
            f"clamped xi quadrature mass fraction {counters.xi_fraction:.3f} "
            f"exceeds max_clamp_fraction {g.max_clamp_fraction}; widen the xi grid"
        )


def _put_regime_last(table: np.ndarray, slab: np.ndarray) -> None:
    """table[..., y] = slab[y] for every regime y: one strided copy per
    regime, cheaper than moving the regime axis of the whole slab."""
    for y in range(slab.shape[0]):
        table[..., y] = slab[y]


def solve(
    market: MarketParams,
    profile: RiskProfileParams,
    T: int,
    grid: GridSpec | Grid | None = None,
    bounds: tuple[float, float] | None = None,
) -> PolicyTables:
    """Backward induction over the reduced-state grid.

    Produces allocation and moment tables for n = T-1 down to 0 under the
    terminal condition a_T = b_T = 1; the value table V is derived from them
    (`PolicyTables.V`). When `bounds`, a finite (lower, upper) pair, is
    given the allocation is truncated inside the induction, so the moment
    tables (and hence all earlier allocations) reflect the constrained
    policy. A step whose denominator, allocation or moment tables are not
    finite raises NumericalError naming the time index.

    Each step works on regime-major slabs (see `_StepOperators`) and is
    written into the returned tables one regime at a time, so their layout
    is unchanged: (xi, prev, cur, regime), regime last.
    """
    bounds = check_bounds(bounds)
    g = _checked_grid(market, profile, T, grid)
    shape = g.shape
    pi = np.empty((T,) + shape)
    a = np.empty((T + 1,) + shape)
    b = np.empty((T + 1,) + shape)
    a[T] = 1.0
    b[T] = 1.0
    counters = ClampCounters()
    for n, p_n, a_n, b_n in _backward_steps(market, profile, T, g, bounds, counters):
        _put_regime_last(pi[n], p_n)
        _put_regime_last(a[n], a_n)
        _put_regime_last(b[n], b_n)
    return PolicyTables(
        market=market, profile=profile, T=T, grid=g,
        pi=pi, a=a, b=b, bounds=bounds, solve_clamps=counters,
    )


def moment_m(
    m: int,
    policy: PolicyTables,
    state: ReducedState,
    n: int,
) -> float:
    """m-th conditional moment of the compounded return under the solved policy.

    Runs the recursion mu^(m)_k = E[(R + Ztilde pi_k)^m mu^(m)_{k+1}] from the
    terminal condition mu^(m)_T = 1 down to time n on the policy's own grid,
    then interpolates at `state`. m = 1 and m = 2 reproduce the a and b
    tables. A step whose moment table is not finite raises NumericalError
    naming the time index.
    """
    check_count(m, "moment order m", 1)
    check_count(n, "time index n", 0)
    if n >= policy.T:
        raise ConfigError(f"time index {n} outside [0, {policy.T})")
    market, grid = policy.market, policy.grid
    tabs = _ProfileTables(market, policy.profile, policy.T)
    counters = ClampCounters()
    ops = _StepOperators(market, tabs, grid, jmax=m)
    R = market.R_step[:, None, None, None]
    binom = [math.comb(m, j) for j in range(m + 1)]
    # regime-major slabs, as the step operators take them
    slab_shape = (grid.shape[-1],) + grid.shape[:-1]
    cur = np.ones(slab_shape)
    # Overflow and invalid operations surface as NumericalError, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(policy.T - 1, n - 1, -1):
            (zm,) = ops.slice_expectations(k, [(cur, m)], counters)
            p_k = np.moveaxis(policy.pi[k], -1, 0)
            nxt = np.zeros(slab_shape)
            for j in range(m + 1):
                nxt += binom[j] * R ** (m - j) * p_k**j * zm[j]
            _require_finite(f"moment {m} table", nxt, k)
            cur = nxt

    return float(_interp3(grid, np.moveaxis(cur, 0, -1), math.log(state.xi),
                          state.prev_window_sum, state.cur_window_sum,
                          state.regime))


def state_only_ab(market: MarketParams, allocations: np.ndarray):
    """Exact moment recursion for a policy that depends only on (time, regime).

    `allocations` has shape (T, M). Because the return is conditionally
    independent of the next regime, the recursion needs no quadrature:

        a_n(y) = (R + mu_tilde pi_n(y)) * sum_y' P[y,y'] a_{n+1}(y'),
        b_n(y) = ((R + mu_tilde pi_n)^2 + sigma^2 pi_n^2) * sum_y' P[y,y'] b_{n+1}(y').

    Returns (a, b) of shape (T+1, M). Raises ConfigError unless the
    allocations are finite.
    """
    allocations = np.atleast_2d(np.asarray(allocations, dtype=float))
    T, M = allocations.shape
    if M != market.num_states:
        raise ConfigError(
            f"allocations must have one column per regime ({market.num_states}), "
            f"got {M}"
        )
    if not np.isfinite(allocations).all():
        raise ConfigError("allocations must be finite")
    P = market.transition
    R, mt = market.R_step, market.mu_tilde_step
    s2 = market.sigma_step**2
    a = np.empty((T + 1, M))
    b = np.empty((T + 1, M))
    a[T] = 1.0
    b[T] = 1.0
    for n in range(T - 1, -1, -1):
        mu_a = P @ a[n + 1]
        mu_b = P @ b[n + 1]
        g = R + mt * allocations[n]
        a[n] = g * mu_a
        b[n] = (g * g + s2 * allocations[n] ** 2) * mu_b
    return a, b


def brute_force_equilibrium(
    market: MarketParams,
    gamma: float,
    T: int,
    grid_points: int = 4001,
    span: tuple[float, float] = (-2.0, 6.0),
    refinements: int = 4,
) -> np.ndarray:
    """Reference equilibrium for tiny single-state instances by grid search.

    The terminal allocation is the exact one-period mean-variance maximizer;
    each earlier allocation maximizes the time-n objective over a fine grid
    of candidate values with all later allocations held fixed. The objective
    is evaluated through exact Gaussian product moments (no quadrature, no
    interpolation), so this shares no machinery with the production solver.
    """
    if market.num_states != 1:
        raise ConfigError("the brute-force oracle only handles a single regime")
    T = check_number(T, "the brute-force oracle's T", integer=True, ge=1, le=3)
    check_number(gamma, "gamma", gt=0)
    R = float(market.R_step[0])
    mt = float(market.mu_tilde_step[0])
    s2 = float(market.sigma_step[0]) ** 2

    pis = np.empty(T)
    A = 1.0  # product of E[R + Ztilde pi_k] over k > n
    B = 1.0  # product of E[(R + Ztilde pi_k)^2] over k > n
    for n in range(T - 1, -1, -1):
        if n == T - 1:
            best = mt / (gamma * s2)
        else:
            lo, hi = span
            pts = grid_points
            best = 0.0
            for _ in range(refinements):
                cand = np.linspace(lo, hi, pts)
                g1 = R + mt * cand
                # objective: A*E[g] - gamma/2 * Var of the compound return
                obj = A * g1 - 0.5 * gamma * (
                    (B - A * A) * g1 * g1 + B * s2 * cand * cand
                )
                k = int(np.argmax(obj))
                best = float(cand[k])
                width = (hi - lo) / (pts - 1)
                lo, hi = best - 2 * width, best + 2 * width
        pis[n] = best
        A *= R + mt * best
        B *= (R + mt * best) ** 2 + s2 * best * best
    return pis


# -- persistence ------------------------------------------------------------------


def _params_digest(market: MarketParams, profile: RiskProfileParams, T: int,
                   grid: GridSpec | Grid | None, bounds) -> str:
    """`params_sha256` of the tables ``solve(market, profile, T, grid,
    bounds)`` returns."""
    doc = {
        "market": _market_doc(market),
        "risk_profile": _profile_doc(profile),
        "T": T,
        "grid": _solve_grid(grid, market, profile).to_dict(),
        "bounds": bounds,
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=_json_number).encode()
    ).hexdigest()


def _json_number(value) -> int | float:
    """A numpy integer or float (a T taken from an array, a float32 gamma0)
    serializes as the Python number it equals, so it digests the same."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _market_doc(market: MarketParams) -> dict:
    return {
        "states": (
            list(market.labels) if market.labels is not None else market.num_states
        ),
        "transition": market.transition.tolist(),
        "risk_free": market.risk_free.tolist(),
        "mean_return": market.mean_return.tolist(),
        "vol_return": market.vol_return.tolist(),
        "steps_per_year": market.steps_per_year,
    }


def _profile_doc(profile: RiskProfileParams) -> dict:
    doc = {
        "gamma0": profile.gamma0,
        "alpha": profile.alpha,
        "p_eps": profile.p_eps,
        "sigma_eps": profile.sigma_eps,
        "beta": profile.beta,
        "phi": profile.phi,
    }
    gb = np.asarray(profile.gamma_bar, dtype=float)
    doc["gamma_bar"] = float(gb) if gb.ndim == 0 else gb.tolist()
    if profile.eta is not None:
        doc["eta"] = np.asarray(profile.eta).tolist()
    return doc


_POLICY_STORE = "policy.npz"
# Manifest "format" of save_policy's stores. Format 2 stores also hold V;
# unmarked older stores hold the communicated xi, not xi over the last
# interaction's cycle factor.
_STORE_FORMAT = 3
# Fixed table order of the store and of its digest; a and b carry the
# terminal slice, so they hold T+1 periods and pi holds T.
_TABLE_NAMES = ("pi", "a", "b")


def _tables_digest(params_sha256: str, tables: dict, clamps: ClampCounters) -> str:
    """SHA-256 over the parameter digest, then each table's name, dtype,
    shape and bytes in _TABLE_NAMES order, then the four raw clamp tallies
    (ClampCounters field order) as little-endian float64."""
    h = hashlib.sha256(params_sha256.encode())
    for name in _TABLE_NAMES:
        arr = np.ascontiguousarray(tables[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}\n".encode())
        h.update(arr.data)
    tallies = np.array([getattr(clamps, f.name) for f in fields(ClampCounters)],
                       dtype="<f8")
    h.update(b"solve_clamps\n" + tallies.tobytes())
    return h.hexdigest()


def _write_csv_slice(path: Path, xis: list, block: list, values: np.ndarray) -> None:
    """Write one CSV slice: `values` holds (pi_star, a, b, V) per grid node in
    (xi, prev, cur, regime) order, `xis` the formatted xi nodes, and `block`
    ten strings per row of one xi node with the row heads and separators in
    place; the xi and value slots are refilled for each node. The slice's
    strings are freed on return, before the next slice's are formed; only
    the block keeps its last node's."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    strings = np.array(["%.12g" % v for v in bits.view(np.float64).tolist()],
                       dtype=object)
    rows = len(block) // 10
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("xi,prev_sum,cur_sum,regime,pi_star,a,b,V\r\n")
        for x, cells in zip(xis, inverse.reshape(len(xis), -1)):
            node = strings[cells].tolist()
            block[0::10] = [x] * rows
            for k in range(4):
                block[2 + 2 * k::10] = node[k::4]
            f.write("".join(block))


def save_policy(tables: PolicyTables, outdir: str | Path) -> Path:
    """Write the policy store and its per-period CSV export.

    `policy.npz` holds pi, a and b as solved (float64, a and b with their
    terminal slice) and is what load_policy reads; V is derived, so it is
    not stored. `manifest.json`, written last, stores the store format, the
    market, risk profile, grid, bounds, clamp tallies, the parameter digest
    `params_sha256` and the table digest `tables_sha256`.
    `policy_NNNN.csv` exports period NNNN: rows enumerate the grid in
    (xi, prev, cur, regime) order with columns
    (xi, prev_sum, cur_sum, regime, pi_star, a, b, V), 12 significant digits.
    Its V column is formed one period at a time, with the arithmetic of
    `PolicyTables.V`. Each distinct float64 bit pattern of a period is
    formatted once (`%.12g`) and reused wherever it repeats; distinct bits
    stay distinct, so -0.0 still prints "-0" beside 0.0's "0" and the bytes
    are those of formatting every value with `%.12g`. The xi strings and the
    (prev, cur, regime) row heads are formatted once per save, and a slice
    is written one xi node at a time: one reused block of ten strings per
    row (xi, row head, then the four values and their separators) is filled
    and joined, so no string of a whole slice is ever built, and only one
    slice's value strings are alive at a time. Lines end in \\r\\n, as
    csv.writer ends them.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    g = tables.grid
    arrays = {
        name: np.ascontiguousarray(getattr(tables, name), dtype=np.float64)
        for name in _TABLE_NAMES
    }
    xis = [f"{x:.12g}" for x in g.xi.tolist()]
    heads = [f",{p:.12g},{c:.12g},{y},"
             for p, c, y in itertools.product(g.prev.tolist(), g.cur.tolist(),
                                              range(g.num_states))]
    block = [","] * (10 * len(heads))
    block[1::10] = heads
    block[9::10] = ["\r\n"] * len(heads)
    tabs = _ProfileTables(tables.market, tables.profile, tables.T)
    for n in range(tables.T):
        a_n, b_n = arrays["a"][n], arrays["b"][n]
        values = np.stack([arrays["pi"][n], a_n, b_n,
                           _value_slice(a_n, b_n, tabs, g.xi, n)], axis=-1).ravel()
        _write_csv_slice(outdir / f"policy_{n:04d}.csv", xis, block, values)
    # np.savez stamps each member with the current time; a fixed ZipInfo
    # date keeps identical solves byte-identical.
    with zipfile.ZipFile(outdir / _POLICY_STORE, "w") as zf:
        for name in _TABLE_NAMES:
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as f:
                np.lib.format.write_array(f, arrays[name], allow_pickle=False)
    params_sha256 = tables.params_sha256
    clamps = tables.solve_clamps
    manifest = {
        "kind": "policy_tables",
        "format": _STORE_FORMAT,
        "T": tables.T,
        "bounds": tables.bounds,
        "grid": g.to_dict(),
        "market": _market_doc(tables.market),
        "risk_profile": _profile_doc(tables.profile),
        "solve_clamps": {**clamps.as_dict(), **asdict(clamps)},
        "params_sha256": params_sha256,
        "tables_sha256": _tables_digest(params_sha256, arrays, clamps),
    }
    # Serialized before the file is opened, so a failure leaves no partial
    # manifest.
    text = json.dumps(manifest, indent=2, sort_keys=True, default=_json_number)
    (outdir / "manifest.json").write_text(text)
    return outdir


def load_policy(indir: str | Path) -> PolicyTables:
    """Rebuild PolicyTables from the store save_policy wrote, verified.

    Reads only `manifest.json` and `policy.npz`, then checks in order: the
    store format; the parameter digest, recomputed from the manifest's
    market, risk profile, grid, T and bounds; each table's dtype and shape;
    the table digest, which also covers the manifest's raw clamp tallies. Any
    mismatch, a malformed manifest or store, or a missing `policy.npz` raises
    ConfigError.
    """
    indir = Path(indir)
    manifest_path, store_path = indir / "manifest.json", indir / _POLICY_STORE
    with open(manifest_path) as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("kind") != "policy_tables":
        raise ConfigError(f"{indir} does not hold policy tables")
    found = manifest.get("format")
    if found != _STORE_FORMAT:
        kind = "an unmarked" if found is None else f"a format-{found!r}"
        raise ConfigError(f"{manifest_path} holds {kind} policy store, not format "
                          f"{_STORE_FORMAT}; re-run solve")
    if not store_path.is_file():
        raise ConfigError(
            f"{indir} has no {_POLICY_STORE} (CSV-only policy directories from "
            f"older versions cannot be loaded); re-run solve"
        )
    try:
        market = market_from_dict(manifest["market"])
        profile = profile_from_dict(manifest["risk_profile"])
        g = Grid.from_dict(manifest["grid"])
        T = manifest["T"]
        bounds = check_bounds(manifest["bounds"])
        saved = manifest["solve_clamps"]
        clamps = ClampCounters(
            **{f.name: float(saved[f.name]) for f in fields(ClampCounters)}
        )
        params_sha256 = manifest["params_sha256"]
        tables_sha256 = manifest["tables_sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"{manifest_path} is malformed: {type(exc).__name__}: {exc}"
        ) from exc
    check_count(T, f"{manifest_path}: T", 1)
    if _params_digest(market, profile, T, g, bounds) != params_sha256:
        raise ConfigError(
            f"{manifest_path}: params_sha256 does not match the stored parameters"
        )
    # Read the bytes first: past this point any failure is a corrupt store,
    # not I/O trouble.
    store = io.BytesIO(store_path.read_bytes())
    try:
        with np.load(store, allow_pickle=False) as z:
            if sorted(z.files) != sorted(_TABLE_NAMES):
                raise ConfigError(
                    f"{store_path} holds {sorted(z.files)}, "
                    f"expected {sorted(_TABLE_NAMES)}"
                )
            arrays = {name: z[name] for name in _TABLE_NAMES}
    except (ValueError, EOFError, KeyError, RuntimeError, zipfile.BadZipFile) as exc:
        raise ConfigError(
            f"{store_path} is unreadable: {type(exc).__name__}: {exc}"
        ) from exc
    for name in _TABLE_NAMES:
        arr = arrays[name]
        want = (T if name == "pi" else T + 1,) + g.shape
        if arr.dtype != np.float64 or arr.shape != want:
            raise ConfigError(
                f"{store_path}: table {name} is {arr.dtype} {arr.shape}, "
                f"expected float64 {want}"
            )
    if _tables_digest(params_sha256, arrays, clamps) != tables_sha256:
        raise ConfigError(
            f"{store_path}: tables_sha256 does not match the stored tables "
            f"and clamp tallies"
        )
    return PolicyTables(
        market=market, profile=profile, T=T, grid=g, **arrays,
        bounds=bounds, solve_clamps=clamps,
    )
