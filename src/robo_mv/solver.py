"""Equilibrium allocation by backward induction over a reduced state grid.

The per-period objective E[r] - (gamma_n/2) Var[r] is time-inconsistent, so the
"optimum" is the subgame-perfect policy of the sequential game in which each
time-n decision maker takes all later decisions as fixed. That policy admits a
backward recursion in terms of two tables: a_n(d) and b_n(d), the first and
second conditional moments of the compounded return of one dollar invested
from n to the horizon, as functions of a reduced state

    d = (xi, prev_window_sum, cur_window_sum, regime),

where xi is the risk aversion communicated at the last client interaction and
the window sums hold demeaned market returns (the completed window before the
last interaction, and the partial window since). Together with the time index
these four coordinates are a sufficient statistic for the advisor's model of
client risk aversion and its law of motion.

Two kinds of time step alternate:

* plain steps (n+1 not an interaction time): xi and prev_window_sum are
  frozen; cur_window_sum picks up the next demeaned return;
* interaction steps (n+1 = k*phi): the window completes, the client
  communicates a new xi, cur resets to zero. The new xi equals the old one
  times a deterministic trend/regime adjustment, times the exponential of the
  phi-fold sum of idiosyncratic jump shocks, times the ratio of behavioral
  bias factors exp(-beta w/phi)/exp(-beta p/phi) of the new and old windows.

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
  step is (X @ P.T)[..., y] @ C[y, j].T;
* interaction step: the jump-shock smoothing is one Nxi x Nxi matrix K.
  The return quadrature then interpolates the smoothed slice along prev (an
  Nc x Np matrix per (regime, node)) and along log xi. The log-xi axis is
  uniform and the displacement does not depend on the xi node, so every xi
  node reads the same fraction of a window of consecutive rows of the
  edge-padded slice (the padding reproduces the clamp), and the sum over
  nodes and next regimes is a matrix product with w_q P[y, y'] Ztilde_q^j.

The reduced state can only carry the advisor's gamma if the business-cycle
factor at the anchor time, gamma_bar_{tau_n}(Y_{tau_n}), is recoverable from
(n, current state). That holds when gamma_bar is constant across regimes
(any phi), or when phi = 1 (the anchor regime is the current one). The
remaining combination -- regime-varying gamma_bar with phi > 1 -- is rejected
at solve time.
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
from .market import MarketParams, market_from_dict, validate
from .risk_profile import RiskProfileParams, profile_from_dict

# Hard sanity cap on clamped xi quadrature mass during a solve. Edge nodes of
# any bounded grid clamp a little by construction; a fraction this large means
# the grid simply does not contain the dynamics.
_SOLVE_CLAMP_CAP = 0.25


# -- reduced state and grid ----------------------------------------------------


@dataclass(frozen=True)
class ReducedState:
    """One point of the reduced state space (time index carried externally)."""

    xi: float
    prev_window_sum: float = 0.0
    cur_window_sum: float = 0.0
    regime: int = 0

    def __post_init__(self):
        if not self.xi > 0:
            raise ConfigError(f"xi must be > 0, got {self.xi}")
        if self.regime < 0:
            raise ConfigError(f"regime must be a valid index, got {self.regime}")


@dataclass(frozen=True)
class GridSpec:
    """Discretization request; concrete axes are derived from the parameters.

    xi nodes are log-spaced over [xi_lo, xi_hi] (defaults: gamma0/8 to
    8*gamma0). Each window-sum axis is uniform over +/- zsum_span_sd per-step
    return SDs times sqrt(phi). Axes that cannot matter are collapsed to a
    single node: both window axes when beta = 0, the current-window axis when
    phi = 1.
    """

    xi_count: int = 41
    xi_lo: float | None = None
    xi_hi: float | None = None
    zsum_count: int = 21
    zsum_span_sd: float = 4.0
    quad_points: int = 16
    max_clamp_fraction: float = 0.005

    def __post_init__(self):
        for name in ("zsum_span_sd", "max_clamp_fraction", "xi_lo", "xi_hi"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.xi_count < 2:
            raise ConfigError(f"xi_count must be >= 2, got {self.xi_count}")
        if self.zsum_count < 2:
            raise ConfigError(f"zsum_count must be >= 2, got {self.zsum_count}")
        if self.quad_points < 2:
            raise ConfigError(f"quad_points must be >= 2, got {self.quad_points}")
        if self.zsum_span_sd <= 0:
            raise ConfigError("zsum_span_sd must be > 0")
        if not 0 < self.max_clamp_fraction < 1:
            raise ConfigError("max_clamp_fraction must lie in (0, 1)")
        if (self.xi_lo is None) != (self.xi_hi is None):
            raise ConfigError("set both of xi_lo/xi_hi or neither")
        if self.xi_lo is not None and not 0 < self.xi_lo < self.xi_hi:
            raise ConfigError("need 0 < xi_lo < xi_hi")


class Grid:
    """Materialized axes of the reduced-state discretization."""

    def __init__(
        self,
        xi: np.ndarray,
        prev: np.ndarray,
        cur: np.ndarray,
        quad_points: int,
        num_states: int,
        max_clamp_fraction: float = 0.005,
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
            doc["quad_points"], doc["num_states"],
            doc.get("max_clamp_fraction", 0.005),
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


def _locate(nodes: np.ndarray, x: np.ndarray):
    """Linear-interpolation indices on a uniform grid, clamped to the range.

    Returns (idx, frac, n_clamped): x is approximated by
    nodes[idx]*(1-frac) + nodes[idx+1]*frac. A single-node axis absorbs every
    query at its only node (collapsed axes are exact by construction, so such
    queries are not clamping events).
    """
    x = np.asarray(x, dtype=float)
    n = len(nodes)
    if n == 1:
        z = np.zeros(x.shape)
        return z.astype(np.intp), z, 0
    step = (nodes[-1] - nodes[0]) / (n - 1)
    t = (x - nodes[0]) / step
    n_clamped = int(np.count_nonzero((t < 0.0) | (t > n - 1.0)))
    t = np.clip(t, 0.0, n - 1.0)
    idx = np.minimum(t.astype(np.intp), n - 2)
    return idx, t - idx, n_clamped


def _interp3(grid: Grid, table: np.ndarray, logxi, prev, cur, regime,
             counters: ClampCounters | None = None):
    """Trilinear interpolation of a (xi, prev, cur, regime) table at
    broadcast queries, clamped to the grid box; clamped lookups are tallied
    into `counters` if given. A collapsed axis has corner stride 0."""
    Nx, Np, Nc, M = table.shape
    y = np.asarray(regime)
    if y.size and (y.min() < 0 or y.max() >= M):
        raise ConfigError(f"regime queries must lie in [0, {M})")
    ix, fx, cx = _locate(grid.logxi, logxi)
    ip, fp, cp = _locate(grid.prev, prev)
    ic, fc, cc = _locate(grid.cur, cur)
    if counters is not None:
        counters.add_xi(1.0, np.size(logxi), cx)
        counters.add_window(1.0, np.size(logxi) * 2, cp + cc)
    sc = M if Nc > 1 else 0
    sp = Nc * M if Np > 1 else 0
    sx = Np * Nc * M if Nx > 1 else 0
    flat = table.ravel()
    base = ((ix * Np + ip) * Nc + ic) * M + y
    out = np.zeros(np.broadcast(logxi, prev, cur, y).shape)
    for wx, ox in ((1.0 - fx, 0), (fx, sx)):
        for wp, op in ((1.0 - fp, 0), (fp, sp)):
            for wc, oc in ((1.0 - fc, 0), (fc, sc)):
                out += wx * wp * wc * flat[base + (ox + op + oc)]
    return out


# -- advisor gamma bookkeeping ---------------------------------------------------


class _ProfileTables:
    """Dense per-time tables derived from a risk profile for a horizon T."""

    def __init__(self, market: MarketParams, profile: RiskProfileParams, T: int):
        if not profile.gamma_bar_is_state_constant() and profile.phi > 1:
            raise ConfigError(
                "regime-varying gamma_bar requires phi = 1: with sparser "
                "interactions the anchor-time cycle factor is not recoverable "
                "from the reduced state"
            )
        self.T = T
        self.phi = profile.phi
        self.beta = profile.beta
        self.profile = profile
        self.eta = np.asarray(profile.eta_at(np.arange(T + 1), T), dtype=float)
        self.gbar = profile.gamma_bar_table(T, market.num_states)
        self.tau = profile.phi * (np.arange(T + 1) // profile.phi)
        # anchor[n, y]: cycle factor at the last interaction, as recoverable
        # from (n, current regime y)
        if profile.gamma_bar_is_state_constant():
            self.anchor = np.repeat(
                self.gbar[self.tau, :1], market.num_states, axis=1
            )
        else:  # phi == 1, so tau_n = n and the anchor regime is the current one
            self.anchor = self.gbar[np.arange(T + 1)]

    def gamma_slice(self, n: int, xi: np.ndarray) -> np.ndarray:
        """Advisor gamma over (xi, regime) at time n: shape (len(xi), M)."""
        trend = math.exp(self.eta[n] - self.eta[self.tau[n]])
        return trend * xi[:, None] * (self.gbar[n] / self.anchor[n])[None, :]

    def interaction_shift(self, n: int, y: int, y_next: int) -> float:
        """Deterministic log-xi displacement when the step into n+1 interacts."""
        return (
            self.eta[n + 1]
            - self.eta[self.tau[n]]
            + math.log(self.gbar[n + 1, y_next])
            - math.log(self.anchor[n, y])
        )


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

    pi and V cover times 0..T-1; a and b carry the extra terminal slice
    (a[T] = b[T] = 1). All tables have the grid shape
    (len(xi), len(prev), len(cur), num_states).
    """

    market: MarketParams
    profile: RiskProfileParams
    T: int
    grid: Grid
    pi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    V: np.ndarray
    bounds: tuple[float, float] | None = None
    solve_clamps: ClampCounters = field(default_factory=ClampCounters)

    def gamma_table(self, n: int) -> np.ndarray:
        """Advisor gamma over (xi, regime) at time n."""
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

        Queries outside the grid are clamped to the boundary; if `counters`
        is given, clamped lookups are tallied per lookup (xi axis and window
        axes separately).
        """
        if not 0 <= n < self.T:
            raise ConfigError(f"time index {n} outside [0, {self.T})")
        xi = np.asarray(xi, dtype=float)
        if np.any(xi <= 0):
            raise ConfigError("xi queries must be strictly positive")
        return _interp3(self.grid, self.pi[n], np.log(xi), prev, cur, regime,
                        counters)


# -- core expectation engine -------------------------------------------------------

# Quadrature nodes per block of an interaction step: the gathered windows
# then take a few MB on the default grid.
_Q_CHUNK = 4


def _gh_nodes(q: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = hermgauss(q)
    return x, w / math.sqrt(math.pi)


def _interp_matrix(nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Clamped linear interpolation at the 1-D queries x as a matrix.

    Row k holds the weights _locate gives x[k], so `matrix @ values`
    interpolates one value per node at every query. Also returns the number
    of clamped queries.
    """
    idx, frac, n_clamped = _locate(nodes, x)
    mat = np.zeros((len(x), len(nodes)))
    rows = np.arange(len(x))
    np.add.at(mat, (rows, idx), 1.0 - frac)
    np.add.at(mat, (rows, np.minimum(idx + 1, len(nodes) - 1)), frac)
    return mat, n_clamped


class _StepOperators:
    """The expectation engine as linear operators built once per solve.

    Everything that depends only on the grid, the market and the profile --
    quadrature nodes, interpolation weights, clamp counts and the jump-shock
    smoothing -- is computed here; slice_expectations then applies it to the
    tables of one step. Moments up to the power `jmax` are available.
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
        C = np.zeros((M, J, Nc, Nc))
        self._plain_tally = []
        # Interaction step, prev axis: the completed window w = cur + dm.
        self._prev_interp = np.empty((M, Q, Nc, Np))
        self._prev_clamped = np.empty((M, Q), dtype=int)
        for y in range(M):
            for q in range(Q):
                wv = grid.cur + dm[y, q]
                mat, ncl = _interp_matrix(grid.cur, wv)
                if Nc > 1:
                    self._plain_tally.append((gh_w[q], Nc, ncl))
                C[y] += powers[:, y, q, None, None] * mat
                self._prev_interp[y, q], self._prev_clamped[y, q] = _interp_matrix(
                    grid.prev, wv)
        self._C = C.reshape(M, J * Nc, Nc)

        # Jump-shock smoothing along log xi: one Nxi x Nxi matrix, with its
        # first and last rows repeated Nxi times on either side so that a
        # window starting anywhere in [0, 2 Nxi) reads the clamped table.
        K = np.zeros((Nxi, Nxi))
        self._smooth_tally = []
        for weight, mean, sd in _jump_mixture(tabs.profile):
            if sd == 0.0:
                K += weight * np.eye(Nxi)
                continue
            for xq, wq in zip(gh_x, gh_w):
                mat, ncl = _interp_matrix(
                    grid.logxi, grid.logxi + (mean + sd * math.sqrt(2.0) * xq)
                )
                self._smooth_tally.append((weight * wq, Nxi, ncl))
                K += (weight * wq) * mat
        self._K_padded = K[np.clip(np.arange(-Nxi, 2 * Nxi), 0, Nxi - 1)]

        # Interaction step, xi axis: the displacement of log xi depends on
        # (y, q, y', p, c) but not on the xi node. Keep the operands of the
        # unclamped locator position, t = (logxi + bp prev + shift - bp w
        # - logxi[0]) / step, in the order the locator rounds them.
        bp = tabs.beta / tabs.phi
        self._base = grid.logxi[:, None] + bp * grid.prev[None, :]  # (Nxi, Np)
        self._bp_w = bp * (grid.cur + dm[:, :, None])  # (M, Q, Nc)
        self._xi_step = (grid.logxi[-1] - grid.logxi[0]) / (Nxi - 1)
        # coef[j, y, q, y'] = w_q zt^j P[y, y']
        self._coef = powers[..., None] * self.P[:, None, :]
        # The last interaction shift (as bytes) and its xi positions: with no
        # trend and a constant gamma_bar the shift repeats at every
        # interaction step.
        self._xi_cache: tuple[bytes, tuple] | None = None

    def slice_expectations(self, n: int, specs: list[tuple[np.ndarray, int]],
                           counters: ClampCounters) -> list[np.ndarray]:
        """Conditional moments E[Ztilde^j X(next state)] over the whole grid.

        For each (X_table, max_power) in `specs`, returns an array of shape
        (max_power+1,) + grid.shape whose j-th entry is the conditional
        expectation of Ztilde^j times X evaluated at the transitioned state,
        given the time-n reduced state at each grid point. Clamped quadrature
        mass is added to `counters`.
        """
        if (n + 1) % self.tabs.phi == 0:
            return self._interaction(n, specs, counters)
        for weight, total, ncl in self._plain_tally:
            counters.add_window(weight, total, ncl)
        Nxi, Np, Nc, M = self.grid.shape
        out = []
        for tbl, jmax in specs:
            # contract the next-regime sum first: nxt[..., y] given current y
            nxt = tbl @ self.P.T
            acc = np.empty((jmax + 1,) + tbl.shape)
            for y in range(M):
                res = nxt[..., y] @ self._C[y, : (jmax + 1) * Nc].T
                acc[..., y] = np.moveaxis(res.reshape(Nxi, Np, jmax + 1, Nc), 2, 0)
            out.append(acc)
        return out

    def _xi_positions(self, n: int):
        """Where each quadrature branch of the interaction step into n+1
        lands on the log-xi axis.

        Returns (start, frac, n_clamped): start[y, q, y', p, c] is the first
        row of the edge-padded smoothed table that the xi node 0 reads, frac
        the common interpolation weight of its successor, and
        n_clamped[y, q, y'] the number of clamped (xi, prev, cur) lookups,
        identical to what the locator counts node by node. They depend on n
        only through the interaction shift, so a repeated shift (bit for bit)
        reuses the previous result.
        """
        Nxi, Np, Nc, M = self.grid.shape
        shift = np.array([[self.tabs.interaction_shift(n, y, y2) for y2 in range(M)]
                          for y in range(M)])
        key = shift.tobytes()
        if self._xi_cache is not None and self._xi_cache[0] == key:
            return self._xi_cache[1]
        # d[y, q, y', 0, c] = shift - bp w
        d = (shift[:, None, :, None] - self._bp_w[:, :, None, :])[:, :, :, None, :]
        prev = np.arange(Np)[:, None]
        x0 = self.grid.logxi[0]

        def t_at(k):
            """The locator's position of xi node k (-inf/+inf beyond the
            axis), shape (M, Q, M, Np, Nc)."""
            lx = self._base[np.clip(k, 0, Nxi - 1), prev] + d
            t = (lx - x0) / self._xi_step
            return np.where(k < 0, -np.inf, np.where(k >= Nxi, np.inf, t))

        t0 = t_at(np.zeros((M, len(self.gh_w), M, Np, Nc), dtype=np.intp))
        # Node i sits at t0 + i up to rounding, so the clamped nodes follow
        # in closed form; the rounded positions are monotone in i, so
        # checking the two nodes next to each boundary makes the count exact.
        first_in = np.clip(np.ceil(-t0), 0, Nxi).astype(np.intp)
        below = first_in - 1 + (t_at(first_in - 1) < 0) + (t_at(first_in) < 0)
        first_above = Nxi - np.clip(np.ceil(t0), 0, Nxi).astype(np.intp)
        above = (Nxi - first_above - 1 + (t_at(first_above - 1) > Nxi - 1)
                 + (t_at(first_above) > Nxi - 1))
        n_clamped = (below + above).sum(axis=(3, 4))
        s = np.clip(t0, -Nxi, Nxi - 1)
        k0 = np.floor(s)
        positions = ((k0 + Nxi).astype(np.intp), s - k0, n_clamped)
        for arr in positions:
            arr.setflags(write=False)
        self._xi_cache = (key, positions)
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
        start, frac, n_clamped = self._xi_positions(n)
        for _ in specs:
            for weight, total, ncl in self._smooth_tally:
                counters.add_xi(weight, total, ncl)
        for y in range(M):
            for q in range(Q):
                if Np > 1:
                    counters.add_window(self.gh_w[q], Nc, int(self._prev_clamped[y, q]))
                for y2 in range(M):
                    if self.P[y, y2] != 0.0:  # weight w_q P[y, y']
                        counters.add_xi(self._coef[0, y, q, y2], Nxi * Np * Nc,
                                        int(n_clamped[y, q, y2]))

        S, J = len(specs), max(jmax for _, jmax in specs) + 1
        ic0 = self.grid.cur_zero_index
        table0 = np.stack([tbl[:, :, ic0, :] for tbl, _ in specs], axis=-1)
        smoothed = np.tensordot(self._K_padded, table0, axes=(1, 0))
        # rows[y', prev, padded xi, spec], flattened for the prev interpolation
        smoothed = np.ascontiguousarray(smoothed.transpose(2, 1, 0, 3)).reshape(
            M, Np, 3 * Nxi * S)
        # start and frac as (y, p, c, q, y'): one batch per (p, c)
        start = start.transpose(0, 3, 4, 1, 2)
        frac = frac.transpose(0, 3, 4, 1, 2).reshape(M, Np * Nc, Q * M)
        out = [np.empty((jmax + 1,) + self.grid.shape) for _, jmax in specs]
        for y in range(M):
            acc = np.zeros((Np * Nc, J, Nxi * S))
            for q0 in range(0, Q, _Q_CHUNK):
                qs = slice(q0, min(q0 + _Q_CHUNK, Q))
                Qc = qs.stop - qs.start
                rows = (self._prev_interp[y, qs, None] @ smoothed[None]).reshape(
                    Qc, M, Nc, 3 * Nxi, S)
                # every window of Nxi+1 consecutive xi rows, each contiguous
                st = rows.strides
                windows = np.lib.stride_tricks.as_strided(
                    rows, shape=(Qc, M, Nc, 2 * Nxi, (Nxi + 1) * S),
                    strides=st[:4] + (st[4],), writeable=False)
                W = windows[np.arange(Qc)[:, None], np.arange(M),
                            np.arange(Nc)[:, None, None],
                            start[y, :, :, qs]].reshape(Np * Nc, Qc * M, -1)
                # sum over (q, y') of coef * ((1-f) row_i + f row_i+1)
                coef = self._coef[:J, y, qs].reshape(J, Qc * M)
                f = frac[y, :, None, q0 * M: qs.stop * M]
                acc += ((coef * (1.0 - f)) @ W[:, :, : Nxi * S]
                        + (coef * f) @ W[:, :, S:])
            # (p, c, j, xi, spec) -> (j, xi, p, c) per spec
            acc = acc.reshape(Np, Nc, J, Nxi, S)
            for k, (_, jmax) in enumerate(specs):
                out[k][..., y] = acc[:, :, : jmax + 1, :, k].transpose(2, 3, 0, 1)
        return out


# -- public operations ---------------------------------------------------------------


def constrain(pi, lower: float = -math.inf, upper: float = math.inf):
    """Clamp an allocation into [lower, upper]."""
    if lower > upper:
        raise ConfigError(f"bounds out of order: ({lower}, {upper})")
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
    mu_a, mu_az, mu_b, mu_bz, mu_bz2 = moments
    R = float(market.R_step[state.regime])
    denom = mu_bz2 - mu_az**2
    if denom <= 0.0:
        raise DegenerateVariance(
            f"second-moment denominator {denom!r} at n={n}, state={state}"
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
    y = state.regime
    mt = float(market.mu_tilde_step[y])
    s2 = float(market.sigma_step[y]) ** 2
    R = float(market.R_step[y])
    denom = mu_b + (mt * mt / s2) * (mu_b - mu_a * mu_a)
    if denom <= 0.0:
        raise DegenerateVariance(f"degenerate denominator {denom!r} at n={n}")
    return mt / (gamma_n * s2) * (mu_a - R * gamma_n * (mu_b - mu_a * mu_a)) / denom


def step_moments(
    n: int,
    state: ReducedState,
    tables: PolicyTables,
    market: MarketParams | None = None,
    profile: RiskProfileParams | None = None,
):
    """Conditional moments (mu_a, mu_az, mu_b, mu_bz, mu_bz2) at one state.

    Expectations of a_{n+1} and b_{n+1} (weighted by powers of the excess
    return Ztilde) over the step into n+1, conditional on the time-n reduced
    state. The jump-shock sum at an interaction step is integrated directly
    at the query point (exact binomial mixture x quadrature), so this routine
    is an independent, slower counterpart of the vectorized slice engine.
    """
    market = market if market is not None else tables.market
    profile = profile if profile is not None else tables.profile
    grid = tables.grid
    tabs = _ProfileTables(market, profile, tables.T)
    if not 0 <= n < tables.T:
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
                    + tabs.interaction_shift(n, y, y2)
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


def update_ab(
    n: int,
    state: ReducedState,
    pi_star: float,
    tables: PolicyTables,
    market: MarketParams | None = None,
    profile: RiskProfileParams | None = None,
):
    """One-state moment recursion: a_n = E[(R+Ztilde pi) a_{n+1}], same for b."""
    market = market if market is not None else tables.market
    mu_a, mu_az, mu_b, mu_bz, mu_bz2 = step_moments(n, state, tables, market, profile)
    R = float(market.R_step[state.regime])
    a_n = R * mu_a + pi_star * mu_az
    b_n = R * R * mu_b + 2.0 * R * pi_star * mu_bz + pi_star**2 * mu_bz2
    return a_n, b_n


def _require_finite(name: str, values: np.ndarray, n: int) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"non-finite {name} at n={n}")


def solve(
    market: MarketParams,
    profile: RiskProfileParams,
    T: int,
    grid: GridSpec | Grid | None = None,
    bounds: tuple[float, float] | None = None,
) -> PolicyTables:
    """Backward induction over the reduced-state grid.

    Produces allocation, moment and value tables for n = T-1 down to 0 under
    the terminal condition a_T = b_T = 1. When `bounds` is given the
    allocation is truncated inside the induction, so the moment tables (and
    hence all earlier allocations) reflect the constrained policy. A step
    whose denominator, allocation or moment tables are not finite raises
    NumericalError naming the time index.
    """
    validate(market)
    if T < 1:
        raise ConfigError(f"horizon T must be >= 1, got {T}")
    if bounds is not None and bounds[0] > bounds[1]:
        raise ConfigError(f"bounds out of order: {bounds}")
    if isinstance(grid, Grid):
        g = grid
    else:
        g = Grid.build(grid if grid is not None else GridSpec(), market, profile)
    tabs = _ProfileTables(market, profile, T)

    shape = g.shape
    pi = np.empty((T,) + shape)
    a = np.empty((T + 1,) + shape)
    b = np.empty((T + 1,) + shape)
    V = np.empty((T,) + shape)
    a[T] = 1.0
    b[T] = 1.0
    counters = ClampCounters()
    R = market.R_step  # broadcast over the trailing regime axis

    # Overflow and invalid operations surface as NumericalError below, not
    # as warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ops = _StepOperators(market, tabs, g, jmax=2)
        for n in range(T - 1, -1, -1):
            ma, mb = ops.slice_expectations(
                n, [(a[n + 1], 1), (b[n + 1], 2)], counters
            )
            mu_a, mu_az = ma[0], ma[1]
            mu_b, mu_bz, mu_bz2 = mb[0], mb[1], mb[2]
            gam = tabs.gamma_slice(n, g.xi)[:, None, None, :]
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
            pi[n] = p_n
            a[n] = R * mu_a + p_n * mu_az
            b[n] = R * R * mu_b + 2.0 * R * p_n * mu_bz + p_n**2 * mu_bz2
            _require_finite("moment table a", a[n], n)
            _require_finite("moment table b", b[n], n)
            V[n] = a[n] - 1.0 - 0.5 * gam * (b[n] - a[n] ** 2)

    if counters.xi_fraction > _SOLVE_CLAMP_CAP:
        raise GridExhausted(
            f"clamped xi quadrature mass fraction {counters.xi_fraction:.3f} "
            f"exceeds {_SOLVE_CLAMP_CAP}; widen the xi grid"
        )
    return PolicyTables(
        market=market, profile=profile, T=T, grid=g,
        pi=pi, a=a, b=b, V=V, bounds=bounds, solve_clamps=counters,
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
    if m < 1:
        raise ConfigError(f"moment order must be >= 1, got {m}")
    if not 0 <= n < policy.T:
        raise ConfigError(f"time index {n} outside [0, {policy.T})")
    market, grid = policy.market, policy.grid
    tabs = _ProfileTables(market, policy.profile, policy.T)
    counters = ClampCounters()
    ops = _StepOperators(market, tabs, grid, jmax=m)
    R = market.R_step
    binom = [math.comb(m, j) for j in range(m + 1)]
    cur = np.ones(grid.shape)
    # Overflow and invalid operations surface as NumericalError, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(policy.T - 1, n - 1, -1):
            (zm,) = ops.slice_expectations(k, [(cur, m)], counters)
            p_k = policy.pi[k]
            nxt = np.zeros(grid.shape)
            for j in range(m + 1):
                nxt += binom[j] * R ** (m - j) * p_k**j * zm[j]
            _require_finite(f"moment {m} table", nxt, k)
            cur = nxt

    return float(_interp3(grid, cur, math.log(state.xi), state.prev_window_sum,
                          state.cur_window_sum, state.regime))


def state_only_ab(market: MarketParams, allocations: np.ndarray):
    """Exact moment recursion for a policy that depends only on (time, regime).

    `allocations` has shape (T, M). Because the return is conditionally
    independent of the next regime, the recursion needs no quadrature:

        a_n(y) = (R + mu_tilde pi_n(y)) * sum_y' P[y,y'] a_{n+1}(y'),
        b_n(y) = ((R + mu_tilde pi_n)^2 + sigma^2 pi_n^2) * sum_y' P[y,y'] b_{n+1}(y').

    Returns (a, b) of shape (T+1, M).
    """
    allocations = np.atleast_2d(np.asarray(allocations, dtype=float))
    T, M = allocations.shape
    if M != market.num_states:
        raise ConfigError(
            f"allocations must have one column per regime ({market.num_states}), "
            f"got {M}"
        )
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
    validate(market)
    if market.num_states != 1:
        raise ConfigError("the brute-force oracle only handles a single regime")
    if not 1 <= T <= 3:
        raise ConfigError(f"the brute-force oracle is for T in 1..3, got {T}")
    if gamma <= 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
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
                   grid: Grid, bounds) -> str:
    doc = {
        "market": _market_doc(market),
        "risk_profile": _profile_doc(profile),
        "T": T,
        "grid": grid.to_dict(),
        "bounds": list(bounds) if bounds is not None else None,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


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
# Fixed table order of the store and of its digest; a and b carry the
# terminal slice, so they hold T+1 periods and pi and V hold T.
_TABLE_NAMES = ("pi", "a", "b", "V")


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


def _csv_template(g: Grid) -> str:
    """One CSV slice as a %-format string: the header, then a row per grid
    node in (xi, prev, cur, regime) order with its coordinates already
    formatted and four %.12g slots for (pi_star, a, b, V). Lines end in
    \\r\\n, as csv.writer ends them."""
    axes = [[f"{v:.12g}" for v in axis.tolist()] for axis in (g.xi, g.prev, g.cur)]
    axes.append([str(y) for y in range(g.num_states)])
    return "xi,prev_sum,cur_sum,regime,pi_star,a,b,V\r\n" + "".join(
        ",".join(node) + ",%.12g,%.12g,%.12g,%.12g\r\n"
        for node in itertools.product(*axes)
    )


def save_policy(tables: PolicyTables, outdir: str | Path) -> Path:
    """Write the policy store and its per-period CSV export.

    `policy.npz` holds pi, a, b and V as solved (float64, a and b with their
    terminal slice) and is what load_policy reads. `manifest.json`, written
    last, stores the market, risk profile, grid, bounds, clamp tallies, the
    parameter digest `params_sha256` and the table digest `tables_sha256`.
    `policy_NNNN.csv` exports period NNNN: rows enumerate the grid in
    (xi, prev, cur, regime) order with columns
    (xi, prev_sum, cur_sum, regime, pi_star, a, b, V), 12 significant digits.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    g = tables.grid
    arrays = {
        name: np.ascontiguousarray(getattr(tables, name), dtype=np.float64)
        for name in _TABLE_NAMES
    }
    template = _csv_template(g)
    for n in range(tables.T):
        values = np.stack([arrays[name][n] for name in _TABLE_NAMES], axis=-1)
        (outdir / f"policy_{n:04d}.csv").write_text(
            template % tuple(values.ravel().tolist()),
            encoding="utf-8", newline="",
        )
    # np.savez stamps each member with the current time; a fixed ZipInfo
    # date keeps identical solves byte-identical.
    with zipfile.ZipFile(outdir / _POLICY_STORE, "w") as zf:
        for name in _TABLE_NAMES:
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as f:
                np.lib.format.write_array(f, arrays[name], allow_pickle=False)
    params_sha256 = _params_digest(
        tables.market, tables.profile, tables.T, g, tables.bounds
    )
    clamps = tables.solve_clamps
    manifest = {
        "kind": "policy_tables",
        "T": tables.T,
        "bounds": list(tables.bounds) if tables.bounds is not None else None,
        "grid": g.to_dict(),
        "market": _market_doc(tables.market),
        "risk_profile": _profile_doc(tables.profile),
        "solve_clamps": {**clamps.as_dict(), **asdict(clamps)},
        "params_sha256": params_sha256,
        "tables_sha256": _tables_digest(params_sha256, arrays, clamps),
    }
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return outdir


def load_policy(indir: str | Path) -> PolicyTables:
    """Rebuild PolicyTables from the store save_policy wrote, verified.

    Reads only `manifest.json` and `policy.npz`, then checks in order: the
    parameter digest, recomputed from the manifest's market, risk profile,
    grid, T and bounds; each table's dtype and shape; the table digest, which
    also covers the manifest's raw clamp tallies. Any
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
        bounds = manifest["bounds"]
        bounds = tuple(bounds) if bounds is not None else None
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
    if type(T) is not int or T < 1:
        raise ConfigError(f"{manifest_path}: T must be an integer >= 1, got {T!r}")
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
        want = (T + 1 if name in ("a", "b") else T,) + g.shape
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
