"""Client risk-aversion dynamics and the advisor's model of them.

The client's actual risk aversion is a product of three components: a
deterministic age trend exp(eta_n), a multiplicative martingale of
idiosyncratic jump shocks, and a business-cycle factor gamma_bar_n(Y_n).
At interaction times (every phi steps) the client communicates a value that
is additionally distorted by a behavioral bias driven by the last window of
market returns. Between interactions the advisor holds the communicated
value fixed, adjusting only for the age trend and regime changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NotInteractionTime, WindowLengthMismatch
from .market import (
    MarketParams,
    _fill_returns,
    _sample_regimes,
    check_array,
    check_keys,
    check_number,
)


@dataclass(frozen=True)
class RiskProfileParams:
    """Parameters of the client risk-aversion model.

    Attributes:
        gamma0: initial risk aversion (> 0).
        alpha: age-trend rate (>= 0); the default trend is eta_n = -alpha*(T-n).
        p_eps: per-step probability of an idiosyncratic jump, in [0, 1].
        sigma_eps: jump volatility (> 0); a jump multiplies risk aversion by
            exp(sigma_eps*W - sigma_eps^2/2), which has unit mean.
        beta: behavioral-bias coefficient (>= 0).
        phi: interaction period in steps (integer >= 1; schedule 0, phi, 2phi...).
        gamma_bar: business-cycle factor. A scalar, a length-M vector
            (state profile, constant in time), or a table of at least
            (T+1, M), of which the first T+1 rows are used.
        eta: optional explicit age-trend table of at least T+1 entries,
            replacing the -alpha*(T-n) default; set one or the other.
    """

    gamma0: float
    alpha: float = 0.0
    p_eps: float = 0.0
    sigma_eps: float = 0.64
    beta: float = 0.0
    phi: int = 1
    gamma_bar: float | np.ndarray = 1.0
    eta: np.ndarray | None = None

    def __post_init__(self):
        # Values are checked, not converted, so that a profile digests as
        # it was given; phi becomes an int.
        for name in ("gamma0", "alpha", "p_eps", "sigma_eps", "beta"):
            check_number(getattr(self, name), name)
        object.__setattr__(self, "phi", check_number(self.phi, "phi", integer=True))
        if self.gamma0 <= 0:
            raise ConfigError(f"gamma0 must be > 0, got {self.gamma0}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not 0.0 <= self.p_eps <= 1.0:
            raise ConfigError(f"p_eps must lie in [0, 1], got {self.p_eps}")
        if self.sigma_eps <= 0:
            raise ConfigError(f"sigma_eps must be > 0, got {self.sigma_eps}")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.phi < 1:
            raise ConfigError(f"phi must be an integer >= 1, got {self.phi}")
        gb = self.gamma_bar
        if isinstance(gb, (list, tuple, np.ndarray)):
            gb = check_array(gb, "gamma_bar")
            object.__setattr__(self, "gamma_bar", gb)
            if not np.all(np.isfinite(gb)):
                raise ConfigError("gamma_bar must be finite")
            if np.any(gb <= 0):
                raise ConfigError("gamma_bar must be strictly positive")
        elif check_number(gb, "gamma_bar") <= 0:
            raise ConfigError(f"gamma_bar must be strictly positive, got {gb}")
        if self.eta is not None:
            if self.alpha != 0:
                raise ConfigError("set alpha or an eta table, not both")
            object.__setattr__(self, "eta", check_array(self.eta, "eta"))
            if not np.all(np.isfinite(self.eta)):
                raise ConfigError("eta must be finite")

    # -- schedule and component tables ------------------------------------

    def interaction_time(self, n: int) -> int:
        """Most recent interaction time tau_n = phi * floor(n / phi)."""
        return self.phi * (n // self.phi)

    def eta_at(self, n, T: int):
        """Age-trend exponent eta_n (vectorized over n)."""
        if self.eta is not None:
            if len(self.eta) < T + 1:
                raise ConfigError(
                    f"eta table has {len(self.eta)} entries, need {T + 1}"
                )
            return self.eta[n]
        return -self.alpha * (T - np.asarray(n))

    def gamma_bar_table(self, T: int, num_states: int) -> np.ndarray:
        """Materialize gamma_bar as a dense (T+1, M) table."""
        gb = np.asarray(self.gamma_bar, dtype=float)
        if gb.ndim == 0:
            return np.full((T + 1, num_states), float(gb))
        if gb.ndim == 1:
            if len(gb) != num_states:
                raise ConfigError(
                    f"1-D gamma_bar must have one entry per regime "
                    f"({num_states}), got {len(gb)}"
                )
            return np.tile(gb, (T + 1, 1))
        if gb.shape[0] < T + 1 or gb.shape[1] != num_states:
            raise ConfigError(
                f"gamma_bar table must be at least (T+1) x M = "
                f"({T + 1}, {num_states}), got {gb.shape}"
            )
        return gb[: T + 1]

    def gamma_bar_is_state_constant(self) -> bool:
        gb = np.asarray(self.gamma_bar, dtype=float)
        if gb.ndim == 0:
            return True
        if gb.ndim == 1:
            return bool(np.all(gb == gb[0]))
        return bool(np.all(gb == gb[:, :1]))


class _ProfileTables:
    """A profile's per-time tables for a horizon T, n = 0..T: age trend
    `eta`, cycle factor `gbar` (T+1, M) and latest interaction time `tau`.
    `market` gives only the regime count M (a solver `Grid` has it too)."""

    def __init__(self, market, profile: RiskProfileParams, T: int):
        self.phi = profile.phi
        self.beta = profile.beta
        self.profile = profile
        self.eta = np.asarray(profile.eta_at(np.arange(T + 1), T), dtype=float)
        self.gbar = profile.gamma_bar_table(T, market.num_states)
        self.tau = profile.phi * (np.arange(T + 1) // profile.phi)

    def gamma_slice(self, n: int, xi: np.ndarray) -> np.ndarray:
        """Advisor gamma over (xi, regime) at time n: shape (len(xi), M)."""
        trend = math.exp(self.eta[n] - self.eta[self.tau[n]])
        return trend * xi[:, None] * self.gbar[n][None, :]

    def interaction_shift(self, n: int) -> float:
        """Deterministic log-xi displacement when the step into n+1 interacts."""
        return self.eta[n + 1] - self.eta[self.tau[n]]


def sample_eps(
    params: RiskProfileParams, rng: np.random.Generator, size=None
) -> float | np.ndarray:
    """Idiosyncratic log-shock: 0 w.p. 1 - p_eps, else N(-sigma_eps^2/2, sigma_eps^2).

    The nonzero branch has E[exp(eps)] = 1, so exp(eps) is a fair
    multiplicative innovation either way.
    """
    scalar = size is None
    n = 1 if scalar else size
    jump = rng.random(n) < params.p_eps
    eps = _shock_logs(params, jump, rng.standard_normal(n))
    return float(eps[0]) if scalar else eps


def _shock_logs(params: RiskProfileParams, jump: np.ndarray,
                eps: np.ndarray) -> np.ndarray:
    """The log-shocks of `sample_eps` from its draws, in place in the
    standard normals `eps`: sigma_eps * eps - sigma_eps^2 / 2 where `jump`,
    else 0."""
    eps *= params.sigma_eps
    eps -= 0.5 * params.sigma_eps**2
    np.copyto(eps, 0.0, where=~jump)
    return eps


def bias_factor(window_excess_returns, beta: float, phi: int) -> float:
    """Behavioral bias gamma^Z = exp(-beta * mean of the window's demeaned returns).

    The window must contain exactly phi entries, each a realized return minus
    its regime-conditional mean. Negative windows inflate risk aversion more
    than equally sized positive windows deflate it (convexity = loss aversion).
    """
    window = np.asarray(window_excess_returns, dtype=float)
    if window.shape[-1] != phi:
        raise WindowLengthMismatch(
            f"bias window must have phi = {phi} returns, got {window.shape[-1]}"
        )
    return np.exp(-beta * window.sum(axis=-1) / phi)


@dataclass
class ClientTrajectory:
    """One client/market path with every risk-aversion component materialized.

    All arrays are aligned on time indices 0..T (returns have length T:
    entry n is the market return over step n -> n+1).
    """

    regimes: np.ndarray       # (T+1,) int
    returns: np.ndarray       # (T,)
    gamma_id: np.ndarray      # (T+1,) idiosyncratic martingale, starts at gamma0
    gamma_client: np.ndarray  # (T+1,) actual risk aversion gamma^C
    gamma_z: np.ndarray       # (T+1,) bias factor at the latest interaction
    xi: np.ndarray            # (T+1,) communicated value, constant between interactions
    gamma_robo: np.ndarray    # (T+1,) advisor's model gamma
    tau: np.ndarray           # (T+1,) int, latest interaction time
    phi: int                  # interaction period

    @property
    def horizon(self) -> int:
        return len(self.returns)


# The fields of simulate_clients, in the order it returns them.
_CLIENT_FIELDS = (
    "regimes", "returns", "gamma_id", "gamma_client", "gamma_z", "xi",
    "gamma_robo", "tau", "window_csum",
)


def simulate_clients(
    market: MarketParams,
    profile: RiskProfileParams,
    T: int,
    n_paths: int,
    rng: np.random.Generator,
    y0: int = 0,
):
    """Vectorized simulation of client/market paths.

    Returns a dict of arrays shaped (n_paths, T+1) (returns: (n_paths, T))
    with the same fields as ClientTrajectory, plus `window_csum` for
    `window_sums`; `simulate_trajectory` wraps a single path. This is the
    path-major layout: it copies the rows of the one all-paths block of the
    time-major client simulator `_client_blocks` (`_client_steps`), which
    the personalization measures and the policy simulation read as they are.
    """
    rows = _client_steps(market, profile, T, n_paths, rng, y0)
    # One copy at a time, dropping each time-major array as it is copied;
    # the narrow regimes widen to int64.
    return {
        name: rows[name].T if name == "tau"
        else np.ascontiguousarray(rows.pop(name).T,
                                  dtype=np.int64 if name == "regimes" else None)
        for name in _CLIENT_FIELDS
    }


def _client_steps(
    market: MarketParams,
    profile: RiskProfileParams,
    T: int,
    n_paths: int,
    rng: np.random.Generator,
    y0: int = 0,
    fields=_CLIENT_FIELDS,
) -> dict:
    """The client simulator, time-major, for all paths at once: the rows of
    the one block of `_client_blocks` of width `n_paths`."""
    (_, rows), = _client_blocks(market, profile, T, n_paths, rng, y0, fields, n_paths)
    return rows


def _window_bias(market: MarketParams, profile: RiskProfileParams,
                 regimes: np.ndarray, returns: np.ndarray, want, out: dict):
    """The return half of the client core for a block of paths, from its
    time-major regimes (T+1, paths) and returns (T, paths): returns the
    bias factor gamma^Z at each interaction time k*phi, rows
    (T//phi + 1, paths), and adds `window_csum` and `gamma_z` to `out` when
    `want` names them."""
    phi = profile.phi
    demeaned = market.mu_step[regimes[:-1]]
    np.subtract(returns, demeaned, out=demeaned)
    if "window_csum" in want:
        out["window_csum"] = _cumsum_rows(demeaned)
    # Log bias, then bias, at each interaction time k*phi.
    gz_at_inter = window_log_bias(demeaned, profile.beta, phi)
    np.exp(gz_at_inter, out=gz_at_inter)
    del demeaned
    if "gamma_z" in want:
        out["gamma_z"] = gz_at_inter[np.arange(len(regimes)) // phi]
    return gz_at_inter


def _client_gammas(tabs: _ProfileTables, regimes: np.ndarray, log_id: np.ndarray,
                   gz_at_inter, want, out: dict) -> None:
    """The shock half of the client core for a block of paths: adds those
    of gamma_id, gamma_client, xi and gamma_robo that `want` names to `out`,
    as rows (T+1, paths), from the profile's tables `tabs` for T. `log_id`
    holds the running sums of the block's log-shocks (`_cumsum_rows` of the
    time-major `sample_eps`) and becomes the idiosyncratic martingale in
    place; `gz_at_inter` is the block's `_window_bias`, needed for xi and
    gamma_robo only."""
    profile, eta, tau_of_n = tabs.profile, tabs.eta, tabs.tau
    times = np.arange(len(regimes))
    robo = bool(want & {"xi", "gamma_robo"})

    gamma_id = log_id
    np.exp(gamma_id, out=gamma_id)
    gamma_id *= profile.gamma0
    if "gamma_id" in want:
        out["gamma_id"] = gamma_id
        gamma_client = gamma_id * np.exp(eta)[:, None]
    else:
        gamma_client = gamma_id
        gamma_client *= np.exp(eta)[:, None]
    # gamma_bar_n(Y_n) per path; one column when it ignores the regime.
    if profile.gamma_bar_is_state_constant():
        gbar_path = tabs.gbar[:, :1]
    else:
        gbar_path = tabs.gbar[times[:, None], regimes]
    gamma_client *= gbar_path
    if "gamma_client" in want:
        out["gamma_client"] = gamma_client
    if robo:
        xi = gamma_client[tau_of_n]
        xi *= gz_at_inter[times // tabs.phi]
        if "xi" in want:
            out["xi"] = xi
        if "gamma_robo" in want:
            gamma_robo = np.exp(eta - eta[tau_of_n])[:, None] * xi
            gamma_robo *= gbar_path
            gamma_robo /= gbar_path[tau_of_n]
            out["gamma_robo"] = gamma_robo


def _client_blocks(market: MarketParams, profile: RiskProfileParams, T: int,
                   n_paths: int, rng: np.random.Generator, y0: int, fields,
                   width: int):
    """The client simulator, time-major, in blocks of `width` paths: yields
    ``(paths, rows)`` for consecutive path slices, with rows the named
    `simulate_clients` fields for those paths, each the transpose of that
    function's columns, bit for bit: float rows (T+1, paths), returns
    (T, paths), regimes in the sampler's narrow dtype ``np.min_scalar_type(M
    - 1)`` (uint8 for up to 256 regimes; `simulate_clients` widens them to
    int64), and `tau` as a read-only broadcast view. All are C-contiguous
    except `tau` (and, in a block narrower than `n_paths`, `regimes`, a view
    of the whole batch's). Each block's rows are dropped when the next is
    asked for; `_client_steps` takes the one block of all paths.

    Whatever the fields, the draws are those of `simulate_clients`, in its
    order: every regime uniform (`_sample_regimes`); the return Gaussians of
    each block in turn, each block reduced at once to its bias factors and
    window sums (`_window_bias`); every jump uniform, kept as one bool mask
    per block; then the shock Gaussians of each block, from which its gamma
    rows are assembled (`_client_gammas`, from the profile's
    `_ProfileTables`, built once per call) and after which its mask is
    dropped. ``Generator`` fills in order, so drawing path blocks of a
    path-major draw gives its numbers, and every element gets the same
    arithmetic. The working set is 1 B of regime and of jump mask per
    path-step, the bias factors (8 B per path and interaction time), the
    return-side fields asked for, and a few float rows of one block.
    """
    want = set(fields)
    tabs = _ProfileTables(market, profile, T)
    regimes = _sample_regimes(market, y0, T, n_paths, rng)
    blocks = [slice(p, min(p + width, n_paths)) for p in range(0, n_paths, width)]
    outs, biases = [], []
    for paths in blocks:
        out, z = {}, np.empty((T, paths.stop - paths.start))
        _fill_returns(market, regimes[:-1, paths], rng, z)
        biases.append(_window_bias(market, profile, regimes[:, paths], z, want, out))
        if "returns" in want:
            out["returns"] = z
        outs.append(out)
    del z
    jumps = [rng.random((paths.stop - paths.start, T)) < profile.p_eps
             for paths in blocks]
    for i, paths in enumerate(blocks):
        eps = _shock_logs(profile, jumps[i], rng.standard_normal(jumps[i].shape))
        jumps[i] = None
        log_id = _cumsum_rows(eps.T)
        del eps
        rows, outs[i] = outs[i], None
        _client_gammas(tabs, regimes[:, paths], log_id, biases[i], want, rows)
        log_id = biases[i] = None
        if "regimes" in want:
            rows["regimes"] = regimes[:, paths]
        if "tau" in want:
            rows["tau"] = np.broadcast_to(tabs.tau[:, None],
                                          (T + 1, paths.stop - paths.start))
        yield paths, rows
        # The caller drops its reference too before asking for the next block.
        del rows


def _cumsum_rows(rows: np.ndarray) -> np.ndarray:
    """Running sums of the rows after a zero row: out[0] = 0 and
    out[t + 1] = out[t] + rows[t], the recurrence of ``np.cumsum`` along a
    path-major row, one contiguous row at a time (numpy's accumulate along
    the first axis strides down each column, several times slower)."""
    out = np.empty((len(rows) + 1,) + rows.shape[1:])
    out[0] = 0.0
    out[1:] = rows
    for t in range(2, len(out)):
        out[t] += out[t - 1]
    return out


def _time_sums(rows: np.ndarray) -> np.ndarray:
    """Sums over the first axis, with the bits of numpy's ``sum(axis=-1)``
    over the transpose: the sum path-major code gets from each path's row.

    numpy adds fewer than 8 terms of a row in order, as ``sum(axis=0)``
    adds rows, and then the identity 0.0 (so an all -0.0 sum is +0.0);
    from 8 terms on it sums pairwise, so the transpose is summed."""
    if len(rows) < 8:
        return rows.sum(axis=0) + 0.0
    return np.ascontiguousarray(rows.T).sum(axis=-1)


def window_log_bias(demeaned: np.ndarray, beta: float, phi: int) -> np.ndarray:
    """Log bias factor at interaction times k*phi, k = 0..T//phi, from
    time-major demeaned returns of shape (T, n_paths); row 0 is 0 (no
    pre-history). Each window is summed by `_time_sums`, which has the bits
    of numpy's path-major row sum, so they do not depend on the layout."""
    T = len(demeaned)
    out = np.zeros((T // phi + 1,) + demeaned.shape[1:])
    for k in range(1, T // phi + 1):
        tau = k * phi
        out[k] = -beta * _time_sums(demeaned[tau - phi:tau]) / phi
    return out


def window_sums(window_csum: np.ndarray, phi: int, n: int):
    """Reduced-state window sums (prev, cur) at time n from the
    `window_csum` of simulate_clients: the completed window before the
    latest interaction (zero before the first) and the partial one since."""
    tau = phi * (n // phi)
    if tau >= phi:
        prev = window_csum[:, tau] - window_csum[:, tau - phi]
    else:
        prev = np.zeros(len(window_csum))
    cur = window_csum[:, n] - window_csum[:, tau]
    return prev, cur


def simulate_trajectory(
    market: MarketParams,
    profile: RiskProfileParams,
    T: int,
    rng: np.random.Generator,
    y0: int = 0,
) -> ClientTrajectory:
    """Simulate a single client/market path."""
    batch = simulate_clients(market, profile, T, 1, rng, y0=y0)
    return ClientTrajectory(
        regimes=batch["regimes"][0],
        returns=batch["returns"][0],
        gamma_id=batch["gamma_id"][0],
        gamma_client=batch["gamma_client"][0],
        gamma_z=batch["gamma_z"][0],
        xi=batch["xi"][0],
        gamma_robo=batch["gamma_robo"][0],
        tau=batch["tau"][0].copy(),
        phi=profile.phi,
    )


def client_gamma(
    regimes: np.ndarray,
    profile: RiskProfileParams,
    T: int,
    rng: np.random.Generator,
    num_states: int | None = None,
) -> np.ndarray:
    """Client's actual risk aversion gamma^C along a given regime path.

    gamma^C_n = exp(eta_n) * gamma0 * prod_{i<=n} exp(eps_i) * gamma_bar_n(Y_n),
    with the idiosyncratic shocks drawn here.
    """
    regimes = np.asarray(regimes)
    if len(regimes) < T + 1:
        raise ConfigError(f"regime path too short: need T+1 = {T + 1} entries")
    M = num_states if num_states is not None else int(regimes.max()) + 1
    gbar = profile.gamma_bar_table(T, M)
    eta = np.asarray(profile.eta_at(np.arange(T + 1), T), dtype=float)
    eps = sample_eps(profile, rng, size=T)
    gamma_id = profile.gamma0 * np.exp(np.concatenate([[0.0], np.cumsum(eps)]))
    return np.exp(eta) * gamma_id * gbar[np.arange(T + 1), regimes[: T + 1]]


def communicated_xi(trajectory: ClientTrajectory, tau: int) -> float:
    """Communicated risk aversion xi at interaction time tau.

    xi = gamma^C_tau * gamma^Z_tau. Raises when tau is off the schedule.
    """
    if tau % trajectory.phi != 0:
        raise NotInteractionTime(
            f"time {tau} is not a multiple of phi = {trajectory.phi}"
        )
    return float(trajectory.gamma_client[tau] * trajectory.gamma_z[tau])


def robo_gamma(
    n: int,
    xi_tau: float,
    tau: int,
    y_n: int,
    y_tau: int,
    profile: RiskProfileParams,
    T: int,
    num_states: int | None = None,
) -> float:
    """Advisor's model of the client's risk aversion at time n.

    Holds the communicated value fixed since the last interaction, adjusted
    for the age trend and for regime changes:
    gamma_n = exp(eta_n - eta_tau) * xi_tau * gamma_bar_n(y_n) / gamma_bar_tau(y_tau).
    """
    if tau > n:
        raise NotInteractionTime(f"tau = {tau} must not exceed n = {n}")
    if tau % profile.phi != 0:
        raise NotInteractionTime(f"tau = {tau} is not on the schedule")
    M = num_states if num_states is not None else max(y_n, y_tau) + 1
    gbar = profile.gamma_bar_table(T, M)
    eta_n = float(profile.eta_at(n, T))
    eta_tau = float(profile.eta_at(tau, T))
    return float(np.exp(eta_n - eta_tau) * xi_tau * gbar[n, y_n] / gbar[tau, y_tau])


# -- config I/O ---------------------------------------------------------------

_PROFILE_KEYS = {
    "gamma0", "alpha", "p_eps", "sigma_eps", "beta", "phi", "gamma_bar", "eta",
}


def profile_from_dict(doc: dict) -> RiskProfileParams:
    """Build RiskProfileParams from the `risk_profile` section of a config."""
    check_keys(doc, _PROFILE_KEYS, "risk_profile")
    if "gamma0" not in doc:
        raise ConfigError("risk_profile requires 'gamma0'")
    return RiskProfileParams(**doc)


def load_profile(path: str | Path) -> RiskProfileParams:
    """Load RiskProfileParams from the `risk_profile` key of a JSON config."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "risk_profile" not in doc:
        raise ConfigError(f"{path} has no 'risk_profile' section")
    return profile_from_dict(doc["risk_profile"])
