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
from .market import MarketParams, sample_paths


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
            (state profile, constant in time), or a (T+1, M) table.
        eta: optional explicit age-trend table of length T+1, overriding the
            -alpha*(T-n) default.
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
        for name in ("gamma0", "alpha", "p_eps", "sigma_eps", "beta", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
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
        if int(self.phi) != self.phi or self.phi < 1:
            raise ConfigError(f"phi must be an integer >= 1, got {self.phi}")
        object.__setattr__(self, "phi", int(self.phi))
        gb = self.gamma_bar
        if not np.all(np.isfinite(gb)):
            raise ConfigError("gamma_bar must be finite")
        if isinstance(gb, np.ndarray):
            if np.any(gb <= 0):
                raise ConfigError("gamma_bar must be strictly positive")
        elif gb <= 0:
            raise ConfigError(f"gamma_bar must be strictly positive, got {gb}")
        if self.eta is not None:
            object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
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
    w = rng.standard_normal(n)
    eps = np.where(jump, params.sigma_eps * w - 0.5 * params.sigma_eps**2, 0.0)
    return float(eps[0]) if scalar else eps


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
    `window_sums`. This is the workhorse behind the personalization
    measures; `simulate_trajectory` wraps a single path.
    """
    phi, beta = profile.phi, profile.beta
    regimes, returns = sample_paths(market, y0, T, n_paths, rng)
    gbar = profile.gamma_bar_table(T, market.num_states)
    eta = np.asarray(profile.eta_at(np.arange(T + 1), T), dtype=float)

    # Idiosyncratic martingale: one potential jump per step 1..T.
    eps = sample_eps(profile, rng, size=(n_paths, T))
    log_id = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(eps, axis=1)], axis=1
    )
    gamma_id = profile.gamma0 * np.exp(log_id)

    demeaned = returns - market.mu_step[regimes[:, :-1]]
    window_csum = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(demeaned, axis=1)], axis=1
    )
    gz_at_inter = np.exp(window_log_bias(demeaned, beta, phi))

    times = np.arange(T + 1)
    tau_of_n = phi * (times // phi)
    k_of_n = times // phi

    gbar_path = gbar[np.broadcast_to(times, regimes.shape), regimes]
    gamma_client = np.exp(eta)[None, :] * gamma_id * gbar_path
    gamma_z = gz_at_inter[:, k_of_n]
    xi = gamma_client[np.arange(n_paths)[:, None], tau_of_n[None, :]] * gamma_z
    gbar_now = gbar_path
    gbar_anchor = gbar[
        np.broadcast_to(tau_of_n, regimes.shape),
        regimes[np.arange(n_paths)[:, None], tau_of_n[None, :]],
    ]
    gamma_robo = np.exp(eta - eta[tau_of_n])[None, :] * xi * gbar_now / gbar_anchor

    return {
        "regimes": regimes,
        "returns": returns,
        "gamma_id": gamma_id,
        "gamma_client": gamma_client,
        "gamma_z": gamma_z,
        "xi": xi,
        "gamma_robo": gamma_robo,
        "tau": np.broadcast_to(tau_of_n, (n_paths, T + 1)),
        "window_csum": window_csum,
    }


def window_log_bias(demeaned: np.ndarray, beta: float, phi: int) -> np.ndarray:
    """Log bias factor at interaction times k*phi, k = 0..T//phi, from
    demeaned returns of shape (n_paths, T); 0 at time 0 (no pre-history)."""
    n_paths, T = demeaned.shape
    out = np.zeros((n_paths, T // phi + 1))
    for k in range(1, T // phi + 1):
        tau = k * phi
        out[:, k] = -beta * demeaned[:, tau - phi:tau].sum(axis=1) / phi
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
    unknown = set(doc) - _PROFILE_KEYS
    if unknown:
        raise ConfigError(f"unknown risk_profile keys: {sorted(unknown)}")
    if "gamma0" not in doc:
        raise ConfigError("risk_profile requires 'gamma0'")
    kwargs = dict(doc)
    if "gamma_bar" in kwargs and isinstance(kwargs["gamma_bar"], list):
        kwargs["gamma_bar"] = np.asarray(kwargs["gamma_bar"], dtype=float)
    if "eta" in kwargs and kwargs["eta"] is not None:
        kwargs["eta"] = np.asarray(kwargs["eta"], dtype=float)
    return RiskProfileParams(**kwargs)


def load_profile(path: str | Path) -> RiskProfileParams:
    """Load RiskProfileParams from the `risk_profile` key of a JSON config."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "risk_profile" not in doc:
        raise ConfigError(f"{path} has no 'risk_profile' section")
    return profile_from_dict(doc["risk_profile"])
