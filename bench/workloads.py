"""The benchmark's workloads: seeded inputs, op sequences and output checks.

Every workload uses the two-state monthly calibration of the README and the
client profile gamma0=3, p_eps=0.05, sigma_eps=0.64. An op is one
``robo_mv.cli.main(argv)`` call (the code path of the ``robo-mv`` entry
point) or one public library call. A workload builds its inputs from the
benchmark seed and returns its ops; the runner times each op and calls the
op's check on its output afterwards, outside the timed region.

The checks are statistical or closed-form, so an optimisation that is not
bit-exact still passes them. ``digest`` fingerprints each op's primary
output, so a later change can state whether it stayed bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from robo_mv import cli, montecarlo
from robo_mv.cycle_analytics import (
    CycleStrategy,
    annualize_sharpe,
    inputs_from_market,
    sharpe_delta,
    sharpe_general,
)
from robo_mv.market import market_from_dict
from robo_mv.solver import ReducedState, allocation_independent, state_only_ab

MARKET = {
    "states": 2,
    "transition": [[0.95, 0.05], [0.10, 0.90]],
    "risk_free": [0.015, 0.0],
    "mean_return": [0.081, 0.137],
    "vol_return": [0.155, 0.173],
    "steps_per_year": 12,
}
PROFILE = {"gamma0": 3.0, "p_eps": 0.05, "sigma_eps": 0.64}
Y0 = 0
Z_MAX = 4.0  # a statistical check fails beyond this many standard errors

# Sizes. On a 2-CPU machine one op sequence takes about 2-3 s (6-8 s for
# personalize-sweep), so that one run of the benchmark repeats it 4-15 times
# and reports medians over the repeats.
FM_PATHS, FM_T = 65_536, 120           # 2 chunks of 32768 paths
RT_T, RT_PATHS, RT_PHI = 3, 65_536, 3  # 2 chunks, so the thread pool is used
PS_T, PS_PHIS, PS_R_PATHS, PS_S_PATHS = 18, (1, 6), 20_000, 4_000
LP_STEPS, LP_HORIZON, LP_SWEEP = 1_000_000, 300, 201
LP_STRATEGY = {"pi_bar": 0.6, "delta": -0.3}


@dataclass
class Op:
    """One timed operation.

    ``prepare(out, outs)`` runs untimed and returns the call to time; ``out``
    is the op's fresh output directory and ``outs`` maps the names of earlier
    ops of the same sequence to theirs. A CLI op's call returns its exit code.
    """

    name: str
    prepare: Callable[[Path, dict], Callable[[], object]]
    check: Callable[[Path, object, dict], "Verdict"]
    digest: Callable[[Path, object], str]
    path_steps: int = 0
    is_cli: bool = True


class Verdict:
    """Problems found by an output check, plus the statistics it computed."""

    def __init__(self):
        self.problems: list[str] = []
        self.notes: dict[str, float] = {}

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def z(self, label: str, estimate: float, se: float, target: float) -> None:
        z = (estimate - target) / se
        self.notes[f"z_{label}"] = z
        self.require(abs(z) <= Z_MAX, f"{label}: z={z:.2f} exceeds {Z_MAX}")


def _write_config(cfgdir: Path, name: str, doc: dict) -> str:
    path = cfgdir / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return str(path)


def _cli_call(argv: list[str]) -> Callable[[], object]:
    return lambda: cli.main(argv)


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _file_digest(name: str):
    return lambda out, result: _sha256(out / name)


def _policy_files(out: Path) -> list[Path]:
    return sorted(out.glob("policy_*.csv"))


def _read_csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _gross_moment_checks(v: Verdict, out: Path, n: int, a0: float, b0: float):
    """Compare the simulated gross return's mean and second moment with the
    model's (a0, b0), using the moments summary.json reports."""
    s = json.loads((out / "summary.json").read_text())["total"]
    mean = 1.0 + s["mean"]
    m2 = s["sd"] ** 2 * (n - 1) / n
    m3 = s["skewness"] * m2**1.5
    m4 = s["kurtosis"] * m2**2
    e2 = m2 + mean**2
    e4 = m4 + 4 * mean * m3 + 6 * mean**2 * m2 + mean**4
    v.z("gross_mean", mean, math.sqrt(m2 / n), a0)
    v.z("gross_second_moment", e2, math.sqrt((e4 - e2**2) / n), b0)


# -- fixed-mix: n_paths >> n_steps ----------------------------------------------


def _wide_simulate(sim_seed: int, cfgdir: Path) -> list[Op]:
    strategy = {"pi_bar": 0.6, "delta": 0.0}
    cfg = _write_config(cfgdir, "fixed_mix.json", {
        "market": MARKET, "risk_profile": PROFILE, "strategy": strategy,
        "horizon": FM_T,
    })
    market = market_from_dict(MARKET)
    alloc = CycleStrategy(**strategy).allocations(market.num_states)
    a, b = state_only_ab(market, np.tile(alloc, (FM_T, 1)))

    def check(out, rc, outs):
        v = Verdict()
        _gross_moment_checks(v, out, FM_PATHS, a[0, Y0], b[0, Y0])
        counts = _read_csv(out / "histogram.csv")[:, 2]
        v.require(int(counts.sum()) == FM_PATHS,
                  f"histogram holds {int(counts.sum())} paths, not {FM_PATHS}")
        return v

    return [Op(
        "simulate",
        lambda out, outs: _cli_call([
            "simulate", "--config", cfg, "--out", str(out),
            "--paths", str(FM_PATHS), "--seed", str(sim_seed), "--threads", "1",
        ]),
        check, _file_digest("summary.json"), path_steps=FM_PATHS * FM_T,
    )]


# -- fixed-mix: n_steps >> n_paths, and cycle analytics ---------------------------


def _two_state_chain(transition: np.ndarray, y0: int, u: np.ndarray) -> np.ndarray:
    """Regime path driven by uniforms u, as the scalar chain loop draws it.

    With two regimes each step maps {0, 1} to {0, 1} as a constant, the
    identity or a swap, so the path is vectorised: the last constant map
    fixes the regime, and the swaps since then flip it.
    """
    if transition.shape != (2, 2):
        raise ValueError("the long-path check needs a two-state market")
    cum = np.cumsum(transition, axis=1)
    cum[:, -1] = 1.0
    to0, to1 = u >= cum[0, 0], u >= cum[1, 0]  # next regime from 0, from 1
    const = to0 == to1
    swap = (to0 & ~to1).astype(np.int64)
    last = np.maximum.accumulate(np.where(const, np.arange(u.size), -1))
    base = np.where(last >= 0, to0[np.maximum(last, 0)], bool(y0)).astype(np.int64)
    swaps = np.cumsum(swap)
    since = swaps - np.where(last >= 0, swaps[np.maximum(last, 0)], 0)
    after = base ^ (since & 1)
    return np.concatenate([[y0], after[:-1]])


def _long_path(lrs_seed: int, cfgdir: Path) -> list[Op]:
    cfg = _write_config(cfgdir, "long_path.json", {
        "market": MARKET, "risk_profile": PROFILE, "strategy": LP_STRATEGY,
    })
    market = market_from_dict(MARKET)
    strategy = CycleStrategy(**LP_STRATEGY)
    alloc = strategy.allocations(market.num_states)

    def check_sharpe_path(out, s, outs):
        v = Verdict()
        rng = np.random.default_rng(lrs_seed)
        ys = _two_state_chain(market.transition, Y0, rng.random(LP_STEPS))
        z = market.mu_step[ys] + market.sigma_step[ys] * rng.standard_normal(LP_STEPS)
        excess = alloc[ys] * (z - market.r_step[ys])
        del ys, z
        again = float(excess.mean()) / float(excess.std(ddof=1))
        v.require(abs(again / s - 1.0) <= 1e-9,
                  f"long_run_sharpe {s!r} differs from its regenerated path {again!r}")
        batches = excess.reshape(100, -1)
        per_batch = batches.mean(axis=1) / batches.std(axis=1, ddof=1)
        se = float(per_batch.std(ddof=1)) / math.sqrt(len(per_batch))
        v.z("long_run_sharpe", s, se, sharpe_general(alloc, market))
        return v

    def check_implied_gamma(out, rc, outs):
        v = Verdict()
        t = _read_csv(out / "implied_gamma.csv")
        v.require(t.shape[0] == LP_HORIZON * market.num_states,
                  f"implied_gamma.csv has {t.shape[0]} rows")
        a, b = state_only_ab(market, np.tile(alloc, (LP_HORIZON, 1)))
        mu_a = a[1:] @ market.transition.T  # mu_a[n, y] = E[a_{n+1} | y]
        mu_b = b[1:] @ market.transition.T
        worst = 0.0
        for n, y, gamma in t:
            n, y = int(n), int(y)
            pi = allocation_independent(
                n, ReducedState(xi=1.0, regime=y), mu_a[n, y], mu_b[n, y],
                gamma, market,
            )
            worst = max(worst, abs(pi - alloc[y]))
        v.notes["max_mix_error"] = worst
        v.require(worst <= 1e-8, f"implied gamma recovers the mix to {worst:.2e}")
        return v

    inputs = inputs_from_market(market)

    def check_sweep(out, rc, outs):
        v = Verdict()
        rows = np.loadtxt(out / "sharpe.csv", delimiter=",", skiprows=1,
                          usecols=(1, 2))
        v.require(rows.shape == (LP_SWEEP, 2), f"sharpe.csv has shape {rows.shape}")
        want = np.array([
            annualize_sharpe(sharpe_delta(d, inputs), market.steps_per_year)
            for d in rows[:, 0]
        ])
        err = float(np.max(np.abs(rows[:, 1] / want - 1.0)))
        v.notes["closed_form_rel_err"] = err
        v.require(err <= 1e-9, f"sweep off the closed form by {err:.2e}")
        return v

    return [
        Op("long_run_sharpe",
           lambda out, outs: lambda: montecarlo.long_run_sharpe(
               strategy, market, LP_STEPS, lrs_seed, y0=Y0),
           check_sharpe_path,
           lambda out, s: hashlib.sha256(float(s).hex().encode()).hexdigest(),
           path_steps=LP_STEPS, is_cli=False),
        Op("implied_gamma",
           lambda out, outs: _cli_call([
               "implied-gamma", "--config", cfg, "--out", str(out),
               "--horizon", str(LP_HORIZON),
           ]),
           check_implied_gamma, _file_digest("implied_gamma.csv")),
        Op("sharpe",
           lambda out, outs: _cli_call([
               "sharpe", "--config", cfg, "--out", str(out), "--sweep", "delta",
               "--from", "-0.5", "--to", "0.5", "--steps", str(LP_SWEEP),
           ]),
           check_sweep, _file_digest("sharpe.csv")),
    ]


def fixed_mix(seed: int, cfgdir: Path) -> list[Op]:
    """Both shapes of the regime sampler, and cycle_analytics: no solver
    tables and no policy store."""
    sim_seed, lrs_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    return _wide_simulate(sim_seed, cfgdir) + _long_path(lrs_seed, cfgdir)


# -- policy-roundtrip -------------------------------------------------------------


def policy_roundtrip(seed: int, cfgdir: Path) -> list[Op]:
    (sim_seed,) = np.random.SeedSequence(seed).generate_state(1)
    profile = dict(PROFILE, beta=2.0, phi=RT_PHI)
    solve_cfg = _write_config(cfgdir, "roundtrip_solve.json", {
        "market": MARKET, "risk_profile": profile, "horizon": RT_T,
    })
    market = market_from_dict(MARKET)
    mt, s2 = market.mu_tilde_step, market.sigma_step**2

    def check_solve(out, rc, outs):
        v = Verdict()
        files = _policy_files(out)
        v.require(len(files) == RT_T, f"{len(files)} policy slices, not {RT_T}")
        for path in files:
            t = _read_csv(path)
            a, b = t[:, 5], t[:, 6]
            v.require(bool(np.all(b >= a * a - 1e-12)),
                      f"{path.name}: b < a^2 somewhere")
        # Last step: a = b = 1 ahead, so the policy is the one-period
        # Markowitz weight. gamma equals xi here (alpha = 0, gamma_bar = 1).
        last = _read_csv(files[-1])
        y = last[:, 3].astype(int)
        want = mt[y] / (last[:, 0] * s2[y])
        err = float(np.max(np.abs(last[:, 4] / want - 1.0)))
        v.notes["markowitz_rel_err"] = err
        v.require(err <= 1e-9, f"final slice off Markowitz by {err:.2e}")
        return v

    def prepare_simulate(out, outs):
        cfg = _write_config(cfgdir, "roundtrip_simulate.json",
                            {"policy_dir": str(outs["solve"])})
        return _cli_call([
            "simulate", "--config", cfg, "--out", str(out),
            "--paths", str(RT_PATHS), "--seed", str(sim_seed), "--threads", "2",
        ])

    def check_simulate(out, rc, outs):
        v = Verdict()
        t = _read_csv(outs["solve"] / "policy_0000.csv")
        at_start = (
            (t[:, 3] == Y0) & (np.abs(t[:, 1]) < 1e-12) & (np.abs(t[:, 2]) < 1e-12)
        )
        rows = t[at_start]
        k = int(np.argmin(np.abs(rows[:, 0] / PROFILE["gamma0"] - 1.0)))
        v.require(abs(rows[k, 0] / PROFILE["gamma0"] - 1.0) < 1e-9,
                  "gamma0 is not a node of the xi grid")
        _gross_moment_checks(v, out, RT_PATHS, rows[k, 5], rows[k, 6])
        return v

    return [
        Op("solve",
           lambda out, outs: _cli_call(
               ["solve", "--config", solve_cfg, "--out", str(out)]),
           check_solve, lambda out, r: _sha256(*_policy_files(out))),
        Op("simulate", prepare_simulate, check_simulate,
           _file_digest("summary.json"), path_steps=RT_PATHS * RT_T),
    ]


# -- personalize-sweep ------------------------------------------------------------


def personalize_sweep(seed: int, cfgdir: Path) -> list[Op]:
    """One ``personalize`` call per phi, so that each op is short enough for
    the reference kernel on either side of it to track the host's speed."""
    lo, hi = PS_PHIS
    phis = range(lo, hi + 1)
    seeds = np.random.SeedSequence(seed).generate_state(len(phis))
    cfg = _write_config(cfgdir, "personalize.json", {
        "market": MARKET, "risk_profile": PROFILE, "horizon": PS_T,
    })

    def row(out):
        return _read_csv(out / "personalize.csv")

    def check_row(out, rc, outs):
        v = Verdict()
        t = row(out)
        v.require(t.shape == (1, 6), f"personalize.csv has shape {t.shape}")
        v.require(bool(np.all(np.isfinite(t))), "non-finite values")
        return v

    def check_sweep(out, rc, outs):
        v = check_row(out, rc, outs)
        t = np.vstack([row(outs[f"personalize_phi{phi}"]) for phi in phis[:-1]]
                      + [row(out)])
        r_best = int(t[np.argmin(t[:, 1]), 0])
        s_best = int(t[np.argmin(t[:, 4]), 0])
        v.notes.update(argmin_R=r_best, argmin_S=s_best)
        v.require(lo < r_best < hi, f"argmin R = {r_best} is not interior")
        v.require(lo < s_best < hi, f"argmin S = {s_best} is not interior")
        v.require(r_best <= s_best, f"argmin R = {r_best} > argmin S = {s_best}")
        return v

    def call(phi, ps_seed):
        return lambda out, outs: _cli_call([
            "personalize", "--config", cfg, "--out", str(out),
            "--beta", "2", "--phi-range", f"{phi}:{phi}",
            "--paths", str(PS_R_PATHS), "--s-paths", str(PS_S_PATHS),
            "--seed", str(ps_seed),
        ])

    return [
        Op(f"personalize_phi{phi}", call(phi, ps_seed),
           check_sweep if phi == hi else check_row,
           _file_digest("personalize.csv"),
           path_steps=(PS_R_PATHS + PS_S_PATHS) * PS_T)
        for phi, ps_seed in zip(phis, seeds)
    ]


WORKLOADS = {
    "fixed-mix": fixed_mix,
    "policy-roundtrip": policy_roundtrip,
    "personalize-sweep": personalize_sweep,
}
