"""Command-line front end.

Each subcommand reads one JSON experiment config (see docs/formats.md),
applies flag overrides, runs the corresponding engine operation, and writes
CSV/JSON artifacts plus a `run.json` manifest into the output directory. The
manifest records the resolved config, flags, and seed; pointing --config at a
manifest reruns that experiment bit-exactly (explicit flags still win).

Exit codes: 0 ok, 2 bad configuration, 3 numerical failure or any other
unexpected error, 4 I/O trouble.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from robo_mv import __version__
from robo_mv.cycle_analytics import (
    CycleStrategy,
    annualize_sharpe,
    implied_gamma,
    sharpe_general,
)
from robo_mv.errors import ConfigError, NumericalError
from robo_mv.market import check_regime, market_from_dict, stationary_distribution
from robo_mv.montecarlo import SimConfig, annualized, simulate, stats
from robo_mv.personalization import (
    full_information_policy,
    r_measure,
    r_tilde,
    s_measure,
)
from robo_mv.risk_profile import profile_from_dict
from robo_mv.solver import GridSpec, load_policy, save_policy, solve

_GRID_KEYS = {f.name for f in fields(GridSpec)}
_EXPERIMENT_KEYS = {
    "market", "risk_profile", "horizon", "grid", "strategy", "policy_dir",
    "y0", "x0", "bounds", "liquidate", "beta",
}


# -- config and artifact plumbing -----------------------------------------------


def _load_config(path, command: str) -> tuple[dict, dict]:
    """Read an experiment config, unwrapping a run manifest if given one.

    Returns (config, stored_flags); stored_flags come from a manifest and act
    as defaults below explicit command-line flags.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    if doc.get("kind") == "run_manifest":
        if doc.get("command") != command:
            raise ConfigError(
                f"manifest {path} records command "
                f"{doc.get('command')!r}, not {command!r}"
            )
        cfg, stored = doc["config"], dict(doc.get("flags", {}))
    else:
        cfg, stored = doc, {}
    _check_keys(cfg, _EXPERIMENT_KEYS, "experiment")
    return cfg, stored


def _check_keys(cfg: dict, allowed: set, context: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _need(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"{context} config requires '{key}'")
    return cfg[key]


def _grid_spec(cfg: dict, quad_points=None) -> GridSpec:
    doc = dict(cfg.get("grid", {}))
    _check_keys(doc, _GRID_KEYS, "grid")
    if quad_points is not None:
        doc["quad_points"] = int(quad_points)
    return GridSpec(**doc)


def _resolve(explicit, stored_flags: dict, name: str, default):
    if explicit is not None:
        return explicit
    if name in stored_flags and stored_flags[name] is not None:
        return stored_flags[name]
    return default


def _threads(explicit, stored_flags: dict) -> int:
    val = _resolve(explicit, stored_flags, "threads", None)
    if val is None:
        env = os.environ.get("ROBO_MV_THREADS")
        if env is not None:
            try:
                val = int(env)
            except ValueError:
                raise ConfigError(f"ROBO_MV_THREADS must be an integer, got {env!r}")
        else:
            val = 1
    val = int(val)
    if val < 0:
        raise ConfigError(f"threads must be >= 0, got {val}")
    return val if val > 0 else (os.cpu_count() or 1)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out: Path, command: str, cfg: dict, flags: dict, outputs) -> None:
    _write_json(out / "run.json", {
        "kind": "run_manifest",
        "package_version": __version__,
        "command": command,
        "config": cfg,
        "flags": flags,
        "outputs": sorted(outputs),
    })


def _seed_value(explicit, stored_flags: dict):
    seed = _resolve(explicit, stored_flags, "seed", None)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    return seed


# -- subcommands ------------------------------------------------------------------


def cmd_stationary(args) -> int:
    cfg, _ = _load_config(args.config, "stationary")
    market = market_from_dict(_need(cfg, "market", "stationary"))
    dist = stationary_distribution(market)
    print(", ".join(f"{p:.6f}" for p in dist))
    if args.out:
        out = _out_dir(args)
        _write_csv(out / "stationary.csv", ["state", "probability"],
                   [(y, p) for y, p in enumerate(dist)])
        _manifest(out, "stationary", cfg, {}, ["stationary.csv"])
    return 0


def cmd_solve(args) -> int:
    cfg, flags = _load_config(args.config, "solve")
    market = market_from_dict(_need(cfg, "market", "solve"))
    profile = profile_from_dict(_need(cfg, "risk_profile", "solve"))
    T = int(_need(cfg, "horizon", "solve"))
    qp = _resolve(args.quad_points, flags, "quad_points", None)
    grid = _grid_spec(cfg, quad_points=qp)
    tables = solve(market, profile, T, grid)
    out = _out_dir(args)
    save_policy(tables, out)
    outputs = [f"policy_{n:04d}.csv" for n in range(T)] + [
        "manifest.json", "policy.npz"]
    _manifest(out, "solve", cfg, {"quad_points": qp}, outputs)
    print(f"wrote {T} policy slices to {out}")
    return 0


def cmd_simulate(args) -> int:
    cfg, flags = _load_config(args.config, "simulate")
    bounds = cfg.get("bounds")
    if bounds is not None:
        bounds = (float(bounds[0]), float(bounds[1]))

    if "policy_dir" in cfg:
        tables = load_policy(cfg["policy_dir"])
        market, strategy, profile = tables.market, tables, tables.profile
        T = int(cfg.get("horizon", tables.T))
    else:
        market = market_from_dict(_need(cfg, "market", "simulate"))
        strat_doc = dict(_need(cfg, "strategy", "simulate"))
        _check_keys(strat_doc, {"pi_bar", "delta"}, "strategy")
        strategy = CycleStrategy(**strat_doc)
        profile = None
        T = int(_need(cfg, "horizon", "simulate"))

    n_paths = int(_resolve(args.paths, flags, "paths", 100_000))
    seed = _seed_value(args.seed, flags)
    threads = _threads(args.threads, flags)
    bins = int(_resolve(args.bins, flags, "bins", 60))
    dump = bool(_resolve(args.dump_paths or None, flags, "dump_paths", False))

    sim = SimConfig(
        market=market, strategy=strategy, T=T, n_paths=n_paths, seed=seed,
        profile=profile, y0=int(cfg.get("y0", 0)), x0=float(cfg.get("x0", 1.0)),
        bounds=bounds, liquidate=bool(cfg.get("liquidate", False)),
    )
    returns = simulate(sim, threads=threads)
    total = stats(returns)
    rates, excluded = annualized(returns, T, market.steps_per_year)
    summary = {
        "total": asdict(total),
        "annualized": asdict(stats(rates)),
        "annualized_excluded_paths": excluded,
        "n_paths": n_paths,
        "seed": seed,
    }
    out = _out_dir(args)
    _write_json(out / "summary.json", summary)
    counts, edges = np.histogram(returns, bins=bins)
    _write_csv(out / "histogram.csv", ["bin_left", "bin_right", "count"],
               [(edges[i], edges[i + 1], int(counts[i])) for i in range(bins)])
    outputs = ["summary.json", "histogram.csv"]
    if dump:
        _write_csv(out / "returns.csv", ["total_return"],
                   [(r,) for r in returns])
        outputs.append("returns.csv")
    _manifest(out, "simulate", cfg,
              {"paths": n_paths, "seed": seed, "bins": bins,
               "dump_paths": dump, "threads": threads}, outputs)
    print(f"simulated {n_paths} paths; mean total return {total.mean:.6g}")
    return 0


def cmd_sharpe(args) -> int:
    cfg, flags = _load_config(args.config, "sharpe")
    market = market_from_dict(_need(cfg, "market", "sharpe"))
    strat_doc = dict(cfg.get("strategy", {}))
    _check_keys(strat_doc, {"pi_bar", "delta"}, "strategy")
    base_pi = float(strat_doc.get("pi_bar", 0.6))
    base_delta = float(strat_doc.get("delta", 0.0))

    sweep = _resolve(args.sweep, flags, "sweep", "delta")
    lo = float(_resolve(getattr(args, "from_"), flags, "from", -0.5))
    hi = float(_resolve(args.to, flags, "to", 0.5))
    steps = int(_resolve(args.steps, flags, "steps", 21))
    if steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {steps}")
    values = np.linspace(lo, hi, steps)

    rows = []
    for v in values:
        if sweep == "delta":
            strat = CycleStrategy(pi_bar=base_pi, delta=float(v))
        else:
            strat = CycleStrategy(pi_bar=float(v), delta=base_delta)
        s = sharpe_general(strat.allocations(market.num_states), market)
        rows.append((sweep, float(v), annualize_sharpe(s, market.steps_per_year)))
    out = _out_dir(args)
    _write_csv(out / "sharpe.csv", ["sweep_var", "value", "sharpe_annualized"], rows)
    _manifest(out, "sharpe", cfg,
              {"sweep": sweep, "from": lo, "to": hi, "steps": steps},
              ["sharpe.csv"])
    print(f"wrote {steps} rows to {out / 'sharpe.csv'}")
    return 0


def cmd_implied_gamma(args) -> int:
    cfg, flags = _load_config(args.config, "implied-gamma")
    market = market_from_dict(_need(cfg, "market", "implied-gamma"))
    strat_doc = dict(cfg.get("strategy", {}))
    _check_keys(strat_doc, {"pi_bar", "delta"}, "strategy")
    pi_bar = float(_resolve(args.pi_bar, flags, "pi_bar",
                            strat_doc.get("pi_bar", 0.6)))
    delta = float(_resolve(args.delta, flags, "delta",
                           strat_doc.get("delta", 0.0)))
    T = int(_resolve(args.horizon, flags, "horizon", cfg.get("horizon", 0)))
    if T < 1:
        raise ConfigError("implied-gamma needs a horizon >= 1 (config or --horizon)")
    gam = implied_gamma(pi_bar, delta, market, T)
    out = _out_dir(args)
    _write_csv(out / "implied_gamma.csv", ["n", "regime", "gamma"],
               [(n, y, gam[n, y]) for n in range(T)
                for y in range(market.num_states)])
    _manifest(out, "implied-gamma", cfg,
              {"pi_bar": pi_bar, "delta": delta, "horizon": T},
              ["implied_gamma.csv"])
    print(f"wrote {T * market.num_states} rows to {out / 'implied_gamma.csv'}")
    return 0


def _parse_phi_range(text: str) -> range:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise ConfigError(f"--phi-range must look like 'lo:hi', got {text!r}")
    if not 1 <= lo <= hi:
        raise ConfigError(f"--phi-range needs 1 <= lo <= hi, got {text!r}")
    return range(lo, hi + 1)


def cmd_personalize(args) -> int:
    cfg, flags = _load_config(args.config, "personalize")
    market = market_from_dict(_need(cfg, "market", "personalize"))
    profile = profile_from_dict(_need(cfg, "risk_profile", "personalize"))
    T = int(_need(cfg, "horizon", "personalize"))
    y0 = int(cfg.get("y0", 0))
    check_regime(market, y0, "y0")
    beta = float(_resolve(args.beta, flags, "beta", cfg.get("beta", profile.beta)))
    phis = _parse_phi_range(_resolve(args.phi_range, flags, "phi_range", "1:12"))
    n_paths = int(_resolve(args.paths, flags, "paths", 20_000))
    s_paths = int(_resolve(args.s_paths, flags, "s_paths", 4_000))
    seed = _seed_value(args.seed, flags)
    grid = _grid_spec(cfg)
    sigma0 = float(market.sigma_step[y0])

    children = np.random.SeedSequence(seed).spawn(2 * len(phis))
    full_policy = None
    rows = []
    for i, phi in enumerate(phis):
        r, r_se = r_measure(phi, beta, market, profile, T, n_paths,
                            children[2 * i], y0=y0)
        # Solved once, after the first R estimate: the solver's working
        # memory then does not add to the peak that R's path sample sets.
        if full_policy is None:
            full_policy = full_information_policy(market, profile, T, grid)
        sm = s_measure(phi, beta, market, profile, T, grid, s_paths,
                       children[2 * i + 1], y0=y0, full_policy=full_policy)
        rt = r_tilde(phi, beta, sigma0, profile.p_eps, profile.sigma_eps)
        rows.append((phi, r, r_se, rt, sm.estimate, sm.se))
    out = _out_dir(args)
    _write_csv(out / "personalize.csv",
               ["phi", "R", "R_se", "R_tilde", "S", "S_se"], rows)
    _manifest(out, "personalize", cfg,
              {"beta": beta, "phi_range": f"{phis.start}:{phis.stop - 1}",
               "paths": n_paths, "s_paths": s_paths, "seed": seed},
              ["personalize.csv"])
    print(f"wrote {len(rows)} rows to {out / 'personalize.csv'}")
    return 0


# -- parser and dispatch ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="robo-mv",
        description="Adaptive mean-variance allocation engine",
    )
    p.add_argument("--version", action="version", version=f"robo-mv {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", required=out_required,
                        help="output directory for artifacts")

    sp = sub.add_parser("stationary", help="long-run regime distribution")
    common(sp, out_required=False)
    sp.set_defaults(func=cmd_stationary)

    sp = sub.add_parser("solve", help="backward-induction policy tables")
    common(sp)
    sp.add_argument("--quad-points", type=int, default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("simulate", help="wealth paths and distribution stats")
    common(sp)
    sp.add_argument("--paths", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--bins", type=int, default=None)
    sp.add_argument("--dump-paths", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sharpe", help="long-run Sharpe ratio sweep")
    common(sp)
    sp.add_argument("--sweep", choices=("delta", "pi_bar"), default=None)
    sp.add_argument("--from", dest="from_", type=float, default=None)
    sp.add_argument("--to", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.set_defaults(func=cmd_sharpe)

    sp = sub.add_parser("implied-gamma",
                        help="risk aversion recovering a fixed-mix rule")
    common(sp)
    sp.add_argument("--pi-bar", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--horizon", type=int, default=None)
    sp.set_defaults(func=cmd_implied_gamma)

    sp = sub.add_parser("personalize",
                        help="interaction-frequency tradeoff measures")
    common(sp)
    sp.add_argument("--phi-range", default=None, help="inclusive span, e.g. 1:24")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--paths", type=int, default=None)
    sp.add_argument("--s-paths", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_personalize)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ZeroDivisionError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
