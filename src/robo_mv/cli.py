"""Command-line front end.

Each subcommand reads one JSON experiment config (see docs/formats.md),
applies flag overrides, runs the corresponding engine operation, and writes
CSV/JSON artifacts plus a `run.json` manifest into the output directory,
which receives them only when the command succeeds. The manifest records
the resolved config, flags, and seed; pointing --config at a manifest
reruns that experiment bit-exactly (explicit flags still win, and a stored
flag the command does not take exits 2).

Exit codes: 0 ok, 2 bad configuration, 3 numerical failure or any other
unexpected error, 4 I/O trouble.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from robo_mv import __version__
from robo_mv.cycle_analytics import (
    CycleStrategy,
    annualize_sharpe,
    implied_gamma,
    sharpe_sweep,
)
from robo_mv.errors import ConfigError, NumericalError
from robo_mv.market import (
    check_keys,
    check_number,
    check_regime,
    market_from_dict,
    stationary_distribution,
)
from robo_mv.montecarlo import SimConfig, annualized, simulate, stats
from robo_mv.personalization import (
    check_sampling,
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
    "y0", "x0", "bounds", "liquidate",
}
_INT, _FLOAT = {"type": int}, {"type": float}
# Each command's help and the flags it takes besides --config and --out, with
# their argparse keywords. _build_parser adds them, each defaulting to None,
# and runs `robo-mv x-y` as cmd_x_y. _FLAGS, the flags a command stores in
# run.json and takes back from it, are their dests.
_COMMANDS = {
    "stationary": ("long-run regime distribution", {}),
    "solve": ("backward-induction policy tables", {}),
    "simulate": ("wealth paths and distribution stats", {
        "--paths": _INT, "--seed": _INT, "--threads": _INT, "--bins": _INT,
        "--dump-paths": {"action": "store_true"},
    }),
    "sharpe": ("long-run Sharpe ratio sweep", {
        "--sweep": {"choices": ("delta", "pi_bar")}, "--from": _FLOAT,
        "--to": _FLOAT, "--steps": _INT,
    }),
    "implied-gamma": ("risk aversion recovering a fixed-mix rule",
                      {"--horizon": _INT}),
    "personalize": ("interaction-frequency tradeoff measures", {
        "--phi-range": {"help": "inclusive span, e.g. 1:24"}, "--beta": _FLOAT,
        "--paths": _INT, "--s-paths": _INT, "--seed": _INT,
    }),
}
_FLAGS = {command: {flag[2:].replace("-", "_") for flag in flags}
          for command, (_, flags) in _COMMANDS.items()}


# -- config and artifact plumbing -----------------------------------------------


def _load_config(path, command: str) -> tuple[dict, dict]:
    """Read an experiment config, unwrapping a run manifest if given one.

    Returns (config, stored_flags); stored_flags come from a manifest and act
    as defaults below explicit command-line flags, and must be in _FLAGS.
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
        if "config" not in doc:
            raise ConfigError(f"manifest {path} has no 'config'")
        cfg, stored = doc["config"], doc.get("flags", {})
    else:
        cfg, stored = doc, {}
    check_keys(cfg, _EXPERIMENT_KEYS, "experiment config")
    check_keys(stored, _FLAGS[command], f"stored {command} flag")
    _check_finite(cfg)
    return cfg, stored


def _check_finite(node, where: str = "config") -> None:
    """Raise ConfigError at a NaN or infinite number anywhere in a config,
    read or not: run.json echoes the config, and strict JSON has neither."""
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_finite(value, f"{where}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{where} must be finite, got {node!r}")


def _need(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"{context} config requires '{key}'")
    return cfg[key]


def _grid_spec(cfg: dict) -> GridSpec:
    return GridSpec(**check_keys(cfg.get("grid", {}), _GRID_KEYS, "grid"))


def _mix(cfg: dict) -> tuple[float, float]:
    """pi_bar and delta of the config's `strategy`, 0.6 and 0.0 by default."""
    doc = check_keys(cfg.get("strategy", {}), {"pi_bar", "delta"}, "strategy")
    return (check_number(doc.get("pi_bar", 0.6), "pi_bar"),
            check_number(doc.get("delta", 0.0), "delta"))


def _resolve(args, flags: dict, key: str, default):
    """Flag `key`: from the command line, else from the stored flags."""
    for value in (getattr(args, key), flags.get(key)):
        if value is not None:
            return value
    return default


def _count(args, flags: dict, key: str, default, lo: int, name=None) -> int:
    """The one rule for an integer flag: resolved as _resolve does, an
    integer by check_number, and at least lo. Messages name it `--key`."""
    name = name or f"--{key.replace('_', '-')}"
    n = check_number(_resolve(args, flags, key, default), name, integer=True)
    if n < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {n}")
    return n


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
    # Strict JSON: a NaN or infinity raises rather than writing a bare token.
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def _out_dir(args) -> Path:
    """The directory a command writes its artifacts into: a hidden staging
    directory beside --out, made on first use. main writes run.json there
    and moves its files into --out once the command returns, and deletes
    it in any case."""
    if args.stage is None:
        out = Path(os.path.abspath(args.out))
        out.parent.mkdir(parents=True, exist_ok=True)
        stage = out.parent / f".{out.name}.{os.getpid()}-{os.urandom(4).hex()}"
        stage.mkdir()  # set on args only once made: main deletes it
        args.stage = stage
    return args.stage


def _publish(stage: Path, out: Path) -> None:
    """Move every staged file into out, run.json last. A directory in out
    that a file would replace fails the run before any file is moved."""
    out.mkdir(parents=True, exist_ok=True)
    names = sorted((p.name for p in stage.iterdir()), key=lambda n: n == "run.json")
    for name in names:
        if (out / name).is_dir():
            raise IsADirectoryError(f"{out / name} is a directory, not a file")
    for name in names:
        os.replace(stage / name, out / name)


def _manifest(out: Path, command: str, cfg: dict, flags: dict) -> None:
    """Write run.json; its `outputs` are the files the run has written."""
    _write_json(out / "run.json", {
        "kind": "run_manifest",
        "package_version": __version__,
        "command": command,
        "config": cfg,
        "flags": flags,
        "outputs": sorted(p.name for p in out.iterdir()),
    })


def _seed_value(args, flags: dict):
    seed = _resolve(args, flags, "seed", None)
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _stats_doc(s) -> dict:
    """A StatsSummary as JSON, its shape statistics null where undefined
    (NaN, for a constant sample)."""
    doc = asdict(s)
    for key in ("skewness", "kurtosis"):
        if math.isnan(doc[key]):
            doc[key] = None
    return doc


# -- subcommands ------------------------------------------------------------------


# Each command computes and writes its artifacts through _out_dir, and
# returns its config, its resolved flags and its success line; main records,
# publishes and prints them.


def cmd_stationary(args) -> tuple[dict, dict, str]:
    cfg, _ = _load_config(args.config, "stationary")
    market = market_from_dict(_need(cfg, "market", "stationary"))
    dist = stationary_distribution(market)
    if args.out is not None:
        _write_csv(_out_dir(args) / "stationary.csv", ["state", "probability"],
                   [(y, p) for y, p in enumerate(dist)])
    return cfg, {}, ", ".join(f"{p:.6f}" for p in dist)


def cmd_solve(args) -> tuple[dict, dict, str]:
    cfg, _ = _load_config(args.config, "solve")
    market = market_from_dict(_need(cfg, "market", "solve"))
    profile = profile_from_dict(_need(cfg, "risk_profile", "solve"))
    T = check_number(_need(cfg, "horizon", "solve"), "horizon", integer=True)
    tables = solve(market, profile, T, _grid_spec(cfg), cfg.get("bounds"))
    save_policy(tables, _out_dir(args))
    return cfg, {}, f"wrote {T} policy slices to {Path(args.out)}"


def cmd_simulate(args) -> tuple[dict, dict, str]:
    cfg, flags = _load_config(args.config, "simulate")
    n_paths = _count(args, flags, "paths", 100_000, 2)
    seed = _seed_value(args, flags)
    # 0 means one worker per CPU
    threads = _count(args, flags, "threads", 1, 0) or os.cpu_count() or 1
    bins = _count(args, flags, "bins", 60, 1)
    dump = _resolve(args, flags, "dump_paths", False)
    if not isinstance(dump, bool):
        raise ConfigError(f"dump_paths must be true or false, got {dump!r}")

    if "policy_dir" in cfg:
        for key in ("strategy", "market", "risk_profile"):
            if key in cfg:
                raise ConfigError(f"{key} and policy_dir are mutually exclusive")
        if not isinstance(cfg["policy_dir"], str):
            raise ConfigError(f"policy_dir must be a path, got {cfg['policy_dir']!r}")
        tables = load_policy(cfg["policy_dir"])
        market, strategy = tables.market, tables
        T = check_number(cfg.get("horizon", tables.T), "horizon", integer=True)
    else:
        market = market_from_dict(_need(cfg, "market", "simulate"))
        strat_doc = check_keys(_need(cfg, "strategy", "simulate"),
                               {"pi_bar", "delta"}, "strategy")
        _need(strat_doc, "pi_bar", "strategy")
        strategy = CycleStrategy(**strat_doc)
        T = check_number(_need(cfg, "horizon", "simulate"), "horizon", integer=True)

    sim = SimConfig(
        market=market, strategy=strategy, T=T, n_paths=n_paths, seed=seed,
        y0=check_number(cfg.get("y0", 0), "y0", integer=True),
        x0=check_number(cfg.get("x0", 1.0), "x0"),
        bounds=cfg.get("bounds"), liquidate=cfg.get("liquidate", False),
    )
    returns = simulate(sim, threads=threads)
    total = stats(returns)
    rates, excluded = annualized(returns, T, market.steps_per_year)
    summary = {
        "total": _stats_doc(total),
        # null when fewer than two paths end above total ruin
        "annualized": _stats_doc(stats(rates)) if len(rates) >= 2 else None,
        "annualized_excluded_paths": excluded,
        "n_paths": n_paths,
        "seed": seed,
    }
    out = _out_dir(args)
    _write_json(out / "summary.json", summary)
    counts, edges = np.histogram(returns, bins=bins)
    _write_csv(out / "histogram.csv", ["bin_left", "bin_right", "count"],
               [(edges[i], edges[i + 1], int(counts[i])) for i in range(bins)])
    if dump:
        _write_csv(out / "returns.csv", ["total_return"],
                   [(r,) for r in returns])
    return (cfg, {"paths": n_paths, "seed": seed, "bins": bins,
                  "dump_paths": dump, "threads": threads},
            f"simulated {n_paths} paths; mean total return {total.mean:.6g}")


def cmd_sharpe(args) -> tuple[dict, dict, str]:
    cfg, flags = _load_config(args.config, "sharpe")
    market = market_from_dict(_need(cfg, "market", "sharpe"))
    base_pi, base_delta = _mix(cfg)

    sweep = _resolve(args, flags, "sweep", "delta")
    if sweep not in ("delta", "pi_bar"):
        raise ConfigError(f"--sweep must be 'delta' or 'pi_bar', got {sweep!r}")
    lo, hi = (check_number(_resolve(args, flags, key, default), "--from and --to")
              for key, default in (("from", -0.5), ("to", 0.5)))
    steps = _count(args, flags, "steps", 21, 1)
    values = np.linspace(lo, hi, steps)

    rules = [
        CycleStrategy(pi_bar=base_pi, delta=float(v)) if sweep == "delta"
        else CycleStrategy(pi_bar=float(v), delta=base_delta)
        for v in values
    ]
    sharpes = sharpe_sweep([r.allocations(market.num_states) for r in rules], market)
    rows = [(sweep, float(v), annualize_sharpe(s, market.steps_per_year))
            for v, s in zip(values, sharpes)]
    _write_csv(_out_dir(args) / "sharpe.csv",
               ["sweep_var", "value", "sharpe_annualized"], rows)
    return (cfg, {"sweep": sweep, "from": lo, "to": hi, "steps": steps},
            f"wrote {steps} rows to {Path(args.out) / 'sharpe.csv'}")


def cmd_implied_gamma(args) -> tuple[dict, dict, str]:
    cfg, flags = _load_config(args.config, "implied-gamma")
    market = market_from_dict(_need(cfg, "market", "implied-gamma"))
    pi_bar, delta = _mix(cfg)
    T = _count(args, flags, "horizon", cfg.get("horizon", 0), 1,
               "horizon (config or --horizon)")
    gam = implied_gamma(pi_bar, delta, market, T)
    _write_csv(_out_dir(args) / "implied_gamma.csv", ["n", "regime", "gamma"],
               [(n, y, gam[n, y]) for n in range(T)
                for y in range(market.num_states)])
    return (cfg, {"horizon": T},
            f"wrote {T * market.num_states} rows to {Path(args.out, 'implied_gamma.csv')}")


def _parse_phi_range(text) -> range:
    if not isinstance(text, str):
        raise ConfigError(f"--phi-range must look like 'lo:hi', got {text!r}")
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise ConfigError(f"--phi-range must look like 'lo:hi', got {text!r}")
    if not 1 <= lo <= hi:
        raise ConfigError(f"--phi-range needs 1 <= lo <= hi, got {text!r}")
    return range(lo, hi + 1)


def cmd_personalize(args) -> tuple[dict, dict, str]:
    cfg, flags = _load_config(args.config, "personalize")
    market = market_from_dict(_need(cfg, "market", "personalize"))
    profile = profile_from_dict(_need(cfg, "risk_profile", "personalize"))
    T = check_number(_need(cfg, "horizon", "personalize"), "horizon", integer=True)
    y0 = check_number(cfg.get("y0", 0), "y0", integer=True)
    check_regime(market, y0, "y0")
    beta = check_number(_resolve(args, flags, "beta", profile.beta), "beta")
    phis = _parse_phi_range(_resolve(args, flags, "phi_range", "1:12"))
    n_paths = _count(args, flags, "paths", 20_000, 1)
    s_paths = _count(args, flags, "s_paths", 4_000, 1)
    seed = _seed_value(args, flags)
    grid = _grid_spec(cfg)
    sigma0 = float(market.sigma_step[y0])
    advisors = [replace(profile, phi=phi, beta=beta) for phi in phis]
    # Every input check of both measures, before any work starts: they
    # differ only in the path count, and building the advisors' profiles
    # has checked their phi and beta.
    for paths in (n_paths, s_paths):
        check_sampling(market, profile, T, paths, y0)

    children = np.random.SeedSequence(seed).spawn(2 * len(phis))
    full_policy = None
    rows = []
    # For each phi, R runs on the worker thread while this one solves the
    # full-information policy (first phi only) and runs S. R is joined
    # before the next phi, and its error, if any, wins: R comes first in
    # the serial order.
    with ThreadPoolExecutor(max_workers=1) as pool:
        for i, (phi, advisor) in enumerate(zip(phis, advisors)):
            r_job = pool.submit(r_measure, market, advisor, T, n_paths,
                                children[2 * i], y0)
            try:
                if full_policy is None:
                    full_policy = full_information_policy(market, profile, T, grid)
                sm = s_measure(market, advisor, T, grid, s_paths, children[2 * i + 1],
                               y0=y0, full_policy=full_policy)
            finally:
                r, r_se = r_job.result()
            rt = r_tilde(phi, beta, sigma0, profile.p_eps, profile.sigma_eps)
            rows.append((phi, r, r_se, rt, sm.estimate, sm.se))
    _write_csv(_out_dir(args) / "personalize.csv",
               ["phi", "R", "R_se", "R_tilde", "S", "S_se"], rows)
    return (cfg, {"beta": beta, "phi_range": f"{phis.start}:{phis.stop - 1}",
                  "paths": n_paths, "s_paths": s_paths, "seed": seed},
            f"wrote {len(rows)} rows to {Path(args.out) / 'personalize.csv'}")


# -- parser and dispatch ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that they
    print as one `configuration error:` line and exit 2 like every other
    configuration error. Its subcommand parsers are of the same class."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="robo-mv",
        description="Adaptive mean-variance allocation engine",
    )
    p.add_argument("--version", action="version", version=f"robo-mv {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    for command, (help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", required=command != "stationary",
                        help="output directory for artifacts")
        for flag, keywords in flags.items():
            sp.add_argument(flag, default=None, **keywords)
        # looked up now, not at import, so a replaced cmd_* function runs
        sp.set_defaults(func=globals()[f"cmd_{command.replace('-', '_')}"])

    return p


def main(argv=None) -> int:
    """Run one command, then write its run.json beside its staged artifacts,
    move them into --out and print its success line. A run that fails
    prints nothing on stdout and leaves --out as it was."""
    import shutil  # numpy has loaded it already

    args = argparse.Namespace(stage=None)  # _out_dir sets the stage
    try:
        _build_parser().parse_args(argv, args)
        if args.out == "":
            raise ConfigError("--out must name a directory, got ''")
        cfg, flags, line = args.func(args)
        if args.out is not None:
            _manifest(_out_dir(args), args.command, cfg, flags)
            _publish(args.stage, Path(args.out))
        print(line)
        return 0
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
    finally:
        if args.stage is not None:
            shutil.rmtree(args.stage, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
