"""End-to-end checks of the command-line interface via main(argv)."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robo_mv.cli as cli
from robo_mv.cli import main
from robo_mv.cycle_analytics import CycleStrategy, annualize_sharpe, implied_gamma, sharpe_general
from robo_mv.errors import ConfigError, DegenerateVariance, NumericalError
from robo_mv.market import _MARKET_KEYS, market_from_dict
from robo_mv.personalization import phi_star, r_tilde
from robo_mv.risk_profile import _PROFILE_KEYS, profile_from_dict
from robo_mv.solver import GridSpec, load_policy, solve


def two_state_config():
    return {
        "market": {
            "states": 2,
            "transition": [[0.95, 0.05], [0.10, 0.90]],
            "risk_free": [0.015, 0.0],
            "mean_return": [0.081, 0.137],
            "vol_return": [0.155, 0.173],
            "steps_per_year": 12,
        },
        "strategy": {"pi_bar": 0.6, "delta": 0.0},
        "horizon": 24,
    }


def single_state_config():
    return {
        "market": {
            "states": 1,
            "transition": [[1.0]],
            "risk_free": [0.0],
            "mean_return": [0.10],
            "vol_return": [0.20],
            "steps_per_year": 12,
        },
        "risk_profile": {"gamma0": 3.0, "p_eps": 0.05, "sigma_eps": 0.64},
        "horizon": 12,
    }


SIGMA0 = 0.20 / math.sqrt(12.0)
ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- config loading and validation --------------------------------------------


def test_missing_config_file_exits_4(tmp_path, capsys):
    assert main(["stationary", "--config", str(tmp_path / "nope.json")]) == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["not json {", "[1, 2, 3]"])
def test_malformed_config_exits_2(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["stationary", "--config", str(path)]) == 2


def test_unknown_experiment_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {**two_state_config(), "horizont": 12})
    assert main(["sharpe", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "horizont" in capsys.readouterr().err


def test_missing_transition_key_exits_2_and_names_it(tmp_path, capsys):
    doc = two_state_config()
    del doc["market"]["transition"]
    cfg = write_config(tmp_path, doc)
    assert main(["stationary", "--config", cfg]) == 2
    assert "transition" in capsys.readouterr().err


def test_unknown_grid_key_exits_2(tmp_path, capsys):
    doc = single_state_config()
    doc["grid"] = {"xi_count": 5, "knots": 3}
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "knots" in capsys.readouterr().err


def test_manifest_for_other_command_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, two_state_config())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--paths", "50", "--seed", "1"]) == 0
    rc = main(["sharpe", "--config", str(out / "run.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "simulate" in capsys.readouterr().err


@pytest.mark.parametrize("command, market, code, line", [
    ("stationary", {"transition": [[0.9, 0.2], [0.1, 0.9]]}, 2,
     "configuration error: transition row 0 sums to 1.1, not 1\n"),
    ("implied-gamma", {"mean_return": [0.081, -0.02]}, 3,
     "numerical failure: no admissible risk aversion at n=0, state 1: "
     "closed form gives -1.1137"),
])
def test_error_lines_print_plain_numbers(tmp_path, capsys, command, market, code,
                                         line):
    # Both lines printed numpy scalar reprs, such as np.float64(1.1).
    cfg = two_state_config()
    cfg["market"].update(market)
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
    if command == "implied-gamma":
        argv += ["--horizon", "1"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1
    assert "np." not in err


def _documented_configs():
    """The example experiment config of docs/formats.md and the README's
    experiment.json, as (name, JSON text)."""
    formats = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = formats.split("## Experiment config", 1)[1]
    yield "formats", section.split("```json\n", 1)[1].split("```", 1)[0]
    yield "readme", readme.split("cat > experiment.json <<'EOF'\n", 1)[1].split(
        "\nEOF", 1)[0]


@pytest.mark.parametrize("name, text", list(_documented_configs()))
def test_the_documented_configs_hold_only_keys_the_code_reads(name, text):
    doc = json.loads(text)
    assert set(doc) <= cli._EXPERIMENT_KEYS
    assert set(doc["market"]) <= _MARKET_KEYS
    assert set(doc["risk_profile"]) <= _PROFILE_KEYS
    assert set(doc.get("grid", {})) <= {f.name for f in fields(GridSpec)}
    # and each section builds
    market_from_dict(doc["market"])
    profile_from_dict(doc["risk_profile"])
    GridSpec(**doc.get("grid", {}))


_ABSENT = object()


@pytest.mark.parametrize("key,value,name", [
    ("config", _ABSENT, "has no 'config'"),
    ("config", 5, "experiment config must be a mapping"),
    ("flags", 7, "stored simulate flag must be a mapping"),
    # a list of pairs, which dict() would take
    ("flags", [["paths", 100], ["seed", 1]], "stored simulate flag must be a mapping"),
])
def test_malformed_manifest_exits_2_in_one_line(tmp_path, key, value, name, capsys):
    doc = {"kind": "run_manifest", "command": "simulate",
           "config": two_state_config(), "flags": {"paths": 100, "seed": 1}}
    if value is _ABSENT:
        del doc[key]
    else:
        doc[key] = value
    out = tmp_path / "o"
    assert main(["simulate", "--config", write_config(tmp_path, doc, name="run.json"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert name in err
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


def test_market_section_takes_no_risk_profile_key(tmp_path, capsys):
    # load_market reads a combined market and risk_profile file; a config's
    # market section has no such exemption.
    market = {**two_state_config()["market"], "risk_profile": {"gamma0": "oops"}}
    cfg = write_config(tmp_path, {"market": market})
    out = tmp_path / "o"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: unknown market keys: ['risk_profile']\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["stationary", "sharpe"])
def test_non_finite_number_in_a_key_the_command_does_not_read_exits_2(tmp_path,
                                                                       command, capsys):
    # run.json echoes the whole config as strict JSON, so a NaN anywhere in
    # it is rejected, before any work.
    doc = two_state_config()
    doc["risk_profile"] = {"gamma0": 3.0, "gamma_bar": [1.0, float("nan")]}
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: config.risk_profile.gamma_bar[1] must be "
                   "finite, got nan\n")
    assert not out.exists()


# -- stationary ----------------------------------------------------------------


def test_stationary_prints_long_run_weights(tmp_path, capsys):
    cfg = write_config(tmp_path, {"market": two_state_config()["market"]})
    assert main(["stationary", "--config", cfg]) == 0
    assert capsys.readouterr().out.strip() == "0.666667, 0.333333"


def test_stationary_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, {"market": two_state_config()["market"]})
    out = tmp_path / "stat"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "stationary.csv").read_text().strip().split("\n")
    assert lines[0] == "state,probability"
    assert len(lines) == 3
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["kind"] == "run_manifest"
    assert manifest["command"] == "stationary"
    assert manifest["outputs"] == ["stationary.csv"]


# -- solve -----------------------------------------------------------------------


def test_solve_writes_policy_slices_and_records_no_flags(tmp_path):
    doc = single_state_config()
    doc["horizon"] = 4
    doc["grid"] = {"xi_count": 5, "quad_points": 12}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "pol"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0

    slices = sorted(p.name for p in out.glob("policy_*.csv"))
    assert slices == [f"policy_{n:04d}.csv" for n in range(4)]
    assert (out / "manifest.json").exists()

    tables = load_policy(out)
    assert tables.T == 4
    assert tables.grid.quad_points == 12

    manifest = json.loads((out / "run.json").read_text())
    assert manifest["flags"] == {}
    assert "policy.npz" in manifest["outputs"]
    assert (out / "policy.npz").exists()


@pytest.mark.parametrize("grid", [
    {"zsum_span_sd": float("nan")},
    {"xi_lo": 1.0, "xi_hi": float("inf")},
])
def test_solve_rejects_non_finite_grid_without_artifacts(tmp_path, grid, capsys):
    doc = single_state_config()
    doc["risk_profile"]["beta"] = 2.0
    doc["grid"] = grid
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "pol"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not list(out.glob("policy_*.csv"))


def test_solve_rejects_non_finite_result_without_artifacts(tmp_path, capsys):
    doc = single_state_config()
    doc["market"]["mean_return"] = [1e200]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "pol"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite") and err.count("\n") == 1
    assert "n=11" in err
    assert not list(out.glob("policy_*.csv"))


def _tamper(pol, how):
    store, manifest = pol / "policy.npz", pol / "manifest.json"
    if how == "missing_store":
        store.unlink()
    elif how == "flipped_byte":
        raw = bytearray(store.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        store.write_bytes(bytes(raw))
    elif how in ("wrong_shape", "changed_value"):
        with np.load(store) as z:
            tables = {name: z[name] for name in z.files}
        if how == "wrong_shape":
            tables["pi"] = tables["pi"][:-1]
        else:  # one ulp, saved as a valid archive
            tables["pi"].flat[0] = np.nextafter(tables["pi"].flat[0], np.inf)
        np.savez(store, **tables)
    else:
        doc = json.loads(manifest.read_text())
        if how == "edited_market":
            doc["market"]["mean_return"] = [0.11]
        elif how == "edited_horizon":
            doc["T"] = 3
        elif how == "edited_xi_clamped":
            assert doc["solve_clamps"]["xi_clamped"] > 0.0
            doc["solve_clamps"]["xi_clamped"] = 0.0
        elif how == "missing_format":  # as written before the xi coordinate
            del doc["format"]
        else:
            doc["tables_sha256"] = "0" * 64
        manifest.write_text(json.dumps(doc))


@pytest.mark.parametrize("tamper", [
    "changed_value", "edited_horizon", "edited_market", "edited_tables_digest",
    "edited_xi_clamped", "flipped_byte", "missing_format", "missing_store",
    "wrong_shape",
])
def test_simulate_rejects_tampered_policy_store(tmp_path, tamper, capsys):
    doc = single_state_config()
    doc["horizon"] = 4
    doc["grid"] = {"xi_count": 5, "quad_points": 8}
    pol = tmp_path / "pol"
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(pol)]) == 0
    _tamper(pol, tamper)
    capsys.readouterr()

    sim_cfg = write_config(tmp_path, {"policy_dir": str(pol)}, "sim.json")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--out", str(out),
                 "--paths", "100", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()
    if tamper in ("missing_format", "missing_store"):
        assert "re-run solve" in err
    if tamper == "missing_format":
        assert "unmarked policy store, not format 3" in err


def test_simulate_rejects_a_format_2_policy_store(tmp_path, capsys):
    # A format-2 store also holds V and digests it: it must fail on its
    # format, in one line, before --out is made, not on its digest.
    doc = single_state_config()
    doc["horizon"] = 3
    doc["grid"] = {"xi_count": 5, "quad_points": 4}
    pol = tmp_path / "pol"
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(pol)]) == 0
    store = pol / "policy.npz"
    with np.load(store) as z:
        tables = {name: z[name] for name in z.files}
    np.savez(store, **tables, V=np.zeros_like(tables["pi"]))
    manifest = json.loads((pol / "manifest.json").read_text())
    manifest["format"] = 2
    (pol / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()

    sim_cfg = write_config(tmp_path, {"policy_dir": str(pol)}, "sim.json")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--out", str(out),
                 "--paths", "100", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "a format-2 policy store, not format 3; re-run solve" in err
    assert not out.exists()


# -- simulate --------------------------------------------------------------------


def test_simulate_summary_histogram_and_dump(tmp_path):
    cfg = write_config(tmp_path, two_state_config())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--paths", "600", "--seed", "5", "--bins", "20",
                 "--dump-paths"]) == 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_paths"] == 600
    assert summary["seed"] == 5
    assert set(summary["total"]) == {
        "mean", "sd", "skewness", "kurtosis", "var90", "var95", "var99"}
    assert set(summary["annualized"]) == set(summary["total"])

    hist = (out / "histogram.csv").read_text().strip().split("\n")
    assert hist[0] == "bin_left,bin_right,count"
    assert len(hist) == 21
    assert sum(int(row.split(",")[2]) for row in hist[1:]) == 600

    returns = (out / "returns.csv").read_text().strip().split("\n")
    assert returns[0] == "total_return"
    assert len(returns) == 601
    mean = np.mean([float(r) for r in returns[1:]])
    assert mean == pytest.approx(summary["total"]["mean"], rel=1e-9)


def test_simulate_rerun_from_manifest_is_bit_exact(tmp_path):
    cfg = write_config(tmp_path, two_state_config())
    first, second = tmp_path / "a", tmp_path / "b"
    argv = ["simulate", "--config", cfg, "--out", str(first),
            "--paths", "400", "--seed", "17", "--dump-paths"]
    assert main(argv) == 0
    assert main(["simulate", "--config", str(first / "run.json"),
                 "--out", str(second)]) == 0
    for name in ("summary.json", "histogram.csv", "returns.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_simulate_from_policy_dir(tmp_path):
    doc = single_state_config()
    doc["horizon"] = 4
    doc["grid"] = {"xi_count": 5, "quad_points": 8}
    cfg = write_config(tmp_path, doc)
    pol = tmp_path / "pol"
    assert main(["solve", "--config", cfg, "--out", str(pol)]) == 0

    sim_cfg = write_config(tmp_path, {"policy_dir": str(pol)}, "sim.json")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--out", str(out),
                 "--paths", "300", "--seed", "9"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert np.isfinite(summary["total"]["mean"])


def test_solve_applies_and_stores_the_config_bounds(tmp_path):
    doc = single_state_config()
    doc["horizon"] = 4
    doc["grid"] = {"xi_count": 5, "quad_points": 4}
    free, bounded = tmp_path / "free", tmp_path / "bounded"
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(free)]) == 0
    doc["bounds"] = [0, 1]
    assert main(["solve", "--config", write_config(tmp_path, doc, "bounded.json"),
                 "--out", str(bounded)]) == 0

    manifest = json.loads((bounded / "manifest.json").read_text())
    assert manifest["bounds"] == [0, 1]
    free_sha = json.loads((free / "manifest.json").read_text())["params_sha256"]
    assert manifest["params_sha256"] != free_sha
    want = solve(market_from_dict(doc["market"]), profile_from_dict(doc["risk_profile"]),
                 4, GridSpec(xi_count=5, quad_points=4), bounds=(0, 1))
    back = load_policy(bounded)
    assert back.bounds == (0, 1)
    assert back.params_sha256 == want.params_sha256 == manifest["params_sha256"]
    for name in ("pi", "a", "b"):
        assert np.array_equal(getattr(back, name), getattr(want, name)), name
    assert back.pi.min() >= 0.0 and back.pi.max() <= 1.0
    assert load_policy(free).pi.max() > 1.0  # the bounds bind
    # A policy run may restate the stored pair.
    sim_cfg = write_config(tmp_path, {"policy_dir": str(bounded),
                                      "bounds": [0.0, 1.0]}, "sim.json")
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim"),
                 "--paths", "100", "--seed", "1"]) == 0


@pytest.mark.parametrize("extra", [
    {"strategy": {"pi_bar": 0.6, "delta": 0.0}},
    {"bounds": [0, 1]},
    # The policy's own market and profile, or malformed ones: never read.
    {"market": single_state_config()["market"]},
    {"risk_profile": single_state_config()["risk_profile"]},
    {"market": {"states": "x"}},
    {"risk_profile": {"gamma0": float("nan")}},
])
def test_simulate_from_policy_dir_rejects_a_strategy_or_other_bounds(tmp_path, extra,
                                                                     capsys):
    doc = single_state_config()
    doc["horizon"] = 3
    doc["grid"] = {"xi_count": 5, "quad_points": 4}
    pol = tmp_path / "pol"
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(pol)]) == 0
    capsys.readouterr()

    sim_cfg = write_config(tmp_path, {"policy_dir": str(pol), **extra}, "sim.json")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--out", str(out),
                 "--paths", "100", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not out.exists()


def test_regime_varying_gamma_bar_policy_solves_and_simulates_at_phi_3(tmp_path):
    doc = two_state_config()
    del doc["strategy"]
    doc["risk_profile"] = {"gamma0": 3.0, "p_eps": 0.05, "sigma_eps": 0.64,
                           "beta": 2.0, "phi": 3, "gamma_bar": [1.0, 1.5]}
    doc["horizon"] = 6
    doc["grid"] = {"xi_count": 7, "zsum_count": 5, "quad_points": 6}
    pol = tmp_path / "pol"
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(pol)]) == 0

    sim_cfg = write_config(tmp_path, {"policy_dir": str(pol)}, "sim.json")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--out", str(out),
                 "--paths", "300", "--seed", "9"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert all(np.isfinite(v) for v in summary["total"].values())


def test_simulate_rejects_nan_market_without_artifacts(tmp_path, capsys):
    doc = two_state_config()
    doc["market"]["mean_return"] = [0.081, float("nan")]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--paths", "100", "--seed", "1"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command,seed", [("simulate", "-5"), ("personalize", "-1")])
def test_negative_seed_exits_2_before_any_work(tmp_path, command, seed, capsys):
    doc = two_state_config()
    doc["risk_profile"] = {"gamma0": 3.0, "p_eps": 0.05, "sigma_eps": 0.64}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--paths", "100", "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: seed must be a non-negative integer")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", [-3, 2.5, "7", True])
def test_bad_stored_seed_exits_2(tmp_path, seed, capsys):
    cfg = write_config(tmp_path, two_state_config())
    first = tmp_path / "a"
    assert main(["simulate", "--config", cfg, "--out", str(first),
                 "--paths", "100", "--seed", "1"]) == 0
    manifest = json.loads((first / "run.json").read_text())
    manifest["flags"]["seed"] = seed
    rerun = write_config(tmp_path, manifest, name="run.json")
    out = tmp_path / "b"
    assert main(["simulate", "--config", rerun, "--out", str(out)]) == 2
    assert "non-negative integer" in capsys.readouterr().err
    assert not out.exists()


_SMALL_FLAGS = {
    "simulate": {"paths": 100, "seed": 1, "bins": 5, "threads": 1},
    "solve": {},
    "sharpe": {"steps": 3, "from": 0.1, "to": 0.3},
    "implied-gamma": {"horizon": 4},
    "personalize": {"paths": 100, "s_paths": 100, "seed": 1, "phi_range": "1:1"},
}


@pytest.mark.parametrize("command,section,key,value", [
    ("simulate", "flags", "bins", "x"),
    ("simulate", "flags", "paths", "100"),
    ("simulate", "flags", "paths", 100.5),
    ("simulate", "flags", "threads", 1.5),
    ("simulate", "config", "horizon", "x"),
    ("simulate", "config", "horizon", 12.7),
    ("simulate", "config", "y0", "x"),
    ("simulate", "config", "y0", 0.5),
    ("simulate", "config", "x0", "one"),
    ("simulate", "config", "bounds", [0.0, "x"]),
    ("simulate", "config", "bounds", [float("nan"), 1.0]),
    ("simulate", "config", "bounds", [0.0]),
    ("simulate", "config", "bounds", ["0", "1"]),
    ("simulate", "config", "bounds", [0.0, float("inf")]),
    ("simulate", "config", "bounds", [1.0, 0.0]),
    ("simulate", "config", "liquidate", "false"),
    ("simulate", "config", "liquidate", 0),
    ("simulate", "flags", "dump_paths", "false"),
    ("solve", "config", "bounds", [float("nan"), 1.0]),
    ("solve", "config", "bounds", [0.0]),
    ("solve", "config", "bounds", ["0", "1"]),
    ("solve", "config", "bounds", [0.0, float("inf")]),
    ("solve", "config", "bounds", [1.0, 0.0]),
    ("solve", "config", "horizon", True),
    ("solve", "config", "horizon", float("nan")),
    ("solve", "flags", "quad_points", "x"),
    ("sharpe", "flags", "steps", 2.5),
    ("sharpe", "flags", "from", "a"),
    ("sharpe", "flags", "to", float("inf")),
    ("sharpe", "flags", "sweep", "gamma"),
    ("implied-gamma", "flags", "horizon", "x"),
    ("implied-gamma", "flags", "horizon", 4.2),
    ("personalize", "config", "horizon", 12.7),
    ("personalize", "config", "y0", "x"),
    ("personalize", "config", "beta", "x"),
    ("personalize", "flags", "beta", float("nan")),
    ("personalize", "flags", "s_paths", "x"),
    ("personalize", "flags", "paths", float("inf")),
    ("personalize", "flags", "phi_range", 3),
])
def test_bad_number_in_config_or_stored_flags_exits_2(tmp_path, command, section,
                                                     key, value, capsys):
    cfg = two_state_config()
    cfg["horizon"] = 6
    cfg["risk_profile"] = {"gamma0": 3.0, "p_eps": 0.05, "sigma_eps": 0.64}
    cfg["grid"] = {"xi_count": 5, "zsum_count": 3}
    flags = dict(_SMALL_FLAGS[command])
    {"config": cfg, "flags": flags}[section][key] = value
    manifest = {"kind": "run_manifest", "command": command, "config": cfg,
                "flags": flags}
    path = write_config(tmp_path, manifest, name="run.json")
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not out.exists()


def _small_run_config() -> dict:
    cfg = two_state_config()
    cfg["horizon"] = 6
    cfg["risk_profile"] = {"gamma0": 3.0, "p_eps": 0.05, "sigma_eps": 0.64}
    cfg["grid"] = {"xi_count": 5, "zsum_count": 3}
    return cfg


@pytest.mark.parametrize("command,section,key,value", [
    ("solve", "risk_profile", "gamma0", "3"),
    ("solve", "risk_profile", "gamma_bar", "x"),
    ("solve", "risk_profile", "gamma_bar", [1.0, "x"]),
    ("solve", "risk_profile", "alpha", float("nan")),
    ("solve", "risk_profile", "phi", True),
    ("solve", "risk_profile", "phi", 1.5),
    ("solve", "grid", "xi_count", "41"),
    ("solve", "grid", "xi_count", 41.5),
    ("solve", "grid", "zsum_count", True),
    ("solve", "grid", "max_clamp_fraction", "x"),
    ("solve", "grid", "xi_lo", float("inf")),
    ("solve", "market", "steps_per_year", "12"),
    ("solve", "market", "steps_per_year", 12.5),
    ("solve", "market", "steps_per_year", True),
    ("solve", "market", "vol_return", ["a", "b"]),
    ("solve", "market", "risk_free", [0.0, True]),
    ("solve", "market", "mean_return", "0.1"),
    ("solve", "market", "transition", [[0.95, 0.05], [0.1]]),
    ("solve", "market", "states", True),
    ("simulate", "strategy", "pi_bar", "0.6"),
    ("simulate", "strategy", "delta", float("nan")),
    ("simulate", "market", "steps_per_year", "12"),
    ("personalize", "risk_profile", "phi", True),
    ("personalize", "grid", "quad_points", 4.5),
])
def test_bad_number_in_config_section_exits_2(tmp_path, command, section, key,
                                              value, capsys):
    # The market, risk_profile, grid and strategy sections follow the same
    # number rule as the top-level keys and the stored flags.
    cfg = _small_run_config()
    cfg[section][key] = value
    manifest = {"kind": "run_manifest", "command": command, "config": cfg,
                "flags": dict(_SMALL_FLAGS[command])}
    path = write_config(tmp_path, manifest, name="run.json")
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,argv,flags,config,name", [
    pytest.param("solve", ["--quad-points", "4"], {}, {}, "--quad-points",
                 id="solve-argv-quad-points"),
    pytest.param("implied-gamma", ["--pi-bar", "0.5"], {}, {}, "--pi-bar",
                 id="implied-gamma-argv-pi-bar"),
    pytest.param("implied-gamma", ["--delta", "0.3"], {}, {}, "--delta",
                 id="implied-gamma-argv-delta"),
    pytest.param("solve", [], {"quad_points": 4}, {}, "quad_points",
                 id="solve-flags-quad_points"),
    pytest.param("implied-gamma", [], {"pi_bar": 0.5}, {}, "pi_bar",
                 id="implied-gamma-flags-pi_bar"),
    pytest.param("implied-gamma", [], {"delta": 0.3}, {}, "delta",
                 id="implied-gamma-flags-delta"),
    pytest.param("personalize", [], {}, {"beta": 2.0}, "beta",
                 id="personalize-config-beta"),
])
def test_removed_flag_or_key_exits_2_in_one_line(tmp_path, command, argv, flags,
                                                 config, name, capsys):
    # Each value has one home; a second one, on the command line, among a
    # manifest's stored flags or as a top-level config key, is rejected
    # rather than quietly ignored.
    manifest = {"kind": "run_manifest", "command": command,
                "config": {**_small_run_config(), **config},
                "flags": {**_SMALL_FLAGS[command], **flags}}
    path = write_config(tmp_path, manifest, name="run.json")
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert name in err
    assert not out.exists()


@pytest.mark.parametrize("command,section,value", [
    ("sharpe", "strategy", 0.6),
    ("implied-gamma", "strategy", [0.6, 0.0]),
    ("simulate", "strategy", "pi_bar"),
    ("simulate", "strategy", {"delta": 0.1}),
    ("solve", "grid", [1, 2]),
    ("personalize", "grid", None),
    ("solve", "risk_profile", 3),
    ("personalize", "risk_profile", [3.0]),
    ("solve", "market", "two-state"),
    ("stationary", "market", [[0.95, 0.05], [0.10, 0.90]]),
])
def test_config_section_that_is_not_an_object_exits_2(tmp_path, command, section,
                                                      value, capsys):
    # A market, risk_profile, grid or strategy section is a JSON object, and
    # a simulate strategy names its pi_bar.
    cfg = _small_run_config()
    cfg[section] = value
    manifest = {"kind": "run_manifest", "command": command, "config": cfg,
                "flags": dict(_SMALL_FLAGS.get(command, {}))}
    path = write_config(tmp_path, manifest, name="run.json")
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert (section in err or "pi_bar" in err), err
    assert not out.exists()


@pytest.mark.parametrize("value", [3, 2.5, None, True, ["a"], {"path": "a"}])
def test_simulate_policy_dir_that_is_not_a_path_exits_2(tmp_path, value, capsys):
    cfg = write_config(tmp_path, {"policy_dir": value, "horizon": 3})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "200",
                 "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: policy_dir") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,name", [
    (["simulate", "--config", "CFG", "--out", "OUT", "--paths", "x"], "--paths"),
    (["simulate", "--config", "CFG", "--out", "OUT", "--seed", "1.5"], "--seed"),
    (["solve", "--config", "CFG"], "--out"),
    (["personalize", "--out", "OUT"], "--config"),
    (["sharpe", "--config", "CFG", "--out", "OUT", "--sweep", "gamma"], "--sweep"),
    (["stationary", "--config", "CFG", "--bins", "3"], "--bins"),
    (["rebalance"], "rebalance"),
    ([], "command"),
])
def test_usage_error_exits_2_in_one_line(tmp_path, argv, name, capsys):
    # argparse's own errors (a bad value, a missing required flag, an
    # unknown flag or command) are configuration errors like any other.
    cfg = write_config(tmp_path, _small_run_config())
    out = tmp_path / "o"
    argv = [{"CFG": cfg, "OUT": str(out)}.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert name in err
    assert not out.exists()


def test_manifest_flag_tables_match_the_parser():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(cli._FLAGS)
    for command, sp in sub.choices.items():
        dests = {a.dest for a in sp._actions} - {"help", "config", "out"}
        assert dests == cli._FLAGS[command], command


@pytest.mark.parametrize("command,argv,policy", [
    pytest.param("stationary", [], False, id="stationary-argv0"),
    pytest.param("solve", [], False, id="solve-argv1"),
    pytest.param("sharpe", ["--steps", "3"], False, id="sharpe-argv2"),
    pytest.param("implied-gamma", ["--horizon", "4"], False,
                 id="implied-gamma-argv3"),
    pytest.param("simulate", ["--paths", "100", "--seed", "1", "--bins", "5"],
                 False, id="simulate-fixed-mix"),
    pytest.param("simulate", ["--paths", "100", "--seed", "1"], True,
                 id="simulate-policy"),
    pytest.param("personalize", ["--phi-range", "1:2", "--paths", "100",
                                 "--s-paths", "100", "--seed", "1"], False,
                 id="personalize"),
])
def test_each_command_reruns_from_its_own_manifest(tmp_path, command, argv, policy):
    # The flags a command records are every flag it takes, and it takes
    # them back.
    doc = _small_run_config()
    if policy:
        pol = tmp_path / "pol"
        assert main(["solve", "--config", write_config(tmp_path, doc, "solve.json"),
                     "--out", str(pol)]) == 0
        doc = {"policy_dir": str(pol), "horizon": doc["horizon"]}
    cfg = write_config(tmp_path, doc)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(first), *argv]) == 0
    flags = json.loads((first / "run.json").read_text())["flags"]
    assert set(flags) == cli._FLAGS[command]
    assert main([command, "--config", str(first / "run.json"),
                 "--out", str(second)]) == 0
    for path in first.iterdir():
        assert path.read_bytes() == (second / path.name).read_bytes(), path.name


def test_integral_floats_in_config_sections_solve_as_ints(tmp_path):
    cfg = _small_run_config()
    cfg["grid"]["quad_points"] = 4
    ints = write_config(tmp_path, cfg, name="ints.json")
    cfg["market"]["steps_per_year"] = 12.0
    cfg["risk_profile"]["phi"] = 1.0
    cfg["grid"] = {"xi_count": 5.0, "zsum_count": 3.0, "quad_points": 4.0}
    floats = write_config(tmp_path, cfg, name="floats.json")
    for name, path in (("a", ints), ("b", floats)):
        assert main(["solve", "--config", path, "--out", str(tmp_path / name)]) == 0
    for name in ("manifest.json", "policy.npz"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_integral_float_numbers_are_accepted(tmp_path):
    cfg = two_state_config()
    cfg["horizon"] = 6.0
    cfg["y0"] = 1.0
    manifest = {"kind": "run_manifest", "command": "simulate", "config": cfg,
                "flags": {"paths": 100.0, "seed": 1, "bins": 5.0}}
    path = write_config(tmp_path, manifest, name="run.json")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0
    flags = json.loads((tmp_path / "o" / "run.json").read_text())["flags"]
    assert flags["paths"] == 100 and flags["bins"] == 5


def test_simulate_zero_bins_exits_2_without_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, two_state_config())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--paths", "100", "--seed", "1", "--bins", "0"]) == 2
    err = capsys.readouterr().err
    assert "--bins must be >= 1" in err and err.count("\n") == 1
    assert not out.exists()


def test_simulate_with_every_path_ruined_writes_a_null_annualized_block(tmp_path):
    doc = two_state_config()
    doc.update(strategy={"pi_bar": 40}, liquidate=True, horizon=120)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--paths", "1000", "--seed", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["annualized"] is None
    assert summary["annualized_excluded_paths"] == 1000
    assert all(math.isfinite(v) for v in summary["total"].values())


def test_simulate_constant_returns_write_null_shape_statistics(tmp_path):
    # pi_bar = 1e-300 in a riskless market: every path returns exactly 0, so
    # skewness and kurtosis are undefined, and summary.json is strict JSON.
    doc = single_state_config()
    del doc["risk_profile"]
    doc["strategy"] = {"pi_bar": 1e-300}
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(out), "--paths", "100", "--seed", "1"]) == 0

    def strict(token):
        raise ValueError(f"bare {token} in summary.json")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
    for block in ("total", "annualized"):
        assert summary[block]["sd"] == 0.0
        assert summary[block]["skewness"] is None
        assert summary[block]["kurtosis"] is None


def test_json_artifacts_never_hold_a_bare_nan(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "x.json", {"mean": math.inf})
    assert not (tmp_path / "x.json").exists()


def test_simulate_fewer_than_two_paths_exits_2_before_simulating(tmp_path, monkeypatch,
                                                                capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(cli, "simulate", unreachable)
    cfg = write_config(tmp_path, two_state_config())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--paths", "1", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "--paths must be >= 2" in err and err.count("\n") == 1
    assert not out.exists()


def test_simulate_overflowing_wealth_exits_3_without_warnings(tmp_path, capsys):
    # A warning from the wealth recursion, raised as an error here, would
    # surface as an internal error rather than a numerical failure.
    doc = two_state_config()
    doc.update(strategy={"pi_bar": 1e200}, horizon=120)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sim"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--paths", "1000", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "not finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_unseeded_run_records_entropy(tmp_path):
    cfg = write_config(tmp_path, two_state_config())
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(first),
                 "--paths", "200"]) == 0
    seed = json.loads((first / "run.json").read_text())["flags"]["seed"]
    assert isinstance(seed, int)
    assert main(["simulate", "--config", str(first / "run.json"),
                 "--out", str(second)]) == 0
    assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()


# -- threads resolution ---------------------------------------------------------


def test_thread_count_does_not_change_the_summary(tmp_path):
    cfg = write_config(tmp_path, two_state_config())
    for threads in ("3", "1"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / threads),
                     "--paths", "300", "--seed", "2", "--threads", threads]) == 0
    assert ((tmp_path / "3" / "summary.json").read_bytes()
            == (tmp_path / "1" / "summary.json").read_bytes())


def test_threads_zero_means_auto(tmp_path):
    cfg = write_config(tmp_path, two_state_config())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--paths", "300", "--seed", "2", "--threads", "0"]) == 0


# -- sharpe ----------------------------------------------------------------------


def test_sharpe_delta_sweep_matches_direct_evaluation(tmp_path):
    cfg = write_config(tmp_path, two_state_config())
    out = tmp_path / "sweep"
    assert main(["sharpe", "--config", cfg, "--out", str(out),
                 "--sweep", "delta", "--from", "-0.5", "--to", "0.5",
                 "--steps", "21"]) == 0
    lines = (out / "sharpe.csv").read_text().strip().split("\n")
    assert lines[0] == "sweep_var,value,sharpe_annualized"
    assert len(lines) == 22

    market = market_from_dict(two_state_config()["market"])
    for row in (lines[1], lines[11], lines[21]):
        var, value, got = row.split(",")
        assert var == "delta"
        strat = CycleStrategy(pi_bar=0.6, delta=float(value))
        want = annualize_sharpe(
            sharpe_general(strat.allocations(2), market), 12)
        assert float(got) == pytest.approx(want, rel=1e-10)
    assert float(lines[11].split(",")[1]) == 0.0


@pytest.mark.parametrize("flag,value", [("--to", "inf"), ("--from", "-inf"),
                                        ("--to", "nan")])
def test_sharpe_rejects_non_finite_bounds(tmp_path, flag, value, capsys):
    cfg = write_config(tmp_path, two_state_config())
    out = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would exit 3 here
        assert main(["sharpe", "--config", cfg, "--out", str(out),
                     f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert "--from and --to must be finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_sharpe_pi_bar_sweep_is_flat_in_single_state(tmp_path):
    doc = single_state_config()
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sharpe", "--config", cfg, "--out", str(out),
                 "--sweep", "pi_bar", "--from", "0.2", "--to", "1.0",
                 "--steps", "5"]) == 0
    rows = (out / "sharpe.csv").read_text().strip().split("\n")[1:]
    values = {row.split(",")[2] for row in rows}
    assert len(rows) == 5
    assert len(values) == 1  # leverage scales mean and sd together


# -- implied-gamma ----------------------------------------------------------------


def test_implied_gamma_rows_match_module(tmp_path):
    doc = two_state_config()
    doc["strategy"]["delta"] = 0.3
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "ig"
    assert main(["implied-gamma", "--config", cfg, "--out", str(out),
                 "--horizon", "6"]) == 0
    lines = (out / "implied_gamma.csv").read_text().strip().split("\n")
    assert lines[0] == "n,regime,gamma"
    assert len(lines) == 1 + 6 * 2

    market = market_from_dict(two_state_config()["market"])
    want = implied_gamma(0.6, 0.3, market, 6)
    for row in lines[1:]:
        n, y, g = row.split(",")
        assert float(g) == pytest.approx(want[int(n), int(y)], rel=1e-10)


def test_implied_gamma_without_admissible_value_exits_3(tmp_path, capsys):
    doc = two_state_config()
    doc["market"]["mean_return"] = [0.081, -0.02]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "ig"
    assert main(["implied-gamma", "--config", cfg, "--out", str(out),
                 "--horizon", "1"]) == 3
    assert "no admissible risk aversion" in capsys.readouterr().err
    assert not (out / "implied_gamma.csv").exists()


# -- personalize ------------------------------------------------------------------


def test_personalize_csv_and_manifest_roundtrip(tmp_path):
    doc = single_state_config()
    doc["risk_profile"]["beta"] = 2.0
    doc["grid"] = {"xi_count": 7, "quad_points": 8}
    cfg = write_config(tmp_path, doc)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["personalize", "--config", cfg, "--out", str(first),
                 "--phi-range", "1:3", "--paths", "800", "--s-paths", "200",
                 "--seed", "3"]) == 0

    lines = (first / "personalize.csv").read_text().strip().split("\n")
    assert lines[0] == "phi,R,R_se,R_tilde,S,S_se"
    assert len(lines) == 4
    for row, phi in zip(lines[1:], (1, 2, 3)):
        cells = [float(c) for c in row.split(",")]
        assert cells[0] == phi
        want = r_tilde(phi, 2.0, 0.20 / np.sqrt(12), 0.05, 0.64)
        assert cells[3] == pytest.approx(want, rel=1e-10)
        assert cells[1] > 0 and cells[4] > 0

    assert main(["personalize", "--config", str(first / "run.json"),
                 "--out", str(second)]) == 0
    assert (first / "personalize.csv").read_bytes() == (second / "personalize.csv").read_bytes()


def test_personalize_solves_full_information_policy_once(tmp_path, monkeypatch):
    import robo_mv.personalization as personalization

    calls = []

    def counting(solver):
        def counted(*args, **kwargs):
            calls.append(args[1].phi)
            return solver(*args, **kwargs)
        return counted

    # s_measure runs the advisor's backward induction itself; the
    # full-information policy is solved by solve.
    for name in ("solve", "_backward_steps"):
        monkeypatch.setattr(personalization, name,
                            counting(getattr(personalization, name)))
    doc = single_state_config()
    doc["horizon"] = 6
    doc["grid"] = {"xi_count": 7, "quad_points": 8}
    cfg = write_config(tmp_path, doc)
    argv = ["personalize", "--config", cfg, "--phi-range", "1:3", "--beta", "2",
            "--paths", "200", "--s-paths", "200", "--seed", "5"]
    assert main(argv + ["--out", str(tmp_path / "once")]) == 0
    assert sorted(calls) == [1, 1, 2, 3]

    # Without the shared policy, s_measure solves it for every phi; the CSV
    # must not change.
    calls.clear()
    monkeypatch.setattr(cli, "full_information_policy", lambda *args: None)
    assert main(argv + ["--out", str(tmp_path / "each")]) == 0
    assert sorted(calls) == [1, 1, 1, 1, 2, 3]
    assert ((tmp_path / "once" / "personalize.csv").read_bytes()
            == (tmp_path / "each" / "personalize.csv").read_bytes())


class _SerialPool:
    """A stand-in for ThreadPoolExecutor that runs each job when it is
    submitted, on the calling thread: the serial order R, then S."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        job = Future()
        try:
            job.set_result(fn(*args, **kwargs))
        except Exception as exc:
            job.set_exception(exc)
        return job


def _personalize_argv(tmp_path):
    doc = two_state_config()
    del doc["strategy"]
    doc["risk_profile"] = {"gamma0": 3.0, "p_eps": 0.05, "sigma_eps": 0.64}
    doc["horizon"] = 6
    doc["grid"] = {"xi_count": 7, "zsum_count": 5, "quad_points": 5}
    return ["personalize", "--config", write_config(tmp_path, doc), "--phi-range",
            "1:3", "--beta", "2", "--paths", "300", "--s-paths", "200", "--seed", "9"]


def test_personalize_overlap_writes_the_serial_bytes(tmp_path, monkeypatch):
    # R runs beside S on a worker thread; the artifacts are those of the
    # serial order, and no thread is left behind.
    argv = _personalize_argv(tmp_path)
    before = threading.active_count()
    assert main(argv + ["--out", str(tmp_path / "overlap")]) == 0
    assert threading.active_count() == before
    monkeypatch.setattr(cli, "ThreadPoolExecutor", _SerialPool)
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    for name in ("personalize.csv", "run.json"):
        assert ((tmp_path / "overlap" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes()), name
    assert len((tmp_path / "serial" / "personalize.csv").read_text().split("\n")) == 5


@pytest.mark.parametrize("faulty", [("R",), ("S",), ("R", "S")])
def test_personalize_overlap_reports_the_serial_error(tmp_path, monkeypatch, capsys,
                                                      faulty):
    # A fault at phi = 2, after phi = 1 succeeded: the exit code and the one
    # line of the serial order (R before S), no output directory, and no
    # thread left behind.
    def failing(measure, exc):
        def run(market, profile, *args, **kwargs):
            if profile.phi == 2:
                raise exc
            return measure(market, profile, *args, **kwargs)
        return run

    if "R" in faulty:
        monkeypatch.setattr(cli, "r_measure",
                            failing(cli.r_measure, NumericalError("R failed")))
    if "S" in faulty:
        monkeypatch.setattr(cli, "s_measure",
                            failing(cli.s_measure, ConfigError("S failed")))
    argv = _personalize_argv(tmp_path)
    results = {}
    for mode in ("overlap", "serial"):
        if mode == "serial":
            monkeypatch.setattr(cli, "ThreadPoolExecutor", _SerialPool)
        before = threading.active_count()
        out = tmp_path / mode
        code = main(argv + ["--out", str(out)])
        assert threading.active_count() == before
        assert not out.exists()
        results[mode] = (code, capsys.readouterr().err)
    assert results["overlap"] == results["serial"]
    code, err = results["overlap"]
    want = ((3, "numerical failure: R failed\n") if "R" in faulty
            else (2, "configuration error: S failed\n"))
    assert (code, err) == want


def test_personalize_checks_both_measures_before_any_work(tmp_path, monkeypatch,
                                                          capsys):
    import robo_mv.personalization as personalization

    def no_work(*args, **kwargs):
        raise AssertionError("sampled or solved before checking the inputs")

    for name in ("_client_blocks", "_client_steps", "_backward_steps", "solve"):
        monkeypatch.setattr(personalization, name, no_work)
    argv = _personalize_argv(tmp_path)
    before = threading.active_count()
    for flag, value in (("--s-paths", "99"), ("--paths", "50")):
        out = tmp_path / flag.strip("-")
        i = argv.index(flag)
        assert main(argv[:i + 1] + [value] + argv[i + 2:] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: need at least 100 paths")
        assert not out.exists()
    assert threading.active_count() == before


def test_personalize_with_regime_varying_gamma_bar_reaches_phi_3(tmp_path):
    doc = two_state_config()
    del doc["strategy"]
    doc["risk_profile"] = {"gamma0": 3.0, "p_eps": 0.05, "sigma_eps": 0.64,
                           "gamma_bar": [1.0, 1.5]}
    doc["horizon"] = 6
    doc["grid"] = {"xi_count": 7, "zsum_count": 5, "quad_points": 6}
    out = tmp_path / "o"
    assert main(["personalize", "--config", write_config(tmp_path, doc),
                 "--out", str(out), "--phi-range", "1:3", "--beta", "2",
                 "--paths", "200", "--s-paths", "200", "--seed", "4"]) == 0
    lines = (out / "personalize.csv").read_text().strip().split("\n")
    assert len(lines) == 4
    assert all(math.isfinite(float(c)) for row in lines[1:] for c in row.split(","))


@pytest.mark.parametrize("text", ["3", "0:4", "5:2", "a:b"])
def test_personalize_rejects_bad_phi_range(tmp_path, text, capsys):
    doc = single_state_config()
    cfg = write_config(tmp_path, doc)
    assert main(["personalize", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--phi-range", text, "--paths", "100", "--s-paths", "100"]) == 2
    assert "phi-range" in capsys.readouterr().err


@pytest.mark.parametrize("y0", [2, -1])
def test_personalize_rejects_unknown_start_regime(tmp_path, y0, capsys):
    doc = two_state_config()
    del doc["strategy"]
    doc["risk_profile"] = {"gamma0": 3.0, "p_eps": 0.05, "sigma_eps": 0.64}
    doc["horizon"] = 6
    doc["y0"] = y0
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["personalize", "--config", cfg, "--out", str(out),
                 "--phi-range", "1:2", "--paths", "100", "--s-paths", "100"]) == 2
    err = capsys.readouterr().err
    assert f"y0={y0}" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "personalize.csv").exists()


# -- property tests at the CLI boundary ----------------------------------------


@st.composite
def _markets(draw):
    """A valid market section with 1-3 regimes."""
    M = draw(st.integers(1, 3))
    rows = [draw(st.lists(st.floats(0.05, 1.0), min_size=M, max_size=M))
            for _ in range(M)]
    unit = st.floats(0.0, 1.0)
    return {
        "states": M,
        "transition": [[v / sum(row) for v in row] for row in rows],
        "risk_free": [0.05 * draw(unit) for _ in range(M)],
        "mean_return": [0.2 * draw(unit) for _ in range(M)],
        "vol_return": [0.05 + 0.35 * draw(unit) for _ in range(M)],
        "steps_per_year": draw(st.sampled_from([1, 4, 12, 52])),
    }


@st.composite
def _fixed_mix_configs(draw):
    """A valid fixed-mix config on a random 1-3-regime market."""
    market = draw(_markets())
    M = market["states"]
    return {
        "market": market,
        "strategy": {"pi_bar": draw(st.floats(0.05, 2.0)),
                     "delta": draw(st.floats(-0.5, 0.5))},
        "horizon": draw(st.integers(1, 24)),
        "y0": draw(st.integers(0, M - 1)),
        "liquidate": draw(st.booleans()),
    }


@st.composite
def _solve_configs(draw):
    """A valid solve config on a random 1-3-regime market, with a small grid."""
    unit = st.floats(0.0, 1.0)
    return {
        "market": draw(_markets()),
        "risk_profile": {
            "gamma0": 1.0 + 5.0 * draw(unit),
            "alpha": 0.05 * draw(unit),
            "p_eps": 0.2 * draw(unit),
            "sigma_eps": 0.1 + 0.9 * draw(unit),
            "beta": 3.0 * draw(unit),
            "phi": draw(st.integers(1, 3)),
        },
        "horizon": draw(st.integers(1, 4)),
        "grid": {"xi_count": draw(st.integers(3, 5)), "zsum_count": 3,
                 "quad_points": draw(st.integers(2, 4))},
    }


# The config sections and keys each command reads, and the keys that are counts.
_READS = {
    "stationary": ("market",),
    "sharpe": ("market", "strategy"),
    "simulate": ("market", "strategy", "horizon", "y0", "liquidate"),
}
# implied-gamma reads a fixed-mix config too; solve reads a _solve_configs one
_POLICY_READS = {
    "implied-gamma": ("market", "strategy", "horizon"),
    "solve": ("market", "risk_profile", "horizon", "grid"),
}
# personalize reads a _personalize_configs one; a policy simulate config holds
# the keys of _READS["simulate"] that are not the policy's
_PERSONALIZE_READS = ("market", "risk_profile", "horizon", "grid", "y0")
_COUNTS = {"states", "steps_per_year", "horizon", "y0", "phi", "xi_count",
           "zsum_count", "quad_points"}


def _leaves(doc, command):
    """The key path of every scalar leaf of `doc` that `command` reads."""
    out = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, path + (i,))
        else:
            out.append(path)

    reads = {**_READS, **_POLICY_READS, "personalize": _PERSONALIZE_READS}[command]
    for key in reads:
        if key in doc:
            walk(doc[key], (key,))
    return out


def _run_cli(argv):
    """main(argv) with its stdout and stderr captured: (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _argv(command, cfg, out):
    extra = {"stationary": [], "sharpe": ["--steps", "5"],
             "simulate": ["--paths", "40", "--seed", "3", "--bins", "4"],
             "implied-gamma": [], "solve": [],
             "personalize": ["--phi-range", "1:3", "--paths", "100",
                             "--s-paths", "100", "--seed", "3"]}[command]
    return [command, "--config", cfg, "--out", out] + extra


def _assert_finite_numbers(value, key=None):
    """Every number of a written JSON document is finite, and the only nulls
    are those the docs allow: simulate's `annualized` block, the shape
    statistics of a constant sample, and a policy store's absent `bounds`."""
    if isinstance(value, dict):
        for k, item in value.items():
            if item is None and k in ("skewness", "kurtosis"):
                assert value["sd"] == 0, value
                continue
            _assert_finite_numbers(item, k)
    elif isinstance(value, list):
        for item in value:
            _assert_finite_numbers(item, key)
    elif value is None:
        assert key in ("annualized", "bounds"), key
    elif isinstance(value, float):
        assert math.isfinite(value)


def _assert_finite_outputs(out: Path) -> None:
    """The numbers of every JSON and CSV file in out are finite."""
    for path in out.iterdir():
        if path.suffix == ".json":
            _assert_finite_numbers(json.loads(path.read_text()))
        elif path.suffix == ".csv":
            for row in csv.reader(path.read_text().splitlines()[1:]):
                for cell in row:
                    try:
                        number = float(cell)
                    except ValueError:
                        continue  # a label such as the sweep variable
                    assert math.isfinite(number)


@settings(max_examples=100, deadline=None)
@given(_fixed_mix_configs(), st.sampled_from(sorted(_READS)))
def test_valid_fixed_mix_configs_exit_0_with_finite_outputs(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        out = Path(tmp) / "out"
        assert _run_cli(_argv(command, cfg, str(out))) == (0, "")
        _assert_finite_outputs(out)


def _policy_config(data, command):
    return data.draw(_solve_configs() if command == "solve" else _fixed_mix_configs())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_POLICY_READS)), st.data())
def test_valid_solve_and_implied_gamma_configs_exit_0_or_fail_numerically(command,
                                                                         data):
    # A valid config may still have no answer (no admissible risk aversion,
    # too much mass clamped at the grid's edge): that is one exit-3 line,
    # and nothing is written.
    doc = _policy_config(data, command)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        out = Path(tmp) / "out"
        code, err = _run_cli(_argv(command, cfg, str(out)))
        if code == 0:
            assert err == ""
            _assert_finite_outputs(out)
        else:
            assert code == 3, err
            assert err.startswith("numerical failure:") and err.count("\n") == 1
            assert "np." not in err
            assert os.listdir(tmp) == ["config.json"]


@settings(max_examples=200, deadline=None)
@given(_fixed_mix_configs(), st.sampled_from(sorted(_READS)), st.data())
def test_a_bad_config_leaf_exits_2_with_one_line_and_no_output(doc, command, data):
    _assert_bad_leaf_exits_2(doc, command, data)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_POLICY_READS)), st.data())
def test_a_bad_solve_or_implied_gamma_leaf_exits_2_and_writes_nothing(command, data):
    _assert_bad_leaf_exits_2(_policy_config(data, command), command, data)


def _assert_bad_leaf_exits_2(doc, command, data):
    """Replace one leaf that command reads with a bad value: exit 2 with one
    line, and the directory holds the config alone (no --out, no staging)."""
    path = data.draw(st.sampled_from(_leaves(doc, command)))
    kinds = ["a string", math.nan, math.inf, -math.inf]
    if path[-1] != "liquidate":  # a bool is the valid kind of that leaf
        kinds.append(True)
    if path[-1] in _COUNTS:
        kinds.append(1.5)
    bad = data.draw(st.sampled_from(kinds))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        out = Path(tmp) / "out"
        code, err = _run_cli(_argv(command, cfg, str(out)))
        assert code == 2, err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "np." not in err
        assert os.listdir(tmp) == ["config.json"]


@st.composite
def _personalize_configs(draw):
    """A _solve_configs config with a start regime."""
    doc = draw(_solve_configs())
    doc["y0"] = draw(st.integers(0, doc["market"]["states"] - 1))
    return doc


def _assert_exit_0_or_numerical_failure(tmp, argv):
    """A valid run exits 0 with finite outputs, or 3 in one line with
    nothing written beside the configs of tmp."""
    code, err = _run_cli(argv)
    if code == 0:
        assert err == ""
        _assert_finite_outputs(Path(tmp) / "out")
    else:
        assert code == 3, err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "np." not in err
        assert os.listdir(tmp) == ["config.json"]


@settings(max_examples=40, deadline=None)
@given(_personalize_configs(), st.data())
def test_valid_personalize_configs_exit_0_or_fail_numerically(doc, data):
    lo = data.draw(st.integers(1, 3))
    hi = data.draw(st.integers(lo, 3))
    paths = [str(data.draw(st.integers(100, 200))) for _ in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        _assert_exit_0_or_numerical_failure(tmp, [
            "personalize", "--config", cfg, "--out", str(Path(tmp) / "out"),
            "--phi-range", f"{lo}:{hi}", "--paths", paths[0],
            "--s-paths", paths[1], "--seed", "3"])


@settings(max_examples=40, deadline=None)
@given(_personalize_configs(), st.data())
def test_a_bad_personalize_leaf_exits_2_and_writes_nothing(doc, data):
    _assert_bad_leaf_exits_2(doc, "personalize", data)


@contextlib.contextmanager
def _policy_simulate_config(data):
    """A simulate config for the policy solved, in a directory of its own,
    from a drawn _solve_configs config whose clamp cap lets most solves
    succeed."""
    doc = data.draw(_solve_configs())
    doc["grid"]["max_clamp_fraction"] = 0.99
    with tempfile.TemporaryDirectory() as tmp:
        policy_dir = Path(tmp) / "pol"
        code, _ = _run_cli(["solve", "--config", write_config(Path(tmp), doc),
                            "--out", str(policy_dir)])
        assume(code == 0)
        yield {"policy_dir": str(policy_dir),
               "horizon": data.draw(st.integers(1, doc["horizon"])),
               "y0": data.draw(st.integers(0, doc["market"]["states"] - 1)),
               "liquidate": data.draw(st.booleans())}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_valid_policy_simulate_configs_exit_0_or_fail_numerically(data):
    paths = str(data.draw(st.integers(100, 200)))
    with _policy_simulate_config(data) as doc, tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        _assert_exit_0_or_numerical_failure(tmp, [
            "simulate", "--config", cfg, "--out", str(Path(tmp) / "out"),
            "--paths", paths, "--seed", "3"])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_bad_policy_simulate_leaf_exits_2_and_writes_nothing(data):
    with _policy_simulate_config(data) as doc:
        _assert_bad_leaf_exits_2(doc, "simulate", data)


# -- error mapping ----------------------------------------------------------------


def test_numerical_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    def boom(rules, market):
        raise DegenerateVariance("zero variance in every regime")

    monkeypatch.setattr(cli, "sharpe_sweep", boom)
    cfg = write_config(tmp_path, two_state_config())
    assert main(["sharpe", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_unexpected_exception_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    def boom(args):
        raise IndexError("index 7 is out of bounds\nfor axis 0")

    monkeypatch.setattr(cli, "cmd_stationary", boom)
    cfg = write_config(tmp_path, {"market": two_state_config()["market"]})
    assert main(["stationary", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: IndexError: index 7 is out of bounds for axis 0\n"


def test_out_path_collision_exits_4(tmp_path):
    cfg = write_config(tmp_path, {"market": two_state_config()["market"]})
    blocker = tmp_path / "occupied"
    blocker.write_text("file, not a directory")
    assert main(["stationary", "--config", cfg, "--out", str(blocker)]) == 4
    # no staging directory is left beside it
    assert sorted(os.listdir(tmp_path)) == ["config.json", "occupied"]
    assert blocker.read_text() == "file, not a directory"


# -- the run directory -----------------------------------------------------------


def test_a_run_reaches_out_whole_and_prints_its_path(tmp_path, capsys):
    doc = single_state_config()
    doc["horizon"] = 3
    doc["grid"] = {"xi_count": 5, "quad_points": 4}
    out = tmp_path / "nested" / "pol"
    assert main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 3 policy slices to {out}\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "nested"]
    assert os.listdir(tmp_path / "nested") == ["pol"]  # no staging directory
    written = sorted(os.listdir(out))
    written.remove("run.json")
    assert json.loads((out / "run.json").read_text())["outputs"] == written


@pytest.mark.parametrize("earlier", [None, "summary.json", "returns.csv"])
def test_a_failed_write_leaves_out_as_it_was(tmp_path, monkeypatch, capsys, earlier):
    # The histogram write fails after summary.json is written: exit 4 in one
    # line, no staging directory left, and --out absent or unchanged.
    def failing(path, header, rows):
        assert (path.parent / "summary.json").exists()
        raise OSError(28, "No space left on device")

    cfg = write_config(tmp_path, two_state_config())
    out = tmp_path / "sim"
    if earlier is not None:
        out.mkdir()
        (out / earlier).write_text("an earlier run\n")
    monkeypatch.setattr(cli, "_write_csv", failing)
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--paths", "100", "--seed", "1"]) == 4
    err = capsys.readouterr().err
    assert err == "i/o error: [Errno 28] No space left on device\n"
    if earlier is None:
        assert sorted(os.listdir(tmp_path)) == ["config.json"]
    else:
        assert sorted(os.listdir(tmp_path)) == ["config.json", "sim"]
        assert os.listdir(out) == [earlier]
        assert (out / earlier).read_text() == "an earlier run\n"


def test_a_directory_named_like_an_artifact_fails_before_any_move(tmp_path, capsys):
    # summary.json cannot replace a directory: no other file may reach --out
    # before that is found.
    cfg = write_config(tmp_path, two_state_config())
    out = tmp_path / "sim"
    (out / "summary.json").mkdir(parents=True)
    assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "100",
                 "--seed", "1", "--dump-paths"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""  # no success line for a run that failed
    err = captured.err
    assert err == f"i/o error: {out / 'summary.json'} is a directory, not a file\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "sim"]
    assert os.listdir(out) == ["summary.json"]
    assert os.listdir(out / "summary.json") == []


@pytest.mark.parametrize("command", sorted(cli._FLAGS))
def test_an_empty_out_exits_2_before_any_work(tmp_path, monkeypatch, command, capsys):
    # An empty --out names neither the current directory nor no directory.
    def unreachable(*args):
        raise AssertionError("the config was read")

    cfg = write_config(tmp_path, _small_run_config())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_load_config", unreachable)
    assert main([command, "--config", cfg, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: --out must name a directory, got ''\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_version_flag_reports_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "robo-mv" in capsys.readouterr().out


def _child_env() -> dict:
    # the child imports the same robo_mv as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "robo_mv.cli", "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_cli_import_path_loads_no_scipy(tmp_path):
    # A fresh interpreter: the runtime needs numpy alone, so neither a
    # command nor phi_star may import scipy.
    cfg = write_config(tmp_path, two_state_config())
    child = f"""
import json, sys
import robo_mv, robo_mv.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert robo_mv.cli.main(["stationary", "--config", {cfg!r}]) == 0
loaded = scipy_modules()
res = robo_mv.phi_star(2.0, {SIGMA0!r}, 0.05, 0.64)
print(json.dumps({{"scipy": loaded, "scipy_after_phi_star": scipy_modules(),
                  "phi": res.phi, "phi_int": res.phi_int}}))
"""
    proc = subprocess.run([sys.executable, "-c", child],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    first, last = proc.stdout.strip().split("\n")
    assert first == "0.666667, 0.333333"
    got = json.loads(last)
    assert got["scipy"] == [] and got["scipy_after_phi_star"] == []
    assert got["phi"] == phi_star(2.0, SIGMA0, 0.05, 0.64).phi
    assert got["phi"] == pytest.approx(2.4829, abs=1e-3)
    assert got["phi_int"] == 3
