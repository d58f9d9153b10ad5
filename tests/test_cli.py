"""End-to-end checks of the command-line interface via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robo_mv.cli as cli
from robo_mv.cli import main
from robo_mv.cycle_analytics import CycleStrategy, annualize_sharpe, implied_gamma, sharpe_general
from robo_mv.errors import DegenerateVariance
from robo_mv.market import market_from_dict
from robo_mv.personalization import r_tilde
from robo_mv.solver import load_policy


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


def test_solve_writes_policy_slices_and_records_flags(tmp_path):
    doc = single_state_config()
    doc["horizon"] = 4
    doc["grid"] = {"xi_count": 5, "quad_points": 8}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "pol"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--quad-points", "12"]) == 0

    slices = sorted(p.name for p in out.glob("policy_*.csv"))
    assert slices == [f"policy_{n:04d}.csv" for n in range(4)]
    assert (out / "manifest.json").exists()

    tables = load_policy(out)
    assert tables.T == 4
    assert tables.grid.quad_points == 12  # flag beats the config value

    manifest = json.loads((out / "run.json").read_text())
    assert manifest["flags"] == {"quad_points": 12}
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
        else:
            doc["tables_sha256"] = "0" * 64
        manifest.write_text(json.dumps(doc))


@pytest.mark.parametrize("tamper", [
    "changed_value", "edited_horizon", "edited_market", "edited_tables_digest",
    "edited_xi_clamped", "flipped_byte", "missing_store", "wrong_shape",
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
    if tamper == "missing_store":
        assert "re-run solve" in err


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


def test_simulate_rejects_nan_market_without_artifacts(tmp_path, capsys):
    doc = two_state_config()
    doc["market"]["mean_return"] = [0.081, float("nan")]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--paths", "100", "--seed", "1"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


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


def test_threads_env_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, two_state_config())
    monkeypatch.setenv("ROBO_MV_THREADS", "3")
    out_env = tmp_path / "env"
    assert main(["simulate", "--config", cfg, "--out", str(out_env),
                 "--paths", "300", "--seed", "2"]) == 0
    monkeypatch.delenv("ROBO_MV_THREADS")
    out_one = tmp_path / "one"
    assert main(["simulate", "--config", cfg, "--out", str(out_one),
                 "--paths", "300", "--seed", "2", "--threads", "1"]) == 0
    assert (out_env / "summary.json").read_bytes() == (out_one / "summary.json").read_bytes()


def test_threads_env_must_be_integer(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, two_state_config())
    monkeypatch.setenv("ROBO_MV_THREADS", "many")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--paths", "50"]) == 2
    assert "ROBO_MV_THREADS" in capsys.readouterr().err


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
    cfg = write_config(tmp_path, two_state_config())
    out = tmp_path / "ig"
    assert main(["implied-gamma", "--config", cfg, "--out", str(out),
                 "--horizon", "6", "--delta", "0.3"]) == 0
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
    doc["beta"] = 2.0
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
    solve = personalization.solve

    def counting_solve(*args, **kwargs):
        calls.append(args[1].phi)
        return solve(*args, **kwargs)

    monkeypatch.setattr(personalization, "solve", counting_solve)
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


# -- error mapping ----------------------------------------------------------------


def test_numerical_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    def boom(allocations, market):
        raise DegenerateVariance("zero variance in every regime")

    monkeypatch.setattr(cli, "sharpe_general", boom)
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


def test_version_flag_reports_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "robo-mv" in capsys.readouterr().out


def test_console_script_is_installed():
    # the child imports the same robo_mv as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "robo_mv.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
