import ast
import contextlib
import csv
import dataclasses
import gc
import json
import re
import shutil
import subprocess
import sys
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantfolio import (
    GaConfig, QaoaConfig, QuboParams, angular_distance, cli, ledoit_wolf,
    load_csv, minvar, run_grid, synth_panel, to_returns, walk_forward, write_csv,
)
from quantfolio.allocation import METHODS
from quantfolio.backtest import drawdown
from quantfolio.cli import (
    RunConfig, _child_seed, _fmt, _load_panels, main, parse_config,
)
from quantfolio.market_data import _write_labelled_csv
from quantfolio.schedule_qubo import candidate_dates, enumerate_energies
from quantfolio.shrinkage import _shrunk

from conftest import block_correlation, subprocess_env


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_float_cells_render_full_precision_and_blank_for_undefined():
    assert _fmt(None) == ""
    assert _fmt(0.1) == "0.1"
    assert _fmt(1 / 3) == repr(1 / 3)
    assert _fmt(np.float64(2.5)) == "2.5"


def test_matrix_csv_bytes_equal_csv_writer_reference(tmp_path):
    tickers = ["A,B", 'say "hi"', "ÉLAN", "  padded "]
    matrix = np.array([
        [1.0, np.nan, np.inf, -np.inf],
        [-0.0, 1e-300, 5e-324, 1 / 3],
        [0.1, -2.5, 1e16, 123456789.0],
        [np.finfo(float).max, -1e-7, 0.0, 2.0 ** 0.5],
    ])
    path = tmp_path / "matrix.csv"
    _write_labelled_csv(path, "ticker", tickers, tickers, matrix)
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ticker", *tickers])
        for t, row in zip(tickers, matrix):
            writer.writerow([t, *[repr(float(v)) for v in row]])
    assert path.read_bytes() == ref.read_bytes()


def test_child_seed_streams_are_stable_and_distinct():
    a = _child_seed(0, 1)
    assert a == _child_seed(0, 1)  # stable across calls
    assert a != _child_seed(0, 2)
    assert a != _child_seed(1, 1)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic two-group price panel plus a small, fast run config."""
    root = tmp_path_factory.mktemp("cli")
    corr = block_correlation((3, 3), intra=0.85, inter=0.05)
    panel = synth_panel(
        seed=101, T=260, M=6, target_corr=corr,
        ann_vol=0.2, ann_drift=np.linspace(0.02, 0.25, 6),
    )
    csv_path = root / "prices.csv"
    write_csv(panel, csv_path)
    returns_dates = panel.dates[1:]
    train_end = returns_dates[159]
    test_end = returns_dates[-1]
    out_dir = root / "run"
    config = root / "run.cfg"
    config.write_text(
        f"""# small end-to-end configuration
prices_csv = {csv_path}
out_dir = {out_dir}
train_end = {train_end.isoformat()}
test_end = {test_end.isoformat()}
n_clusters = 2
ga_population = 30
ga_generations = 15
depth = 1
candidates_per_window = 4
windows = 3
restarts = 2
opt_shots = 256
eval_shots = 512
max_iters = 30
seed = 5
"""
    )
    return {"root": root, "config": config, "out": out_dir, "csv": csv_path,
            "panel": panel, "train_end": train_end, "test_end": test_end}


def run_cli(*args):
    return main([str(a) for a in args])


class TestConfigParsing:
    def test_defaults_and_overrides(self, workspace):
        cfg = parse_config(workspace["config"])
        assert cfg.n_clusters == 2
        assert cfg.ga_population == 30
        assert cfg.lambda1 == 1.0  # default
        assert cfg.lambda2 == 0.5
        assert cfg.lambda3 == 0.3
        assert cfg.cost_c == 0.001
        assert cfg.periodic == (1, 5, 10, 21)
        assert cfg.seed == 5

    def test_unknown_key(self, tmp_path, workspace):
        bad = tmp_path / "bad.cfg"
        bad.write_text("prices_csv = x\nwarp_speed = 9\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(bad)

    def test_bad_value(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("ga_population = many\n")
        with pytest.raises(ValueError, match="ga_population"):
            parse_config(bad)

    def test_missing_required(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_clusters = 3\n")
        with pytest.raises(ValueError, match="missing required"):
            parse_config(bad)

    def test_missing_prices_file_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "prices_csv = /nonexistent/prices.csv\n"
            "train_end = 2020-01-01\ntest_end = 2021-01-01\n"
        )
        assert run_cli("select", "--config", cfg) == 1
        assert "/nonexistent/prices.csv" in capsys.readouterr().err

    def test_negative_seed_override_exit_code(self, workspace, tmp_path, capsys):
        out = tmp_path / "never"
        assert run_cli("select", "--config", workspace["config"], "--seed", -1, "--out", out) == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("threshold", "1.5"), ("periodic", "0"), ("restarts", "0"), ("cost_c", "-0.01"),
        ("windows", "0"), ("candidates_per_window", "0"), ("candidates_per_window", "30"),
        ("periodic", "5,10,5"), ("n_clusters", "0"),
    ])
    def test_value_a_later_stage_rejects_exits_1_before_select(
        self, workspace, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "bad.cfg"
        # replace the workspace's own line for the key, so the value is what fails
        kept = [line for line in workspace["config"].read_text().splitlines(keepends=True)
                if not line.startswith(f"{key} =")]
        cfg.write_text("".join(kept) + f"{key} = {value}\n")
        out = tmp_path / "never"
        assert run_cli("select", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "given again" not in err
        assert not out.exists()

    def test_a_key_given_twice_exits_1_naming_both_lines(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        text = workspace["config"].read_text()
        first = text.splitlines().index("seed = 5") + 1
        cfg.write_text(text + "seed = 7\n")
        out = tmp_path / "never"
        assert run_cli("select", "--config", cfg, "--out", out) == 1
        again = text.count("\n") + 1
        assert (f"{cfg}:{again}: seed is given again (first on line {first})"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]
    )
    def test_non_finite_float_exits_1_before_select(
        self, workspace, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "bad.cfg"
        text = workspace["config"].read_text() + f"{key} = {value}\n"
        cfg.write_text(text)
        out = tmp_path / "never"
        assert run_cli("select", "--config", cfg, "--out", out) == 1
        lineno = text.count("\n")
        assert f"{cfg}:{lineno}: bad value for {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_utf8_config_and_tickers_under_an_ascii_locale(self, workspace, tmp_path):
        panel = workspace["panel"]
        prices = tmp_path / "prices.csv"
        write_csv(dataclasses.replace(panel, tickers=("ÉLAN", *panel.tickers[1:])), prices)
        cfg = tmp_path / "run.cfg"
        text = workspace["config"].read_text(encoding="utf-8")
        text = text.replace(f"prices_csv = {workspace['csv']}", f"prices_csv = {prices}")
        text = text.replace(f"out_dir = {workspace['out']}", f"out_dir = {tmp_path / 'run'}")
        cfg.write_text("# données de clôture, fichier UTF-8\n" + text, encoding="utf-8")
        # an ASCII locale: text files opened with the locale's encoding fail
        env = {**subprocess_env(), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "quantfolio.cli", "select", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run" / "selection.json").exists()

    def test_unencodable_prices_path_is_named_not_missing(self, workspace, tmp_path):
        """Under an ASCII file-system encoding an existing ``données.csv``
        cannot be opened by name; the error says so instead of "not found"."""
        env = {**subprocess_env(), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        probe = subprocess.run([sys.executable, "-c", "import sys; print(sys.getfilesystemencoding())"],
                               env=env, capture_output=True, text=True, timeout=60, check=True)
        encoding = probe.stdout.strip()
        try:
            "données.csv".encode(encoding)
            pytest.skip(f"the file-system encoding here is {encoding}, which encodes any name")
        except UnicodeEncodeError:
            pass
        prices = tmp_path / "données.csv"
        shutil.copyfile(workspace["csv"], prices)
        cfg = tmp_path / "run.cfg"
        text = workspace["config"].read_text(encoding="utf-8")
        text = text.replace(f"prices_csv = {workspace['csv']}", f"prices_csv = {prices}")
        cfg.write_text(text.replace(f"out_dir = {workspace['out']}", f"out_dir = {tmp_path / 'run'}"),
                       encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "quantfolio.cli", "select", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        assert "not found" not in proc.stderr
        assert f"prices CSV path '{tmp_path}/donn" in proc.stderr
        assert f"cannot be encoded in the file-system encoding '{encoding}'" in proc.stderr
        assert not (tmp_path / "run").exists()


class TestSelectCommand:
    def test_recovers_planted_groups(self, workspace):
        assert run_cli("select", "--config", workspace["config"]) == 0
        blob = json.loads((workspace["out"] / "selection.json").read_text())
        assert len(blob["tickers"]) == 2
        groups = ({"A000", "A001", "A002"}, {"A003", "A004", "A005"})
        got = set(blob["tickers"])
        assert any(got & g for g in groups)
        assert all(len(got & g) == 1 for g in groups)
        labels = blob["labels"]
        for g in groups:
            assert len({labels[t] for t in g}) == 1  # each block in one cluster

    def test_matrix_csvs_written(self, workspace):
        run_cli("select", "--config", workspace["config"])
        corr_lines = (workspace["out"] / "correlation.csv").read_text().splitlines()
        assert corr_lines[0] == "ticker,A000,A001,A002,A003,A004,A005"
        assert len(corr_lines) == 7
        first = corr_lines[1].split(",")
        assert first[0] == "A000"
        assert float(first[1]) == 1.0
        # the distances Ward clusters on are not written: they re-derive from
        # correlation.csv bit for bit
        assert not (workspace["out"] / "distance.csv").exists()
        corr = np.array([[float(c) for c in line.split(",")[1:]] for line in corr_lines[1:]])
        cfg = parse_config(workspace["config"])
        _, train = _load_panels(cfg, cfg.train_end)
        assert np.array_equal(angular_distance(corr), ledoit_wolf(train).dist)

    def test_n_equals_m_selects_everything(self, workspace, tmp_path):
        cfg_text = workspace["config"].read_text().replace(
            "n_clusters = 2", "n_clusters = 6"
        )
        cfg = tmp_path / "all.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "all_out"
        assert run_cli("select", "--config", cfg, "--out", out) == 0
        blob = json.loads((out / "selection.json").read_text())
        assert sorted(blob["tickers"]) == [f"A{i:03d}" for i in range(6)]


class TestWeightsCommand:
    def test_equal_is_one_over_n(self, workspace):
        run_cli("select", "--config", workspace["config"])
        assert run_cli("weights", "--config", workspace["config"]) == 0
        eq = json.loads((workspace["out"] / "weights_equal.json").read_text())
        np.testing.assert_allclose(eq["weights"], [0.5, 0.5], atol=1e-15)
        assert eq["train_sharpe"] is not None

    def test_ensemble_is_rowwise_mean(self, workspace):
        run_cli("select", "--config", workspace["config"])
        run_cli("weights", "--config", workspace["config"])
        out = workspace["out"]
        blobs = {
            m: json.loads((out / f"weights_{m}.json").read_text())
            for m in ("ga", "minvar", "equal", "ensemble")
        }
        mean = np.mean(
            [blobs["ga"]["weights"], blobs["minvar"]["weights"], blobs["equal"]["weights"]],
            axis=0,
        )
        np.testing.assert_allclose(blobs["ensemble"]["weights"], mean, atol=1e-12)

    def test_ga_file_byte_identical_on_rerun(self, workspace):
        run_cli("select", "--config", workspace["config"])
        run_cli("weights", "--config", workspace["config"])
        first = (workspace["out"] / "weights_ga.json").read_bytes()
        run_cli("weights", "--config", workspace["config"])
        assert (workspace["out"] / "weights_ga.json").read_bytes() == first

    def test_parses_only_the_selected_columns(self, workspace, monkeypatch):
        run_cli("select", "--config", workspace["config"])
        selected = json.loads((workspace["out"] / "selection.json").read_text())["tickers"]
        calls = []

        def spy(path, tickers=None, last=None):
            calls.append((tickers, last))
            return load_csv(path, tickers, last)

        monkeypatch.setattr(cli, "load_csv", spy)
        assert run_cli("weights", "--config", workspace["config"]) == 0
        assert calls == [(selected, workspace["train_end"])]

    def test_minvar_is_minvar_of_the_universe_estimate_block(self, workspace):
        run_cli("select", "--config", workspace["config"])
        assert run_cli("weights", "--config", workspace["config"]) == 0
        sel = json.loads((workspace["out"] / "selection.json").read_text())
        cfg = parse_config(workspace["config"])
        _, train = _load_panels(cfg, cfg.train_end)
        block = ledoit_wolf(train).restrict(sel["tickers"])
        est = _shrunk(train.restrict(sel["tickers"]),
                      sel["shrinkage_alpha"], sel["shrinkage_mu_target"])
        np.testing.assert_allclose(est.sigma, block.sigma, rtol=1e-12, atol=0.0)
        mv = json.loads((workspace["out"] / "weights_minvar.json").read_text())
        assert mv["tickers"] == sel["tickers"]
        np.testing.assert_allclose(mv["weights"], minvar(block).weights, rtol=1e-12, atol=0.0)

    def test_requires_selection(self, workspace, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert run_cli("weights", "--config", workspace["config"], "--out", out) == 1
        assert "select" in capsys.readouterr().err


@pytest.fixture(scope="module")
def scheduled(workspace):
    run_cli("select", "--config", workspace["config"])
    run_cli("weights", "--config", workspace["config"])
    assert run_cli("schedule", "--config", workspace["config"]) == 0
    return workspace


@pytest.fixture(scope="module")
def backtested(scheduled):
    assert run_cli("backtest", "--config", scheduled["config"]) == 0
    return scheduled


class TestScheduleCommand:
    def test_structure(self, scheduled):
        workspace = scheduled
        blob = json.loads((workspace["out"] / "schedule_ga.json").read_text())
        test_days = 259 - 160
        assert len(blob["schedule"]) == test_days
        assert len(blob["windows"]) == 3
        candidates = [w["start"] + c for w in blob["windows"] for c in w["qubo"]["candidates"]]
        assert len(candidates) == 12  # K * W
        assert candidates == sorted(candidates)

    def test_histogram_csv_sums_to_eval_shots(self, scheduled):
        workspace = scheduled
        lines = (workspace["out"] / "histogram_ga.csv").read_text().splitlines()
        assert lines[0] == "window,bitstring,count"
        sums = {}
        for line in lines[1:]:
            window, _, count = line.split(",")
            sums[window] = sums.get(window, 0) + int(count)
        assert sums == {"0": 512, "1": 512, "2": 512}

    def test_gap_non_negative_everywhere(self, scheduled):
        workspace = scheduled
        for method in ("ga", "minvar", "equal", "ensemble"):
            blob = json.loads((workspace["out"] / f"schedule_{method}.json").read_text())
            for window in blob["windows"]:
                assert window["gap"] >= 0.0
                assert window["best_energy"] >= window["brute_force_energy"]

    def test_schedule_bits_match_window_best_bits(self, scheduled):
        workspace = scheduled
        blob = json.loads((workspace["out"] / "schedule_ga.json").read_text())
        bits = blob["schedule"]
        for window in blob["windows"]:
            for offset, bit in zip(window["qubo"]["candidates"], window["best_bits"]):
                assert bits[window["start"] + offset] == int(bit)

    def test_idempotent_rerun(self, scheduled):
        workspace = scheduled
        first = {
            m: (workspace["out"] / f"schedule_{m}.json").read_bytes()
            for m in ("ga", "minvar", "equal", "ensemble")
        }
        assert run_cli("schedule", "--config", workspace["config"]) == 0
        for m, payload in first.items():
            assert (workspace["out"] / f"schedule_{m}.json").read_bytes() == payload


    def test_one_walk_forward_call_equal_to_one_per_method(self, scheduled, tmp_path, monkeypatch):
        from quantfolio.qaoa import QaoaConfig

        calls = []
        batched = cli.walk_forward

        def recording(test, targets, *args):
            calls.append([t.method for t in targets])
            return batched(test, targets, *args)

        monkeypatch.setattr(cli, "walk_forward", recording)
        out = tmp_path / "run"
        out.mkdir()
        for name in ("selection.json", *(f"weights_{m.lower()}.json" for m in METHODS)):
            (out / name).write_bytes((scheduled["out"] / name).read_bytes())
        assert run_cli("schedule", "--config", scheduled["config"], "--out", out) == 0
        assert calls == [list(METHODS)]

        cfg = parse_config(scheduled["config"])
        test = cli._test_returns(cfg, cli._read_selection(cfg))
        weights = cli._read_weights(cfg)
        for i, method in enumerate(METHODS):
            qcfg = QaoaConfig(depth=cfg.depth, restarts=cfg.restarts, opt_shots=cfg.opt_shots,
                              eval_shots=cfg.eval_shots, max_iters=cfg.max_iters,
                              seed=_child_seed(cfg.seed, 10 + i))
            alone = batched(test, weights[method], cfg.windows, cfg.candidates_per_window,
                            qcfg, QuboParams(cfg.lambda1, cfg.lambda2, cfg.lambda3, cfg.cost_c))
            blob = json.loads((out / f"schedule_{method.lower()}.json").read_text())
            assert blob == json.loads(json.dumps(cli._schedule_record(method, alone)))


class TestBacktestCommand:
    def test_metrics_rows(self, backtested):
        workspace = backtested
        lines = (workspace["out"] / "metrics.csv").read_text().splitlines()
        assert lines[0] == "strategy,return_pct,sharpe,sortino,mdd_pct,calmar,rebalances,cost_bp"
        assert len(lines) == 1 + 13
        assert lines[1].startswith("GA Buy&Hold,")
        assert lines[10].startswith("GA + QAOA,")

    def test_manifest_replay_byte_identical(self, backtested):
        workspace = backtested
        metrics_first = (workspace["out"] / "metrics.csv").read_bytes()
        manifest_first = (workspace["out"] / "manifest.json").read_bytes()
        assert run_cli("backtest", "--config", workspace["config"]) == 0
        assert (workspace["out"] / "metrics.csv").read_bytes() == metrics_first
        assert (workspace["out"] / "manifest.json").read_bytes() == manifest_first

    def test_manifest_contents(self, backtested):
        workspace = backtested
        blob = json.loads((workspace["out"] / "manifest.json").read_text())
        assert set(blob) == {"version", "config", "config_sha256", "optimiser", "curve_returns"}
        assert blob["config"]["seed"] == 5
        assert blob["curve_returns"] == "log"
        assert blob["optimiser"] == "grid-INTERP-SPSA"
        assert len(blob["config_sha256"]) == 64

    def test_curves_csv_shape(self, backtested):
        workspace = backtested
        lines = (workspace["out"] / "curves.csv").read_text().splitlines()
        assert lines[0] == "strategy,day,date,value"
        test_days = 259 - 160
        assert len(lines) == 1 + 13 * (test_days + 1)
        first = lines[1].split(",")
        assert first[0] == "GA Buy&Hold"
        assert float(first[3]) == 1.0

    def test_seed_override_changes_hash(self, backtested, tmp_path):
        workspace = backtested
        out = tmp_path / "seeded"
        for command in ("select", "weights", "schedule", "backtest"):
            assert run_cli(command, "--config", workspace["config"],
                           "--seed", 123, "--out", out) == 0
        blob = json.loads((out / "manifest.json").read_text())
        base = json.loads((workspace["out"] / "manifest.json").read_text())
        assert blob["config"]["seed"] == 123
        assert blob["config_sha256"] != base["config_sha256"]

    @pytest.mark.parametrize("bit", [0.5, 256])
    def test_edited_schedule_with_a_non_bit_exits_1(self, backtested, tmp_path, capsys, bit):
        out = tmp_path / "edited"
        shutil.copytree(backtested["out"], out)
        path = out / "schedule_ga.json"
        blob = json.loads(path.read_text())
        blob["schedule"][0] = bit
        path.write_text(json.dumps(blob))
        assert run_cli("backtest", "--config", backtested["config"], "--out", out) == 1
        assert "bits must be a 0/1 vector" in capsys.readouterr().err


    @pytest.mark.parametrize("artifact,key,command", [
        pytest.param("selection.json", "tickers", "backtest", id="selection.json-tickers"),
        pytest.param("selection.json", "shrinkage_mu_target", "weights",
                     id="selection.json-shrinkage_mu_target"),
        pytest.param("weights_ga.json", "weights", "backtest", id="weights_ga.json-weights"),
        pytest.param("schedule_ga.json", "schedule", "backtest", id="schedule_ga.json-schedule"),
    ])
    def test_artifact_without_a_key_exits_1(self, backtested, tmp_path, capsys, artifact, key,
                                            command):
        out = tmp_path / "malformed"
        shutil.copytree(backtested["out"], out)
        path = out / artifact
        blob = json.loads(path.read_text())
        del blob[key]
        path.write_text(json.dumps(blob))
        assert run_cli(command, "--config", backtested["config"], "--out", out) == 1
        assert f"{path}: malformed artifact, missing key(s): {key}" in capsys.readouterr().err

    def test_weights_with_an_extra_key_exits_1(self, backtested, tmp_path, capsys):
        out = tmp_path / "extra"
        shutil.copytree(backtested["out"], out)
        path = out / "weights_ga.json"
        blob = json.loads(path.read_text())
        blob["note"] = "hand-edited"
        path.write_text(json.dumps(blob))
        assert run_cli("backtest", "--config", backtested["config"], "--out", out) == 1
        assert f"{path}: malformed artifact, unknown key(s): note" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["schedule", "backtest"])
    def test_weights_whose_method_is_not_its_files_exits_1(self, backtested, tmp_path, capsys,
                                                           command):
        out = tmp_path / "relabelled"
        shutil.copytree(backtested["out"], out)
        path = out / "weights_ga.json"
        blob = json.loads(path.read_text())
        blob["method"] = "MinVar"
        path.write_text(json.dumps(blob))
        assert run_cli(command, "--config", backtested["config"], "--out", out) == 1
        assert (f"error [{command}]: {path}: malformed artifact, method 'MinVar' in the GA "
                f"weights file" in capsys.readouterr().err)

    @pytest.mark.parametrize("text,reason", [
        pytest.param('{"method": "GA", ', "Expecting property name", id="truncated"),
        pytest.param("null", "not a JSON object", id="null"),
    ])
    def test_unreadable_weights_exit_1_naming_the_file(self, backtested, tmp_path, capsys, text,
                                                       reason):
        out = tmp_path / "unreadable"
        shutil.copytree(backtested["out"], out)
        path = out / "weights_ga.json"
        path.write_text(text)
        assert run_cli("schedule", "--config", backtested["config"], "--out", out) == 1
        assert f"error [schedule]: {path}: malformed artifact: {reason}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def in_memory(backtested):
    """The config, each method's ``ScheduleResult`` and the backtest reports,
    computed in memory from the ``select`` and ``weights`` handoffs."""
    cfg = parse_config(backtested["config"])
    selected = cli._read_selection(cfg)
    weights = cli._read_weights(cfg)
    test = cli._test_returns(cfg, selected)
    results = dict(zip(METHODS, walk_forward(
        test, [weights[m] for m in METHODS], cfg.windows, cfg.candidates_per_window,
        cfg.qaoa_configs(), cfg.qubo_params())))
    reports = run_grid(test, weights, {m: results[m].bits for m in METHODS}, cfg.cost_c,
                       periodic=cfg.periodic, threshold=cfg.threshold)
    return cfg, results, reports


def _schedule_windows(cfg, method: str) -> list[dict]:
    return json.loads((Path(cfg.out_dir) / f"schedule_{method.lower()}.json").read_text())["windows"]


def _csv_rows(cfg, name: str) -> list[dict]:
    with open(Path(cfg.out_dir) / name, newline="") as fh:
        return list(csv.DictReader(fh))


class TestDroppedFieldsRederive:
    """Every field the artifacts no longer write re-derives from the fields
    they keep, bit for bit equal to what the in-memory result reports."""

    def test_top20_histogram_is_each_windows_first_20_csv_rows(self, in_memory):
        cfg, results, _ = in_memory
        for method in METHODS:
            rows = _csv_rows(cfg, f"histogram_{method.lower()}.csv")
            for k, win in enumerate(results[method].windows):
                top = [(row["bitstring"], int(row["count"])) for row in rows
                       if row["window"] == str(k)][:20]
                assert top == win.outcome.histogram_top(20)

    def test_expected_energy_is_the_least_restart_energy(self, in_memory):
        cfg, results, _ = in_memory
        for method in METHODS:
            for blob, win in zip(_schedule_windows(cfg, method), results[method].windows):
                least = min(blob["restart_energies"])
                assert least == float(np.min(win.outcome.restart_energies))
                energies = enumerate_energies(win.qubo)
                assert least == win.outcome.histogram @ energies / win.outcome.eval_shots

    def test_candidates_size_and_window_length_from_start_end_and_qubo(self, in_memory):
        cfg, results, _ = in_memory
        for method in METHODS:
            for blob, win in zip(_schedule_windows(cfg, method), results[method].windows):
                local = blob["qubo"]["candidates"]
                assert [blob["start"] + c for c in local] == win.candidates_global.tolist()
                assert len(local) == win.qubo.w
                window_len = blob["end"] - blob["start"]
                assert local == candidate_dates(window_len, cfg.candidates_per_window).tolist()

    def test_drawdown_of_the_value_column(self, in_memory):
        cfg, _, reports = in_memory
        rows = _csv_rows(cfg, "curves.csv")
        for rep in reports:
            values = np.array([float(row["value"]) for row in rows if row["strategy"] == rep.label])
            assert np.array_equal(values, rep.equity_curve)
            assert np.array_equal(drawdown(values), drawdown(rep.equity_curve))

    def test_strategies_seed_and_cluster_count(self, in_memory):
        cfg, _, reports = in_memory
        labels = [row["strategy"] for row in _csv_rows(cfg, "metrics.csv")]
        assert labels == [rep.label for rep in reports]
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["config"]["seed"] == cfg.seed
        selection = json.loads((Path(cfg.out_dir) / "selection.json").read_text())
        assert len(selection["tickers"]) == cfg.n_clusters


def _expand(name: str) -> list[str]:
    """``name`` with each ``{a,b}`` group expanded, ``sh``-style."""
    group = re.search(r"\{([^{}]*)\}", name)
    if group is None:
        return [name]
    return [
        expanded
        for alt in group.group(1).split(",")
        for expanded in _expand(name[:group.start()] + alt + name[group.end():])
    ]


def readme_artifacts() -> set[str]:
    """Every file name in the README's "Artifacts" section, with ``{a,b}``
    and ``<method>`` expanded."""
    section = README.read_text().split("### Artifacts\n", 1)[1].split("\n#", 1)[0]
    methods = "{" + ",".join(m.lower() for m in METHODS) + "}"
    return {
        expanded
        for name in re.findall(r"`([^`\s]+\.(?:json|csv))`", section)
        for expanded in _expand(name.replace("<method>", methods))
    }


def test_readme_artifacts_are_the_files_a_run_writes(workspace, tmp_path):
    assert _expand("a_{x,y}_{1,2}.csv") == ["a_x_1.csv", "a_x_2.csv", "a_y_1.csv", "a_y_2.csv"]
    out = tmp_path / "run"
    for command in ("select", "weights", "schedule", "backtest"):
        assert run_cli(command, "--config", workspace["config"], "--out", out) == 0
    assert readme_artifacts() == {path.name for path in out.iterdir()}


def readme_config_defaults() -> dict:
    """Each key of the README's config table with its default parsed by the
    key's config parser; a key without one (``—``) maps to ``MISSING``."""
    section = README.read_text().split("### Config file\n", 1)[1].split("\n#", 1)[0]
    out = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        keys = re.findall(r"`(\w+)`", cells[0]) if line.startswith("| `") else []
        defaults = cells[1].split(" / ") if keys and cells[1] != "—" else [None] * len(keys)
        assert len(defaults) == len(keys), line
        for key, text in zip(keys, defaults):
            out[key] = (dataclasses.MISSING if text is None
                        else cli._PARSERS[key](text.strip("`")))
    return out


def test_readme_config_table_defaults_are_run_config_defaults():
    assert readme_config_defaults() == {f.name: f.default for f in dataclasses.fields(RunConfig)}


def test_run_config_defaults_equal_the_stage_config_defaults():
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    mirrored = {
        ("ga_" + f.name if "ga_" + f.name in defaults else f.name): f.default
        for cls in (GaConfig, QaoaConfig, QuboParams)
        for f in dataclasses.fields(cls)
        if f.name != "seed"
    }
    assert len(mirrored) == 15
    assert {key: defaults[key] for key in mirrored} == mirrored


class TestCsvDropReporting:
    def test_dropped_tickers_reach_selection_report(self, tmp_path):
        panel = synth_panel(seed=7, T=120, M=3)
        csv_path = tmp_path / "prices.csv"
        write_csv(panel, csv_path)
        text = csv_path.read_text().splitlines()
        parts = text[40].split(",")
        parts[2] = ""  # knock one cell out of the second ticker
        text[40] = ",".join(parts)
        csv_path.write_text("\n".join(text) + "\n")

        loaded = load_csv(csv_path)
        assert loaded.dropped == ("A001",)
        assert loaded.tickers == ("A000", "A002")

        returns_dates = to_returns(loaded).dates
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"prices_csv = {csv_path}\n"
            f"out_dir = {tmp_path / 'out'}\n"
            f"train_end = {returns_dates[79].isoformat()}\n"
            f"test_end = {returns_dates[-1].isoformat()}\n"
            "n_clusters = 2\n"
        )
        assert run_cli("select", "--config", cfg) == 0
        blob = json.loads((tmp_path / "out" / "selection.json").read_text())
        assert blob["dropped_tickers"] == ["A001"]


def _run_stages(workdir, prices: str, options: str, *commands) -> dict[str, bytes]:
    """Every artifact that ``commands`` write for the CSV text ``prices`` and
    the config lines ``options``, by file name. The config names its paths
    relative to ``workdir``, so runs in two directories write the same bytes."""
    workdir = Path(workdir)
    (workdir / "prices.csv").write_text(prices)
    (workdir / "run.cfg").write_text("prices_csv = prices.csv\nout_dir = out\n" + options)
    with contextlib.chdir(workdir):
        for command in commands:
            assert main([command, "--config", "run.cfg"]) == 0, command
    return {path.name: path.read_bytes() for path in sorted((workdir / "out").iterdir())}


_ODD_CELLS = ("", "n/a", "0", "-1", "nan", "inf")
_CELLS = st.one_of(st.sampled_from(_ODD_CELLS), st.floats(0.01, 1e4).map(repr))
_STAGES = ("select", "weights", "schedule", "backtest")


@pytest.fixture(scope="module")
def unedited(workspace, tmp_path_factory):
    """The workspace's CSV text and config lines (paths aside), and the
    artifacts all four stages write for them."""
    prices = workspace["csv"].read_text()
    options = "".join(line + "\n" for line in workspace["config"].read_text().splitlines()
                      if not line.startswith(("prices_csv", "out_dir")))
    artifacts = _run_stages(tmp_path_factory.mktemp("unedited"), prices, options, *_STAGES)
    return prices, options, artifacts


class TestNoLookahead:
    """Only training rows decide the universe, and no row after ``test_end``
    decides anything."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(3, 5), t=st.integers(30, 60),
           data=st.data())
    def test_cells_after_train_end_leave_the_selection_as_it_is(self, seed, m, t, data):
        panel = synth_panel(seed=seed, T=t, M=m)
        n_train = data.draw(st.integers(10, t - 3))  # price rows up to train_end
        options = (f"train_end = {panel.dates[n_train - 1]}\n"
                   f"test_end = {panel.dates[-1]}\nn_clusters = 2\n")
        with tempfile.TemporaryDirectory() as tmp:
            write_csv(panel, Path(tmp) / "prices.csv")
            text = (Path(tmp) / "prices.csv").read_text()
        lines = text.splitlines()
        for _ in range(data.draw(st.integers(1, 4))):
            row = 1 + data.draw(st.integers(n_train, t - 1))
            cells = lines[row].split(",")
            cells[data.draw(st.integers(1, m))] = data.draw(_CELLS)
            lines[row] = ",".join(cells)
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            before = _run_stages(a, text, options, "select")
            after = _run_stages(b, "\n".join(lines) + "\n", options, "select")
        assert after == before

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(late=st.lists(st.tuples(st.integers(1, 60),  # days after test_end, any order
                                   st.lists(_CELLS, min_size=6, max_size=6)),  # 6 tickers
                         min_size=1, max_size=3))
    def test_rows_after_test_end_change_no_artifact(self, workspace, unedited, late):
        prices, options, artifacts = unedited
        rows = "".join(f"{workspace['test_end'] + timedelta(days=days)},{','.join(cells)}\n"
                       for days, cells in late)
        with tempfile.TemporaryDirectory() as tmp:
            assert _run_stages(tmp, prices + rows, options, *_STAGES) == artifacts

    def test_test_period_gap_in_a_selected_ticker_exits_1_naming_it(self, unedited, tmp_path,
                                                                    capsys):
        prices, options, artifacts = unedited
        ticker = json.loads(artifacts["selection.json"])["tickers"][1]
        lines = prices.splitlines()
        col = lines[0].split(",").index(ticker)
        cells = lines[-20].split(",")  # a test-period row
        cells[col] = ""
        lines[-20] = ",".join(cells)
        edited = "\n".join(lines) + "\n"
        written = _run_stages(tmp_path, edited, options, "select", "weights")
        assert written == {name: artifacts[name] for name in written}
        for name, blob in artifacts.items():
            (tmp_path / "out" / name).write_bytes(blob)
        with contextlib.chdir(tmp_path):
            for command in ("schedule", "backtest"):
                assert main([command, "--config", "run.cfg"]) == 1
                err = capsys.readouterr().err
                assert f"error [{command}]: selected ticker(s) with a missing" in err
                assert err.rstrip().endswith(f": {ticker}")


# Runs the given CLI commands in one fresh interpreter ("--help" prints the
# usage), then prints whether scipy was loaded.
_STAGES_SCRIPT = """
import sys
from quantfolio.cli import main
config, out, *commands = sys.argv[1:]
for command in commands:
    if command == "--help":
        try:
            main(["--help"])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    else:
        assert main([command, "--config", config, "--out", out]) == 0, command
print("scipy loaded:", "scipy" in sys.modules)
"""


def _scipy_loaded_after(config, out, *commands) -> bool:
    proc = subprocess.run(
        [sys.executable, "-c", _STAGES_SCRIPT, str(config), str(out), *commands],
        capture_output=True, text=True, env=subprocess_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert last.startswith("scipy loaded: "), proc.stdout
    return last == "scipy loaded: True"


class TestImportBoundary:
    """The package runs on numpy alone: scipy is a test dependency only."""

    def test_no_stage_loads_scipy(self, workspace, tmp_path):
        cfg, out = workspace["config"], tmp_path / "run"
        assert not _scipy_loaded_after(
            cfg, out, "--help", "select", "weights", "schedule", "backtest"
        )


class TestEntry:
    """Processes enter through ``cli.entry``, which freezes the import-time
    heap; ``main`` called from Python leaves the collector as it is."""

    @pytest.mark.parametrize("extra,code", [([], 0), (["--seed", "-1"], 1)])
    def test_entry_freezes_the_heap_and_returns_mains_code(
        self, workspace, tmp_path, monkeypatch, extra, code
    ):
        argv = ["select", "--config", str(workspace["config"]), "--out", str(tmp_path / "run")]
        monkeypatch.setattr(sys, "argv", ["quantfolio", *argv, *extra])
        before = gc.get_freeze_count()
        try:
            assert cli.entry() == code
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()
        assert (tmp_path / "run" / "selection.json").exists() == (code == 0)

    def test_main_leaves_the_collector_alone(self, workspace, tmp_path):
        before = gc.get_freeze_count()
        assert run_cli("select", "--config", workspace["config"], "--out", tmp_path / "run") == 0
        assert gc.get_freeze_count() == before

    def test_script_and_main_block_name_the_entry(self):
        # as text: tomllib needs Python 3.11, the package supports 3.10
        scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1]
        assert re.findall(r'^(\w+) = "(.+)"$', scripts.split("\n[", 1)[0], re.M) == [
            ("quantfolio", "quantfolio.cli:entry")
        ]
        tree = ast.parse(Path(cli.__file__).read_text())
        blocks = [node.body for node in tree.body
                  if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [["sys.exit(entry())"]]
