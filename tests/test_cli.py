import ast
import contextlib
import csv
import dataclasses
import gc
import hashlib
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
    load_csv, market_data, minvar, qaoa, run_grid, synth_panel, to_returns, walk_forward,
    write_csv,
)
from quantfolio.allocation import METHODS
from quantfolio.backtest import drawdown
from quantfolio.cli import (
    RunConfig, _child_seed, _load_panels, main, parse_config,
)
from quantfolio.market_data import _write_labelled_csv, _write_rows
from quantfolio.schedule_qubo import candidate_dates, enumerate_energies
from quantfolio.shrinkage import _shrunk

from conftest import block_correlation, subprocess_env
from golden_pipeline import golden_config_text, golden_panel


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MANIFEST_KEYS = {"version", "config", "config_sha256", "inputs", "optimiser", "curve_returns"}


def test_float_cells_render_full_precision_and_blank_for_undefined(tmp_path):
    _write_rows(tmp_path / "rows.csv", ["a", "b", "c", "d"], [[None, 0.1, 1 / 3, np.float64(2.5)]])
    assert (tmp_path / "rows.csv").read_bytes() == f"a,b,c,d\r\n,0.1,{1 / 3!r},2.5\r\n".encode()


def write_matrix_and_reference(tmp_path, tickers, matrix):
    """The bytes ``_write_labelled_csv`` writes for ``matrix``, the bytes of
    the per-cell ``csv.writer`` reference, and the count of numbers formatted."""
    formatted = []
    cells = market_data._cells
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market_data, "_cells", lambda values: formatted.append(values.size)
                      or cells(values))
        _write_labelled_csv(tmp_path / "matrix.csv", "ticker", tickers, tickers, matrix)
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ticker", *tickers])
        for t, row in zip(tickers, matrix):
            writer.writerow([t, *[repr(float(v)) for v in row]])
    return ((tmp_path / "matrix.csv").read_bytes(), (tmp_path / "reference.csv").read_bytes(),
            sum(formatted))


def test_matrix_csv_bytes_equal_csv_writer_reference(tmp_path):
    tickers = ["A,B", 'say "hi"', "ÉLAN", "  padded "]
    matrix = np.array([
        [1.0, np.nan, np.inf, -np.inf],
        [-0.0, 1e-300, 5e-324, 1 / 3],
        [0.1, -2.5, 1e16, 123456789.0],
        [np.finfo(float).max, -1e-7, 0.0, 2.0 ** 0.5],
    ])
    written, reference, formatted = write_matrix_and_reference(tmp_path, tickers, matrix)
    assert written == reference
    assert formatted == matrix.size


_ODD_VALUES = [np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, -0.0, 0.0, 1.0, 0.1, 1 / 3, -2.5]


@pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 70])
def test_symmetric_matrix_csv_formats_its_upper_triangle_to_the_same_bytes(tmp_path, m):
    rng = np.random.default_rng(m)
    raw = rng.choice(np.concatenate([_ODD_VALUES, rng.standard_normal(12)]), size=(m, m))
    upper = np.triu(np.ones((m, m), dtype=bool))
    matrix = np.where(upper, raw, raw.T)  # bitwise symmetric: -0.0 mirrors as -0.0
    tickers = [("A,B", 'say "hi"', "ÉLAN", " pad ", "T")[i % 5] + str(i) for i in range(m)]
    written, reference, formatted = write_matrix_and_reference(tmp_path, tickers, matrix)
    assert written == reference
    assert formatted == m * (m + 1) // 2


def test_matrix_symmetric_but_for_a_signed_zero_prints_both_zeros(tmp_path):
    # -0.0 == 0.0, so the pair passes a value comparison; it must not be mirrored
    matrix = np.array([[1.0, 0.5, -0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]])
    tickers = ["A", "B", "C"]
    written, reference, formatted = write_matrix_and_reference(tmp_path, tickers, matrix)
    assert written == reference
    assert formatted == matrix.size
    assert written.decode().splitlines()[1:4:2] == ["A,1.0,0.5,-0.0", "C,0.0,0.25,1.0"]


def test_shrinkage_correlation_csv_is_mirrored_to_the_same_bytes(tmp_path):
    panel = synth_panel(seed=60, T=120, M=60)
    matrix = ledoit_wolf(to_returns(panel)).corr
    written, reference, formatted = write_matrix_and_reference(tmp_path, panel.tickers, matrix)
    assert written == reference
    assert formatted == 60 * 61 // 2


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


@dataclasses.dataclass(frozen=True)
class Twice:
    """A key written twice in a JSON object: first ``first``, then the real value."""

    first: object


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

    def test_prices_path_that_is_a_directory_exits_1_before_select(self, workspace, tmp_path,
                                                                   capsys):
        prices = tmp_path / "adir"
        prices.mkdir()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(workspace["config"].read_text().replace(
            f"prices_csv = {workspace['csv']}", f"prices_csv = {prices}"))
        out = tmp_path / "never"
        assert run_cli("select", "--config", cfg, "--out", out) == 1
        assert f"error: prices CSV is not a regular file: {prices}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_utf8_exits_1_naming_it(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# données\n".encode("latin-1") + workspace["config"].read_bytes())
        out = tmp_path / "never"
        assert run_cli("select", "--config", cfg, "--out", out) == 1
        assert (f"error: {cfg}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["select", "weights", "schedule", "backtest"])
    def test_out_dir_that_is_a_file_exits_1_before_the_stage(self, workspace, tmp_path, capsys,
                                                             command):
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(workspace["config"].read_text().replace(
            f"out_dir = {workspace['out']}", f"out_dir = {taken}"))
        for argv in (["--config", cfg], ["--config", workspace["config"], "--out", taken]):
            assert run_cli(command, *argv) == 1
            assert f"error: out_dir is not a directory: {taken}\n" == capsys.readouterr().err
        assert taken.read_text() == "a file\n"

    def test_empty_out_dir_exits_1_before_any_stage(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(workspace["config"].read_text().replace(
            f"out_dir = {workspace['out']}", "out_dir ="))
        for argv in (["--config", cfg], ["--config", workspace["config"], "--out", ""]):
            assert run_cli("select", *argv) == 1
            assert capsys.readouterr().err == "error: out_dir must not be empty\n"

    def test_replace_checks_the_path_rules_again(self, workspace, tmp_path):
        cfg = parse_config(workspace["config"])
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        with pytest.raises(FileNotFoundError, match="prices CSV not found"):
            dataclasses.replace(cfg, prices_csv=str(tmp_path / "missing.csv"))
        with pytest.raises(ValueError, match="prices CSV is not a regular file"):
            dataclasses.replace(cfg, prices_csv=str(tmp_path))
        with pytest.raises(ValueError, match="out_dir is not a directory"):
            dataclasses.replace(cfg, out_dir=str(taken))
        with pytest.raises(ValueError, match="out_dir must not be empty"):
            dataclasses.replace(cfg, out_dir="")

    @pytest.mark.parametrize("key,field", [
        ("lambda_ent", "lambda_ent"), ("ga_gene_high", "gene_high"), ("lambda1", "lambda1"),
        ("lambda2", "lambda2"), ("lambda3", "lambda3"), ("cost_c", "cost_c"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_replace_rejects_a_non_finite_stage_parameter_by_name(self, workspace, key, field,
                                                                  value):
        cfg = parse_config(workspace["config"])
        with pytest.raises(ValueError, match=f"^{field} must be"):
            dataclasses.replace(cfg, **{key: value})

    @pytest.mark.parametrize("key,field", [
        ("restarts", "restarts"), ("eval_shots", "eval_shots"), ("depth", "depth"),
        ("windows", "windows"), ("n_clusters", "n_clusters"),
        ("candidates_per_window", "candidates_per_window"), ("seed", "seed"),
        ("ga_population", "population"),
    ])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_replace_rejects_a_non_whole_count_by_name(self, workspace, key, field, value):
        cfg = parse_config(workspace["config"])
        with pytest.raises(ValueError, match=f"^{field} must be a whole number"):
            dataclasses.replace(cfg, **{key: value})

    def test_line_without_an_equals_sign_exits_1_naming_it(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        text = workspace["config"].read_text()
        cfg.write_text(text + "n_clusters 3\n")
        out = tmp_path / "never"
        assert run_cli("select", "--config", cfg, "--out", out) == 1
        lineno = text.count("\n") + 1
        assert capsys.readouterr().err == f"error: {cfg}:{lineno}: expected 'key = value'\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["5,,10", "5, 10,", ","])
    def test_periodic_with_an_item_that_is_no_integer_exits_1(self, workspace, tmp_path, capsys,
                                                              value):
        cfg = tmp_path / "run.cfg"
        text = workspace["config"].read_text() + f"periodic = {value}\n"
        cfg.write_text(text)
        out = tmp_path / "never"
        assert run_cli("select", "--config", cfg, "--out", out) == 1
        lineno = text.count("\n")
        assert f"{cfg}:{lineno}: bad value for periodic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value,periodic", [("", ()), ("5", (5,)), (" 5 , 10 ", (5, 10))])
    def test_periodic_items_are_integers_and_empty_means_none(self, workspace, tmp_path, value,
                                                              periodic):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(workspace["config"].read_text() + f"periodic = {value}\n")
        assert parse_config(cfg).periodic == periodic

    def test_negative_seed_override_exit_code(self, workspace, tmp_path, capsys):
        out = tmp_path / "never"
        assert run_cli("select", "--config", workspace["config"], "--seed", -1, "--out", out) == 1
        assert "seed must be a whole number >= 0, not -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("threshold", "1.5"), ("periodic", "0"), ("restarts", "0"), ("cost_c", "-0.01"),
        ("windows", "0"), ("candidates_per_window", "0"), ("candidates_per_window", "30"),
        ("periodic", "5,10,5"), ("n_clusters", "0"), ("n_clusters", "1"),
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

    @pytest.mark.parametrize("key,value,what", [
        ("shrinkage_alpha", 1.5, "alpha must be a finite number in [0, 1], not 1.5"),
        ("shrinkage_mu_target", -1.0, "sigma has a non-positive diagonal entry"),
        ("tickers", lambda t: t[:1], "GA needs at least 2 assets"),
    ], ids=["alpha", "mu_target", "one-ticker"])
    def test_selection_value_the_stage_refuses_exits_1_naming_the_file(
            self, workspace, tmp_path, capsys, key, value, what):
        """A value that passes the schema but that the estimate or the GA
        refuses is blamed on selection.json, as a weights file's would be."""
        out = tmp_path / "edited"
        run_cli("select", "--config", workspace["config"], "--out", out)
        path = out / "selection.json"
        blob = json.loads(path.read_text())
        blob[key] = value(blob[key]) if callable(value) else value
        path.write_text(json.dumps(blob))
        capsys.readouterr()
        assert run_cli("weights", "--config", workspace["config"], "--out", out) == 1
        assert capsys.readouterr().err == f"error [weights]: {path}: {what}\n"


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
        for name in (f"weights_{m.lower()}.json" for m in METHODS):
            (out / name).write_bytes((scheduled["out"] / name).read_bytes())
        assert run_cli("schedule", "--config", scheduled["config"], "--out", out) == 0
        assert calls == [list(METHODS)]

        cfg = parse_config(scheduled["config"])
        weights = cli._read_weights(cfg)
        test = cli._test_returns(cfg, weights["GA"].tickers)
        for i, method in enumerate(METHODS):
            qcfg = QaoaConfig(depth=cfg.depth, restarts=cfg.restarts, opt_shots=cfg.opt_shots,
                              eval_shots=cfg.eval_shots, max_iters=cfg.max_iters,
                              seed=_child_seed(cfg.seed, 10 + i))
            alone = batched(test, [weights[method]], cfg.windows, cfg.candidates_per_window, [qcfg],
                            QuboParams(cfg.lambda1, cfg.lambda2, cfg.lambda3, cfg.cost_c))[0]
            blob = json.loads((out / f"schedule_{method.lower()}.json").read_text())
            assert blob == json.loads(json.dumps(cli._schedule_record(method, alone)))


    def test_test_period_under_windows_times_2w_plus_2_exits_1_before_any_search(
            self, tmp_path, capsys, monkeypatch):
        # golden prices, windows = 3, candidates_per_window = 8: 3 * (2 * 8 + 2) = 54 days
        searches, search = [], qaoa._search
        monkeypatch.setattr(qaoa, "_search", lambda *args: searches.append(args) or search(*args))
        panel = golden_panel()
        write_csv(panel, tmp_path / "prices.csv")
        return_dates = panel.dates[1:]  # the golden train period is return rows 0..249
        for days in (30, 53, 54):
            config = tmp_path / f"{days}.cfg"
            config.write_text(golden_config_text(tmp_path / "prices.csv", tmp_path / "out",
                                                 test_end=return_dates[249 + days].isoformat()))
            if days == 30:
                for command in ("select", "weights"):
                    assert run_cli(command, "--config", config) == 0
            code = run_cli("schedule", "--config", config)
            if days < 54:
                assert (code, searches) == (1, [])
                assert (f"error [schedule]: test panel of {days} days is too short for 3 "
                        f"windows: need at least 54 test days") in capsys.readouterr().err
            else:
                assert code == 0 and searches


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
        assert set(blob) == MANIFEST_KEYS
        assert blob["config"]["seed"] == 5
        assert blob["curve_returns"] == "log"
        assert blob["optimiser"] == "grid-INTERP-SPSA"
        assert len(blob["config_sha256"]) == 64
        prices = Path(workspace["csv"]).read_bytes()
        assert blob["inputs"] == {"prices_sha256": hashlib.sha256(prices).hexdigest()}

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

    @pytest.mark.parametrize("artifact,key,command", [
        pytest.param("selection.json", "tickers", "weights", id="selection.json-tickers"),
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
        assert f"{path}: malformed artifact, {key}: missing key" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact,key,value,command,what", [
        # one case per kind and per reader; ``value`` may edit the written value
        pytest.param("selection.json", "tickers", 5, "weights", "5 is not a JSON list",
                     id="selection.json-tickers-int"),
        pytest.param("selection.json", "dropped_tickers", [1], "weights", "1 is not a string",
                     id="selection.json-dropped_tickers-ints"),
        pytest.param("selection.json", "per_cluster_sharpe", ["x"], "weights",
                     "'x' is not a finite float", id="selection.json-per_cluster_sharpe-strs"),
        pytest.param("selection.json", "labels", [], "weights", "[] is not a JSON object",
                     id="selection.json-labels-list"),
        pytest.param("selection.json", "shrinkage_alpha", [0.1], "weights",
                     "[0.1] is not a finite float", id="selection.json-shrinkage_alpha-list"),
        pytest.param("selection.json", "shrinkage_alpha", None, "weights",
                     "None is not a finite float", id="selection.json-shrinkage_alpha-null"),
        pytest.param("selection.json", "shrinkage_alpha", "abc", "weights",
                     "'abc' is not a finite float", id="selection.json-shrinkage_alpha-str"),
        pytest.param("selection.json", "shrinkage_alpha", float("inf"), "weights",
                     "inf is not a finite float", id="selection.json-shrinkage_alpha-inf"),
        pytest.param("selection.json", "shrinkage_mu_target", {}, "weights",
                     "{} is not a finite float", id="selection.json-shrinkage_mu_target-object"),
        pytest.param("selection.json", "note", "hand-edited", "weights", "unknown key",
                     id="selection.json-unknown"),
        pytest.param("selection.json", "tickers", lambda t: [t[0], *t], "weights",
                     "more than once", id="selection.json-tickers-repeated"),
        pytest.param("selection.json", "tickers", [], "weights",
                     "tickers must be one or more non-blank strings, not []",
                     id="selection.json-tickers-empty"),
        pytest.param("selection.json", "tickers", lambda t: [t[0], ""], "weights",
                     "tickers must be one or more non-blank strings, not ''",
                     id="selection.json-tickers-blank"),
        pytest.param("weights_ga.json", "tickers", 5, "backtest", "5 is not a JSON list",
                     id="weights_ga.json-tickers-int"),
        pytest.param("weights_ga.json", "tickers", lambda t: [t[0], t[0], *t[2:]], "backtest",
                     "more than once", id="weights_ga.json-tickers-repeated"),
        pytest.param("weights_minvar.json", "tickers", [1, 2], "schedule", "1 is not a string",
                     id="weights_minvar.json-tickers-ints"),
        pytest.param("weights_ga.json", "weights", lambda w: [[x] for x in w], "backtest",
                     "] is not a finite float", id="weights_ga.json-weights-nested"),
        pytest.param("weights_ga.json", "weights", lambda w: [w[0], None, *w[2:]], "schedule",
                     "None is not a finite float", id="weights_ga.json-weights-null"),
        pytest.param("weights_ga.json", "train_sharpe", "x", "backtest",
                     "'x' is not a finite float", id="weights_ga.json-train_sharpe-str"),
        pytest.param("schedule_ga.json", "schedule", [2], "backtest",
                     "bits must be a 0/1 vector", id="schedule_ga.json-schedule-2"),
        pytest.param("schedule_ga.json", "schedule", "0101", "backtest",
                     "'0101' is not a JSON list", id="schedule_ga.json-schedule-str"),
        pytest.param("schedule_ga.json", "schedule", lambda b: [0.5, *b[1:]], "backtest",
                     "0.5 is not an integer", id="schedule_ga.json-schedule-0.5"),
        pytest.param("schedule_ga.json", "schedule", lambda b: [True, *map(bool, b[1:])],
                     "backtest", "True is not an integer", id="schedule_ga.json-schedule-bools"),
        pytest.param("schedule_ga.json", "schedule", lambda b: [1.0, *map(float, b[1:])],
                     "backtest", "1.0 is not an integer", id="schedule_ga.json-schedule-floats"),
        pytest.param("schedule_ga.json", "schedule", lambda b: [*b[:-1], bool(b[-1])],
                     "backtest", "is not an integer", id="schedule_ga.json-schedule-last-bool"),
        pytest.param("schedule_ga.json", "schedule", lambda b: [256, *b[1:]], "backtest",
                     "bits must be a 0/1 vector", id="schedule_ga.json-schedule-256"),
        pytest.param("schedule_ga.json", "schedule", [0, 1], "backtest",
                     "2 bits for 99 test days", id="schedule_ga.json-schedule-short"),
        pytest.param("schedule_ga.json", "schedule", [], "backtest",
                     "0 bits for 99 test days", id="schedule_ga.json-schedule-empty"),
        pytest.param("schedule_minvar.json", "method", "GA", "backtest", "'GA' is not 'MinVar'",
                     id="schedule_minvar.json-method"),
        pytest.param("schedule_ga.json", "total_rebalances", True, "backtest",
                     "True is not an integer", id="schedule_ga.json-total_rebalances-bool"),
        pytest.param("schedule_ga.json", "total_rebalances", lambda n: n + 92, "backtest",
                     "is not the sum of the schedule's bits",
                     id="schedule_ga.json-total_rebalances-sum"),
        pytest.param("schedule_ga.json", "optimiser", 5, "backtest", "5 is not a string",
                     id="schedule_ga.json-optimiser-int"),
        pytest.param("schedule_ga.json", "windows", 5, "backtest", "5 is not a JSON list",
                     id="schedule_ga.json-windows-int"),
        pytest.param("schedule_ga.json", "note", "hand-edited", "backtest", "unknown key",
                     id="schedule_ga.json-unknown"),
        pytest.param("selection.json", "tickers", Twice(["X"]), "weights", "repeated key",
                     id="selection.json-tickers-twice"),
        pytest.param("weights_minvar.json", "method", Twice("GA"), "backtest", "repeated key",
                     id="weights_minvar.json-method-twice"),
        pytest.param("schedule_ga.json", "schedule", Twice([]), "backtest", "repeated key",
                     id="schedule_ga.json-schedule-twice"),
    ])
    def test_artifact_value_of_the_wrong_kind_exits_1_naming_file_and_key(
            self, backtested, tmp_path, capsys, artifact, key, value, command, what):
        out = tmp_path / "mistyped"
        shutil.copytree(backtested["out"], out)
        path = out / artifact
        blob = json.loads(path.read_text())
        if isinstance(value, Twice):  # "key": first, ahead of the key as written
            text = "{" + f"{json.dumps(key)}: {json.dumps(value.first)}, " + json.dumps(blob)[1:]
        else:
            blob[key] = value(blob[key]) if callable(value) else value
            text = json.dumps(blob)
        path.write_text(text)
        assert run_cli(command, "--config", backtested["config"], "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: {path}: malformed artifact, {key}: ")
        assert what in err

    @pytest.mark.parametrize("artifact,old,new,key,command", [
        pytest.param("selection.json", '"labels": {', '"labels": {"A": 0, "A": 1, ', "A",
                     "weights", id="selection.json-labels"),
        pytest.param("schedule_ga.json", '"start": ', '"start": 0, "start": ', "start",
                     "backtest", id="schedule_ga.json-windows"),
    ])
    def test_a_key_repeated_inside_a_value_exits_1(self, backtested, tmp_path, capsys,
                                                   artifact, old, new, key, command):
        out = tmp_path / "repeated"
        shutil.copytree(backtested["out"], out)
        path = out / artifact
        path.write_text(path.read_text().replace(old, new, 1))
        assert run_cli(command, "--config", backtested["config"], "--out", out) == 1
        assert (f"error [{command}]: {path}: malformed artifact, {key}: repeated key"
                in capsys.readouterr().err)

    def test_weights_with_an_extra_key_exits_1(self, backtested, tmp_path, capsys):
        out = tmp_path / "extra"
        shutil.copytree(backtested["out"], out)
        path = out / "weights_ga.json"
        blob = json.loads(path.read_text())
        blob["note"] = "hand-edited"
        path.write_text(json.dumps(blob))
        assert run_cli("backtest", "--config", backtested["config"], "--out", out) == 1
        assert f"{path}: malformed artifact, note: unknown key" in capsys.readouterr().err

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
        assert (f"error [{command}]: {path}: malformed artifact, method: 'MinVar' is not 'GA'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["schedule", "backtest"])
    def test_weights_on_other_tickers_than_the_ga_files_exit_1(self, backtested, tmp_path,
                                                               capsys, command):
        out = tmp_path / "reordered"
        shutil.copytree(backtested["out"], out)
        path = out / "weights_minvar.json"
        blob = json.loads(path.read_text())
        blob["tickers"], blob["weights"] = blob["tickers"][::-1], blob["weights"][::-1]
        path.write_text(json.dumps(blob))
        assert run_cli(command, "--config", backtested["config"], "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error [{command}]: {path}: weights for tickers" in err
        assert "weights_ga.json" not in err

    def test_schedule_and_backtest_take_the_tickers_from_the_weights(self, backtested,
                                                                      tmp_path):
        out = tmp_path / "unselected"
        shutil.copytree(backtested["out"], out)
        written = [*(f"{kind}_{m.lower()}.{ext}" for m in METHODS
                     for kind, ext in (("schedule", "json"), ("histogram", "csv"))),
                   "metrics.csv", "curves.csv", "manifest.json"]

        def schedule_and_backtest():
            for command in ("schedule", "backtest"):
                assert run_cli(command, "--config", backtested["config"], "--out", out) == 0
            return {name: (out / name).read_bytes() for name in written}

        with_selection = schedule_and_backtest()
        (out / "selection.json").unlink()
        assert schedule_and_backtest() == with_selection

    @pytest.mark.parametrize("text,reason", [
        pytest.param('{"method": "GA", ', "Expecting property name", id="truncated"),
        pytest.param("null", "not a JSON object", id="null"),
        pytest.param(b'{"method": "G\xff"}', "'utf-8' codec can't decode", id="not-utf8"),
    ])
    def test_unreadable_weights_exit_1_naming_the_file(self, backtested, tmp_path, capsys, text,
                                                       reason):
        out = tmp_path / "unreadable"
        shutil.copytree(backtested["out"], out)
        path = out / "weights_ga.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert run_cli("schedule", "--config", backtested["config"], "--out", out) == 1
        assert f"error [schedule]: {path}: malformed artifact: {reason}" in capsys.readouterr().err


    @pytest.mark.parametrize("artifact,command", [
        ("selection.json", "weights"),
        ("weights_ga.json", "schedule"),
        ("schedule_ga.json", "backtest"),
    ])
    def test_artifact_that_is_a_directory_exits_1_naming_it(self, backtested, tmp_path, capsys,
                                                            artifact, command):
        out = tmp_path / "directory"
        shutil.copytree(backtested["out"], out)
        path = out / artifact
        path.unlink()
        path.mkdir()
        assert run_cli(command, "--config", backtested["config"], "--out", out) == 1
        assert (f"error [{command}]: {path}: malformed artifact: not a regular file"
                in capsys.readouterr().err)


    def test_unwritable_output_exits_2_as_a_runtime_error(self, backtested, tmp_path, capsys):
        out = tmp_path / "blocked"
        shutil.copytree(backtested["out"], out)
        (out / "metrics.csv").unlink()
        (out / "metrics.csv").mkdir()
        assert run_cli("backtest", "--config", backtested["config"], "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error [backtest]: [Errno 21] Is a directory")
        assert "metrics.csv" in err


@pytest.fixture(scope="module")
def in_memory(backtested):
    """The config, each method's ``ScheduleResult`` and the backtest reports,
    computed in memory from the ``select`` and ``weights`` handoffs."""
    cfg = parse_config(backtested["config"])
    weights = cli._read_weights(cfg)
    test = cli._test_returns(cfg, weights["GA"].tickers)
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
                assert top == win.outcome.histogram_rows()[:20]

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
                days = win.qubo.candidates + win.start
                assert [blob["start"] + c for c in local] == days.tolist()
                assert len(local) == len(win.qubo.q)
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


def readme_section(title: str) -> str:
    return README.read_text().split(f"### {title}\n", 1)[1].split("\n#", 1)[0]


def _file_names(name: str) -> list[str]:
    """A README file name with ``<method>`` and each ``{a,b}`` group expanded."""
    return _expand(name.replace("<method>", "{" + ",".join(m.lower() for m in METHODS) + "}"))


def readme_artifacts() -> set[str]:
    """Every file name in the README's "Artifacts" section, expanded."""
    return {
        expanded
        for name in re.findall(r"`([^`\s]+\.(?:json|csv))`", readme_section("Artifacts"))
        for expanded in _file_names(name)
    }


def test_readme_artifacts_are_the_files_a_run_writes(workspace, tmp_path):
    assert _expand("a_{x,y}_{1,2}.csv") == ["a_x_1.csv", "a_x_2.csv", "a_y_1.csv", "a_y_2.csv"]
    out = tmp_path / "run"
    for command in ("select", "weights", "schedule", "backtest"):
        assert run_cli(command, "--config", workspace["config"], "--out", out) == 0
    assert readme_artifacts() == {path.name for path in out.iterdir()}


def readme_json_keys() -> dict[str, list[str]]:
    """The ``{key, key, …}`` list written after each JSON file name in the
    README's "Artifacts" section, by expanded file name."""
    listed = re.findall(r"`([^`\s]+\.json)`\s*\(`\{([^`{}]*)\}`", readme_section("Artifacts"))
    return {expanded: keys.split(", ") for name, keys in listed for expanded in _file_names(name)}


def test_readme_json_keys_are_the_schema_keys():
    schema = {name: sorted(kinds) for name, (_, kinds) in cli._ARTIFACTS.items()}
    readme = {name: sorted(keys) for name, keys in readme_json_keys().items()}
    assert readme == {**schema, "manifest.json": sorted(MANIFEST_KEYS)}


def test_every_json_file_of_a_run_passes_its_schema(backtested):
    cfg = parse_config(backtested["config"])
    written = {path.name for path in backtested["out"].glob("*.json")}
    assert written == {*cli._ARTIFACTS, "manifest.json"}
    for name, (_, kinds) in cli._ARTIFACTS.items():
        blob = json.loads((backtested["out"] / name).read_text())
        assert set(cli._read_artifact(cfg, name)) == set(blob) == set(kinds), name


def readme_config_defaults() -> dict:
    """Each key of the README's config table with its default parsed by the
    key's config parser; a key without one (``—``) maps to ``MISSING``."""
    section = readme_section("Config file")
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
    @given(late=st.lists(st.tuples(st.integers(1, 60),  # distinct days after test_end
                                   st.lists(_CELLS, min_size=6, max_size=6)),  # 6 tickers
                         min_size=1, max_size=3, unique_by=lambda row: row[0]))
    def test_rows_after_test_end_change_no_artifact(self, workspace, unedited, late):
        """Every byte stays but the manifest's digest of the prices file, which
        covers the whole file, late rows too."""
        prices, options, artifacts = unedited
        rows = "".join(f"{workspace['test_end'] + timedelta(days=days)},{','.join(cells)}\n"
                       for days, cells in sorted(late))  # dates must increase
        with tempfile.TemporaryDirectory() as tmp:
            written = _run_stages(tmp, prices + rows, options, *_STAGES)
            digest = hashlib.sha256((Path(tmp) / "prices.csv").read_bytes()).hexdigest()
        manifest = json.loads(written.pop("manifest.json"))
        unedited_manifest = json.loads(artifacts["manifest.json"])
        assert manifest.pop("inputs") == {"prices_sha256": digest}
        del unedited_manifest["inputs"]
        assert manifest == unedited_manifest
        assert written == {name: blob for name, blob in artifacts.items()
                           if name != "manifest.json"}

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
