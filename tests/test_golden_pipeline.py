"""The golden fixture's failure report: it must name what differs and say
whether the recorded environment is the running one. And every artifact of
the golden run, in this process and as four stage processes, matches its
pinned digest, as does every artifact of the golden run at 14 candidate
dates per window.

Prices multiplied by a power of two leave every gross return, and so every
golden artifact but the manifest, byte-identical; so does any order of the
price file's columns, since the loader sorts the universe by name. The
manifest records the digest of the prices file it read, so it differs under
the scaling or the reordering and is left out of those checks."""
import contextlib
import json
import subprocess
import sys

import numpy as np
import pytest

import golden_pipeline
from golden_pipeline import (
    DEEP_WINDOW, DEEP_WINDOW_ARTIFACTS, STAGES, artifact_digests, artifacts_diff, environment,
    environment_note, golden_panel, in_process, metrics_diff, run_pipeline,
)
from quantfolio import PricePanel

from conftest import subprocess_env

GOLDEN = (
    b"strategy,sharpe,rebalances\n"
    b"GA Buy&Hold,1.25,0\n"
    b"GA + QAOA,0.5,7\n"
)


def test_identical_cells_report_nothing_but_the_bytes():
    assert metrics_diff(GOLDEN, GOLDEN.replace(b"\n", b"\r\n")) == [
        "same cells, different bytes (row order, formatting or line endings)"
    ]


def test_each_differing_cell_is_named_with_both_values():
    current = GOLDEN.replace(b"0.5,7", b"0.5,11").replace(b"1.25", b"1.2500000000000002")
    assert metrics_diff(GOLDEN, current) == [
        "GA Buy&Hold / sharpe: golden '1.25', current '1.2500000000000002'",
        "GA + QAOA / rebalances: golden '7', current '11'",
    ]


def test_missing_and_extra_rows_and_headers():
    current = GOLDEN.replace(b"GA + QAOA", b"MinVar + QAOA")
    assert metrics_diff(GOLDEN, current) == [
        "GA + QAOA: row only in golden",
        "MinVar + QAOA: row only in current",
    ]
    assert metrics_diff(GOLDEN, GOLDEN.replace(b"sharpe", b"sortino"))[0].startswith("header:")


def test_environment_note_names_each_changed_version(tmp_path, monkeypatch):
    env_file = tmp_path / "golden_env.json"
    monkeypatch.setattr(golden_pipeline, "GOLDEN_ENV", env_file)
    assert "missing" in environment_note()

    env = environment()
    assert set(env) == {"python", "numpy", "blas", "blas_version", "openblas_core",
                        "cpu_features"}
    env_file.write_text(json.dumps(env))
    assert environment_note().startswith("recorded environment matches")

    env_file.write_text(json.dumps({**env, "numpy": "1.26.4"}))
    assert environment_note() == (
        f"recorded environment differs from this one: numpy 1.26.4 -> {env['numpy']}"
    )

    # a code path that differs: another OpenBLAS kernel, one CPU feature more
    recorded = {**env, "openblas_core": "Prescott",
                "cpu_features": [*env["cpu_features"], "SSE9"]}
    env_file.write_text(json.dumps(recorded))
    assert environment_note() == (
        "recorded environment differs from this one: cpu_features -SSE9, "
        f"openblas_core Prescott -> {env['openblas_core']}"
    )


def test_artifacts_diff_names_each_file_that_differs(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("a.json", "b.csv", "c.csv"):
        (out / name).write_text(name)
    pins = tmp_path / "golden_artifacts.json"
    monkeypatch.setattr(golden_pipeline, "GOLDEN_ARTIFACTS", pins)
    pins.write_text(json.dumps(artifact_digests(out)))
    assert artifacts_diff(out) == []

    (out / "b.csv").write_text("b.csv, edited")
    (out / "c.csv").unlink()
    (out / "d.csv").write_text("d.csv")
    assert artifacts_diff(out) == ["b.csv: differs", "c.csv: not written", "d.csv: not pinned"]


def stage_process(argv: list[str]) -> int:
    """Run one stage as ``python -m quantfolio.cli``, the process entry point."""
    return subprocess.run([sys.executable, "-m", "quantfolio.cli", *argv], env=subprocess_env(),
                          stdout=subprocess.DEVNULL, timeout=300).returncode


@pytest.mark.parametrize("run_stage", [in_process, stage_process], ids=["main", "processes"])
def test_every_golden_artifact_matches_its_pin(tmp_path, run_stage):
    differ = artifacts_diff(run_pipeline(tmp_path, run_stage).parent)
    assert not differ, "\n".join(["golden artifacts differ from their pins:", *differ,
                                   environment_note()])


def test_every_deep_window_artifact_matches_its_pin(tmp_path):
    out = run_pipeline(tmp_path, settings=DEEP_WINDOW).parent
    differ = artifacts_diff(out, DEEP_WINDOW_ARTIFACTS)
    assert not differ, "\n".join(["deep_window artifacts differ from their pins:", *differ,
                                   environment_note()])


def test_prices_out_of_order_stop_every_stage_naming_the_line(tmp_path, capsys):
    """Lines 252 and 253 of the golden prices swapped: the row of ``train_end``
    (2015-12-17) now follows the day after it, which ``select`` and
    ``weights`` do not keep. Every stage exits 1 naming line 253."""
    run_pipeline(tmp_path)
    prices = tmp_path / "prices.csv"
    lines = prices.read_bytes().splitlines(keepends=True)
    lines[251], lines[252] = lines[252], lines[251]
    prices.write_bytes(b"".join(lines))
    capsys.readouterr()
    for command in STAGES:
        with contextlib.chdir(tmp_path):
            assert in_process([command, "--config", "golden.cfg"]) == 1
        assert capsys.readouterr().err == (
            f"error [{command}]: prices.csv: line 253 has date 2015-12-17, not after the "
            "previous row's 2015-12-18: dates must be strictly increasing\n")


@pytest.mark.parametrize("k", [-3, 1, 5])
def test_prices_times_a_power_of_two_leave_every_artifact_as_it_is(tmp_path, k):
    panel = golden_panel()
    scaled = PricePanel(panel.dates, panel.tickers, panel.prices * 2.0**k)
    differ = [line for line in artifacts_diff(run_pipeline(tmp_path, prices=scaled).parent)
              if not line.startswith("manifest.json:")]
    assert not differ, "\n".join([f"prices x 2^{k} moved golden artifacts:", *differ])


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_any_column_order_of_the_prices_leaves_every_artifact_as_it_is(tmp_path, order):
    panel = golden_panel()
    m = len(panel.tickers)
    cols = np.arange(m)[::-1] if order == "reversed" else np.random.default_rng(39).permutation(m)
    reordered = PricePanel(panel.dates, [panel.tickers[i] for i in cols], panel.prices[:, cols])
    differ = artifacts_diff(run_pipeline(tmp_path, prices=reordered).parent)
    assert "manifest.json: differs" in differ  # the prices file is not the golden one
    differ.remove("manifest.json: differs")
    assert not differ, "\n".join([f"{order} price columns moved golden artifacts:", *differ])
