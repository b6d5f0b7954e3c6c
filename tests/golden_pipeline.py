"""Bundled end-to-end regression fixture.

Generates a seeded synthetic price panel, runs the four CLI stages on it, and
freezes the resulting metrics table and the sha256 of every artifact the run
writes (``golden_artifacts.json``), and the sha256 of every artifact of the
same run at ``DEEP_WINDOW``'s settings (``deep_window_artifacts.json``: 14
candidate dates per window, one restart of at most 60 iterations, the
``deep_window`` workload of ``perfbench``). The config names its paths
relative to the run's directory, so no artifact, the manifest included, embeds
where the run happened. Byte-identity is promised within one environment only:
the pipeline runs on numpy alone (the QAOA angle search included), and the
last digits of its floats, and so the path of the angle search, depend on the
numpy version and its BLAS. ``golden_env.json`` names the environment the
golden bytes were made in: the Python and numpy versions, the BLAS name and
version, and the two code paths that choose the arithmetic on a given CPU:
the kernel of numpy's bundled OpenBLAS (``openblas_core``; ``OPENBLAS_CORETYPE``
forces another) and numpy's enabled SIMD features (``cpu_features``;
``NPY_DISABLE_CPU_FEATURES`` turns some off).

When acceptance test 11 fails, its message names the file that differs, each
metrics row and column that differs with its golden and current value, and
whether ``golden_env.json`` matches the running environment. A mismatch there
explains drift, it does not excuse it: the comparison stays byte-exact. If the
environments match, the program's output changed; if they differ, first check
that the drift is the library's. After a controlled dependency upgrade, or a
change that is meant to alter the output, regenerate all five files with

    python tests/golden_pipeline.py

and review the diff before committing it: the prices must not change, the
non-QAOA rows should move in the last digits only, each QAOA row's rebalance
count must equal the schedule bits of its ``schedule_<method>.json``, every
window's gap must be >= 0, a second run must give the same bytes, and the
change says which files of the two pin files moved, and why.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import pathlib
import platform

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from quantfolio import synth_panel, write_csv
from quantfolio.cli import main

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN_PRICES = DATA_DIR / "golden_prices.csv"
GOLDEN_METRICS = DATA_DIR / "golden_metrics.csv"
GOLDEN_ENV = DATA_DIR / "golden_env.json"
GOLDEN_ARTIFACTS = DATA_DIR / "golden_artifacts.json"
DEEP_WINDOW_ARTIFACTS = DATA_DIR / "deep_window_artifacts.json"
STAGES = ("select", "weights", "schedule", "backtest")

GOLDEN_SEED = 2718
_SIZES = (4, 4, 4)
# the golden run at 14 candidate dates per window: a 2^14-state QAOA search
DEEP_WINDOW = {"candidates_per_window": 14, "restarts": 1, "max_iters": 60}


def golden_panel():
    m = sum(_SIZES)
    corr = np.full((m, m), 0.1)
    offset = 0
    for size in _SIZES:
        corr[offset : offset + size, offset : offset + size] = 0.6
        offset += size
    np.fill_diagonal(corr, 1.0)
    return synth_panel(
        seed=GOLDEN_SEED,
        T=400,
        M=m,
        target_corr=corr,
        ann_vol=np.linspace(0.15, 0.35, m),
        ann_drift=np.linspace(0.0, 0.30, m),
    )


def golden_config_text(csv_path, out_dir, **settings) -> str:
    """The golden run's config; ``settings`` override or add ``key = value``
    lines (``DEEP_WINDOW``)."""
    return_dates = golden_panel().dates[1:]
    config = {
        "prices_csv": csv_path,
        "out_dir": out_dir,
        "train_end": return_dates[249].isoformat(),
        "test_end": return_dates[-1].isoformat(),
        "n_clusters": 4,
        "ga_population": 60,
        "ga_generations": 40,
        "candidates_per_window": 8,
        "windows": 3,
        "restarts": 3,
        "opt_shots": 1024,
        "eval_shots": 2048,
        "max_iters": 80,
        "seed": GOLDEN_SEED,
        **settings,
    }
    return "".join(f"{key} = {value}\n" for key, value in config.items())


def in_process(argv: list[str]) -> int:
    """Run one stage through ``main`` in this process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def run_pipeline(workdir, run_stage=in_process, *, prices=None, settings=None) -> pathlib.Path:
    """Write the golden panel (or the ``prices`` panel) and the golden config
    (with ``settings``) under ``workdir``, run all four stages there, each as
    ``run_stage(argv)`` (default: ``main`` in this process), and return the
    metrics.csv path."""
    workdir = pathlib.Path(workdir).resolve()
    os.makedirs(workdir, exist_ok=True)
    write_csv(golden_panel() if prices is None else prices, workdir / "prices.csv")
    (workdir / "golden.cfg").write_text(
        golden_config_text("prices.csv", "artifacts", **(settings or {})))
    with contextlib.chdir(workdir):
        for command in STAGES:
            code = run_stage([command, "--config", "golden.cfg"])
            if code != 0:
                raise RuntimeError(f"golden pipeline stage {command!r} exited with {code}")
    return workdir / "artifacts" / "metrics.csv"


def artifact_digests(out_dir) -> dict[str, str]:
    """The sha256 of each file in ``out_dir``, by file name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(pathlib.Path(out_dir).iterdir())}


def artifacts_diff(out_dir, pins=None) -> list[str]:
    """One line per file of ``out_dir`` or of the pins whose digest differs
    from the pin file ``pins`` (default ``golden_artifacts.json``), named;
    empty when every file matches."""
    pinned = json.loads((GOLDEN_ARTIFACTS if pins is None else pins).read_text())
    current = artifact_digests(out_dir)
    return [
        f"{name}: " + ("not written" if name not in current
                       else "not pinned" if name not in pinned else "differs")
        for name in sorted(pinned.keys() | current.keys())
        if pinned.get(name) != current.get(name)
    ]


def _openblas_core() -> str | None:
    """The kernel that numpy's bundled OpenBLAS runs on this CPU (``SkylakeX``,
    or what ``OPENBLAS_CORETYPE`` forces); None without that library."""
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict:
    """The library versions and code paths that the golden bytes are tied to."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_core": _openblas_core(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def _change(key: str, recorded, current) -> str:
    """``key old -> new``; for a list, ``key -gone +added``."""
    if isinstance(recorded, list) and isinstance(current, list):
        return f"{key} " + " ".join([f"-{v}" for v in recorded if v not in current]
                                    + [f"+{v}" for v in current if v not in recorded])
    return f"{key} {recorded} -> {current}"


def environment_note() -> str:
    """One line: does ``golden_env.json`` match the running environment?"""
    if not GOLDEN_ENV.exists():
        return f"no recorded environment ({GOLDEN_ENV.name} is missing)"
    recorded = json.loads(GOLDEN_ENV.read_text())
    current = environment()
    changed = [_change(key, recorded.get(key), current.get(key))
               for key in sorted(recorded.keys() | current.keys())
               if recorded.get(key) != current.get(key)]
    if not changed:
        return "recorded environment matches this one: the difference is not library drift"
    return "recorded environment differs from this one: " + ", ".join(changed)


def _rows(data: bytes) -> tuple[list[str], dict[str, dict[str, str]]]:
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return header, {row[0]: dict(zip(header, row)) for row in rows}


def metrics_diff(golden: bytes, current: bytes) -> list[str]:
    """One line per metrics row and column whose cell differs."""
    g_header, g_rows = _rows(golden)
    c_header, c_rows = _rows(current)
    if g_header != c_header:
        return [f"header: golden {g_header} != current {c_header}"]
    lines = []
    for strategy in dict.fromkeys([*g_rows, *c_rows]):
        g_row, c_row = g_rows.get(strategy), c_rows.get(strategy)
        if g_row is None or c_row is None:
            lines.append(f"{strategy}: row only in {'golden' if c_row is None else 'current'}")
            continue
        lines += [f"{strategy} / {column}: golden {g_row[column]!r}, current {c_row[column]!r}"
                  for column in g_header[1:] if g_row[column] != c_row[column]]
    return lines or ["same cells, different bytes (row order, formatting or line endings)"]


def mismatch_report(prices: bytes, metrics: bytes) -> str:
    """What differs between a fresh run's bytes and the golden files, and
    whether the golden files were recorded in this environment. Empty when
    both files are byte-identical."""
    lines = []
    if prices != GOLDEN_PRICES.read_bytes():
        lines.append(f"{GOLDEN_PRICES.name} differs")
    golden_metrics = GOLDEN_METRICS.read_bytes()
    if metrics != golden_metrics:
        lines.append(f"{GOLDEN_METRICS.name} differs:")
        lines += ["  " + line for line in metrics_diff(golden_metrics, metrics)]
    if lines:
        lines.append(environment_note())
    return "\n".join(lines)


def _write_pins(path, out_dir) -> None:
    path.write_text(json.dumps(artifact_digests(out_dir), indent=2, sort_keys=True) + "\n")


def regenerate() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    write_csv(golden_panel(), GOLDEN_PRICES)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        metrics = run_pipeline(pathlib.Path(tmp) / "golden")
        GOLDEN_METRICS.write_bytes(metrics.read_bytes())
        _write_pins(GOLDEN_ARTIFACTS, metrics.parent)
        deep = run_pipeline(pathlib.Path(tmp) / "deep_window", settings=DEEP_WINDOW)
        _write_pins(DEEP_WINDOW_ARTIFACTS, deep.parent)
    GOLDEN_ENV.write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")
    for path in (GOLDEN_PRICES, GOLDEN_METRICS, GOLDEN_ARTIFACTS, DEEP_WINDOW_ARTIFACTS,
                 GOLDEN_ENV):
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
