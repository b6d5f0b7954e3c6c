"""Benchmark inputs: one price panel and one CLI config per workload.

Every workload is one fixed problem instance. The QAOA quality metrics
(``qaoa_gap_mean``, ``qaoa_optimal_frac``) are deterministic per instance but
swing by a factor of three between instances (12 windows per golden run), so
a seed-dependent instance would make those gates compare different problems.
The ``--seed`` of the benchmark therefore feeds only the kernel sweep's random
inputs (see ``kernels.py``); the pipeline instance of a workload never moves.
"""
from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np

from quantfolio import load_csv, synth_panel, write_csv

# The repo's reference run (tests/golden_pipeline.py): its bundled panel, read
# from tests/data, and a copy of its config and train/test split.
GOLDEN_PRICES = os.path.join("tests", "data", "golden_prices.csv")
GOLDEN_SEED = 2718
GOLDEN_TRAIN_DAYS = 250
GOLDEN_CONFIG = {
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
}

WIDE_SEED = 500
_WIDE_SECTORS = 10
_WIDE_PER_SECTOR = 50
_WIDE_DAYS = 1250


@dataclass(frozen=True)
class Workload:
    name: str
    eval_shots: int  # histogram total per window, checked on every run
    reference_metrics: str | None  # repo file metrics.csv is compared against


WORKLOADS = {
    "golden": Workload("golden", GOLDEN_CONFIG["eval_shots"],
                       os.path.join("tests", "data", "golden_metrics.csv")),
    "wide": Workload("wide", 4096, None),
    "deep_window": Workload("deep_window", GOLDEN_CONFIG["eval_shots"], None),
}


def wide_panel():
    """500 tickers in 10 planted sectors (within 0.5, across 0.1)."""
    m = _WIDE_SECTORS * _WIDE_PER_SECTOR
    sector = np.repeat(np.arange(_WIDE_SECTORS), _WIDE_PER_SECTOR)
    corr = np.where(sector[:, None] == sector[None, :], 0.5, 0.1)
    np.fill_diagonal(corr, 1.0)
    rng = np.random.default_rng(WIDE_SEED)
    return synth_panel(
        seed=WIDE_SEED,
        T=_WIDE_DAYS,
        M=m,
        target_corr=corr,
        ann_vol=rng.uniform(0.15, 0.45, m),
        ann_drift=rng.uniform(-0.05, 0.25, m),
    )


def _config_text(options: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in options.items())


def write_inputs(name: str, workdir: str) -> int:
    """Write ``prices.csv`` and ``run.cfg`` for a workload under ``workdir``.

    Paths inside the config are relative to ``workdir`` (the stage processes
    run there), so the artifacts, manifest included, are byte-identical from
    run to run. Returns the number of test days.
    """
    prices = os.path.join(workdir, "prices.csv")
    if name == "wide":
        # RunConfig defaults but for restarts (5): two keep a pipeline short
        # enough for three to run in one 55 s run on a 2-vCPU host.
        panel, options = wide_panel(), {"restarts": 2}
        n_train = int(0.6 * (panel.n_days - 1))
        write_csv(panel, prices)
    elif name in ("golden", "deep_window"):
        shutil.copyfile(GOLDEN_PRICES, prices)
        panel, n_train = load_csv(prices), GOLDEN_TRAIN_DAYS
        options = dict(GOLDEN_CONFIG)
        if name == "deep_window":
            options.update(candidates_per_window=14, restarts=1, max_iters=60)
    else:
        raise ValueError(f"unknown workload {name!r}")

    return_dates = panel.dates[1:]
    config = {
        "prices_csv": "prices.csv",
        "out_dir": "out",
        "train_end": return_dates[n_train - 1].isoformat(),
        "test_end": return_dates[-1].isoformat(),
        **options,
    }
    with open(os.path.join(workdir, "run.cfg"), "w") as fh:
        fh.write(_config_text(config))
    return len(return_dates) - n_train
