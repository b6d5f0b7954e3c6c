import os
from pathlib import Path

import numpy as np
import pytest

import quantfolio
from quantfolio import ReturnPanel, synth_panel, to_returns


def subprocess_env() -> dict:
    """This process's environment with the imported quantfolio on PYTHONPATH,
    for running the package in a fresh interpreter."""
    src = str(Path(quantfolio.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def block_correlation(sizes, intra=0.8, inter=0.1) -> np.ndarray:
    """Block-structured correlation matrix (planted clusters)."""
    m = sum(sizes)
    corr = np.full((m, m), inter)
    offset = 0
    for size in sizes:
        corr[offset : offset + size, offset : offset + size] = intra
        offset += size
    np.fill_diagonal(corr, 1.0)
    return corr


def planted_panel(seed, sizes=(5, 5), T=800, intra=0.8, inter=0.1):
    """Synthetic return panel with planted correlation blocks."""
    corr = block_correlation(sizes, intra, inter)
    return to_returns(synth_panel(seed=seed, T=T, M=sum(sizes), target_corr=corr))


def gross_panel(gross, tickers=None) -> ReturnPanel:
    """Return panel straight from a gross-return matrix (dates auto-filled)."""
    from datetime import date, timedelta

    gross = np.atleast_2d(np.asarray(gross, dtype=float))
    t, m = gross.shape
    if tickers is None:
        tickers = tuple(f"A{i:03d}" for i in range(m))
    dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(t))
    return ReturnPanel(dates, tickers, gross)


@pytest.fixture
def two_group_panel():
    return planted_panel(seed=11)
