"""Shrinkage covariance estimation and the correlation / angular-distance
matrices derived from it.

The estimator blends the sample covariance with a scaled identity target,
``sigma = (1 - alpha) * sample + alpha * mu * I``, where ``mu`` is the average
sample eigenvalue (trace/M) and ``alpha`` is the analytic intensity of the
well-conditioned estimator: ``alpha = min(b2, d2) / d2`` with ``d2`` the
dispersion of the sample covariance around ``mu * I`` and ``b2`` the average
squared error of single-observation covariance estimates. All functions here
are pure and thread-safe.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .market_data import ReturnPanel, _flat, _frozen_array, _positions, _read_only, _square


@dataclass(frozen=True, eq=False)
class ShrunkCovariance:
    """Shrunk covariance with its intensity and shrinkage target.

    ``sigma`` is the one stored matrix: the exact symmetric part (``_square``)
    of the matrix given. ``corr`` (its correlation: diagonal 1, entries
    clamped to [-1, 1]) and ``dist`` (the angular distance
    ``sqrt((1 - corr) / 2)``: diagonal 0, entries in [0, 1]) are computed
    from it on first use and then kept; all three are read-only and exactly
    symmetric.
    """

    tickers: tuple[str, ...]
    sigma: np.ndarray
    alpha: float
    mu_target: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tickers", tuple(str(t) for t in self.tickers))
        sigma = _square(self.sigma, "sigma", sym_atol=1e-10)
        m = len(sigma)
        if len(self.tickers) != m:
            raise ValueError(f"{len(self.tickers)} tickers for a {m}x{m} sigma")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not np.all(np.diag(sigma) > 0.0):
            raise ValueError("sigma has a non-positive diagonal entry")
        object.__setattr__(self, "sigma", _frozen_array(sigma))

    @cached_property
    def corr(self) -> np.ndarray:
        std = np.sqrt(np.diag(self.sigma))
        corr = self.sigma / np.outer(std, std)
        corr = np.clip(corr, -1.0, 1.0)  # absorb 1-ulp overshoot from the division
        np.fill_diagonal(corr, 1.0)
        return _read_only(corr)

    @cached_property
    def dist(self) -> np.ndarray:
        return _read_only(angular_distance(self.corr))

    def restrict(self, tickers) -> "ShrunkCovariance":
        """Sub-estimate for a ticker subset, in the order given."""
        idx = _positions(self.tickers, tickers)
        return ShrunkCovariance(
            tuple(tickers), self.sigma[np.ix_(idx, idx)], self.alpha, self.mu_target
        )


def ledoit_wolf(returns: ReturnPanel) -> ShrunkCovariance:
    """Analytic shrinkage estimate of the covariance of a panel's log returns.

    The sample covariance uses the T-1 denominator; the intensity is computed
    from the biased (1/T) moments of the centred data, as in the original
    recipe. Constant assets are rejected by name: the flat test
    (``market_data._flat``) reads each asset's sample std from the sample
    covariance's diagonal, so no second pass over the returns computes it.
    """
    x = returns.log_returns
    t, m = x.shape
    if t < 2:
        raise ValueError("need at least 2 return rows")

    mean = x.mean(axis=0)
    xc = x - mean
    gram = xc.T @ xc
    sample = gram / (t - 1)
    flat = [returns.tickers[i] for i in np.flatnonzero(_flat(np.sqrt(np.diag(sample)), mean))]
    if flat:
        raise ValueError(f"constant asset(s) with zero variance: {', '.join(flat)}")

    # intensity from biased moments: alpha = min(b2, d2) / d2; dividing in
    # place keeps two M x M products alive, not three (peak RSS of ``select``)
    biased = np.divide(gram, t, out=gram)
    mu_biased = float(np.trace(biased) / m)
    d2 = float(((biased - mu_biased * np.eye(m)) ** 2).sum() / m)
    sq_norms = (xc ** 2).sum(axis=1)
    # b2_bar >= 0 exactly; on 2 rows its two sums are equal up to rounding
    b2_bar = max(0.0, float((np.sum(sq_norms ** 2) - t * (biased ** 2).sum()) / (t ** 2 * m)))
    if d2 <= 0.0:
        alpha = 0.0  # sample already equals the target (e.g. a single asset)
    else:
        alpha = min(b2_bar, d2) / d2

    return _shrunk(returns, float(alpha), float(np.trace(sample) / m), sample)


def _shrunk(returns: ReturnPanel, alpha: float, mu_target: float,
            sample=None) -> ShrunkCovariance:
    """``(1 - alpha) * sample + alpha * mu_target * I``: the shrinkage blend
    of the panel's sample covariance (T-1 denominator) with a given intensity
    and target. ``sample`` is that covariance if the caller already has it.
    A subset of a universe shrinks with the universe's ``alpha`` and
    ``mu_target``, so its estimate is the universe estimate's block without
    the universe's returns."""
    if sample is None:
        xc = returns.log_returns - returns.log_returns.mean(axis=0)
        sample = xc.T @ xc / (returns.n_days - 1)
    sigma = (1.0 - alpha) * sample + alpha * mu_target * np.eye(returns.n_assets)
    return ShrunkCovariance(returns.tickers, sigma, alpha, mu_target)


def angular_distance(rho):
    """Map correlation to the metric distance ``sqrt((1 - rho) / 2)``.

    Accepts scalars or arrays. Overshoot beyond |rho| = 1 up to 1e-12 is
    clamped; anything larger is rejected.
    """
    r = np.asarray(rho, dtype=float)
    if np.any(np.abs(r) > 1.0 + 1e-12):
        raise ValueError("correlation outside [-1, 1]")
    r = np.clip(r, -1.0, 1.0)
    d = np.sqrt((1.0 - r) / 2.0)
    return float(d) if np.ndim(rho) == 0 else d
