"""Hierarchical asset clustering on angular distances and Sharpe-maximising
representative selection.

Ward linkage is run directly on the precomputed distance matrix via the
Lance-Williams recurrence, on one M x M matrix of squared distances (exactly
symmetric, as ``market_data._square`` admits it) updated in place: merging
slots i < j writes row and column i and sets row and column j to inf, as the
diagonal is, so a dead slot never wins the argmin. That is O(M^2) numpy work
per merge and no per-merge allocation of M x M arrays. All tie-breaking is
deterministic: merges go to the lexicographically smallest slot pair, a
cluster's slot is its smallest member, cluster ids are ordered by smallest
member index, and representative ties go to the lexicographically first ticker.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import ANNUALISATION, ReturnPanel, _check_count, _flat, _frozen_integers, _square


class ZeroVolatilityError(ValueError):
    """A return series has zero standard deviation, so its Sharpe ratio is
    undefined."""


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Per-asset cluster labels in 0..n_clusters-1, every id non-empty."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = _frozen_integers(self.labels, "labels")
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty vector")
        present = set(labels.tolist())
        if present != set(range(len(present))):
            raise ValueError(f"labels must cover every id from 0 up, got {sorted(present)}")
        object.__setattr__(self, "labels", labels)

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


def annualised_sharpe(series):
    """Mean over sample standard deviation (T-1 denominator) times sqrt(252)
    over the last axis: a float for one series, one Sharpe per row of a
    ``(P, T)`` batch. Any flat series (constant up to rounding, see
    ``market_data._flat``) raises ``ZeroVolatilityError``."""
    r = np.asarray(series, dtype=float)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValueError("need at least 2 observations")
    sd = r.std(axis=-1, ddof=1)
    mean = r.mean(axis=-1)
    if np.any(_flat(sd, mean)):
        raise ZeroVolatilityError("zero volatility: Sharpe ratio undefined")
    sharpe = mean / sd * ANNUALISATION
    return float(sharpe) if r.ndim == 1 else sharpe


def ward_cluster(dist, n: int) -> ClusterAssignment:
    """Cut the Ward-linkage merge tree of a distance matrix at ``n`` clusters.

    Implements the Lance-Williams update on squared distances:
    d2(ij,k) = ((si+sk) d2(i,k) + (sj+sk) d2(j,k) - sk d2(i,j)) / (si+sj+sk).
    Deterministic for a given input; relabelling-invariant to input order.
    """
    d = _square(dist, "distance matrix", sym_atol=1e-10)
    m = len(d)
    if not np.allclose(np.diag(d), 0.0, rtol=0.0, atol=1e-12):
        raise ValueError("distance matrix diagonal must be 0")
    if np.any(d < 0.0) or not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite and non-negative")
    _check_count(n, "n")
    if n > m:
        raise ValueError(f"n must be in 1..{m}, got {n}")

    # d2 is symmetric, so argmin's first hit is the smallest minimal pair, i < j
    d2 = d ** 2
    np.fill_diagonal(d2, np.inf)
    size = np.ones(m)
    slot = np.arange(m)  # each asset's cluster: the slot of its smallest member

    for _ in range(m - n):
        i, j = divmod(int(np.argmin(d2)), m)

        si, sj, sk = size[i], size[j], size
        merged = ((si + sk) * d2[i] + (sj + sk) * d2[j] - sk * d2[i, j]) / (si + sj + sk)
        d2[i, :] = merged  # inf at i, j and every dead slot
        d2[:, i] = merged
        d2[j, :] = np.inf
        d2[:, j] = np.inf
        size[i] = si + sj
        slot[slot == j] = i

    labels = np.unique(slot, return_inverse=True)[1]
    return ClusterAssignment(labels)


def select_representatives(assign: ClusterAssignment, train: ReturnPanel) -> tuple[str, ...]:
    """Each cluster's highest-Sharpe member on the training panel, in cluster-id
    order.

    Ties break lexicographically by ticker. Members with zero volatility are
    skipped; a cluster whose every member is flat is an error.
    """
    if assign.labels.shape != (train.n_assets,):
        raise ValueError(
            f"{assign.labels.size} labels for {train.n_assets} train tickers"
        )
    reps: list[str] = []
    for cid in range(assign.n_clusters):
        scored: list[tuple[float, str]] = []
        for i in assign.members(cid):
            try:
                scored.append((-annualised_sharpe(train.log_returns[:, i]), train.tickers[i]))
            except ZeroVolatilityError:
                continue
        if not scored:
            raise ZeroVolatilityError(
                f"cluster {cid}: every member has zero volatility"
            )
        reps.append(min(scored)[1])
    return tuple(reps)
