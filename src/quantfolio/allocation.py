"""Portfolio weight construction: entropy-regularised genetic search,
closed-form minimum variance, equal weights, and their three-way blend.

All four methods are deterministic given identical seeds and inputs. GA
fitness is evaluated for a whole generation at once with vectorised numpy, so
results cannot depend on evaluation order. ``portfolio_log_returns`` is the one
place where fixed weights meet gross returns: ``fitness`` (one vector or a
generation), ``train_sharpe`` and the schedule QUBO's gains all go through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import annualised_sharpe
from .market_data import (ReturnPanel, _check_count, _check_real, _frozen_array, _square,
                          _ticker_names)
from .shrinkage import ShrunkCovariance

METHODS = ("GA", "MinVar", "Equal", "Ensemble")

_TOURNAMENT = 3  # selection pressure; standard default, elitism of 1 alongside


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Long-only weights on the simplex with method provenance."""

    tickers: tuple[str, ...]
    weights: np.ndarray
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "tickers", _ticker_names(self.tickers))
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size != len(self.tickers):
            raise ValueError("weights length must match tickers")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not np.all(w >= 0.0):  # NaN fails it too
            raise ValueError("weights must be non-negative numbers")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", _frozen_array(w))


@dataclass(frozen=True)
class GaConfig:
    population: int = 300
    generations: int = 200
    mutation_rate: float = 0.15
    gene_low: float = 0.01
    gene_high: float = 1.0
    lambda_ent: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("gene_low", "gene_high", "lambda_ent"):
            _check_real(getattr(self, name), name)
        if not 0.0 < self.gene_low < self.gene_high:
            raise ValueError("need 0 < gene_low < gene_high")
        _check_real(self.mutation_rate, "mutation_rate", least=0.0, most=1.0)
        _check_count(self.population, "population", least=2)
        _check_count(self.generations, "generations")
        _check_count(self.seed, "seed", least=0)


def normalised_entropy(weights):
    """H(w) = -sum(w ln w) / ln n over the last axis, in [0, 1]: a float for
    one weight vector, one entropy per row of a batch. 0 ln 0 := 0; H := 0
    for n = 1."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    n = w.shape[-1]
    plogp = w * np.log(np.where(w > 0.0, w, 1.0))
    h = -plogp.sum(axis=-1) / math.log(n) if n > 1 else np.zeros(w.shape[:-1])
    return float(h) if w.ndim == 1 else h


def _weight_array(weights, tickers: tuple[str, ...]) -> np.ndarray:
    """The weights of a ``WeightVector`` on exactly ``tickers``, in order, or of
    a plain vector of ``len(tickers)``: the one check that weights fit a panel."""
    if isinstance(weights, WeightVector) and weights.tickers != tickers:
        raise ValueError(f"weights for tickers {weights.tickers} on tickers {tickers}")
    w = weights.weights if isinstance(weights, WeightVector) else np.asarray(weights, float)
    if w.shape != (len(tickers),):
        raise ValueError(f"{w.size} weights for {len(tickers)} tickers {tickers}")
    return w


def portfolio_log_returns(weights, gross: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ln(w . R_t) per day for fixed weights on the ``(days, assets)`` gross
    returns: one series for a weight vector, one row per portfolio for a
    ``(P, assets)`` batch, written into ``out``, a ``(P, days)`` buffer, if
    given."""
    w = np.asarray(weights, dtype=float)
    port = gross @ w if w.ndim == 1 else np.matmul(w, gross.T, out=out)
    # long-only weights on strictly positive gross returns cannot go <= 0; a
    # min (nan if any is) allocates no (P, days) mask per GA generation
    if not port.min(initial=np.inf) > 0.0:
        raise ValueError("non-positive portfolio gross return")
    return np.log(port, out=port)


def fitness(weights, train: ReturnPanel, lambda_ent: float = GaConfig.lambda_ent,
            out: np.ndarray | None = None):
    """Annualised portfolio Sharpe plus ``lambda_ent`` times normalised
    entropy: a float for one weight vector, one value per row of a ``(P,
    assets)`` batch, whose daily log returns go into ``out`` if given."""
    w = weights if np.ndim(weights) == 2 else _weight_array(weights, train.tickers)
    sharpe = annualised_sharpe(portfolio_log_returns(w, train.gross_returns, out))
    return sharpe + lambda_ent * normalised_entropy(w)


def train_sharpe(wv: WeightVector, train: ReturnPanel) -> float:
    """Annualised Sharpe of ``wv``'s daily log returns on the train panel,
    whose tickers ``wv`` must hold in the panel's order (``_weight_array``)."""
    w = _weight_array(wv, train.tickers)
    return annualised_sharpe(portfolio_log_returns(w, train.gross_returns))


def ga_optimise(
    train: ReturnPanel, cfg: GaConfig = GaConfig(), *, return_history: bool = False
):
    """Evolve simplex weights maximising the entropy-regularised Sharpe.

    Genes live in [gene_low, gene_high] and are normalised by their sum before
    evaluation. Generation 0 is uniform with the equal-weight individual
    seeded in, so the result never scores below equal weights; each later one
    is bred from the last by tournament selection (size 3), uniform crossover,
    per-gene mutation and elitism of 1. Each generation is scored once, and
    the best-ever individual is returned, normalised.

    With ``return_history=True`` also returns the best-so-far fitness after
    each generation (length ``generations + 1``, non-decreasing).
    """
    n = train.n_assets
    if n < 2:
        raise ValueError("GA needs at least 2 assets")
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.gene_low, cfg.gene_high
    pop = cfg.population

    genes = rng.uniform(lo, hi, size=(pop, n))
    genes[0] = 0.5 * (lo + hi)  # constant genes normalise to equal weights

    # one (population, days) buffer takes every generation's daily log returns
    port = np.empty((pop, train.n_days))
    history = []
    for gen in range(cfg.generations + 1):
        if gen > 0:
            k = pop - 1
            contenders = rng.integers(0, pop, size=(k, 2, _TOURNAMENT))
            winners = np.take_along_axis(
                contenders, np.argmax(fit[contenders], axis=2)[..., None], axis=2
            )[..., 0]
            pa = genes[winners[:, 0]]
            pb = genes[winners[:, 1]]
            cross = rng.random((k, n)) < 0.5
            children = np.where(cross, pa, pb)
            mutate = rng.random((k, n)) < cfg.mutation_rate
            children = np.where(mutate, rng.uniform(lo, hi, size=(k, n)), children)
            genes = np.vstack([genes[best], children])  # elitism of 1
        fit = fitness(genes / genes.sum(axis=1, keepdims=True), train, cfg.lambda_ent, port)
        best = int(np.argmax(fit))
        if gen == 0 or fit[best] > best_fit:
            best_fit = float(fit[best])
            best_genes = genes[best].copy()
        history.append(best_fit)

    result = WeightVector(train.tickers, best_genes / best_genes.sum(), "GA")
    if return_history:
        return result, np.asarray(history)
    return result


def minvar(cov) -> WeightVector:
    """Closed-form minimum-variance weights with long-only projection.

    ``w = pinv(sigma) 1 / (1' pinv(sigma) 1)``; negative entries are projected
    to zero and the rest renormalised to sum to 1. A ``ShrunkCovariance``
    gives the weights its own tickers; a raw matrix gives them the positional
    names ``A000``, ``A001``, ...
    """
    shrunk = isinstance(cov, ShrunkCovariance)
    sigma = _square(cov.sigma if shrunk else cov, "covariance", sym_atol=1e-10)
    n = len(sigma)
    tickers = cov.tickers if shrunk else tuple(f"A{i:03d}" for i in range(n))

    ones = np.ones(n)
    raw = np.linalg.pinv(sigma, hermitian=True) @ ones
    denom = raw.sum()
    if denom == 0.0:
        raise ValueError("cannot normalise minimum-variance weights (1' pinv(sigma) 1 = 0)")
    w = raw / denom
    w = np.where(w > 0.0, w, 0.0)
    total = w.sum()
    if total <= 0.0:
        # unreachable for real input (w sums to 1 before clipping) but guarded
        raise ValueError("all minimum-variance weights clipped to zero")
    return WeightVector(tickers, w / total, "MinVar")


def equal_weights(tickers) -> WeightVector:
    tickers = _ticker_names(tickers)
    w = np.full(len(tickers), 1.0 / len(tickers))
    return WeightVector(tickers, w / w.sum(), "Equal")


def ensemble(ga: WeightVector, mv: WeightVector, eq: WeightVector) -> WeightVector:
    """Arithmetic mean of the three weight vectors, on the GA vector's tickers."""
    w = (ga.weights + _weight_array(mv, ga.tickers) + _weight_array(eq, ga.tickers)) / 3.0
    return WeightVector(ga.tickers, w, "Ensemble")
