"""Net-of-cost backtest engine and the strategy comparison grid.

Daily sequencing on a rebalance day follows the accounting identity
``V_t = V_{t-1} * (w_t . R_t)`` with drifted weights, then the cost deduction
``V_t *= 1 - c * ||w_drift - w_target||_1``, then the reset to target. Day 0's
initial allocation is free and uncounted; periodic(N) therefore rebalances on
day indices t >= 1 with t % N == 0. Each scheduler owns its rule as data:
``due(days)``, the days it rebalances on whatever the drift, and ``band``, the
largest drift from target it lets stand; and its label part (``describe``).

A ``BacktestReport`` stores what the run produced: the equity curve, the
cost paid and the rebalance days. Its performance summary (``metrics``) is
computed from the curve on first use. Undefined metrics (zero volatility,
zero drawdown) are reported as ``None``, never as silent infinities.
Equity-curve returns are log returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .allocation import METHODS, WeightVector, _weight_array
from .clustering import annualised_sharpe
from .market_data import (ANNUALISATION, ReturnPanel, _check_count, _check_real, _frozen_array,
                          _frozen_bits)


# run_grid's default periodic intervals (days) and drift threshold
GRID_PERIODIC = (1, 5, 10, 21)
GRID_THRESHOLD = 0.05


@dataclass(frozen=True)
class BuyAndHold:
    band = np.inf

    def due(self, days: int) -> np.ndarray:
        _check_count(days, "days")
        return np.zeros(days, dtype=bool)

    def describe(self) -> str:
        return "Buy&Hold"


@dataclass(frozen=True)
class Periodic:
    every: int
    band = np.inf

    def __post_init__(self) -> None:
        _check_count(self.every, "periodic interval")

    def due(self, days: int) -> np.ndarray:
        _check_count(days, "days")
        t = np.arange(days)
        return (t >= 1) & (t % self.every == 0)

    def describe(self) -> str:
        return f"Rebal/{self.every}d"


@dataclass(frozen=True)
class Threshold:
    fraction: float
    band = property(lambda self: self.fraction)
    due = BuyAndHold.due  # no day: only the drift band rebalances

    def __post_init__(self) -> None:
        _check_real(self.fraction, "threshold fraction")
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("threshold fraction must be in (0, 1)")

    def describe(self) -> str:
        # 15 significant digits give back any fraction written with as many,
        # and round off the product's last bit: 0.005 reads 0.5%, 0.05 reads 5%
        return f"Threshold ({100 * self.fraction:.15g}%)"


def _periodic_schedulers(intervals) -> list[Periodic]:
    """One ``Periodic`` per interval, in order; an interval given twice
    would add a second, identical strategy to the grid, so it raises."""
    intervals = tuple(intervals)
    repeated = sorted({every for every in intervals if intervals.count(every) > 1})
    if repeated:
        raise ValueError(f"periodic repeats interval(s): {', '.join(map(str, repeated))}")
    return [Periodic(every) for every in intervals]


@dataclass(frozen=True, eq=False)
class Explicit:
    """Rebalances exactly on the days whose global schedule bit is 1."""

    bits: np.ndarray
    band = np.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _frozen_bits(self.bits))

    def due(self, days: int) -> np.ndarray:
        _check_count(days, "days")
        if self.bits.size != days:
            raise ValueError(f"explicit schedule of {self.bits.size} bits for {days} test days")
        return self.bits.astype(bool)

    def describe(self) -> str:
        return "+ QAOA"


@dataclass(frozen=True, eq=False)
class Strategy:
    weights: WeightVector
    scheduler: object  # BuyAndHold, Periodic, Threshold or Explicit

    def describe(self) -> str:
        return f"{self.weights.method} {self.scheduler.describe()}"


@dataclass(frozen=True)
class Metrics:
    total_return: float
    sharpe: float | None
    sortino: float | None
    mdd: float
    calmar: float | None


@dataclass(frozen=True, eq=False)
class BacktestReport:
    label: str
    equity_curve: np.ndarray  # length T+1, starts at 1.0
    total_cost_bp: float
    rebalance_days: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "equity_curve", _frozen_array(self.equity_curve))

    @cached_property
    def metrics(self) -> Metrics:
        """Return, Sharpe, Sortino, MDD and Calmar of the equity curve."""
        return metrics(self.equity_curve)

    @property
    def rebalance_count(self) -> int:
        return len(self.rebalance_days)


def metrics(equity_curve) -> Metrics:
    """Performance summary of an equity curve.

    Sharpe/Sortino use daily log returns of the curve with sqrt(252)
    annualisation; Sortino's downside deviation is sqrt(mean(min(r, 0)^2)).
    MDD is the minimum of :func:`drawdown`; Calmar is total return over
    |MDD|. Degenerate cases (zero vol, a single return, no drawdown) yield
    None.
    """
    curve = np.asarray(equity_curve, dtype=float).ravel()
    if curve.size < 2:
        raise ValueError("equity curve needs at least 2 points")
    if not np.all((curve > 0.0) & (curve < np.inf)):  # NaN fails it too
        raise ValueError("equity curve must be finite and strictly positive")

    r = np.diff(np.log(curve))
    try:
        sharpe = annualised_sharpe(r)
    except ValueError:  # zero volatility or a single return
        sharpe = None
    downside = float(np.sqrt(np.mean(np.minimum(r, 0.0) ** 2)))
    sortino = float(r.mean() / downside * ANNUALISATION) if downside > 0.0 else None

    mdd = float(np.min(drawdown(curve)))
    total_return = float(curve[-1] / curve[0] - 1.0)
    calmar = float(total_return / abs(mdd)) if mdd < 0.0 else None
    return Metrics(total_return, sharpe, sortino, mdd, calmar)


def drawdown(equity_curve) -> np.ndarray:
    """``V_t / running_peak - 1`` at every point of an equity curve."""
    curve = np.asarray(equity_curve, dtype=float)
    return curve / np.maximum.accumulate(curve) - 1.0


def _simulate(test: ReturnPanel, strategies: list[Strategy], cost_c: float) -> list[BacktestReport]:
    """The reports of ``strategies``, whose holdings step through the test days together."""
    _check_real(cost_c, "cost_c", least=0.0)
    hold = targets = np.array([_weight_array(strat.weights, test.tickers) for strat in strategies])
    due = np.array([strat.scheduler.due(test.n_days) for strat in strategies]).T
    band = np.array([strat.scheduler.band for strat in strategies])

    curves = np.ones((test.n_days + 1, len(strategies)))
    total_cost = np.zeros(len(strategies))
    fired = np.zeros_like(due)

    for t, day in enumerate(test.gross_returns):
        # a dot product per row: bit for bit ``w @ day``, which the gemv ``hold @ day`` is not
        port = np.matmul(hold[:, None, :], day)[:, 0]
        curves[t + 1] = curves[t] * port
        drifted = hold * day / port[:, None]
        gap = np.abs(drifted - targets)
        fire = fired[t] = due[t] | (gap.max(axis=1) > band)
        cost = cost_c * gap[fire].sum(axis=1)
        if not np.all(cost < 1.0):
            raise ValueError("rebalancing cost cannot wipe out the portfolio")
        curves[t + 1, fire] *= 1.0 - cost
        total_cost[fire] += cost
        hold = np.where(fire[:, None], targets, drifted)

    return [BacktestReport(strat.describe(), curves[:, i], 1e4 * float(total_cost[i]),
                           tuple(np.flatnonzero(fired[:, i]).tolist()))
            for i, strat in enumerate(strategies)]


def run(test: ReturnPanel, strat: Strategy, cost_c: float) -> BacktestReport:
    """Simulate one strategy on the test panel, net of proportional costs;
    holdings drift between rebalances, sequenced as the module docstring says."""
    return _simulate(test, [strat], cost_c)[0]


def run_grid(
    test: ReturnPanel,
    weight_sets: Mapping[str, WeightVector],
    qaoa_schedules: Mapping[str, np.ndarray],
    cost_c: float,
    periodic: tuple[int, ...] = GRID_PERIODIC,
    threshold: float = GRID_THRESHOLD,
) -> list[BacktestReport]:
    """The full strategy cross: buy-and-hold for every weight method, periodic
    and threshold scheduling for the GA weights, and the externally supplied
    (QAOA walk-forward) schedule for every weight method.

    ``weight_sets`` and ``qaoa_schedules`` are keyed by method name
    (``allocation.METHODS``). Reports come back labelled, in grid order.
    """
    for name, given in (("weight_sets", weight_sets), ("qaoa_schedules", qaoa_schedules)):
        missing = [m for m in METHODS if m not in given]
        if missing:
            raise ValueError(f"{name} missing methods: {', '.join(missing)}")

    ga_schedulers = [*_periodic_schedulers(periodic), Threshold(threshold)]
    return _simulate(test, [
        *(Strategy(weight_sets[method], BuyAndHold()) for method in METHODS),
        *(Strategy(weight_sets["GA"], scheduler) for scheduler in ga_schedulers),
        *(Strategy(weight_sets[method], Explicit(qaoa_schedules[method])) for method in METHODS),
    ], cost_c)
