"""quantfolio: shrinkage-clustered asset selection, GA/MinVar/ensemble weight
optimisation, QUBO-encoded rebalancing schedules solved by a simulated QAOA,
and a net-of-cost strategy backtest."""

__version__ = "0.1.0"

from .allocation import (
    GaConfig,
    WeightVector,
    ensemble,
    equal_weights,
    fitness,
    ga_optimise,
    minvar,
    normalised_entropy,
    train_sharpe,
)
from .backtest import (
    BacktestReport,
    BuyAndHold,
    Explicit,
    Periodic,
    Strategy,
    Threshold,
    metrics,
    run,
    run_grid,
)
from .clustering import (
    ClusterAssignment,
    ZeroVolatilityError,
    annualised_sharpe,
    select_representatives,
    ward_cluster,
)
from .market_data import (
    PricePanel,
    ReturnPanel,
    SplitSpec,
    load_csv,
    split,
    synth_panel,
    to_returns,
    write_csv,
)
from .qaoa import (
    IsingModel,
    QaoaConfig,
    QaoaOutcome,
    ScheduleResult,
    ising_energy,
    optimise_angles,
    sample,
    simulate_ansatz,
    to_ising,
    walk_forward,
)
from .schedule_qubo import (
    BitSchedule,
    QuboParams,
    QuboProblem,
    brute_force,
    build_qubo,
    candidate_dates,
    drift_weights,
    marginal_gain,
)
from .shrinkage import ShrunkCovariance, angular_distance, ledoit_wolf

__all__ = [
    "BacktestReport", "BitSchedule", "BuyAndHold", "ClusterAssignment",
    "Explicit", "GaConfig", "IsingModel", "Periodic", "PricePanel",
    "QaoaConfig", "QaoaOutcome", "QuboParams", "QuboProblem",
    "ReturnPanel", "ScheduleResult", "ShrunkCovariance", "SplitSpec",
    "Strategy", "Threshold", "WeightVector",
    "ZeroVolatilityError", "angular_distance", "annualised_sharpe",
    "brute_force", "build_qubo", "candidate_dates", "drift_weights",
    "ensemble", "equal_weights", "fitness", "ga_optimise",
    "ising_energy", "ledoit_wolf", "load_csv", "marginal_gain", "metrics",
    "minvar", "normalised_entropy", "optimise_angles", "run", "run_grid",
    "sample", "select_representatives", "simulate_ansatz", "split",
    "synth_panel", "to_ising", "to_returns", "train_sharpe", "walk_forward",
    "ward_cluster", "write_csv",
]
