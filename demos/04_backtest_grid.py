#!/usr/bin/env python3
"""End-to-end walkthrough: selection, weights, QAOA schedules, and the full
net-of-cost strategy grid on a train/test split of a synthetic universe.

The same flow is available as four CLI stages; this script drives the library
directly.
"""
import dataclasses

import numpy as np

from quantfolio import (
    GaConfig,
    QaoaConfig,
    SplitSpec,
    ensemble,
    equal_weights,
    ga_optimise,
    ledoit_wolf,
    minvar,
    run_grid,
    select_representatives,
    split,
    synth_panel,
    to_returns,
    walk_forward,
    train_sharpe,
    ward_cluster,
)

# --- data: 12 assets, 3 planted sectors, chronological split -----------------
M = 12
corr = np.full((M, M), 0.1)
for lo in (0, 4, 8):
    corr[lo : lo + 4, lo : lo + 4] = 0.6
np.fill_diagonal(corr, 1.0)
panel = synth_panel(seed=2718, T=400, M=M, target_corr=corr,
                    ann_vol=np.linspace(0.15, 0.35, M),
                    ann_drift=np.linspace(0.0, 0.30, M))
returns = to_returns(panel)
train, test = split(returns, SplitSpec(returns.dates[249], returns.dates[-1]))
print(f"train {train.n_days} days / test {test.n_days} days")

# --- stage 1: select 4 uncorrelated representatives ---------------------------
cov = ledoit_wolf(train)
picks = select_representatives(ward_cluster(cov.dist, 4), train)
print(f"selected: {', '.join(picks)}")
train_sel = train.restrict(picks)
test_sel = test.restrict(picks)

# --- stage 2: the four weight methods -----------------------------------------
ga = ga_optimise(train_sel, GaConfig(population=60, generations=40, seed=1))
mv = minvar(cov.restrict(picks))
eq = equal_weights(picks)
weights = {w.method: w for w in (ga, mv, eq, ensemble(ga, mv, eq))}
print("train Sharpe by method: "
      + ", ".join(f"{m}={train_sharpe(w, train):.3f}" for m, w in weights.items()))

# --- stage 3: walk-forward QAOA schedules per weight method -------------------
qcfg = QaoaConfig(depth=2, restarts=3, opt_shots=1024, eval_shots=2048, max_iters=80)
schedules = {}
for i, (method, wv) in enumerate(weights.items()):
    result = walk_forward(test_sel, wv, k_windows=3, w_count=8,
                          cfgs=dataclasses.replace(qcfg, seed=100 + i))
    schedules[method] = result.bits
    print(f"  {method}: {result.total_rebalances} rebalances, "
          f"max window gap {max(w.gap for w in result.windows):.4f}")

# --- stage 4: the 13-strategy grid --------------------------------------------
reports = run_grid(test_sel, weights, schedules, cost_c=0.001)
print(f"\n{'strategy':<22}{'ret %':>8}{'sharpe':>8}{'sortino':>9}"
      f"{'mdd %':>8}{'calmar':>8}{'rebal':>7}{'cost bp':>9}")
for rep in reports:
    def fmt(x, spec=".3f"):
        return "  n/a" if x is None else format(x, spec)
    m = rep.metrics
    print(f"{rep.label:<22}"
          f"{100 * m.total_return:>8.2f}"
          f"{fmt(m.sharpe):>8}"
          f"{fmt(m.sortino):>9}"
          f"{100 * m.mdd:>8.2f}"
          f"{fmt(m.calmar):>8}"
          f"{rep.rebalance_count:>7d}"
          f"{rep.total_cost_bp:>9.2f}")
