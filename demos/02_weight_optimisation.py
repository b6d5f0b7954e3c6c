#!/usr/bin/env python3
"""Weight optimisation walkthrough: the entropy-regularised genetic search
against the closed-form minimum-variance solution, equal weights, and the
three-way ensemble blend.
"""
import numpy as np

from quantfolio import (
    GaConfig,
    ensemble,
    equal_weights,
    fitness,
    ga_optimise,
    ledoit_wolf,
    minvar,
    synth_panel,
    to_returns,
    train_sharpe,
)

# train panel: six assets with distinct drifts so the optimum is not flat
train = to_returns(synth_panel(
    seed=7, T=500, M=6,
    ann_vol=np.linspace(0.18, 0.30, 6),
    ann_drift=np.array([0.02, 0.16, 0.08, 0.22, -0.04, 0.12]),
))

cfg = GaConfig(population=120, generations=80, seed=1)
ga, history = ga_optimise(train, cfg, return_history=True)
print(f"GA: {cfg.population} individuals x {cfg.generations} generations")
print(f"  best fitness:  gen 0 = {history[0]:.4f}  ->  final = {history[-1]:.4f}")
print(f"  equal-weight fitness = {fitness(equal_weights(train.tickers), train):.4f}"
      "  (never beats the GA: the equal individual seeds the population)")

mv = minvar(ledoit_wolf(train))
eq = equal_weights(train.tickers)
ens = ensemble(ga, mv, eq)

print(f"\n{'asset':<8}{'GA':>8}{'MinVar':>8}{'Equal':>8}{'Ensemble':>10}")
for i, ticker in enumerate(train.tickers):
    print(f"{ticker:<8}"
          f"{100 * ga.weights[i]:>7.1f}%"
          f"{100 * mv.weights[i]:>7.1f}%"
          f"{100 * eq.weights[i]:>7.1f}%"
          f"{100 * ens.weights[i]:>9.1f}%")
print(f"{'Sharpe':<8}"
      f"{train_sharpe(ga, train):>8.3f}{train_sharpe(mv, train):>8.3f}"
      f"{train_sharpe(eq, train):>8.3f}{train_sharpe(ens, train):>10.3f}")

print("\nnotes: GA tilts toward the high-drift assets but the entropy bonus "
      "keeps every asset funded;\nMinVar tilts toward the low-vol assets "
      "regardless of drift; the ensemble is their mean.")
