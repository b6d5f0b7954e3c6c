#!/usr/bin/env python3
"""Asset selection walkthrough: shrinkage covariance -> angular distances ->
Ward clustering -> one high-Sharpe representative per cluster.

A synthetic universe of 12 assets is planted with three correlation blocks.
The selection stage should put each block in its own cluster and pick the
best-performing member of each.
"""
import numpy as np

from quantfolio import (
    angular_distance,
    annualised_sharpe,
    ledoit_wolf,
    select_representatives,
    synth_panel,
    to_returns,
    ward_cluster,
)

# --- a universe with three planted sectors -------------------------------
sizes = (4, 4, 4)
M = sum(sizes)
corr = np.full((M, M), 0.10)
offset = 0
for s in sizes:
    corr[offset : offset + s, offset : offset + s] = 0.70
    offset += s
np.fill_diagonal(corr, 1.0)

panel = synth_panel(
    seed=42, T=750, M=M, target_corr=corr,
    ann_vol=np.linspace(0.15, 0.35, M),
    ann_drift=np.linspace(-0.05, 0.30, M),
)
returns = to_returns(panel)
print(f"universe: {M} assets, {returns.n_days} daily returns")

# --- shrinkage covariance estimate ----------------------------------------
est = ledoit_wolf(returns)
print(f"\nshrinkage intensity alpha = {est.alpha:.4f}")
off_diag = est.corr[~np.eye(M, dtype=bool)]
print(f"correlation off-diagonal range: [{off_diag.min():.2f}, {off_diag.max():.2f}]")
print(f"angular distance of rho=0:    {angular_distance(0.0):.5f}  (= 1/sqrt(2))")
print(f"angular distance of rho=0.70: {angular_distance(0.70):.5f}")

# --- Ward clustering on the distance matrix -------------------------------
assign = ward_cluster(est.dist, n=3)
print("\nclusters recovered:")
for cid in range(assign.n_clusters):
    members = [returns.tickers[i] for i in assign.members(cid)]
    print(f"  cluster {cid}: {', '.join(members)}")

# --- Sharpe-maximising representatives -------------------------------------
picks = select_representatives(assign, returns)
print("\nselected representatives (annualised train Sharpe):")
for ticker in picks:
    sharpe = annualised_sharpe(returns.log_returns[:, returns.tickers.index(ticker)])
    print(f"  {ticker}: {sharpe:+.3f}")
