#!/usr/bin/env python3
"""Rebalancing-schedule walkthrough: encode one return window as a QUBO,
solve it with the simulated multi-restart QAOA, compare against exhaustive
enumeration, then run the full walk-forward loop.
"""
import numpy as np

from quantfolio import (
    QaoaConfig,
    brute_force,
    build_qubo,
    equal_weights,
    ising_energy,
    optimise_angles,
    synth_panel,
    to_ising,
    to_returns,
    walk_forward,
)
from quantfolio.schedule_qubo import bits_to_str

# one 83-day window, four assets, equal target weights
window = to_returns(synth_panel(
    seed=314, T=84, M=4, ann_drift=[0.3, 0.0, -0.2, 0.1],
))
target = equal_weights(window.tickers)

# --- the QUBO ---------------------------------------------------------------
qp = build_qubo(target, window, w_count=8)
print(f"candidate dates (window offsets): {qp.candidates.tolist()}")
print(f"per-candidate gains g_k: {np.round(qp.gains, 3)}")
print("negative diagonal = rebalancing helps there; positive = drift is fine:")
print(f"  diag(Q) = {np.round(np.diag(qp.q), 3)}  (normalised, max|entry| = 1)")

# --- Ising mapping sanity ----------------------------------------------------
model = to_ising(qp)
x = np.array([1, 0, 1, 0, 0, 0, 1, 0], dtype=float)
lhs = float(x @ qp.q @ x)
print(f"\nenergy identity on {bits_to_str(x.astype(int))}: "
      f"x'Qx = {lhs:.6f}, ising+offset = {ising_energy(model, x):.6f}")

# --- QAOA vs exhaustive enumeration -----------------------------------------
out = optimise_angles(model, qp, QaoaConfig(seed=7))
exact = brute_force(qp)
print(f"\nQAOA best bitstring:  {out.best_bits} at energy {out.best_energy:+.6f}")
print(f"exhaustive optimum:   {exact} at energy {exact.energy:+.6f}")
print(f"gap: {out.best_energy - exact.energy:.6f} (>= 0 by construction)")

top = out.histogram_rows()[:5]
uniform = out.eval_shots / out.histogram.size
print(f"\ntop-5 of {out.eval_shots} evaluation shots (uniform would be {uniform:.0f}):")
for bits, count in top:
    print(f"  {bits}: {count:5d}  ({count / uniform:5.1f}x uniform)")

# --- walk-forward scheduling --------------------------------------------------
test = to_returns(synth_panel(seed=2025, T=250, M=4, ann_drift=[0.3, 0.0, -0.2, 0.1]))
result = walk_forward(test, [equal_weights(test.tickers)], k_windows=3, w_count=8,
                      cfgs=[QaoaConfig(seed=9)])[0]
print(f"\nwalk-forward on {test.n_days} test days, 3 windows x 8 candidates:")
for k, win in enumerate(result.windows):
    print(f"  window {k} [{win.start:3d}, {win.end:3d}): "
          f"bits {bits_to_str(win.outcome.best_bits.bits)}, "
          f"gap {win.gap:.4f}")
print(f"total rebalances: {result.total_rebalances}, "
      f"on days {[int(d) for d in np.flatnonzero(result.bits)]}")
