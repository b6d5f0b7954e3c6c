"""Kernel sweep: single calls of the package's hot functions at fixed sizes.

Inputs are random but drawn from the benchmark seed, so one seed always times
the same inputs. Each time is the median of several calls. Bytes are computed
from array sizes (not measured), which the metric names say. Functions are
looked up on their modules at call time; a kernel whose function is gone or
no longer accepts these arguments is reported as missing with a value of 0.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from quantfolio import allocation, backtest, clustering, market_data, qaoa, schedule_qubo, shrinkage

STATE_WIDTHS = (8, 12, 16, 20)
UNIVERSE_SIZES = (50, 200, 500)
_DEPTH = 2
_API_ERRORS = (AttributeError, TypeError)


def _median_s(fn, min_calls: int = 3, budget_s: float = 0.3, cap_s: float = 2.0) -> float:
    """Median wall time of ``fn()``: at least ``min_calls`` calls and
    ``budget_s`` seconds, unless the calls made already took ``cap_s``."""
    times: list[float] = []
    while len(times) < 50:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        spent = sum(times)
        if spent >= cap_s or (len(times) >= min_calls and spent >= budget_s):
            break
    return statistics.median(times)


def _random_qubo(rng: np.random.Generator, w: int) -> np.ndarray:
    q = rng.uniform(-1.0, 1.0, size=(w, w))
    return (q + q.T) / 2.0


def _panel(rng: np.random.Generator, days: int, assets: int):
    prices = market_data.synth_panel(
        seed=int(rng.integers(2**31)), T=days + 1, M=assets, ann_drift=0.08
    )
    return market_data.to_returns(prices)


def _kernels(rng: np.random.Generator):
    """Yield (metric name, thunk); the thunk returns the metric's value."""
    for w in STATE_WIDTHS:
        q = _random_qubo(rng, w)
        gammas, betas = rng.uniform(0.0, np.pi, size=(2, _DEPTH))

        def ansatz(q=q, gammas=gammas, betas=betas):
            model = qaoa.to_ising(q)
            return _median_s(lambda: qaoa.simulate_ansatz(model, gammas, betas))

        yield f"kernel.simulate_ansatz.w{w}_s", ansatz
        yield f"kernel.enumerate_energies.w{w}_s", (
            lambda q=q: _median_s(lambda: schedule_qubo.enumerate_energies(q)))

    q8 = _random_qubo(rng, 8)
    angle_seed = int(rng.integers(2**31))

    def angles():
        model = qaoa.to_ising(q8)
        cfg = qaoa.QaoaConfig(restarts=1, seed=angle_seed)
        return _median_s(lambda: qaoa.optimise_angles(model, q8, cfg), min_calls=1)

    yield "kernel.optimise_angles.w8_s", angles

    for m in UNIVERSE_SIZES:
        panel = _panel(rng, 750, m)
        yield f"kernel.ledoit_wolf.m{m}_s", (
            lambda panel=panel: _median_s(lambda: shrinkage.ledoit_wolf(panel)))

        def ward(panel=panel):
            dist = shrinkage.ledoit_wolf(panel).dist
            return _median_s(lambda: clustering.ward_cluster(dist, 10))

        yield f"kernel.ward_cluster.m{m}_s", ward

    train = _panel(rng, 750, 10)
    ga_seed = int(rng.integers(2**31))

    def ga_generation():
        # (G=11 run - G=1 run) / 10 at the default population
        runs = {
            g: _median_s(lambda g=g: allocation.ga_optimise(
                train, allocation.GaConfig(generations=g, seed=ga_seed)))
            for g in (1, 11)
        }
        return (runs[11] - runs[1]) / 10

    yield "kernel.ga_generation_s", ga_generation

    test = _panel(rng, 500, 10)
    raw = rng.uniform(0.05, 1.0, size=(4, 10))
    bits = (rng.random((4, test.n_days)) < 0.05).astype(np.uint8)

    def grid():
        methods = ("GA", "MinVar", "Equal", "Ensemble")
        weights = {
            m: allocation.WeightVector(test.tickers, r / r.sum(), m)
            for m, r in zip(methods, raw)
        }
        schedules = dict(zip(methods, bits))
        return _median_s(lambda: backtest.run_grid(test, weights, schedules, 0.001))

    yield "kernel.run_grid_s", grid


def sweep(seed: int) -> tuple[dict[str, float], list[str]]:
    """Kernel metrics and the names of the kernels that could not run."""
    out: dict[str, float] = {}
    missing: list[str] = []
    for name, thunk in _kernels(np.random.default_rng(seed)):
        try:
            out[name] = thunk()
        except _API_ERRORS:
            out[name] = 0.0
            missing.append(name)
    w = STATE_WIDTHS[-1]
    # each of the p * (w + 1) layers (one phase, w mixers) reads and writes the
    # complex128 state once; the energy table is float64, written once
    out[f"kernel.simulate_ansatz.w{w}.bytes_computed"] = _DEPTH * (w + 1) * 2 * 16 * 2**w
    out[f"kernel.enumerate_energies.w{w}.bytes_computed"] = 8 * 2**w
    return out, missing
