"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line printed per criterion (run with ``pytest -s`` to see them)."""
import itertools

import numpy as np

from quantfolio import (
    BuyAndHold,
    Explicit,
    GaConfig,
    Periodic,
    QaoaConfig,
    ReturnPanel,
    Strategy,
    Threshold,
    WeightVector,
    brute_force,
    equal_weights,
    fitness,
    ga_optimise,
    ising_energy,
    ledoit_wolf,
    minvar,
    optimise_angles,
    run,
    synth_panel,
    to_ising,
    to_returns,
    walk_forward,
    ward_cluster,
)
from quantfolio.schedule_qubo import build_qubo, enumerate_energies

from conftest import block_correlation, gross_panel
from golden_pipeline import (
    GOLDEN_METRICS,
    GOLDEN_PRICES,
    golden_panel,
    mismatch_report,
    run_pipeline,
)
from test_shrinkage import shrinkage_oracle


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {name}" + (f"\n{detail}" if detail else "")


def _random_symmetric(rng, w, scale=1.0):
    a = rng.uniform(-scale, scale, size=(w, w))
    return (a + a.T) / 2


def test_01_qubo_ising_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        w = int(rng.integers(2, 11))
        q = _random_symmetric(rng, w, scale=2.0)
        model = to_ising(q)
        for bits in itertools.product((0, 1), repeat=w):
            x = np.array(bits, dtype=float)
            worst = max(worst, abs(float(x @ q @ x) - ising_energy(model, bits)))
    _report(1, f"QUBO-Ising energy identity (max |diff| = {worst:.2e} < 1e-9)", worst < 1e-9)


def test_02_qaoa_quality_vs_brute_force():
    rng = np.random.default_rng(20250810)
    n_instances = 50
    in_lowest_decile = 0
    exact_optimum = 0
    for i in range(n_instances):
        q = _random_symmetric(rng, 6)
        q = q / np.max(np.abs(q))
        cfg = QaoaConfig(depth=2, restarts=5, opt_shots=2048, eval_shots=4096,
                         max_iters=150, seed=1000 + i)
        out = optimise_angles(to_ising(q), q, cfg)
        energies = np.sort(enumerate_energies(q))
        # lowest 10% of 64 energies: conservatively the 6 smallest (6.4 floored)
        if out.best_energy <= energies[5] + 1e-12:
            in_lowest_decile += 1
        if abs(out.best_energy - brute_force(q).energy) <= 1e-12:
            exact_optimum += 1
    ok = in_lowest_decile >= 0.70 * n_instances and exact_optimum >= 0.40 * n_instances
    _report(2, f"QAOA quality ({in_lowest_decile}/50 in lowest decile >= 35, "
               f"{exact_optimum}/50 exact >= 20)", ok)


def test_03_bitstring_concentration():
    panel = to_returns(synth_panel(seed=314, T=84, M=4,
                                   ann_drift=[0.3, 0.0, -0.2, 0.1]))
    target = WeightVector(panel.tickers, np.full(4, 0.25), "Equal")
    qp = build_qubo(target, panel, 8)
    out = optimise_angles(to_ising(qp), qp, QaoaConfig(seed=7))
    top = int(out.histogram.max())
    uniform = out.eval_shots / 256
    ok = top >= 4 * uniform
    _report(3, f"concentration (top count {top} >= {4 * uniform:.0f} = 4x uniform, "
               f"{top / uniform:.1f}x enrichment)", ok)


def test_04_walk_forward_no_lookahead():
    base = to_returns(synth_panel(seed=34, T=121, M=3))  # 120 test rows, K=3
    target = equal_weights(base.tickers)
    cfg = QaoaConfig(depth=2, restarts=2, opt_shots=512, eval_shots=1024,
                     max_iters=60, seed=11)
    rng = np.random.default_rng(99)

    def perturb(panel, row_from):
        gross = panel.gross_returns.copy()
        gross[row_from:] *= np.exp(rng.normal(0, 0.02, size=gross[row_from:].shape))
        return ReturnPanel(panel.dates, panel.tickers, gross)

    reference = walk_forward(base, [target], 3, 6, [cfg])[0]
    ok = True
    for k, boundary in ((0, 40), (1, 80)):  # perturb chunk k+1 onward
        other = walk_forward(perturb(base, boundary), [target], 3, 6, [cfg])[0]
        for earlier in range(k + 1):
            win_a = reference.windows[earlier]
            win_b = other.windows[earlier]
            ok = ok and np.array_equal(
                win_a.outcome.best_bits.bits, win_b.outcome.best_bits.bits
            )
        ok = ok and np.array_equal(reference.bits[:boundary], other.bits[:boundary])
    _report(4, "walk-forward no-lookahead (earlier chunks bit-identical)", ok)


def test_05_backtest_identities():
    cost = 0.001
    # (a) constant gross 1.001 buy & hold compounds exactly
    t = 249
    flat = gross_panel(np.full((t, 2), 1.001))
    hold = run(flat, Strategy(equal_weights(flat.tickers), BuyAndHold()), cost)
    ok_a = abs(hold.equity_curve[-1] / 1.001**t - 1.0) < 1e-12

    # (b) drift-free panel: zero cost under every scheduler
    drift_free = gross_panel(np.tile(np.linspace(1.002, 0.997, 40)[:, None], (1, 3)))
    eq3 = equal_weights(drift_free.tickers)
    bits = np.zeros(40, dtype=np.uint8)
    bits[[7, 23]] = 1
    schedulers = (BuyAndHold(), Periodic(1), Periodic(5), Threshold(0.01), Explicit(bits))
    ok_b = all(
        run(drift_free, Strategy(eq3, s), cost).total_cost_bp == 0.0 for s in schedulers
    )

    # (c) worked 2-asset example: cost = 0.001 * (1/6 + 1/6)
    panel = gross_panel([[2.0, 1.0], [1.0, 1.0]])
    target = WeightVector(panel.tickers, np.array([0.5, 0.5]), "Equal")
    rep = run(panel, Strategy(target, Periodic(1)), cost)
    expected_cost = 0.001 * (abs(2 / 3 - 0.5) + abs(0.5 - 1 / 3))
    ok_c = (
        abs(rep.total_cost_bp / 1e4 - expected_cost) < 1e-12
        and abs(rep.equity_curve[-1] - 1.5 * (1 - expected_cost)) < 1e-12
    )
    _report(5, "backtest identities (compounding, drift-free zero cost, "
               "worked rebalance)", ok_a and ok_b and ok_c)


def test_06_rebalance_count_conventions():
    panels = [
        gross_panel(np.column_stack([np.full(249, 1.002), np.full(249, 1.0)])),
        to_returns(synth_panel(seed=61, T=250, M=3)),
        to_returns(synth_panel(seed=62, T=250, M=5)),
    ]
    ok = True
    for panel in panels:
        assert panel.n_days == 249
        eq = equal_weights(panel.tickers)
        daily = run(panel, Strategy(eq, Periodic(1)), 0.001)
        biweekly = run(panel, Strategy(eq, Periodic(10)), 0.001)
        ok = ok and daily.rebalance_count == 248 and biweekly.rebalance_count == 24
    _report(6, "rebalance counts (periodic(1) -> 248, periodic(10) -> 24 on 249 days)", ok)


def test_07_minvar_optimality():
    # analytic case first: exact equality
    ok = bool(np.array_equal(minvar(np.diag([1.0, 4.0])).weights, np.array([0.8, 0.2])))

    rng = np.random.default_rng(7000)
    accepted = 0
    while accepted < 20:
        a = rng.standard_normal((10, 10)) * 0.3
        sigma = a @ a.T + np.eye(10)
        raw = np.linalg.pinv(sigma, hermitian=True) @ np.ones(10)
        if not np.all(raw > 0.0):  # criterion covers the no-clipping regime
            continue
        accepted += 1
        w = minvar(sigma).weights
        var_opt = float(w @ sigma @ w)
        samples = rng.dirichlet(np.ones(10), size=10_000)
        var_rand = np.einsum("ij,jk,ik->i", samples, sigma, samples)
        ok = ok and var_opt <= float(var_rand.min()) + 1e-12
    _report(7, "minimum-variance optimality (analytic exact + 20 random-search bounds)", ok)


def test_08_shrinkage_oracle_match():
    rng = np.random.default_rng(800)
    worst_sigma = worst_alpha = 0.0
    alphas_ok = True
    for i in range(20):
        t = int(rng.integers(25, 200))
        m = int(rng.integers(2, 13))
        a = rng.standard_normal((m, m))
        cov = a @ a.T + m * np.eye(m)
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        panel = to_returns(synth_panel(
            seed=900 + i, T=t, M=m, target_corr=corr,
            ann_vol=rng.uniform(0.05, 0.5, size=m),
        ))
        est = ledoit_wolf(panel)
        sigma_o, alpha_o, _ = shrinkage_oracle(panel.log_returns)
        worst_sigma = max(worst_sigma, float(np.abs(est.sigma - sigma_o).max()))
        worst_alpha = max(worst_alpha, abs(est.alpha - alpha_o))
        alphas_ok = alphas_ok and 0.0 <= est.alpha <= 1.0
    ok = worst_sigma < 1e-10 and worst_alpha < 1e-10 and alphas_ok
    _report(8, f"shrinkage oracle match (max sigma diff {worst_sigma:.2e}, "
               f"max alpha diff {worst_alpha:.2e} < 1e-10, alpha in [0,1])", ok)


def test_09_clustering_recovery():
    corr = block_correlation((5, 5), intra=0.8, inter=0.1)
    truth = np.array([0] * 5 + [1] * 5)
    recovered = 0
    for seed in range(20):
        panel = to_returns(synth_panel(seed=seed, T=800, M=10, target_corr=corr))
        labels = ward_cluster(ledoit_wolf(panel).dist, 2).labels
        mapping = {}
        match = True
        for got, want in zip(labels, truth):
            if got in mapping and mapping[got] != want:
                match = False
                break
            mapping[got] = want
        recovered += match and len(set(mapping.values())) == len(mapping)
    _report(9, f"planted 2-block recovery ({recovered}/20 exact)", recovered == 20)


def test_10_ga_improvement():
    ok = True
    for seed in range(5):
        panel = to_returns(synth_panel(
            seed=seed, T=220, M=6, ann_drift=np.linspace(0.0, 0.2, 6),
        ))
        cfg = GaConfig(population=40, generations=25, seed=seed)
        result, history = ga_optimise(panel, cfg, return_history=True)
        eq_fit = fitness(equal_weights(panel.tickers), panel, cfg.lambda_ent)
        ok = ok and history[-1] >= eq_fit - 1e-12
        ok = ok and np.all(np.diff(history) >= 0.0)
        ok = ok and fitness(result, panel, cfg.lambda_ent) >= eq_fit - 1e-12
    _report(10, "GA improvement (>= equal-weight fitness, monotone best-so-far)", ok)


def test_11_golden_run_byte_identical(tmp_path):
    # the bundled panel regenerates bit-for-bit from its seed, and the full
    # pipeline on it reproduces the golden metrics bit-for-bit
    from quantfolio import write_csv

    fresh_csv = tmp_path / "fresh_prices.csv"
    write_csv(golden_panel(), fresh_csv)
    prices = fresh_csv.read_bytes()
    metrics = run_pipeline(tmp_path / "run").read_bytes()
    ok = prices == GOLDEN_PRICES.read_bytes() and metrics == GOLDEN_METRICS.read_bytes()
    _report(11, "golden end-to-end run (bundled panel + metrics byte-identical)",
            ok, "" if ok else mismatch_report(prices, metrics))
