import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize

from quantfolio import (
    BuyAndHold,
    GaConfig,
    QaoaConfig,
    ShrunkCovariance,
    Strategy,
    WeightVector,
    ZeroVolatilityError,
    annualised_sharpe,
    build_qubo,
    ensemble,
    equal_weights,
    fitness,
    ga_optimise,
    minvar,
    normalised_entropy,
    run,
    synth_panel,
    to_returns,
    train_sharpe,
    walk_forward,
)

from quantfolio.allocation import _TOURNAMENT, portfolio_log_returns
from quantfolio.cli import _weights_record

from conftest import gross_panel


def wv(weights, tickers=None, method="Equal"):
    weights = np.asarray(weights, dtype=float)
    if tickers is None:
        tickers = tuple(f"A{i:03d}" for i in range(weights.size))
    return WeightVector(tickers, weights, method)


class TestWeightVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            wv([1.2, -0.2])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-negative numbers"):
            wv([0.5, np.nan, 0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            wv([0.5, 0.6])

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            WeightVector(("A", "B"), np.array([0.5, 0.5]), "Magic")

    def test_json_surface(self):
        v = wv([0.25, 0.75], tickers=("X", "Y"), method="GA")
        train = gross_panel([[1.01, 0.99], [0.98, 1.03], [1.02, 1.0]], tickers=("X", "Y"))
        blob = _weights_record(v, train)
        assert blob == {
            "method": "GA",
            "tickers": ["X", "Y"],
            "weights": [0.25, 0.75],
            "train_sharpe": train_sharpe(v, train),
        }

    def test_stores_only_tickers_weights_and_method(self):
        assert [f.name for f in dataclasses.fields(WeightVector)] == ["tickers", "weights", "method"]


class TestEntropyAndFitness:
    def test_equal_weights_max_entropy(self):
        assert normalised_entropy(np.full(10, 0.1)) == pytest.approx(1.0, abs=1e-12)

    def test_near_one_hot_entropy_close_to_zero(self):
        w = np.array([0.991] + [0.001] * 9)
        h = normalised_entropy(w)
        assert h == pytest.approx(0.030891008405092145, abs=1e-12)
        assert h < 0.1  # concentrated weights earn almost no entropy bonus

    def test_single_asset_entropy_zero(self):
        assert normalised_entropy(np.array([1.0])) == 0.0

    def test_equal_weight_fitness_adds_lambda(self):
        panel = to_returns(synth_panel(seed=1, T=120, M=10))
        eq = equal_weights(panel.tickers)
        base = annualised_sharpe(np.log(panel.gross_returns @ eq.weights))
        assert fitness(eq, panel, lambda_ent=0.05) == pytest.approx(base + 0.05, abs=1e-12)

    def test_entropy_batch_equals_single_calls(self):
        w = np.random.default_rng(5).dirichlet(np.ones(9), size=6)
        w[1, :4] = 0.0  # rows with zeros: 0 ln 0 counts as 0
        w[4] = np.eye(9)[2]
        batch = normalised_entropy(w)
        assert batch.shape == (6,)
        assert batch.tolist() == [normalised_entropy(row) for row in w]
        assert normalised_entropy(np.ones((3, 1))).tolist() == [0.0, 0.0, 0.0]

    def test_population_fitness_rows_equal_fitness(self):
        panel = to_returns(synth_panel(seed=6, T=150, M=7))
        genes = np.random.default_rng(6).uniform(0.01, 1.0, size=(20, 7))
        wts = genes / genes.sum(axis=1, keepdims=True)
        batch = fitness(wts, panel, lambda_ent=0.05)
        assert batch.shape == (20,)
        single = [fitness(w, panel, lambda_ent=0.05) for w in wts]
        np.testing.assert_allclose(batch, single, rtol=0.0, atol=1e-12)

    def test_population_fitness_into_a_reused_buffer_is_bit_identical(self):
        panel = to_returns(synth_panel(seed=8, T=150, M=7))
        gross = panel.gross_returns
        rng = np.random.default_rng(8)
        buffer = np.empty((20, len(gross)))
        for _ in range(3):
            genes = rng.uniform(0.01, 1.0, size=(20, 7))
            wts = genes / genes.sum(axis=1, keepdims=True)
            fresh = annualised_sharpe(np.log(wts @ gross.T)) + 0.05 * normalised_entropy(wts)
            assert np.array_equal(fitness(wts, panel, 0.05, buffer), fresh)

    def test_single_asset_fitness_is_plain_sharpe(self):
        panel = to_returns(synth_panel(seed=2, T=90, M=1))
        one = WeightVector(panel.tickers, np.array([1.0]), "Equal")
        expected = annualised_sharpe(panel.log_returns[:, 0])
        assert fitness(one, panel) == pytest.approx(expected, abs=1e-12)

    def test_non_positive_portfolio_return_raises(self):
        # a short position can take the portfolio's gross return below zero
        panel = gross_panel([[1.0, 1.0], [1.0, 1.1]])
        with pytest.raises(ValueError, match="non-positive"):
            portfolio_log_returns(np.array([1.0, -1.0]), panel.gross_returns)

    def test_zero_volatility_panel_rejected(self):
        panel = gross_panel([[1.001, 1.001], [1.001, 1.001], [1.001, 1.001]])
        with pytest.raises(ZeroVolatilityError):
            fitness(wv([0.5, 0.5], panel.tickers), panel)


def small_cfg(seed=0, **kw):
    defaults = dict(population=40, generations=30, seed=seed)
    defaults.update(kw)
    return GaConfig(**defaults)


class TestGaConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["lambda_ent", "gene_high"])
    def test_non_finite_value_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            GaConfig(**{field: value})


class TestGaOptimise:
    def test_dominant_asset_gets_more_weight(self):
        rng = np.random.default_rng(3)
        noise = rng.normal(0.0, 0.01, size=250)
        log_a = 0.002 + noise  # same vol, higher mean
        log_b = 0.0002 + noise
        panel = gross_panel(np.exp(np.column_stack([log_a, log_b])), tickers=("AAA", "BBB"))
        result = ga_optimise(panel, small_cfg())
        assert result.weights[0] > result.weights[1]

    def test_history_non_decreasing(self):
        panel = to_returns(synth_panel(seed=4, T=150, M=5))
        _, history = ga_optimise(panel, small_cfg(seed=1), return_history=True)
        assert len(history) == 31
        assert np.all(np.diff(history) >= 0.0)

    def test_beats_equal_weights(self):
        for seed in range(3):
            panel = to_returns(
                synth_panel(seed=seed, T=200, M=6, ann_drift=np.linspace(0.0, 0.15, 6))
            )
            result, history = ga_optimise(panel, small_cfg(seed=seed), return_history=True)
            eq_fit = fitness(equal_weights(panel.tickers), panel, lambda_ent=0.05)
            assert history[-1] >= eq_fit - 1e-12

    def test_deterministic(self):
        panel = to_returns(synth_panel(seed=5, T=100, M=4))
        a = ga_optimise(panel, small_cfg(seed=9))
        b = ga_optimise(panel, small_cfg(seed=9))
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_needs_two_assets(self):
        panel = to_returns(synth_panel(seed=6, T=50, M=1))
        with pytest.raises(ValueError, match="at least 2"):
            ga_optimise(panel, small_cfg())

    def test_train_sharpe_is_the_sharpe_of_the_train_log_returns(self):
        panel = to_returns(synth_panel(seed=7, T=120, M=3))
        result = ga_optimise(panel, small_cfg())
        expected = annualised_sharpe(np.log(panel.gross_returns @ result.weights))
        assert train_sharpe(result, panel) == expected


def reference_ga_optimise(train, cfg, *, return_history=False):
    """``ga_optimise`` as it was written before its generation loop was
    folded into one: generation 0 scored before the loop, each bred one in it."""
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
    fit = fitness(genes / genes.sum(axis=1, keepdims=True), train, cfg.lambda_ent, port)
    best = int(np.argmax(fit))
    best_fit = float(fit[best])
    best_genes = genes[best].copy()
    history = [best_fit]

    for _ in range(cfg.generations):
        elite = genes[best].copy()
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

        genes = np.vstack([elite[None, :], children])
        fit = fitness(genes / genes.sum(axis=1, keepdims=True), train, cfg.lambda_ent, port)
        best = int(np.argmax(fit))
        if fit[best] > best_fit:
            best_fit = float(fit[best])
            best_genes = genes[best].copy()
        history.append(best_fit)

    result = WeightVector(train.tickers, best_genes / best_genes.sum(), "GA")
    if return_history:
        return result, np.asarray(history)
    return result


class TestGaMatchesReference:
    """``ga_optimise`` is bit-identical to the two-block reference above:
    weights, history and the RNG draws behind them."""

    @pytest.mark.parametrize("panel_seed,m,cfg", [
        (1, 2, GaConfig(population=2, generations=1, seed=0)),
        (2, 3, GaConfig(population=2, generations=5, seed=4)),
        (3, 5, GaConfig(population=40, generations=30, seed=1)),
        (4, 8, GaConfig(population=25, generations=60, mutation_rate=0.5, seed=7)),
        (5, 4, GaConfig(population=3, generations=1, mutation_rate=0.0, seed=2)),
    ])
    def test_same_weights_and_history(self, panel_seed, m, cfg):
        panel = to_returns(synth_panel(seed=panel_seed, T=90, M=m))
        ours, ours_hist = ga_optimise(panel, cfg, return_history=True)
        ref, ref_hist = reference_ga_optimise(panel, cfg, return_history=True)
        assert np.array_equal(ours.weights, ref.weights)
        assert np.array_equal(ours_hist, ref_hist)
        assert np.array_equal(ga_optimise(panel, cfg).weights, ref.weights)

    def test_generation_0_best_never_beaten(self):
        # four copies of one asset: every portfolio has that asset's Sharpe,
        # so the entropy term alone ranks them and the equal-weight
        # individual seeded into generation 0 stays the best
        day = np.exp(np.random.default_rng(6).normal(0.0005, 0.01, size=(90, 1)))
        panel = gross_panel(np.tile(day, (1, 4)))
        cfg = GaConfig(population=20, generations=15, seed=3)
        ours, ours_hist = ga_optimise(panel, cfg, return_history=True)
        ref, ref_hist = reference_ga_optimise(panel, cfg, return_history=True)
        assert np.all(ours_hist == ours_hist[0])
        np.testing.assert_array_equal(ours.weights, np.full(4, 0.25))
        assert np.array_equal(ours.weights, ref.weights)
        assert np.array_equal(ours_hist, ref_hist)


class TestGaQuality:
    """A regression guard, not an optimality claim: the default GA comes within
    2 % of the best multistart L-BFGS-B fitness over the same genes and bounds
    (gaps of 0.4-0.9 % on these panels)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_within_2pct_of_a_multistart_optimum(self, seed):
        m = 10
        panel = to_returns(synth_panel(seed=seed, T=251, M=m, ann_drift=np.linspace(0, 0.25, m),
                                       ann_vol=np.linspace(0.15, 0.4, m)))
        cfg = GaConfig(seed=seed)
        ga_fit = fitness(ga_optimise(panel, cfg), panel, cfg.lambda_ent)

        def loss(genes):
            return -fitness(genes / genes.sum(), panel, cfg.lambda_ent)

        starts = np.random.default_rng(seed).uniform(cfg.gene_low, cfg.gene_high, (30, m))
        best = max(-minimize(loss, x0, method="L-BFGS-B",
                             bounds=[(cfg.gene_low, cfg.gene_high)] * m).fun for x0 in starts)
        assert ga_fit >= best - 0.02 * abs(best)


class TestMinVar:
    def test_inverse_variance_two_assets(self):
        v = minvar(np.diag([1.0, 4.0]))
        assert v.tickers == ("A000", "A001")
        np.testing.assert_array_equal(v.weights, [0.8, 0.2])

    def test_identity_gives_equal(self):
        v = minvar(np.eye(7))
        np.testing.assert_allclose(v.weights, np.full(7, 1 / 7), atol=1e-15)

    def test_negative_raw_weight_clipped(self):
        # hand-solved: pinv(sigma) @ 1 prop to (6.3, -1.7) -> clip -> (1, 0)
        sigma = np.array([[1.0, 2.7], [2.7, 9.0]])
        v = minvar(sigma)
        np.testing.assert_allclose(v.weights, [1.0, 0.0], atol=1e-12)

    def test_random_search_lower_bound(self):
        rng = np.random.default_rng(11)
        n = 6
        a = rng.standard_normal((n, n))
        sigma = a @ a.T + n * np.eye(n)
        v = minvar(sigma)
        if np.all(np.linalg.pinv(sigma, hermitian=True) @ np.ones(n) > 0):
            var_opt = v.weights @ sigma @ v.weights
            samples = rng.dirichlet(np.ones(n), size=10_000)
            var_rand = np.einsum("ij,jk,ik->i", samples, sigma, samples)
            assert var_opt <= var_rand.min() + 1e-12

    def test_accepts_shrunk_covariance(self):
        est = ShrunkCovariance(("A", "B"), np.diag([1.0, 4.0]), 0.0, 2.5)
        v = minvar(est)
        assert v.tickers == ("A", "B")
        np.testing.assert_array_equal(v.weights, [0.8, 0.2])


class TestEnsemble:
    def test_fixed_point(self):
        eq = equal_weights(("A", "B"))
        out = ensemble(
            WeightVector(eq.tickers, eq.weights, "GA"),
            WeightVector(eq.tickers, eq.weights, "MinVar"),
            eq,
        )
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-15)
        assert out.method == "Ensemble"

    def test_symmetry_example(self):
        tick = ("A", "B")
        out = ensemble(
            WeightVector(tick, np.array([1.0, 0.0]), "GA"),
            WeightVector(tick, np.array([0.0, 1.0]), "MinVar"),
            WeightVector(tick, np.array([0.5, 0.5]), "Equal"),
        )
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-15)

    def test_published_blend_row(self):
        # one asset at GA 7.5%, MinVar 4.1%, Equal 10% blends to 7.2%
        assert (0.075 + 0.041 + 0.100) / 3 == pytest.approx(0.072, abs=1e-12)
        tick = ("E", "R")
        out = ensemble(
            WeightVector(tick, np.array([0.075, 0.925]), "GA"),
            WeightVector(tick, np.array([0.041, 0.959]), "MinVar"),
            WeightVector(tick, np.array([0.100, 0.900]), "Equal"),
        )
        assert out.weights[0] == pytest.approx(0.072, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="tickers"):
            ensemble(
                wv([1.0], tickers=("A",), method="GA"),
                wv([0.5, 0.5], method="MinVar"),
                wv([0.5, 0.5], method="Equal"),
            )

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(13)
        tick = tuple(f"A{i}" for i in range(5))
        for _ in range(20):
            parts = [
                WeightVector(tick, rng.dirichlet(np.ones(5)), m)
                for m in ("GA", "MinVar", "Equal")
            ]
            out = ensemble(*parts)
            assert abs(out.weights.sum() - 1.0) <= 1e-12
            assert np.all(out.weights >= 0.0)


# every public call that applies weights to a panel's columns, given the
# panel and a WeightVector for the panel's tickers in another order
WEIGHTS_ON_A_PANEL = {
    "fitness": lambda panel, wv: fitness(wv, panel),
    "train_sharpe": lambda panel, wv: train_sharpe(wv, panel),
    "build_qubo": lambda panel, wv: build_qubo(wv, panel, 4),
    "walk_forward": lambda panel, wv: walk_forward(
        panel, [wv], 2, 4, [QaoaConfig(depth=1, restarts=2, max_iters=30, seed=3)]),
    "backtest.run": lambda panel, wv: run(panel, Strategy(wv, BuyAndHold()), 0.001),
    "ensemble": lambda panel, wv: ensemble(
        WeightVector(panel.tickers, wv.weights, "GA"), wv, equal_weights(panel.tickers)),
}


@pytest.mark.parametrize("call", WEIGHTS_ON_A_PANEL.values(), ids=WEIGHTS_ON_A_PANEL.keys())
def test_weights_on_reordered_tickers_raise(call):
    panel = to_returns(synth_panel(seed=8, T=61, M=3))
    reordered = WeightVector(panel.tickers[::-1], np.array([0.2, 0.3, 0.5]), "MinVar")
    with pytest.raises(ValueError, match="tickers"):
        call(panel, reordered)
