import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantfolio import (
    BuyAndHold,
    Explicit,
    Periodic,
    Strategy,
    Threshold,
    WeightVector,
    annualised_sharpe,
    equal_weights,
    metrics,
    run,
    run_grid,
    synth_panel,
    to_returns,
)

from quantfolio.allocation import METHODS, _weight_array
from quantfolio.backtest import BacktestReport, drawdown
from quantfolio.market_data import _check_real

from conftest import gross_panel

COST = 0.001


def strat(panel, scheduler, weights=None):
    w = weights if weights is not None else equal_weights(panel.tickers)
    return Strategy(w, scheduler)


class TestRunIdentities:
    def test_drift_free_any_scheduler_zero_cost(self):
        gross = np.tile(np.linspace(1.0, 1.01, 30)[:, None], (1, 3))
        panel = gross_panel(gross)
        expected_v = np.prod(gross[:, 0])
        baseline = run(panel, strat(panel, BuyAndHold()), COST)
        for scheduler in (BuyAndHold(), Periodic(1), Periodic(5), Threshold(0.01)):
            for cost in (0.0, COST):
                rep = run(panel, strat(panel, scheduler), cost)
                assert rep.total_cost_bp == 0.0
                assert rep.equity_curve[-1] == pytest.approx(expected_v, rel=1e-13)
                np.testing.assert_array_equal(rep.equity_curve, baseline.equity_curve)

    def test_constant_return_buy_and_hold_compounds(self):
        t = 100
        panel = gross_panel(np.full((t, 2), 1.001))
        rep = run(panel, strat(panel, BuyAndHold()), COST)
        assert rep.equity_curve[-1] == pytest.approx(1.001**t, rel=1e-12)
        assert rep.rebalance_count == 0

    def test_worked_two_asset_rebalance(self):
        # day 1: A doubles; day 2: flat, rebalance fires with c = 0.001
        panel = gross_panel([[2.0, 1.0], [1.0, 1.0]])
        target = WeightVector(panel.tickers, np.array([0.5, 0.5]), "Equal")
        rep = run(panel, Strategy(target, Periodic(1)), COST)
        cost = 0.001 * (abs(2 / 3 - 0.5) + abs(1 / 3 - 0.5))
        assert cost == pytest.approx(0.001 / 3, abs=1e-18)
        assert rep.rebalance_days == (1,)
        assert rep.equity_curve[1] == pytest.approx(1.5, abs=1e-15)
        assert rep.equity_curve[2] == pytest.approx(1.5 * (1 - cost), rel=1e-12)
        assert rep.total_cost_bp == pytest.approx(1e4 * cost, rel=1e-12)

    def test_buy_and_hold_matches_static_holdings_oracle(self):
        panel = to_returns(synth_panel(seed=40, T=150, M=4))
        w = np.array([0.4, 0.1, 0.3, 0.2])
        rep = run(panel, strat(panel, BuyAndHold(), WeightVector(panel.tickers, w, "GA")), COST)
        # oracle: value of a never-traded basket via cumulative gross returns
        cumulative = np.cumprod(panel.gross_returns, axis=0)
        oracle = np.concatenate([[1.0], cumulative @ w])
        np.testing.assert_allclose(rep.equity_curve, oracle, rtol=1e-12)

    def test_zero_distance_rebalances_cost_nothing(self):
        gross = np.tile(np.linspace(1.002, 0.998, 25)[:, None], (1, 2))
        panel = gross_panel(gross)
        hold = run(panel, strat(panel, BuyAndHold()), COST)
        churn = run(panel, strat(panel, Periodic(1)), COST)
        assert churn.rebalance_count == 24
        assert churn.total_cost_bp == 0.0
        assert churn.equity_curve[-1] == pytest.approx(hold.equity_curve[-1], rel=1e-14)

    def test_cost_wiping_out_portfolio_raises(self):
        # drift distance 1/3 at cost_c = 4 would charge 4/3 of the portfolio
        panel = gross_panel([[2.0, 1.0], [1.0, 1.0]])
        target = WeightVector(panel.tickers, np.array([0.5, 0.5]), "Equal")
        with pytest.raises(ValueError, match="wipe out"):
            run(panel, Strategy(target, Periodic(1)), 4.0)


class TestSchedulers:
    def _drifting_panel(self, t=249):
        gross = np.column_stack([np.full(t, 1.002), np.full(t, 1.0)])
        return gross_panel(gross)

    def test_periodic_counts_on_249_days(self):
        panel = self._drifting_panel(249)
        daily = run(panel, strat(panel, Periodic(1)), COST)
        biweekly = run(panel, strat(panel, Periodic(10)), COST)
        assert daily.rebalance_count == 248
        assert biweekly.rebalance_count == 24

    def test_periodic_5_and_21_counts(self):
        panel = self._drifting_panel(249)
        assert run(panel, strat(panel, Periodic(5)), COST).rebalance_count == 49
        assert run(panel, strat(panel, Periodic(21)), COST).rebalance_count == 11

    def test_threshold_never_hit_equals_buy_and_hold(self):
        panel = to_returns(synth_panel(seed=41, T=60, M=3))
        hold = run(panel, strat(panel, BuyAndHold()), COST)
        thr = run(panel, strat(panel, Threshold(0.99)), COST)
        assert thr.rebalance_count == 0
        np.testing.assert_array_equal(thr.equity_curve, hold.equity_curve)

    def test_threshold_fires_on_max_drift(self):
        # asset A gains 1% per day vs flat B: max drift exceeds 2% within days
        panel = self._drifting_panel(60)
        gross = np.column_stack([np.full(60, 1.01), np.full(60, 1.0)])
        panel = gross_panel(gross)
        rep = run(panel, strat(panel, Threshold(0.02)), COST)
        assert rep.rebalance_count > 0
        first = rep.rebalance_days[0]
        drift = np.cumprod(gross[: first + 1, 0]) * 0.5
        drifted_a = drift[-1] / (drift[-1] + 0.5)
        assert drifted_a - 0.5 > 0.02

    def test_explicit_schedule(self):
        panel = self._drifting_panel(30)
        bits = np.zeros(30, dtype=np.uint8)
        bits[[3, 17]] = 1
        rep = run(panel, strat(panel, Explicit(bits)), COST)
        assert rep.rebalance_days == (3, 17)
        assert rep.rebalance_count == 2

    def test_explicit_length_mismatch(self):
        panel = self._drifting_panel(30)
        with pytest.raises(ValueError, match="29"):
            run(panel, strat(panel, Explicit(np.zeros(29, dtype=np.uint8))), COST)

    def test_cost_monotone_in_rebalance_count_fixed_drift(self):
        # same 10-day gap before each event -> identical per-event drift
        panel = self._drifting_panel(60)
        bits_two = np.zeros(60, dtype=np.uint8)
        bits_two[[10, 20]] = 1
        bits_three = np.zeros(60, dtype=np.uint8)
        bits_three[[10, 20, 30]] = 1
        rep2 = run(panel, strat(panel, Explicit(bits_two)), COST)
        rep3 = run(panel, strat(panel, Explicit(bits_three)), COST)
        assert rep3.rebalance_count > rep2.rebalance_count
        assert rep3.total_cost_bp > rep2.total_cost_bp

    def test_weight_mismatch_rejected(self):
        panel = self._drifting_panel(10)
        bad = WeightVector(("X", "Y"), np.array([0.5, 0.5]), "Equal")
        with pytest.raises(ValueError, match="tickers"):
            run(panel, Strategy(bad, BuyAndHold()), COST)

    @pytest.mark.parametrize("every", [np.int64(5), np.uint8(5)])
    def test_periodic_admits_numpy_integers(self, every):
        assert Periodic(every).describe() == "Rebal/5d"
        assert np.flatnonzero(Periodic(every).due(16)).tolist() == [5, 10, 15]

    def test_each_rule_as_data(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert [Periodic(1).due(4).tolist(), Explicit(bits).due(4).tolist()] == [
            [False, True, True, True], [False, True, True, False]]
        assert not BuyAndHold().due(4).any() and not Threshold(0.05).due(4).any()
        assert [s.band for s in (BuyAndHold(), Periodic(2), Threshold(0.05), Explicit(bits))] \
            == [np.inf, np.inf, 0.05, np.inf]
        with pytest.raises(ValueError, match="explicit schedule of 4 bits for 5 test days"):
            Explicit(bits).due(5)
        for scheduler in (BuyAndHold(), Periodic(2), Threshold(0.05), Explicit(bits)):
            with pytest.raises(ValueError, match="^days must be a whole number >= 1, not 4.0"):
                scheduler.due(4.0)

    def test_a_drift_of_exactly_the_band_is_let_stand(self):
        # [0.5, 0.5] drifts to [0.75, 0.25] on day 0: a drift of exactly 0.25
        panel = gross_panel([[1.5, 0.5], [1.0, 1.0]])
        assert run(panel, strat(panel, Threshold(0.25)), COST).rebalance_days == ()
        assert run(panel, strat(panel, Threshold(0.2499)), COST).rebalance_days == (0,)

    def test_single_rebalance_cost_is_post_return_drift_distance(self):
        # cost charged at day t covers drift through day t's return (t+1 days)
        panel = to_returns(synth_panel(seed=43, T=40, M=3,
                                       ann_drift=[0.4, 0.0, -0.3]))
        target = equal_weights(panel.tickers)
        day = 17
        bits = np.zeros(panel.n_days, dtype=np.uint8)
        bits[day] = 1
        rep = run(panel, Strategy(target, Explicit(bits)), COST)
        drifted = target.weights * np.prod(panel.gross_returns[:day + 1], axis=0)
        drifted /= drifted.sum()
        expected = COST * np.abs(drifted - target.weights).sum()
        assert rep.total_cost_bp == pytest.approx(1e4 * expected, rel=1e-12)


@st.composite
def simplex_weights(draw, m):
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    return raw / raw.sum()


@st.composite
def panels_and_weights(draw, drift_free=False):
    """A gross-return panel (days x assets) and target weights on it."""
    t = draw(st.integers(2, 40))
    m = draw(st.integers(1, 5))
    if drift_free:
        daily = draw(st.lists(st.floats(0.9, 1.1), min_size=t, max_size=t))
        gross = np.tile(np.array(daily)[:, None], (1, m))
    else:
        rows = draw(st.lists(st.lists(st.floats(0.9, 1.1), min_size=m, max_size=m),
                             min_size=t, max_size=t))
        gross = np.array(rows)
    panel = gross_panel(gross)
    return panel, WeightVector(panel.tickers, draw(simplex_weights(m)), "GA")


class TestRunProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=panels_and_weights(drift_free=True), data=st.data())
    def test_drift_free_panel_costs_nothing_under_any_schedule(self, case, data):
        # every asset earns the same return each day, so holdings never drift
        # from target: any schedule costs nothing (up to rounding) and earns
        # the common compounded return
        panel, weights = case
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=panel.n_days,
                                           max_size=panel.n_days)), dtype=np.uint8)
        scheduler = data.draw(st.sampled_from(
            [BuyAndHold(), Periodic(1), Periodic(3), Threshold(1e-9), Explicit(bits)]))
        cost_c = data.draw(st.floats(0.0, 0.05))
        rep = run(panel, Strategy(weights, scheduler), cost_c)
        assert rep.total_cost_bp <= 1e-9
        oracle = np.concatenate([[1.0], np.cumprod(panel.gross_returns[:, 0])])
        np.testing.assert_allclose(rep.equity_curve, oracle, rtol=1e-12, atol=0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=panels_and_weights())
    def test_buy_and_hold_equals_static_holdings(self, case):
        panel, weights = case
        rep = run(panel, Strategy(weights, BuyAndHold()), COST)
        assert rep.rebalance_count == 0
        assert rep.total_cost_bp == 0.0
        cumulative = np.cumprod(panel.gross_returns, axis=0)
        oracle = np.concatenate([[1.0], cumulative @ weights.weights])
        np.testing.assert_allclose(rep.equity_curve, oracle, rtol=1e-12, atol=0)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(m=st.integers(2, 5), gap=st.integers(1, 8), data=st.data())
    def test_cost_monotone_in_rebalances_under_constant_drift(self, m, gap, data):
        # the same gross returns every day and a rebalance every ``gap`` days:
        # each rebalance follows the same drift from target, so costs the same
        daily = np.array(data.draw(st.lists(st.floats(0.95, 1.05), min_size=m, max_size=m)))
        panel = gross_panel(np.tile(daily, (6 * gap, 1)))
        weights = WeightVector(panel.tickers, data.draw(simplex_weights(m)), "GA")
        costs = []
        for events in range(7):
            bits = np.zeros(panel.n_days, dtype=np.uint8)
            bits[gap - 1 : events * gap : gap] = 1
            rep = run(panel, Strategy(weights, Explicit(bits)), COST)
            assert rep.rebalance_count == events
            costs.append(rep.total_cost_bp)
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        np.testing.assert_allclose(costs, costs[1] * np.arange(7), rtol=1e-9, atol=0)


# ``backtest.run`` verbatim from before the one-pass kernel, each scheduler's
# ``fires`` method included: the reference ``run`` must equal bit for bit
def reference_fires(scheduler, t: int, drifted: np.ndarray, target: np.ndarray) -> bool:
    if isinstance(scheduler, BuyAndHold):
        return False
    if isinstance(scheduler, Periodic):
        return t >= 1 and t % scheduler.every == 0
    if isinstance(scheduler, Threshold):
        return float(np.max(np.abs(drifted - target))) > scheduler.fraction
    return bool(scheduler.bits[t])


def reference_run(test, strat: Strategy, cost_c: float) -> BacktestReport:
    _check_real(cost_c, "cost_c", least=0.0)
    target = _weight_array(strat.weights, test.tickers)
    if isinstance(strat.scheduler, Explicit) and strat.scheduler.bits.size != test.n_days:
        raise ValueError(
            f"explicit schedule of {strat.scheduler.bits.size} bits for "
            f"{test.n_days} test days"
        )

    value = 1.0
    w = target.copy()
    curve = np.empty(test.n_days + 1)
    curve[0] = 1.0
    total_cost = 0.0
    rebalance_days: list[int] = []

    for t, day in enumerate(test.gross_returns):
        port = float(w @ day)
        value *= port
        drifted = w * day / port
        if reference_fires(strat.scheduler, t, drifted, target):
            cost = cost_c * float(np.abs(drifted - target).sum())
            if not cost < 1.0:
                raise ValueError("rebalancing cost cannot wipe out the portfolio")
            value *= 1.0 - cost
            total_cost += cost
            rebalance_days.append(t)
            w = target.copy()
        else:
            w = drifted
        curve[t + 1] = value

    return BacktestReport(strat.describe(), curve, 1e4 * total_cost, tuple(rebalance_days))


def assert_same_bits(report: BacktestReport, reference: BacktestReport) -> None:
    assert report.label == reference.label
    assert np.array_equal(report.equity_curve.view(np.uint64),
                          reference.equity_curve.view(np.uint64))
    assert np.float64(report.total_cost_bp).view(np.uint64) == \
        np.float64(reference.total_cost_bp).view(np.uint64)
    assert report.rebalance_days == reference.rebalance_days


@st.composite
def backtest_cases(draw):
    """A panel of 1-40 days and 1-12 assets (some days flat), a seeded
    generator for weights and bits, and ``cost_c`` of 0, 0.001 or 0.01."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t, m = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    gross = np.exp(rng.normal(0.0, draw(st.sampled_from([0.005, 0.02, 0.05])), size=(t, m)))
    gross[rng.random(t) < 0.1] = 1.001  # every asset alike: no drift that day
    return gross_panel(gross), rng, draw(st.sampled_from([0.0, 0.001, 0.01]))


def any_scheduler(draw, rng, days):
    return draw(st.sampled_from([
        BuyAndHold(), Periodic(draw(st.integers(1, 8))),
        Threshold(draw(st.sampled_from([1e-9, 0.001, 0.01, 0.05, 0.3]))),
        Explicit((rng.random(days) < draw(st.sampled_from([0.0, 0.2, 1.0]))).astype(np.uint8)),
    ]))


class TestOnePass:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=backtest_cases(), data=st.data())
    def test_run_equals_the_reference_bit_for_bit(self, case, data):
        panel, rng, cost_c = case
        weights = WeightVector(panel.tickers, rng.dirichlet(np.ones(panel.n_assets)), "GA")
        strat = Strategy(weights, any_scheduler(data.draw, rng, panel.n_days))
        assert_same_bits(run(panel, strat, cost_c), reference_run(panel, strat, cost_c))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=backtest_cases(), data=st.data())
    def test_every_grid_row_equals_run_alone_and_the_reference(self, case, data):
        panel, rng, cost_c = case
        weights = {m: WeightVector(panel.tickers, rng.dirichlet(np.ones(panel.n_assets)), m)
                   for m in METHODS}
        schedules = {m: (rng.random(panel.n_days) < 0.3).astype(np.uint8) for m in METHODS}
        periodic = tuple(data.draw(st.lists(st.integers(1, 10), max_size=4, unique=True)))
        threshold = data.draw(st.sampled_from([0.001, 0.01, 0.05]))
        strategies = [
            *(Strategy(weights[m], BuyAndHold()) for m in METHODS),
            *(Strategy(weights["GA"], Periodic(every)) for every in periodic),
            Strategy(weights["GA"], Threshold(threshold)),
            *(Strategy(weights[m], Explicit(schedules[m])) for m in METHODS),
        ]
        rows = run_grid(panel, weights, schedules, cost_c, periodic=periodic, threshold=threshold)
        assert len(rows) == len(strategies)
        for row, strat in zip(rows, strategies):
            assert_same_bits(row, run(panel, strat, cost_c))
            assert_same_bits(row, reference_run(panel, strat, cost_c))


class TestMetrics:
    def test_monotone_curve(self):
        m = metrics(np.linspace(1.0, 2.0, 50))
        assert m.mdd == 0.0
        assert m.calmar is None
        assert m.total_return == pytest.approx(1.0, abs=1e-15)

    def test_known_drawdown(self):
        m = metrics([1.0, 1.1, 0.99])
        assert m.mdd == pytest.approx(0.99 / 1.1 - 1.0, abs=1e-15)
        assert m.mdd == pytest.approx(-0.1, abs=1e-12)
        assert m.calmar == pytest.approx((0.99 - 1.0) / abs(m.mdd), abs=1e-12)

    def test_symmetric_alternation_sharpe_near_zero(self):
        # log-return asymmetry leaves mean ~= -r^2/2 per day, so allow that much
        r = 0.01
        curve = np.cumprod(np.concatenate([[1.0], np.tile([1 + r, 1 - r], 50)]))
        m = metrics(curve)
        assert m.sharpe is not None
        assert abs(m.sharpe) < 0.15

    def test_flat_curve_undefined_markers(self):
        m = metrics(np.ones(10))
        assert m.sharpe is None
        assert m.sortino is None
        assert m.calmar is None
        assert m.mdd == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_sharpe_is_annualised_sharpe_of_log_returns(self, seed):
        daily = np.random.default_rng(seed).normal(0.0005, 0.01, 60)
        curve = np.cumprod(np.concatenate([[1.0], 1.0 + daily]))
        assert metrics(curve).sharpe == annualised_sharpe(np.diff(np.log(curve)))

    def test_constant_growth_curve_sharpe_is_none(self):
        # log returns equal up to rounding: their sample std is ulps, not 0
        curve = 1.001 ** np.arange(250)
        assert np.diff(np.log(curve)).std(ddof=1) > 0.0
        assert metrics(curve).sharpe is None

    @pytest.mark.parametrize("curve", [np.ones(10), [1.0, 1.1]], ids=["flat", "two_points"])
    def test_undefined_sharpe_is_none(self, curve):
        assert metrics(curve).sharpe is None

    def test_drawdown_from_running_peak(self):
        dd = drawdown([1.0, 2.0, 1.5, 3.0, 1.5])
        assert dd.tolist() == [0.0, 0.0, -0.25, 0.0, -0.5]
        assert metrics([1.0, 2.0, 1.5, 3.0, 1.5]).mdd == -0.5

    def test_sortino_uses_downside_only(self):
        curve = np.cumprod(np.concatenate([[1.0], np.tile([1.02, 0.995], 30)]))
        m = metrics(curve)
        r = np.diff(np.log(curve))
        downside = np.sqrt(np.mean(np.minimum(r, 0.0) ** 2))
        expected = r.mean() / downside * np.sqrt(252)
        assert m.sortino == pytest.approx(expected, rel=1e-12)
        assert m.sortino > m.sharpe  # upside vol does not count against it

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            metrics([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_curve_must_be_finite_and_strictly_positive(self, bad):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            metrics([1.0, bad, 1.1])


class TestRunGrid:
    def _inputs(self, seed=42, t=120):
        panel = to_returns(synth_panel(seed=seed, T=t + 1, M=4,
                                       ann_drift=[0.2, 0.05, 0.0, 0.1]))
        rng = np.random.default_rng(seed)
        weights = {}
        for method in ("GA", "MinVar", "Equal", "Ensemble"):
            w = rng.dirichlet(np.ones(4))
            weights[method] = WeightVector(panel.tickers, w, method)
        schedules = {}
        for method in weights:
            bits = np.zeros(panel.n_days, dtype=np.uint8)
            bits[rng.choice(panel.n_days, size=3, replace=False)] = 1
            schedules[method] = bits
        return panel, weights, schedules

    def test_grid_rows_and_labels(self):
        panel, weights, schedules = self._inputs()
        reports = run_grid(panel, weights, schedules, COST)
        labels = [r.label for r in reports]
        assert labels == [
            "GA Buy&Hold", "MinVar Buy&Hold", "Equal Buy&Hold", "Ensemble Buy&Hold",
            "GA Rebal/1d", "GA Rebal/5d", "GA Rebal/10d", "GA Rebal/21d",
            "GA Threshold (5%)",
            "GA + QAOA", "MinVar + QAOA", "Equal + QAOA", "Ensemble + QAOA",
        ]
        assert len(reports) == 13

    def test_threshold_label_states_the_fraction_it_fires_at(self):
        panel, weights, schedules = self._inputs()
        report = run_grid(panel, weights, schedules, COST, threshold=0.005)[8]
        assert report.label == "GA Threshold (0.5%)"
        assert [Threshold(f).describe() for f in (0.05, 0.025, 0.1, 0.125, 1e-9)] == [
            "Threshold (5%)", "Threshold (2.5%)", "Threshold (10%)", "Threshold (12.5%)",
            "Threshold (1e-07%)",
        ]

    def test_repeated_periodic_interval_rejected(self):
        panel, weights, schedules = self._inputs()
        with pytest.raises(ValueError, match=r"periodic repeats interval\(s\): 5$"):
            run_grid(panel, weights, schedules, COST, periodic=(5, 1, 5))

    def test_missing_method_rejected(self):
        panel, weights, schedules = self._inputs()
        del weights["Equal"]
        with pytest.raises(ValueError, match="Equal"):
            run_grid(panel, weights, schedules, COST)

    def test_explicit_rows_use_their_schedules(self):
        panel, weights, schedules = self._inputs()
        reports = run_grid(panel, weights, schedules, COST)
        qaoa_ga = next(r for r in reports if r.label == "GA + QAOA")
        assert qaoa_ga.rebalance_days == tuple(np.flatnonzero(schedules["GA"]))

    def test_reports_immutable_curves(self):
        panel, weights, schedules = self._inputs()
        rep = run_grid(panel, weights, schedules, COST)[0]
        with pytest.raises(ValueError):
            rep.equity_curve[0] = 2.0
