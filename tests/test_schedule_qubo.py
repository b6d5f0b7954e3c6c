import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quantfolio import schedule_qubo
from quantfolio import (
    QuboParams,
    QuboProblem,
    WeightVector,
    ZeroVolatilityError,
    annualised_sharpe,
    brute_force,
    build_qubo,
    candidate_dates,
    synth_panel,
    to_returns,
)
from quantfolio.allocation import _weight_array, portfolio_log_returns
from quantfolio.cli import _qubo_record
from quantfolio.market_data import ANNUALISATION, ReturnPanel, _frozen_integers
from quantfolio.schedule_qubo import bits_to_str, enumerate_energies, value_to_bits

from conftest import gross_panel


def two_loop_dates(window_len, w):
    """Reference placement in two loops: round, clip into [1, L-2] and push
    forward to stay increasing, then pull back from the end so the last
    dates fit below L-1."""
    hi = window_len - 2
    out, prev = [], 0
    for k in range(w):
        v = round((k + 1) * window_len / (w + 1))
        v = min(max(v, 1), hi)
        v = max(v, prev + 1)
        out.append(v)
        prev = v
    for k in range(w - 1, -1, -1):
        out[k] = min(out[k], hi - (w - 1 - k))
    return out


class TestCandidateDates:
    def test_equally_spaced_83_by_8(self):
        np.testing.assert_array_equal(candidate_dates(83, 8), [9, 18, 28, 37, 46, 55, 65, 74])

    def test_single_midpoint(self):
        np.testing.assert_array_equal(candidate_dates(10, 1), [5])

    def test_window_not_longer_than_w(self):
        with pytest.raises(ValueError, match="window_len must be a whole number >= 20, not 9"):
            candidate_dates(9, 9)

    def test_tightest_window_spaces_the_dates_two_days_apart(self):
        # L = 2W + 2: the spacing L / (W + 1) is exactly 2
        np.testing.assert_array_equal(candidate_dates(18, 8), [2, 4, 6, 8, 10, 12, 14, 16])
        with pytest.raises(ValueError, match="window_len must be a whole number"):
            candidate_dates(17, 8)

    def test_interior_and_increasing(self):
        for w in (1, 3, 8, 10):
            for window_len in (2 * w + 2, 37, 83, 250):
                idx = candidate_dates(window_len, w)
                assert idx[0] >= 1
                assert idx[-1] <= window_len - 2
                assert np.all(np.diff(idx) >= 2)
                assert idx.size == w

    def test_raises_if_and_only_if_shorter_than_2w_plus_2(self):
        for w in range(1, 25):
            for window_len in range(1, 3 * w + 6):
                if window_len < 2 * w + 2:
                    with pytest.raises(ValueError, match="window_len must be a whole number"):
                        candidate_dates(window_len, w)
                else:
                    assert candidate_dates(window_len, w).shape == (w,)

    def test_window_too_short_for_interior(self):
        with pytest.raises(ValueError, match="window_len must be a whole number"):
            candidate_dates(3, 2)

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError, match="w must be a whole number >= 1, not 0"):
            candidate_dates(10, 0)

    def test_closed_form_equals_the_two_loops(self):
        # the uncapped closed form on every window the rule admits
        for w in range(1, 25):
            for window_len in range(2 * w + 2, 601):
                got = candidate_dates(window_len, w)
                assert got.tolist() == two_loop_dates(window_len, w), (window_len, w)

    def test_read_only_int_array(self):
        idx = candidate_dates(83, 8)
        assert idx.dtype.kind == "i"
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 3

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(w=st.integers(1, 24), extra=st.integers(0, 5000))
    def test_every_forward_span_holds_two_days(self, w, extra):
        window_len = 2 * w + 2 + extra
        idx = candidate_dates(window_len, w)
        assert idx.shape == (w,)
        assert idx[0] >= 1
        assert np.all(np.diff([*idx, window_len]) >= 2)


def target(weights, tickers=None):
    weights = np.asarray(weights, dtype=float)
    if tickers is None:
        tickers = tuple(f"A{i:03d}" for i in range(weights.size))
    return WeightVector(tickers, weights, "Equal")


# the gain model as two functions, verbatim from before ``build_qubo`` computed
# the gains itself: the reference its gains must equal bit for bit
def drift_weights(target, window: ReturnPanel, upto: int) -> np.ndarray:
    """Weights after ``upto`` days of pure drift from the window start.

    ``w_drift = (w * pi) / sum(w * pi)`` with ``pi`` the cumulative gross
    return of each asset over rows ``[0, upto)``; no intermediate rebalances.
    """
    w = _weight_array(target, window.tickers)
    if not 0 <= upto <= window.n_days:
        raise ValueError(f"upto must be in [0, {window.n_days}]")
    pi = np.prod(window.gross_returns[:upto], axis=0)  # empty product -> ones
    v = w * pi
    return v / v.sum()


def _sharpe_or_zero(log_returns: np.ndarray) -> float:
    try:
        return annualised_sharpe(log_returns)
    except ZeroVolatilityError:
        return 0.0  # degenerate forward window: no Sharpe contribution


def marginal_gain(target, window: ReturnPanel, candidates, k: int, cost_c: float) -> float:
    """Net benefit of rebalancing at candidate ``k``.

    Sharpe of the target weights minus Sharpe of the drifted weights, both on
    the forward window [t_k, t_{k+1}) (the last candidate's window runs to the
    segment end), minus the annualised L1 trading cost of resetting the drift.
    Weights are held fixed within the forward window for both legs; a
    non-positive portfolio gross return (short weights only) raises.
    ``candidates`` are the row offsets t_k: strictly increasing and inside
    ``[1, window.n_days - 2]``.
    """
    idx = _frozen_integers(candidates, "candidates")
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError("need at least one candidate index")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("candidate indices must be strictly increasing")
    if idx[0] < 1 or idx[-1] > window.n_days - 2:
        raise ValueError("candidate indices must be interior to the window")
    if not 0 <= k < idx.size:
        raise ValueError(f"candidate index {k} out of range")
    w = _weight_array(target, window.tickers)
    start = int(idx[k])
    end = int(idx[k + 1]) if k + 1 < idx.size else window.n_days
    if end - start < 2:
        raise ValueError(f"forward window [{start}, {end}) shorter than 2 days")
    fwd = window.gross_returns[start:end]
    w_drift = drift_weights(w, window, start)
    sr_target = _sharpe_or_zero(portfolio_log_returns(w, fwd))
    sr_drift = _sharpe_or_zero(portfolio_log_returns(w_drift, fwd))
    l1 = float(np.abs(w_drift - w).sum())
    return sr_target - sr_drift - cost_c * l1 * ANNUALISATION


def gain_oracle(w, gross, idx, k, c):
    """Scalar re-derivation of the candidate gain, loop-coded."""
    w = np.asarray(w, float)
    start = idx[k]
    end = idx[k + 1] if k + 1 < len(idx) else gross.shape[0]

    pi = np.ones(gross.shape[1])
    for t in range(start):
        pi = pi * gross[t]
    drifted = w * pi / (w * pi).sum()

    def sharpe(weights):
        rs = [math.log(float(np.dot(weights, gross[t]))) for t in range(start, end)]
        mean = sum(rs) / len(rs)
        var = sum((x - mean) ** 2 for x in rs) / (len(rs) - 1)
        if var == 0.0:
            return 0.0
        return mean / math.sqrt(var) * math.sqrt(252)

    l1 = sum(abs(a - b) for a, b in zip(drifted, w))
    return sharpe(w) - sharpe(drifted) - c * l1 * math.sqrt(252)


@st.composite
def gain_cases(draw):
    """A target (``WeightVector`` or plain vector), a window of L >= 2W + 2
    days, W = 1..10 and M = 1..5, some of whose forward spans are flat, and
    the QUBO params (``cost_c`` 0 included)."""
    w = draw(st.integers(1, 10))
    m = draw(st.integers(1, 5))
    n_days = 2 * w + 2 + draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gross = np.exp(rng.normal(0.0, 0.02, size=(n_days, m)))
    ends = [*candidate_dates(n_days, w)[1:], n_days]
    for start, end in zip(candidate_dates(n_days, w), ends):
        if draw(st.booleans()):  # every asset and so both legs flat on the span
            gross[start:end] = draw(st.sampled_from([1.0, 1.001, 0.998]))
    weights = rng.dirichlet(np.ones(m))
    wrapped = draw(st.booleans())
    cost_c = draw(st.sampled_from([0.0, 0.001, 0.01]))
    return (target(weights) if wrapped else weights), gross_panel(gross), w, cost_c


class TestGains:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=gain_cases())
    def test_gains_equal_the_reference_bit_for_bit(self, case):
        weights, panel, w, cost_c = case
        qp = build_qubo(weights, panel, w, QuboParams(cost_c=cost_c))
        cand = candidate_dates(panel.n_days, w)
        reference = [marginal_gain(weights, panel, cand, k, cost_c) for k in range(w)]
        assert np.array_equal(qp.gains, reference)

    def test_target_checked_once_per_window(self, monkeypatch):
        calls, check = [], schedule_qubo._weight_array
        monkeypatch.setattr(schedule_qubo, "_weight_array",
                            lambda *args: calls.append(args) or check(*args))
        build_qubo(target(np.full(3, 1 / 3)), to_returns(synth_panel(seed=9, T=84, M=3)), 8)
        assert len(calls) == 1

    def test_no_drift_gain_zero(self):
        panel = gross_panel(np.full((20, 2), 1.004))
        gains = build_qubo(target([0.5, 0.5]), panel, 3).gains
        np.testing.assert_allclose(gains, 0.0, atol=1e-15)

    def test_pure_cost_when_forward_identical(self):
        # drift happens before t_0, forward returns identical across assets
        rng = np.random.default_rng(2)
        head = np.column_stack([1.0 + rng.uniform(0, 0.05, 5), np.ones(5)])
        tail = np.full((15, 2), 1.002)
        panel = gross_panel(np.vstack([head, tail]))
        w = target([0.5, 0.5])
        qp = build_qubo(w, panel, 3)
        assert qp.candidates[0] == 5
        drifted = w.weights  # independent route: w <- (w * g) / (w . g), one day at a time
        for g in panel.gross_returns[:5]:
            drifted = drifted * g / (drifted @ g)
        expected = -0.001 * np.abs(drifted - w.weights).sum() * ANNUALISATION
        assert qp.gains[0] == pytest.approx(expected, abs=1e-12)
        assert qp.gains[0] < 0.0

    def test_doubling_asset_costs_its_drift(self):
        # one candidate at t_1 = 2; the first asset doubles on day 0, so the
        # drift is [2/3, 1/3]; the flat forward span leaves only the cost
        panel = gross_panel([[2.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        qp = build_qubo(target([0.5, 0.5]), panel, 1)
        assert qp.candidates.tolist() == [2]
        assert qp.gains[0] == pytest.approx(-0.001 * (1 / 3) * ANNUALISATION, abs=1e-15)

    def test_short_forward_window_rejected(self, monkeypatch):
        # 2W + 1 days cannot give every forward span 2 days: raises before any gain
        monkeypatch.setattr(schedule_qubo, "annualised_sharpe", lambda *_: pytest.fail("gain computed"))
        panel = gross_panel(np.full((7, 2), 1.01))
        with pytest.raises(ValueError, match="window_len must be a whole number >= 8, not 7"):
            build_qubo(target([0.5, 0.5]), panel, 3)

    def test_matches_scalar_oracle(self):
        panel = to_returns(synth_panel(seed=8, T=60, M=2, ann_drift=[0.2, -0.1]))
        w = target([0.6, 0.4])
        qp = build_qubo(w, panel, 4)
        for k in range(4):
            ref = gain_oracle(w.weights, panel.gross_returns, qp.candidates.tolist(), k, 0.001)
            assert qp.gains[k] == pytest.approx(ref, abs=1e-10)

    def test_short_leg_with_a_non_positive_portfolio_return_raises(self):
        # candidates [3, 6, 9]: the drifted portfolio of a short target goes below zero in [6, 9)
        panel = gross_panel(np.column_stack([np.full(12, 1.01), np.linspace(1.0, 1.2, 12)]))
        with pytest.raises(ValueError, match="non-positive portfolio gross return"):
            build_qubo(np.array([4.0, -3.0]), panel, 3)


class TestBuildQubo:
    def test_off_diagonal_decay_value(self):
        # adjacent candidates sit one mean-spacing apart: lambda3 * exp(-1)
        panel = to_returns(synth_panel(seed=9, T=84, M=3))
        qp = build_qubo(target(np.full(3, 1 / 3)), panel, 8)
        idx = qp.candidates.astype(float)
        delta_t = float(np.mean(np.diff(idx)))
        raw = qp.q * qp.raw_max_abs
        k, l = 1, 2
        gap = abs(idx[k] - idx[l])
        expected = 0.3 * math.exp(-gap / delta_t)
        assert raw[k, l] == pytest.approx(expected, rel=1e-12)
        if gap == delta_t:
            assert raw[k, l] == pytest.approx(0.1103638323514327, abs=1e-12)

    def test_diagonal_with_zero_gains(self):
        # identical asset returns -> g_k = 0 -> diagonal = lambda2 * c * n
        panel = gross_panel(np.tile(np.linspace(1.001, 1.004, 40)[:, None], (1, 10)))
        qp = build_qubo(target(np.full(10, 0.1)), panel, 4)
        raw = qp.q * qp.raw_max_abs
        np.testing.assert_allclose(qp.gains, 0.0, atol=1e-15)
        np.testing.assert_allclose(np.diag(raw), 0.5 * 0.001 * 10, atol=1e-15)
        np.testing.assert_allclose(np.diag(raw), 0.005, atol=1e-15)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 100),
           m=st.integers(1, 5), w=st.integers(1, 10))
    def test_exactly_symmetric_on_random_windows(self, seed, extra, m, w):
        n_days = 2 * w + 2 + extra
        rng = np.random.default_rng(seed)
        panel = gross_panel(np.exp(rng.normal(0.0, 0.02, size=(n_days, m))))
        weights = rng.dirichlet(np.ones(m))
        qp = build_qubo(target(weights), panel, w)
        assert np.array_equal(qp.q, qp.q.T)
        assert qp.candidates.tolist() == candidate_dates(n_days, w).tolist()

    def test_candidates_one_per_row_of_q(self):
        panel = to_returns(synth_panel(seed=11, T=60, M=2))
        qp = build_qubo(target([0.5, 0.5]), panel, 5)
        with pytest.raises(ValueError, match="5x5 matrix for 4 candidates"):
            QuboProblem(qp.q, 1.0, qp.candidates[:4], qp.gains, {})
        with pytest.raises(ValueError, match="5x5 matrix for 10 candidates"):
            QuboProblem(qp.q, 1.0, np.vstack([qp.candidates] * 2), qp.gains, {})

    def test_normalised_to_unit_max(self):
        panel = to_returns(synth_panel(seed=10, T=90, M=4))
        qp = build_qubo(target(np.full(4, 0.25)), panel, 6)
        assert np.max(np.abs(qp.q)) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(qp.q, qp.q.T)

    def test_pure_and_deterministic(self):
        panel = to_returns(synth_panel(seed=12, T=70, M=3))
        w = target(np.array([0.2, 0.3, 0.5]))
        a = build_qubo(w, panel, 5)
        b = build_qubo(w, panel, 5)
        np.testing.assert_array_equal(a.q, b.q)
        assert a.raw_max_abs == b.raw_max_abs

    def test_params_recorded(self):
        panel = to_returns(synth_panel(seed=13, T=50, M=2))
        qp = build_qubo(target([0.5, 0.5]), panel, 3, QuboParams(1.5, 0.4, 0.2, 0.002))
        assert qp.params["lambda1"] == 1.5
        assert qp.params["lambda3"] == 0.2
        assert qp.params["cost_c"] == 0.002
        assert qp.params["n_assets"] == 2

    def test_json_roundtrip_surface(self):
        panel = to_returns(synth_panel(seed=14, T=50, M=2))
        qp = build_qubo(target([0.5, 0.5]), panel, 3)
        blob = _qubo_record(qp)
        assert len(blob["q"]) == 9
        assert blob["candidates"] == qp.candidates.tolist()
        assert blob["raw_max_abs"] == qp.raw_max_abs


def brute_oracle(q):
    """Independent exhaustive scan, LSB-first enumeration order."""
    w = q.shape[0]
    best_bits, best_energy, best_value = None, None, None
    for tup in itertools.product((0, 1), repeat=w):
        bits = np.array(tup[::-1])  # reversed: walk the space in a different order
        energy = float(bits @ q @ bits)
        value = int("".join(str(b) for b in bits), 2)
        if (
            best_energy is None
            or energy < best_energy - 1e-15
            or (abs(energy - best_energy) <= 1e-15 and value < best_value)
        ):
            best_bits, best_energy, best_value = bits, energy, value
    return best_bits, best_energy


class TestBruteForce:
    def test_separable_diagonal(self):
        result = brute_force(np.diag([-1.0, 1.0]))
        np.testing.assert_array_equal(result.bits, [1, 0])
        assert result.energy == -1.0

    def test_all_zero_tie_goes_to_empty_schedule(self):
        result = brute_force(np.zeros((4, 4)))
        np.testing.assert_array_equal(result.bits, [0, 0, 0, 0])
        assert result.energy == 0.0

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = rng.uniform(-1, 1, size=(8, 8))
            q = (a + a.T) / 2
            mine = brute_force(q)
            ref_bits, ref_energy = brute_oracle(q)
            assert mine.energy == pytest.approx(ref_energy, abs=1e-12)
            np.testing.assert_array_equal(mine.bits, ref_bits)

    def test_diagonal_rule(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            d = np.round(rng.uniform(-1, 1, size=6), 1)  # some exact zeros possible
            result = brute_force(np.diag(d))
            np.testing.assert_array_equal(result.bits, (d < 0).astype(int))

    def test_normalisation_preserves_argmin(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(-2, 2, size=(7, 7))
        q = (a + a.T) / 2
        scale = np.max(np.abs(q))
        np.testing.assert_array_equal(brute_force(q).bits, brute_force(q / scale).bits)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            brute_force(np.zeros((25, 25)))

    def test_energy_table_indexing(self):
        rng = np.random.default_rng(18)
        a = rng.uniform(-1, 1, size=(5, 5))
        q = (a + a.T) / 2
        table = enumerate_energies(q)
        for value in (0, 7, 19, 31):
            bits = value_to_bits(value, 5)
            assert table[value] == pytest.approx(float(bits @ q @ bits), abs=1e-12)

    def test_bit_rendering(self):
        assert bits_to_str(value_to_bits(0b11000010, 8)) == "11000010"


@st.composite
def sparse_qubos(draw):
    """A W x W matrix, W = 1..10, not symmetric, with about 40 % zero entries."""
    w = draw(st.integers(min_value=1, max_value=10))
    values = draw(arrays(np.float64, (w, w), elements=st.floats(-10.0, 10.0)))
    keep = draw(arrays(np.int8, (w, w), elements=st.integers(0, 4))) >= 2
    return np.where(keep, values, 0.0)


class TestEnergyTable:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(q=sparse_qubos())
    def test_table_is_the_explicit_enumeration(self, q):
        w = q.shape[0]
        table = enumerate_energies(q)
        explicit = np.array([x @ q @ x for x in itertools.product((0.0, 1.0), repeat=w)])
        tol = 1e-12 * (1.0 + np.abs(q).sum())
        np.testing.assert_allclose(table, explicit, rtol=0, atol=tol)
        assert table[0] == 0.0 and not np.signbit(table[0])
        # the explicit argmin, or, where the minimum is tied within rounding, one of the tie
        assert np.argmin(table) in np.flatnonzero(explicit <= explicit.min() + 2 * tol)
