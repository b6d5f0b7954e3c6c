import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quantfolio import (
    QuboParams,
    QuboProblem,
    WeightVector,
    brute_force,
    build_qubo,
    candidate_dates,
    drift_weights,
    marginal_gain,
    synth_panel,
    to_returns,
)
from quantfolio.cli import _qubo_record
from quantfolio.market_data import ANNUALISATION
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
        with pytest.raises(ValueError, match="cannot host"):
            candidate_dates(9, 9)

    def test_tight_window_still_fits(self):
        np.testing.assert_array_equal(candidate_dates(10, 8), [1, 2, 3, 4, 5, 6, 7, 8])

    def test_interior_and_increasing(self):
        for window_len in (12, 37, 83, 250):
            for w in (1, 3, 8, 10):
                idx = candidate_dates(window_len, w)
                assert idx[0] >= 1
                assert idx[-1] <= window_len - 2
                assert np.all(np.diff(idx) >= 1)
                assert idx.size == w

    def test_window_too_short_for_interior(self):
        with pytest.raises(ValueError, match="too short"):
            candidate_dates(3, 2)

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            candidate_dates(10, 0)

    def test_closed_form_equals_the_two_loops(self):
        for w in range(1, 25):
            for window_len in range(w + 2, 601):
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
    def test_dates_are_interior_increasing_and_number_w(self, w, extra):
        window_len = w + 2 + extra
        idx = candidate_dates(window_len, w)
        assert idx.shape == (w,)
        assert np.all(np.diff(idx) > 0)
        assert 1 <= idx[0] and idx[-1] <= window_len - 2


def target(weights, tickers=None):
    weights = np.asarray(weights, dtype=float)
    if tickers is None:
        tickers = tuple(f"A{i:03d}" for i in range(weights.size))
    return WeightVector(tickers, weights, "Equal")


class TestDriftWeights:
    def test_identical_returns_no_drift(self):
        panel = gross_panel(np.full((6, 3), 1.01))
        w = target([0.2, 0.3, 0.5])
        np.testing.assert_allclose(drift_weights(w, panel, 6), w.weights, atol=1e-15)

    def test_upto_zero_is_target(self):
        panel = gross_panel([[1.2, 0.9], [1.1, 1.0]])
        w = target([0.7, 0.3])
        np.testing.assert_array_equal(drift_weights(w, panel, 0), w.weights)

    def test_doubling_asset(self):
        panel = gross_panel([[2.0, 1.0]])
        w = target([0.5, 0.5])
        np.testing.assert_allclose(drift_weights(w, panel, 1), [2 / 3, 1 / 3], atol=1e-15)

    def test_simplex_for_every_prefix(self):
        panel = to_returns(synth_panel(seed=21, T=40, M=4))
        w = target(np.array([0.1, 0.2, 0.3, 0.4]))
        for upto in range(panel.n_days + 1):
            drifted = drift_weights(w, panel, upto)
            assert abs(drifted.sum() - 1.0) <= 1e-12
            assert np.all(drifted >= 0.0)

    def test_matches_day_by_day_recursion(self):
        # independent route: evolve w <- (w * g) / (w . g) one day at a time
        panel = to_returns(synth_panel(seed=22, T=25, M=5))
        w0 = np.array([0.05, 0.15, 0.2, 0.25, 0.35])
        w = w0.copy()
        for upto in range(1, panel.n_days + 1):
            g = panel.gross_returns[upto - 1]
            w = w * g / (w @ g)
            np.testing.assert_allclose(
                drift_weights(target(w0), panel, upto), w, atol=1e-13
            )


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


class TestMarginalGain:
    def test_no_drift_gain_zero(self):
        panel = gross_panel(np.full((20, 2), 1.004))
        w = target([0.5, 0.5])
        cand = candidate_dates(20, 3)
        for k in range(3):
            assert marginal_gain(w, panel, cand, k, 0.001) == pytest.approx(0.0, abs=1e-15)

    def test_pure_cost_when_forward_identical(self):
        # drift happens before t_0, forward returns identical across assets
        rng = np.random.default_rng(2)
        head = np.column_stack([1.0 + rng.uniform(0, 0.05, 5), np.ones(5)])
        tail = np.full((15, 2), 1.002)
        panel = gross_panel(np.vstack([head, tail]))
        w = target([0.5, 0.5])
        cand = candidate_dates(20, 3)
        drifted = drift_weights(w, panel, int(cand[0]))
        l1 = np.abs(drifted - w.weights).sum()
        expected = -0.001 * l1 * ANNUALISATION
        got = marginal_gain(w, panel, cand, 0, 0.001)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got < 0.0

    def test_matches_scalar_oracle(self):
        panel = to_returns(synth_panel(seed=8, T=60, M=2, ann_drift=[0.2, -0.1]))
        w = target([0.6, 0.4])
        cand = candidate_dates(panel.n_days, 4)
        for k in range(4):
            mine = marginal_gain(w, panel, cand, k, 0.001)
            ref = gain_oracle(w.weights, panel.gross_returns, cand.tolist(), k, 0.001)
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_short_forward_window_rejected(self):
        panel = gross_panel(np.full((6, 2), 1.01))
        w = target([0.5, 0.5])
        cand = np.array([1, 2])  # [1,2) is a single day
        with pytest.raises(ValueError, match="shorter than 2"):
            marginal_gain(w, panel, cand, 0, 0.001)

    @pytest.mark.parametrize("cand,match", [
        pytest.param([], "at least one candidate", id="empty"),
        pytest.param([[1, 3], [5, 7]], "at least one candidate", id="2d"),
        pytest.param([1, 5, 5], "strictly increasing", id="repeated"),
        pytest.param([5, 3, 7], "strictly increasing", id="decreasing"),
        pytest.param([0, 3, 6], "interior", id="day_0"),
        pytest.param([1, 3, 9], "interior", id="past_L_minus_2"),
    ])
    def test_bad_candidate_indices_rejected(self, cand, match):
        panel = gross_panel(np.full((10, 2), 1.01))  # L = 10: interior is [1, 8]
        with pytest.raises(ValueError, match=match):
            marginal_gain(target([0.5, 0.5]), panel, np.array(cand, dtype=int), 0, 0.001)

    def test_fractional_candidate_indices_rejected(self):
        panel = gross_panel(np.full((10, 2), 1.01))  # an int cast would read [1, 3]
        with pytest.raises(ValueError, match="candidates must be whole numbers"):
            marginal_gain(target([0.5, 0.5]), panel, [1.5, 3.9], 0, 0.001)

    def test_short_leg_with_a_non_positive_portfolio_return_raises(self):
        # the drifted portfolio of a short target goes below zero in [6, 9)
        panel = gross_panel(np.column_stack([np.full(12, 1.01), np.linspace(1.0, 1.2, 12)]))
        with pytest.raises(ValueError, match="non-positive portfolio gross return"):
            marginal_gain(np.array([4.0, -3.0]), panel, np.array([3, 6, 9]), 1, 0.001)

    def test_candidate_k_checked_against_length(self):
        panel = gross_panel(np.full((10, 2), 1.01))
        w = target([0.5, 0.5])
        cand = np.array([1, 4, 8])
        assert marginal_gain(w, panel, cand, 2, 0.001) == pytest.approx(0.0, abs=1e-15)
        for k in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                marginal_gain(w, panel, cand, k, 0.001)


class TestBuildQubo:
    @pytest.mark.parametrize("cost_c", [-0.01, float("nan")])
    def test_negative_cost_rejected(self, cost_c):
        with pytest.raises(ValueError, match="cost_c must be >= 0"):
            QuboParams(cost_c=cost_c)
        assert QuboParams(cost_c=0.0).cost_c == 0.0

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
    @given(seed=st.integers(0, 2**32 - 1), n_days=st.integers(12, 120),
           m=st.integers(1, 5), w=st.integers(1, 10))
    def test_exactly_symmetric_on_random_windows(self, seed, n_days, m, w):
        if n_days < 2 * (w + 1):  # forward windows of at least 2 days
            w = n_days // 2 - 1
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
