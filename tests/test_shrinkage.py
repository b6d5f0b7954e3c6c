from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from quantfolio import (
    ReturnPanel, ShrunkCovariance, angular_distance, ledoit_wolf, minvar, synth_panel, to_returns,
)
from quantfolio.shrinkage import _shrunk

from conftest import gross_panel


def shrinkage_oracle(log_returns):
    """Loop-coded analytic-intensity shrinkage, independent of the library path.

    Intensity from biased (1/T) moments of the centred data; the blend uses
    the T-1 sample covariance and mu = trace/M.
    """
    x = np.asarray(log_returns, dtype=float)
    t, m = x.shape
    xc = x - x.mean(axis=0)
    biased = np.zeros((m, m))
    for row in xc:
        biased += np.outer(row, row)
    biased /= t
    mu_b = sum(biased[i, i] for i in range(m)) / m
    d2 = 0.0
    for i in range(m):
        for j in range(m):
            target = mu_b if i == j else 0.0
            d2 += (biased[i, j] - target) ** 2
    d2 /= m
    b2_bar = 0.0
    for row in xc:
        b2_bar += ((np.outer(row, row) - biased) ** 2).sum()
    b2_bar /= t**2 * m
    alpha = 0.0 if d2 <= 0.0 else min(b2_bar, d2) / d2

    sample = np.zeros((m, m))
    for row in xc:
        sample += np.outer(row, row)
    sample /= t - 1
    mu = sum(sample[i, i] for i in range(m)) / m
    sigma = (1.0 - alpha) * sample + alpha * mu * np.eye(m)
    return sigma, alpha, mu


def random_panel(seed, t=60, m=5):
    rng = np.random.default_rng(seed)
    vols = rng.uniform(0.05, 0.4, size=m)
    a = rng.standard_normal((m, m))
    cov = a @ a.T + m * np.eye(m)
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return to_returns(synth_panel(seed=seed, T=t, M=m, target_corr=corr, ann_vol=vols))


class TestLedoitWolf:
    def test_matches_loop_oracle(self):
        for seed in range(6):
            panel = random_panel(seed, t=40 + 10 * seed, m=3 + seed)
            est = ledoit_wolf(panel)
            sigma_o, alpha_o, mu_o = shrinkage_oracle(panel.log_returns)
            assert est.alpha == pytest.approx(alpha_o, abs=1e-10)
            assert est.mu_target == pytest.approx(mu_o, abs=1e-14)
            np.testing.assert_allclose(est.sigma, sigma_o, rtol=0, atol=1e-10)

    def test_identity_data_shrinks_toward_identity_scale(self):
        panel = to_returns(synth_panel(seed=4, T=11, M=2, ann_vol=1.0 * np.sqrt(252)))
        est = ledoit_wolf(panel)
        assert 0.0 < est.alpha <= 1.0
        x = panel.log_returns
        sample = np.cov(x.T, ddof=1)
        eye = np.eye(2)
        assert np.linalg.norm(est.sigma - eye) <= np.linalg.norm(sample - eye)

    def test_single_asset_is_sample_variance(self):
        panel = to_returns(synth_panel(seed=5, T=30, M=1))
        est = ledoit_wolf(panel)
        var = panel.log_returns.var(ddof=1)
        assert est.sigma[0, 0] == pytest.approx(var, rel=1e-14)

    def test_constant_column_rejected_by_name(self):
        panel = gross_panel(
            [[1.01, 1.0], [0.99, 1.0], [1.02, 1.0]], tickers=("AAA", "FLAT")
        )
        with pytest.raises(ValueError, match="FLAT"):
            ledoit_wolf(panel)

    def test_constant_growth_column_rejected_by_name(self):
        # zero volatility: the prices grow at one rate, the ratios of
        # neighbouring prices keep a rounding spread
        panel = to_returns(replace(synth_panel(seed=9, T=61, M=2, ann_vol=[0.2, 0.0]),
                                   tickers=("AAA", "STEADY")))
        assert panel.log_returns[:, 1].var(ddof=1) > 0.0
        with pytest.raises(ValueError, match="constant asset.*: STEADY$"):
            ledoit_wolf(panel)

    def test_subset_shrunk_with_universe_intensity_is_the_universe_block(self):
        train = to_returns(synth_panel(seed=12, T=300, M=200))
        universe = ledoit_wolf(train)
        subset = [f"A{i:03d}" for i in range(7, 200, 19)]
        block = universe.restrict(subset)
        est = _shrunk(train.restrict(subset), universe.alpha, universe.mu_target)
        assert est.tickers == block.tickers
        assert (est.alpha, est.mu_target) == (universe.alpha, universe.mu_target)
        np.testing.assert_allclose(est.sigma, block.sigma, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(minvar(est).weights, minvar(block).weights,
                                   rtol=1e-12, atol=0.0)

    def test_sigma_bytes_do_not_depend_on_the_panel_layout(self):
        rows = to_returns(synth_panel(seed=21, T=301, M=37))
        cols = ReturnPanel(rows.dates, rows.tickers, np.asfortranarray(rows.gross_returns))
        est = ledoit_wolf(rows)
        assert ledoit_wolf(cols).sigma.tobytes() == est.sigma.tobytes()
        shrunk = _shrunk(rows, est.alpha, est.mu_target).sigma
        assert _shrunk(cols, est.alpha, est.mu_target).sigma.tobytes() == shrunk.tobytes()

    def test_alpha_in_unit_interval(self):
        for seed in range(8):
            est = ledoit_wolf(random_panel(seed + 100))
            assert 0.0 <= est.alpha <= 1.0

    def test_two_return_rows_give_a_zero_intensity(self):
        # on 2 rows the centred rows are r and -r, so b2_bar = 0 exactly; its
        # two sums agree only up to rounding, which once made alpha about -1e-16
        for seed in range(200):
            est = ledoit_wolf(to_returns(synth_panel(seed, T=3, M=4)))
            assert 0.0 <= est.alpha <= 1e-12

    def test_positive_definite_when_shrunk(self):
        for seed in range(5):
            est = ledoit_wolf(random_panel(seed + 30))
            eigs = np.linalg.eigvalsh(est.sigma)
            assert eigs.min() > -1e-12
            if est.alpha > 0:
                assert eigs.min() > 0.0

    def test_corr_is_correlation_of_sigma(self):
        est = ledoit_wolf(random_panel(77))
        d = np.sqrt(np.diag(est.sigma))
        expected = est.sigma / np.outer(d, d)
        np.testing.assert_allclose(est.corr, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.diag(est.corr), 1.0)

    def test_distance_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            est = ledoit_wolf(random_panel(seed + 200, t=50, m=6))
            d = est.dist
            m = d.shape[0]
            for _ in range(200):
                i, j, k = rng.integers(0, m, size=3)
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    def test_restrict_slices_consistently(self):
        est = ledoit_wolf(random_panel(12, m=6))
        sub = est.restrict((est.tickers[4], est.tickers[1]))
        assert sub.tickers == (est.tickers[4], est.tickers[1])
        assert sub.sigma[0, 1] == est.sigma[4, 1]
        assert sub.dist[1, 0] == est.dist[1, 4]
        assert sub.alpha == est.alpha
        # derived from the sliced sigma, yet equal to the slices of the parent's
        big = ledoit_wolf(random_panel(31, t=120, m=37))
        idx = [30, 2, 17, 5, 36, 11]
        sub = big.restrict([big.tickers[i] for i in idx])
        np.testing.assert_array_equal(sub.corr, big.corr[np.ix_(idx, idx)])
        np.testing.assert_array_equal(sub.dist, big.dist[np.ix_(idx, idx)])


class TestAngularDistance:
    def test_perfect_correlation(self):
        assert angular_distance(1.0) == 0.0

    def test_zero_correlation_is_inv_sqrt2(self):
        assert angular_distance(0.0) == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert round(angular_distance(0.0), 5) == 0.70711

    def test_direct_value(self):
        # sqrt((1 - 0.62) / 2)
        assert angular_distance(0.62) == pytest.approx(0.43588989435406733, abs=1e-12)

    def test_anticorrelation(self):
        assert angular_distance(-1.0) == pytest.approx(1.0, abs=1e-15)

    def test_clamps_ulp_overshoot(self):
        assert angular_distance(1.0 + 5e-13) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            angular_distance(1.1)
        with pytest.raises(ValueError):
            angular_distance(-1.0001)

    def test_array_input(self):
        out = angular_distance(np.array([1.0, 0.0, -1.0]))
        np.testing.assert_allclose(out, [0.0, 1 / np.sqrt(2), 1.0], atol=1e-15)


class TestConstructor:
    def test_wraps_matrix(self):
        est = ShrunkCovariance(("A", "B"), np.diag([1.0, 4.0]), 0.0, 2.5)
        assert est.alpha == 0.0
        np.testing.assert_array_equal(est.corr, np.eye(2))
        assert est.dist[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_one_stored_matrix(self):
        assert [f.name for f in fields(ShrunkCovariance)] == [
            "tickers", "sigma", "alpha", "mu_target"
        ]

    @pytest.mark.parametrize("diag", [[1.0, 0.0], [1.0, -2.0]])
    def test_non_positive_diagonal_rejected(self, diag):
        with pytest.raises(ValueError, match="non-positive diagonal"):
            ShrunkCovariance(("A", "B"), np.diag(diag), 0.0, 1.0)


class TestDerivedMatrices:
    """``corr`` and ``dist`` are derived from ``sigma`` on first use."""

    def test_read_only_and_kept(self):
        est = ledoit_wolf(random_panel(3))
        for name in ("sigma", "corr", "dist"):
            arr = getattr(est, name)
            assert getattr(est, name) is arr
            with pytest.raises(ValueError):
                arr[0, 1] = 0.5
            with pytest.raises(FrozenInstanceError):
                setattr(est, name, np.eye(len(est.tickers)))
