import dataclasses

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from quantfolio import (
    ClusterAssignment,
    ZeroVolatilityError,
    annualised_sharpe,
    ledoit_wolf,
    select_representatives,
    ward_cluster,
)

from conftest import gross_panel, planted_panel


def random_distance(seed, m):
    rng = np.random.default_rng(seed)
    rho = np.clip(rng.uniform(-0.5, 0.9, size=(m, m)), -1, 1)
    rho = (rho + rho.T) / 2
    np.fill_diagonal(rho, 1.0)
    d = np.sqrt((1 - rho) / 2)
    np.fill_diagonal(d, 0.0)
    return d


def partitions_equal(a, b):
    """Same partition up to relabelling."""
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestWardCluster:
    def test_planted_two_groups_recovered(self):
        m = 6
        d = np.full((m, m), 0.7)
        blocks = [(0, 3), (3, 6)]
        for lo, hi in blocks:
            d[lo:hi, lo:hi] = 0.01
        np.fill_diagonal(d, 0.0)
        labels = ward_cluster(d, 2).labels
        assert partitions_equal(labels, [0, 0, 0, 1, 1, 1])

    def test_n_equals_m(self):
        d = random_distance(1, 5)
        labels = ward_cluster(d, 5).labels
        np.testing.assert_array_equal(labels, np.arange(5))

    def test_n_equals_one(self):
        d = random_distance(2, 5)
        labels = ward_cluster(d, 1).labels
        np.testing.assert_array_equal(labels, np.zeros(5, dtype=int))

    def test_n_too_large(self):
        with pytest.raises(ValueError, match="n must be"):
            ward_cluster(random_distance(3, 4), 5)

    def test_asymmetric_rejected(self):
        d = random_distance(4, 4).copy()
        d[0, 1] += 0.2
        with pytest.raises(ValueError, match="symmetric"):
            ward_cluster(d, 2)

    def test_matches_scipy_ward_on_distance_matrix(self):
        for seed in range(8):
            m = 4 + seed * 2
            d = random_distance(seed + 10, m)
            for n in (2, 3):
                mine = ward_cluster(d, n).labels
                z = linkage(squareform(d, checks=False), method="ward")
                ref = fcluster(z, t=n, criterion="maxclust")
                assert partitions_equal(mine, ref), f"seed={seed} n={n}"

    def test_input_order_invariance(self):
        rng = np.random.default_rng(5)
        d = random_distance(20, 9)
        labels = ward_cluster(d, 3).labels
        for _ in range(5):
            perm = rng.permutation(9)
            permuted = ward_cluster(d[np.ix_(perm, perm)], 3).labels
            assert partitions_equal(labels[perm], permuted)

    def test_deterministic(self):
        d = random_distance(30, 12)
        a = ward_cluster(d, 4).labels
        b = ward_cluster(d, 4).labels
        np.testing.assert_array_equal(a, b)


def reference_ward_labels(dist):
    """The Ward loop that rebuilt its live-pair mask on every merge: the
    reference for ``ward_cluster``. Yields ``(n, labels)`` for n = M..1."""
    d2 = np.asarray(dist, dtype=float) ** 2
    m = d2.shape[0]
    np.fill_diagonal(d2, np.inf)
    size = np.ones(m)
    alive = np.ones(m, dtype=bool)
    members = [[i] for i in range(m)]
    for n in range(m, 0, -1):
        clusters = sorted((members[s] for s in np.flatnonzero(alive)), key=min)
        labels = np.empty(m, dtype=int)
        for cid, idx in enumerate(clusters):
            labels[idx] = cid
        yield n, labels
        if n == 1:
            break
        masked = np.where(alive[:, None] & alive[None, :], d2, np.inf)
        masked[np.tril_indices(m)] = np.inf
        i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
        si, sj, sk = size[i], size[j], size
        dij = d2[i, j]
        merged = ((si + sk) * d2[i] + (sj + sk) * d2[j] - sk * dij) / (si + sj + sk)
        d2[i, :] = merged
        d2[:, i] = merged
        d2[i, i] = np.inf
        size[i] = si + sj
        alive[j] = False
        members[i].extend(members[j])
        members[j] = []


def duplicated_columns_distance(seed, m):
    """Angular distances of a panel whose columns repeat: exact zero-distance
    ties and exactly equal rows."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((40, max(2, m // 3)))
    x = base[:, rng.integers(0, base.shape[1], size=m)]
    rho = np.clip(np.corrcoef(x.T), -1.0, 1.0)
    d = np.sqrt((1.0 - rho) / 2.0)
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return d


def all_tied_distance(m):
    """Shrinkage alpha = 1: every off-diagonal distance is 1/sqrt(2)."""
    d = np.full((m, m), np.sqrt(0.5))
    np.fill_diagonal(d, 0.0)
    return d


class TestWardBitIdentity:
    @pytest.mark.parametrize("m", range(2, 61))
    def test_labels_match_reference_for_every_n(self, m):
        inputs = (
            random_distance(1000 + m, m),
            duplicated_columns_distance(2000 + m, m),
            all_tied_distance(m),
        )
        for d in inputs:
            for n, ref in reference_ward_labels(d):
                assert np.array_equal(ward_cluster(d, n).labels, ref), n


class TestWardOneMatrix:
    """``ward_cluster`` merges on the one symmetric matrix ``_square`` admits."""

    @pytest.mark.parametrize("make", [random_distance, duplicated_columns_distance])
    def test_every_n_matches_reference_at_200(self, make):
        d = make(200, 200)
        for n, ref in reference_ward_labels(d):
            assert np.array_equal(ward_cluster(d, n).labels, ref), n

    @pytest.mark.parametrize("make", [random_distance, duplicated_columns_distance])
    def test_ten_clusters_match_reference_at_500(self, make):
        d = make(500, 500)
        ref = next(labels for n, labels in reference_ward_labels(d) if n == 10)
        assert np.array_equal(ward_cluster(d, 10).labels, ref)

    @pytest.mark.parametrize("m", [2, 7, 30])
    def test_near_symmetric_input_clusters_as_its_symmetric_part(self, m):
        """Bumps up to 4e-11 below the diagonal, inside the 1e-10 tolerance,
        on random and all-tied distances: the all-tied ones make the lower
        triangle decide the first merges."""
        rng = np.random.default_rng(m)
        for d in (random_distance(3000 + m, m), all_tied_distance(m)):
            bumped = d + np.tril(rng.uniform(-4e-11, 4e-11, size=(m, m)), -1)
            sym = (bumped + bumped.T) / 2
            for n, ref in reference_ward_labels(sym):
                assert np.array_equal(ward_cluster(bumped, n).labels, ref), n
                assert np.array_equal(ward_cluster(sym, n).labels, ref), n


class TestAnnualisedSharpe:
    def test_constant_series_is_error(self):
        with pytest.raises(ZeroVolatilityError):
            annualised_sharpe([0.001, 0.001, 0.001])

    def test_constant_series_of_an_inexact_value_is_error(self):
        # 0.002 is not a binary fraction: its sample std is 4.4e-19, not 0
        with pytest.raises(ZeroVolatilityError):
            annualised_sharpe([0.002] * 20)

    def test_alternating_mean_zero(self):
        assert annualised_sharpe([0.01, -0.01, 0.01, -0.01]) == pytest.approx(0.0, abs=1e-15)

    def test_known_mean_std(self):
        # sample mean 0.0005, sample std exactly 0.01 -> 0.05 * sqrt(252)
        series = [0.0005 - 0.01, 0.0005, 0.0005 + 0.01]
        assert annualised_sharpe(series) == pytest.approx(0.7937253933193772, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            annualised_sharpe([0.01])

    def test_batch_rows_equal_single_calls(self):
        r = np.random.default_rng(3).normal(0.0005, 0.01, size=(5, 40))
        batch = annualised_sharpe(r)
        assert batch.shape == (5,)
        assert batch.tolist() == [annualised_sharpe(row) for row in r]

    def test_batch_with_a_flat_row_is_error(self):
        r = np.random.default_rng(4).normal(0.0, 0.01, size=(3, 20))
        r[1] = 0.25
        with pytest.raises(ZeroVolatilityError):
            annualised_sharpe(r)


class TestClusterAssignment:
    def test_cluster_count_is_one_past_the_largest_label(self):
        assign = ClusterAssignment(np.array([2, 0, 1, 0]))
        assert assign.n_clusters == 3
        assert [f.name for f in dataclasses.fields(assign)] == ["labels"]

    @pytest.mark.parametrize("labels", [[], [0, 2], [1, 1], [-1, 0], [[0, 1]]])
    def test_labels_must_be_a_vector_covering_every_id_from_0(self, labels):
        with pytest.raises(ValueError, match="labels"):
            ClusterAssignment(np.array(labels, dtype=int))


class TestSelectRepresentatives:
    def test_argmax_within_cluster(self):
        # asset 0: strong positive drift, asset 1: weak; same cluster
        panel = gross_panel(
            [[1.02, 1.005, 1.0], [1.03, 1.01, 1.001], [1.01, 1.002, 0.999], [1.02, 1.004, 1.0005]],
            tickers=("WIN", "MEH", "OTH"),
        )
        assign = ClusterAssignment(np.array([0, 0, 1]))
        assert select_representatives(assign, panel) == ("WIN", "OTH")

    def test_tie_breaks_lexicographically(self):
        gross = [[1.01, 1.01], [0.99, 0.99], [1.02, 1.02]]
        panel = gross_panel(gross, tickers=("ZED", "ALF"))
        assign = ClusterAssignment(np.array([0, 0]))
        assert select_representatives(assign, panel) == ("ALF",)

    @pytest.mark.parametrize("sizes", [(4, 4, 4), (3,) * 10])
    def test_brute_force_scan_oracle(self, sizes):
        panel = planted_panel(seed=3, sizes=sizes, T=400)
        cov = ledoit_wolf(panel)
        assign = ward_cluster(cov.dist, len(sizes))
        sel = select_representatives(assign, panel)
        assert isinstance(sel, tuple) and len(sel) == len(sizes)
        for cid in range(len(sizes)):
            members = assign.members(cid)
            scores = {}
            for i in members:
                scores[panel.tickers[i]] = annualised_sharpe(panel.log_returns[:, i])
            best = max(sorted(scores), key=lambda t: scores[t])
            assert sel[cid] == best

    def test_scaling_one_asset_keeps_selection(self):
        panel = planted_panel(seed=6, sizes=(3, 3), T=300)
        cov = ledoit_wolf(panel)
        assign = ward_cluster(cov.dist, 2)
        base = select_representatives(assign, panel)
        # r -> c*r leaves that asset's Sharpe unchanged
        scaled_log = panel.log_returns.copy()
        scaled_log[:, 0] *= 3.0
        from quantfolio import ReturnPanel

        scaled = ReturnPanel(panel.dates, panel.tickers, np.exp(scaled_log))
        again = select_representatives(assign, scaled)
        assert again == base

    def test_all_flat_cluster_is_error(self):
        panel = gross_panel([[1.0, 1.01], [1.0, 0.99], [1.0, 1.02]], tickers=("F1", "GO"))
        assign = ClusterAssignment(np.array([0, 1]))
        with pytest.raises(ZeroVolatilityError, match="cluster 0"):
            select_representatives(assign, panel)

    def test_label_length_mismatch(self):
        panel = gross_panel([[1.0, 1.01], [1.01, 0.99]])
        assign = ClusterAssignment(np.array([0]))
        with pytest.raises(ValueError, match="labels"):
            select_representatives(assign, panel)
