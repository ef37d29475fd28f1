import numpy as np
import pytest

from geocluster.baselines import (
    COV_REG,
    _m_step,
    fit_gmm,
    gmm_assign,
    gmm_cluster,
    kmeans_columns,
)
from geocluster.graph import Individual, SocialMatrix, build_weight_matrix, locations
from geocluster.metrics import purity

from oracles import loop_fit_gmm, loop_m_step


def blob_points(rng, centers, per_blob, spread):
    return np.concatenate(
        [c + rng.normal(0, spread, size=(per_blob, 2)) for c in np.asarray(centers, float)]
    )


class TestFitGmm:
    def test_single_component_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(5.0, 2.0, size=(80, 2))
        fit = fit_gmm(pts, 1, seed=0)
        np.testing.assert_allclose(fit.means[0], pts.mean(axis=0), atol=1e-8)

    def test_three_tight_blobs_recovered(self):
        rng = np.random.default_rng(1)
        pts = blob_points(rng, [(0, 0), (100, 0), (0, 100)], 30, 1.0)
        truth = np.repeat(np.arange(3), 30)
        fit = fit_gmm(pts, 3, seed=0)
        labels = gmm_assign(pts, fit)
        assert purity(truth.astype(str), labels) == 1.0

    def test_loglik_monotone_on_random_fits(self):
        rng = np.random.default_rng(2)
        for trial in range(15):
            n = int(rng.integers(30, 120))
            pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3)
            k = int(rng.integers(1, 6))
            fit = fit_gmm(pts, k, seed=trial)
            ll = fit.log_likelihoods
            assert all(b >= a - 1e-10 for a, b in zip(ll, ll[1:])), (trial, ll)

    def test_colocated_points_regularized_not_fatal(self):
        pts = np.array([[1.0, 1.0]] * 20 + [[50.0, 50.0]] * 20)
        fit = fit_gmm(pts, 2, seed=0)
        assert np.isfinite(fit.log_likelihoods[-1])
        assert np.all(np.isfinite(fit.covariances))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(60, 2))
        a = fit_gmm(pts, 4, seed=7)
        b = fit_gmm(pts, 4, seed=7)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.log_likelihoods == b.log_likelihoods

    def test_stop_rule_is_per_point(self):
        # Repeating every point three times triples each log-likelihood, so
        # a rule on the per-point gain stops both fits on the same E-step; a
        # tolerance on the total gain stops the repeated fit later.
        rng = np.random.default_rng(5)
        for _ in range(10):
            shift = rng.uniform(3.0, 8.0)
            pts = np.concatenate([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + [shift, 0]])
            once = fit_gmm(pts, 2, seed=0)
            thrice = fit_gmm(np.repeat(pts, 3, axis=0), 2, seed=0)
            assert len(thrice.log_likelihoods) == len(once.log_likelihoods), shift

    def test_cap_hit_only_when_stop_rule_never_fired(self):
        rng = np.random.default_rng(6)
        pts = blob_points(rng, [(0, 0), (6, 0), (0, 6)], 40, 2.0)
        free = fit_gmm(pts, 3, seed=0)
        m = len(free.log_likelihoods)
        assert not free.cap_hit and m > 2
        # Converging on the last allowed E-step is not a cap hit.
        last = fit_gmm(pts, 3, seed=0, max_iter=m)
        assert not last.cap_hit and last.log_likelihoods == free.log_likelihoods
        short = fit_gmm(pts, 3, seed=0, max_iter=m - 1)
        assert short.cap_hit and len(short.log_likelihoods) == m - 1
        forced = fit_gmm(pts, 3, seed=0, max_iter=1)
        assert forced.cap_hit and len(forced.log_likelihoods) == 1

    def test_matches_per_component_oracle(self):
        # Random instances, a third with every point repeated three times and
        # a third with two co-located halves, where components die.
        rng = np.random.default_rng(11)
        n_dead = 0
        for trial in range(60):
            n = int(rng.integers(6, 70))
            pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 50.0)
            if trial % 3 == 1:
                pts = np.repeat(pts[: n // 3 + 1], 3, axis=0)
            elif trial % 3 == 2:
                pts[: n // 2], pts[n // 2:] = pts[0].copy(), pts[-1].copy()
            k = int(rng.integers(1, min(len(pts), 10) + 1))
            fit = fit_gmm(pts, k, seed=trial)
            ref = loop_fit_gmm(pts, k, seed=trial)
            assert len(fit.log_likelihoods) == len(ref.log_likelihoods), trial
            assert fit.cap_hit == ref.cap_hit, trial
            np.testing.assert_array_equal(gmm_assign(pts, fit), gmm_assign(pts, ref))
            for got, want in ((fit.log_likelihoods, ref.log_likelihoods),
                              (fit.means, ref.means), (fit.covariances, ref.covariances)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            n_dead += bool(np.any(ref.weights * len(pts) < 1e-12))
        assert n_dead > 0

    def test_m_step_dead_component_is_wide_at_data_mean(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(25, 2)) * [3.0, 0.5]
        p = rng.uniform(size=25)
        resp = np.column_stack([p, np.zeros(25), 1.0 - p])
        reg = COV_REG * pts.var(axis=0).mean()
        weights, means, covs = _m_step(pts, resp, reg)
        assert weights[1] == 0.0
        np.testing.assert_array_equal(means[1], pts.mean(axis=0))
        np.testing.assert_array_equal(covs[1], np.eye(2) * max(reg / COV_REG, reg))
        for got, want in zip((weights, means, covs), loop_m_step(pts, resp, reg)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_scales_are_sqrt_mean_cov_eigenvalues(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 2))
        fit = fit_gmm(pts, 2, seed=1)
        for i in range(2):
            eig = np.linalg.eigvalsh(fit.covariances[i])
            assert fit.scales[i] == pytest.approx(np.sqrt(eig.mean()))


class TestGmmCluster:
    def test_k_one_single_community(self):
        inds = [Individual(f"p{i}", float(i), 0.0) for i in range(10)]
        part = gmm_cluster(inds, 1, seed=0)
        assert part.k == 1

    def test_partition_ids_contiguous(self, small_dataset):
        individuals, _, _ = small_dataset
        part = gmm_cluster(individuals, 8, seed=0)
        assert set(np.unique(part.assignment)) == set(range(part.k))

    def test_convergence_reports_em_steps(self, small_dataset):
        individuals, _, _ = small_dataset
        part = gmm_cluster(individuals, 8, seed=0)
        fit = fit_gmm(locations(individuals), 8, seed=0)
        assert part.convergence == {"em_iters": len(fit.log_likelihoods), "cap_hit": False}


class TestKmeansColumns:
    def test_two_cliques_alpha_one(self):
        inds = [Individual(f"p{i}", float(i), 0.0) for i in range(6)]
        pairs = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        social = SocialMatrix.from_pairs(6, pairs)
        g = build_weight_matrix(inds, social, 1.0, 100.0)
        [part] = kmeans_columns(g, 2, seeds=[0])
        assert np.array_equal(part.assignment, [0, 0, 0, 1, 1, 1])

    def test_identity_graph_k_equals_n_singletons(self):
        inds = [Individual(f"p{i}", 1e5 * i, 0.0) for i in range(5)]
        g = build_weight_matrix(inds, SocialMatrix.from_pairs(5, []), 1.0, 10.0)
        [part] = kmeans_columns(g, 5, seeds=[0])
        assert part.k == 5


def _run_stats(parts, labels):
    purs = np.array([purity(labels, p) for p in parts])
    return purs.mean(), purs.std()


@pytest.fixture(scope="module")
def calibrated_runs(hollenbeck):
    from geocluster.graph import compute_sigma
    from geocluster.spectral import embed, kmeans

    individuals, social, labels = hollenbeck
    sigma = compute_sigma(individuals, social)
    out = {}
    for alpha in (0.0, 0.9):
        g = build_weight_matrix(individuals, social, alpha, sigma)
        emb = embed(g, 31)
        out[alpha] = {
            "spectral": _run_stats(
                [kmeans(emb.coords, 31, seed=100 + r) for r in range(10)], labels
            ),
            "columns": _run_stats(
                kmeans_columns(g, 31, seeds=range(100, 110)), labels
            ),
        }
    return out


class TestCalibratedComparisons:
    """Statistical comparisons against spectral clustering on the calibrated
    dataset, 10 seeds each."""

    def test_columns_comparable_to_spectral_on_geography(self, calibrated_runs):
        sp_mean, sp_std = calibrated_runs[0.0]["spectral"]
        kc_mean, kc_std = calibrated_runs[0.0]["columns"]
        pooled = np.sqrt((sp_std**2 + kc_std**2) / 2)
        assert abs(sp_mean - kc_mean) <= 2 * pooled

    def test_columns_trail_spectral_at_high_alpha(self, calibrated_runs):
        sp_mean, sp_std = calibrated_runs[0.9]["spectral"]
        kc_mean, kc_std = calibrated_runs[0.9]["columns"]
        pooled = np.sqrt((sp_std**2 + kc_std**2) / 2)
        assert sp_mean - kc_mean > pooled
