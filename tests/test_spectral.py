import hashlib
import os
import subprocess
import sys
from pathlib import Path

import geocluster
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from geocluster.errors import DataError, NumericalError
from geocluster.graph import (
    GeoSocialGraph,
    Individual,
    SocialMatrix,
    build_weight_matrix,
    compute_sigma,
    normalize,
    sq_dist,
)
from geocluster import spectral
from geocluster.baselines import kmeans_columns
from geocluster.spectral import (
    KMEANS_MAX_ITER,
    Partition,
    _eigh,
    _scaled,
    embed,
    kmeans,
    kmeans_pp_init,
    lloyd,
    relabel_first_occurrence,
    spectral_cluster,
)

from conftest import peak_bytes, random_instance, sparse_random_instance
from oracles import naive_embed, naive_lloyd

# Bound on embed's tracemalloc peak beyond W at n = 1500, in n x n arrays,
# in either mode: normalize's D^-1 W, the n x k eigenvectors and LAPACK's
# workspace.
BEYOND_W = 1.1  # 1.05 in both modes when set


def scaled(w, root):
    """D^-1/2 W D^-1/2 in a fresh array, as embed forms it."""
    return _scaled(w, root, np.empty(w.shape))


def copy_graph(graph):
    """`graph` with its own copy of W, for an embed that overwrites it."""
    return GeoSocialGraph(W=graph.W.copy(), d=graph.d, alpha=graph.alpha, sigma=graph.sigma)


def blob_individuals(rng, centers, per_blob, spread=1.0):
    inds = []
    for b, (cx, cy) in enumerate(centers):
        for _ in range(per_blob):
            inds.append(
                Individual(
                    f"p{len(inds)}",
                    float(cx + rng.normal(0, spread)),
                    float(cy + rng.normal(0, spread)),
                    gang=f"g{b}",
                )
            )
    return inds


class TestEmbed:
    def test_identity_graph_has_unit_spectrum(self):
        inds = [Individual(f"p{i}", 1000.0 * i, 0.0) for i in range(6)]
        g = build_weight_matrix(inds, SocialMatrix.from_pairs(6, []), 1.0, 100.0)
        emb = embed(g, 6)
        np.testing.assert_allclose(emb.eigenvalues, np.ones(6), atol=1e-12)

    def test_two_block_sign_split(self):
        inds = [Individual(f"a{i}", 0.0, 0.0) for i in range(4)]
        inds += [Individual(f"b{i}", 1e6, 0.0) for i in range(4)]
        inds = [Individual(p.id, p.x, p.y) for p in inds]
        g = build_weight_matrix(inds, SocialMatrix.from_pairs(8, []), 0.0, 100.0)
        emb = embed(g, 2)
        signs = np.sign(emb.coords[:, 1])
        assert len(set(signs[:4])) == 1 and len(set(signs[4:])) == 1
        assert signs[0] != signs[4]

    def test_residual_and_dense_oracle_agreement(self):
        rng = np.random.default_rng(7)
        inds, social = random_instance(rng, 30, contact_rate=0.15)
        g = build_weight_matrix(inds, social, 0.4, 800.0)
        t = normalize(g)
        emb = embed(g, 30)
        for i in range(30):
            v = emb.coords[:, i]
            resid = t @ v - emb.eigenvalues[i] * v
            assert np.abs(resid).max() <= 1e-8
        oracle = np.sort(np.linalg.eigvals(t).real)[::-1]
        np.testing.assert_allclose(emb.eigenvalues, oracle, atol=1e-8)

    def test_leading_pair_is_constant_vector(self):
        rng = np.random.default_rng(8)
        inds, social = random_instance(rng, 25)
        g = build_weight_matrix(inds, social, 0.6, 800.0)
        emb = embed(g, 3)
        assert abs(emb.eigenvalues[0] - 1.0) <= 1e-8
        v1 = emb.coords[:, 0]
        assert np.abs(v1 / v1[0] - 1.0).max() <= 1e-6

    def test_d_weighted_unit_norm_columns(self, small_graph):
        emb = embed(small_graph, 8)
        norms = (emb.coords**2 * small_graph.d[:, None]).sum(axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_zero_strength_row_rejected(self):
        w = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
        g = GeoSocialGraph(W=w, d=w.sum(axis=1), alpha=0.5, sigma=1.0)
        with pytest.raises(DataError, match="^individual 2 has zero strength$"):
            embed(g, 2)
        with pytest.raises(DataError, match="^individual 2 has zero strength$"):
            kmeans_columns(g, 2, seeds=[0])

    def test_bad_k(self, small_graph):
        n = small_graph.n
        with pytest.raises(DataError, match=rf"^embedding dimension k=0 outside \[1, {n}\]$"):
            embed(small_graph, 0)
        with pytest.raises(DataError,
                           match=rf"^embedding dimension k={n + 1} outside \[1, {n}\]$"):
            embed(small_graph, n + 1)


class TestPartialEigensolve:
    """The k-pair LAPACK subset solve against a full dense eigh."""

    @pytest.fixture(scope="class")
    def graph(self):
        rng = np.random.default_rng(11)
        inds, social = random_instance(rng, 60, contact_rate=0.1)
        return build_weight_matrix(inds, social, 0.4, 800.0)

    @pytest.mark.parametrize("k", [1, 2, 31, 59, 60])
    def test_matches_full_eigh(self, graph, k):
        n = graph.n
        emb = embed(graph, k)
        vals, vecs = naive_embed(graph.W, graph.d, n)
        assert emb.coords.shape == (n, k)
        np.testing.assert_allclose(emb.eigenvalues, vals[:k], rtol=0, atol=1e-12)
        t = normalize(graph)
        assert np.abs(t @ emb.coords - emb.coords * emb.eigenvalues).max() <= 1e-8
        gaps = -np.diff(vals)
        isolated = [i for i in range(k)
                    if (i == 0 or gaps[i - 1] > 1e-6) and (i == n - 1 or gaps[i] > 1e-6)]
        assert len(isolated) >= k // 2 + 1
        for i in isolated:
            mine = emb.coords[:, i] / np.linalg.norm(emb.coords[:, i])
            ref = vecs[:, i] / np.linalg.norm(vecs[:, i])
            assert 1.0 - abs(mine @ ref) <= 1e-8

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_tied_leading_space(self, k):
        # alpha = 1 with isolates: eigenvalue 1 once per connected component,
        # far more often than k, so the basis is the solver's choice.
        inds, social = random_instance(np.random.default_rng(6), 60, contact_rate=0.01)
        graph = build_weight_matrix(inds, social, 1.0, 800.0)
        n = graph.n
        vals, _ = naive_embed(graph.W, graph.d, n)
        assert np.count_nonzero(vals > 1.0 - 1e-9) > k
        # Rounding ties make LAPACK's subset solve return no pair here for
        # k = 1 and 2, so those go through the full-spectrum fallback.
        lapack = _eigh(scaled(graph.W, np.sqrt(graph.d)), n - k)[0].size
        assert (lapack < k) == (k <= 2)
        first, second = embed(graph, k), embed(graph, k)
        assert first.coords.shape == (n, k)
        assert np.array_equal(first.coords, second.coords)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_allclose(first.eigenvalues, 1.0, atol=1e-12)
        t = normalize(graph)
        assert np.abs(t @ first.coords - first.coords * first.eigenvalues).max() <= 1e-8
        gram = first.coords.T @ (graph.d[:, None] * first.coords)
        np.testing.assert_allclose(gram, np.eye(k), atol=1e-10)

    @pytest.mark.parametrize("n, alpha, k", [
        (1, 0.4, 1), (63, 0.0, 5), (64, 0.4, 64), (65, 0.7, 31), (129, 0.9, 31), (200, 0.4, 31),
    ])
    def test_overwrite_is_bit_identical_and_default_keeps_w(self, n, alpha, k):
        # Sizes around the 64-row blocks of the scaling pass.
        inds, social = random_instance(np.random.default_rng(n), n, contact_rate=0.05)
        graph = build_weight_matrix(inds, social, alpha, 800.0)
        w = graph.W.copy()
        default = embed(graph, k)
        assert graph.W.tobytes() == w.tobytes()
        in_place = copy_graph(graph)
        emb = embed(in_place, k, overwrite=True)
        assert np.array_equal(emb.coords, default.coords)
        assert np.array_equal(emb.eigenvalues, default.eigenvalues)
        assert n == 1 or not np.array_equal(in_place.W, w)  # it was the working array

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 250])
    def test_bit_identical_to_scipy_eigh(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(size=(n, n))
        w = a + a.T
        root = np.sqrt(w.sum(axis=1))
        sym = w / np.outer(root, root)
        for k in sorted({k for k in (1, 2, (n + 1) // 2, n) if k <= n}):
            mine = _eigh(scaled(w, root), n - k)
            ref = scipy.linalg.eigh(sym, subset_by_index=[n - k, n - 1])
            assert all(map(np.array_equal, mine, ref))
        mine, ref = _eigh(scaled(w, root)), scipy.linalg.eigh(sym, driver="evd")
        assert all(map(np.array_equal, mine, ref))

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_tied_space_bit_identical_to_scipy_eigh(self, k):
        # The instance of test_tied_leading_space: for k <= 2 the subset
        # solve returns fewer than k pairs and embed uses the full solve,
        # which in W's own array must start from the same matrix.
        inds, social = random_instance(np.random.default_rng(6), 60, contact_rate=0.01)
        graph = build_weight_matrix(inds, social, 1.0, 800.0)
        n, root = graph.n, np.sqrt(graph.d)
        sym = graph.W / np.outer(root, root)
        mine = _eigh(sym.copy(), n - k)
        ref = scipy.linalg.eigh(sym, subset_by_index=[n - k, n - 1])
        assert (mine[0].size < k) == (k <= 2)
        assert all(map(np.array_equal, mine, ref))
        full, ref = _eigh(sym.copy()), scipy.linalg.eigh(sym, driver="evd")
        assert all(map(np.array_equal, full, ref))
        solved = mine if mine[0].size == k else (full[0][n - k:], full[1][:, n - k:])
        for emb in (embed(graph, k), embed(copy_graph(graph), k, overwrite=True)):
            assert np.array_equal(emb.eigenvalues, solved[0][::-1])
            assert np.array_equal(emb.coords, solved[1][:, ::-1] / root[:, None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        # scipy's eigh message, whether the matrix is scaled into a fresh
        # array or into W's own.
        w = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [0.5, 2.0, 0.0]])
        w[0, 2] = w[2, 0] = bad
        for overwrite in (False, True):
            graph = GeoSocialGraph(W=w.copy(), d=np.ones(3), alpha=0.5, sigma=1.0)
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                embed(graph, 2, overwrite=overwrite)

    @pytest.mark.parametrize("info,error,message", [
        (1, NumericalError, "dsyev[rd] returned info=1"),
        (-3, ValueError, "dsyev[rd]: illegal value in argument 3"),
    ])
    def test_lapack_info_raises(self, monkeypatch, info, error, message):
        real = spectral._lapack()

        class Failing:
            dsyevr_lwork, dsyevd_lwork = real.dsyevr_lwork, real.dsyevd_lwork

            @staticmethod
            def dsyevr(a, **kwargs):
                *out, _ = real.dsyevr(a, **kwargs)
                return (*out, info)

            @staticmethod
            def dsyevd(a, **kwargs):
                *out, _ = real.dsyevd(a, **kwargs)
                return (*out, info)

        monkeypatch.setattr(spectral, "_lapack", lambda: Failing)
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(error, match=message):
            _eigh(w.copy(), 1)
        with pytest.raises(error, match=message):
            _eigh(w.copy())

    def test_scipy_linalg_usable_after_embed(self):
        # embed loads the LAPACK binding itself; a later `import scipy.linalg`
        # must pick up that module and solve with the same bits.
        code = """if True:
            import sys
            import numpy as np
            from geocluster.graph import GeoSocialGraph
            from geocluster.spectral import _eigh, embed
            rng = np.random.default_rng(3)
            a = rng.uniform(size=(40, 40))
            w = a + a.T
            graph = GeoSocialGraph(W=w, d=w.sum(axis=1), alpha=0.5, sigma=1.0)
            root = np.sqrt(graph.d)
            emb = embed(graph, 5)
            sym = w / np.outer(root, root)
            mine = _eigh(sym.copy(), 35)
            assert "scipy.linalg" not in sys.modules
            import scipy.linalg
            ref = scipy.linalg.eigh(sym, subset_by_index=[35, 39])
            assert all(map(np.array_equal, mine, ref))
            assert np.array_equal(emb.eigenvalues, ref[0][::-1])
            assert scipy.linalg.lapack.dsyevr is sys.modules["scipy.linalg._flapack"].dsyevr
            print("ok")
        """
        src = str(Path(geocluster.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    def test_missing_binding_falls_back_to_scipy_linalg_lapack(self, tmp_path):
        # With the extension file hidden (scipy.__file__ in an empty
        # directory), the public module supplies the same routines.
        code = f"""if True:
            import hashlib
            import numpy as np
            import scipy
            from geocluster import spectral
            scipy.__file__ = {str(tmp_path / "__init__.py")!r}
            print(spectral._lapack().__name__)
            rng = np.random.default_rng(5)
            w = rng.random((40, 40))
            w += w.T
            for lo in (30, None):
                for array in spectral._eigh(w.copy(), lo):
                    print(hashlib.sha256(array.tobytes()).hexdigest())
        """
        src = str(Path(geocluster.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        rng = np.random.default_rng(5)
        w = rng.random((40, 40))
        w += w.T
        want = [hashlib.sha256(array.tobytes()).hexdigest()
                for lo in (30, None) for array in _eigh(w.copy(), lo)]
        assert out.stdout.split() == ["scipy.linalg.lapack", *want]

    def test_package_import_leaves_scipy_linalg_unloaded(self):
        code = "import sys, geocluster; print('scipy.linalg' in sys.modules)"
        src = str(Path(geocluster.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_peak_memory_one_dense_array_beyond_w(self):
        n = 1500
        inds, social = sparse_random_instance(np.random.default_rng(4), n, 4 * n)
        graph = build_weight_matrix(inds, social, 0.4, 800.0)
        peak = peak_bytes(embed, graph, 31)
        # One n x n working array (and normalize's transient D^-1 W); a
        # full-size outer(root, root) or isfinite mask beside it goes over.
        assert peak < BEYOND_W * n * n * 8

    def test_peak_memory_in_place_holds_no_second_array(self):
        n = 1500
        inds, social = sparse_random_instance(np.random.default_rng(4), n, 4 * n)
        graph = build_weight_matrix(inds, social, 0.4, 800.0)
        peak = peak_bytes(embed, graph, 31, overwrite=True)
        # W is the working array. What remains is normalize's D^-1 W, which
        # the benchmark's traced runs expect embed to call.
        assert peak < BEYOND_W * n * n * 8


class TestKmeans:
    def test_single_cluster_objective_is_total_variance(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3))
        part = kmeans(pts, 1, seed=0)
        assert part.k == 1
        expected = ((pts - pts.mean(axis=0)) ** 2).sum()
        assert part.objective == pytest.approx(expected)

    def test_k_equals_n_gives_singletons(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(12, 2))
        part = kmeans(pts, 12, seed=3)
        assert part.k == 12
        assert part.objective == pytest.approx(0.0, abs=1e-20)

    def test_four_blobs_recovered_over_ten_seeds(self):
        rng = np.random.default_rng(2)
        centers = [(0, 0), (50, 0), (0, 50), (50, 50)]
        pts = np.concatenate(
            [rng.normal(0, 1.0, size=(20, 2)) + c for c in centers]
        )
        truth = np.repeat(np.arange(4), 20)
        for seed in range(10):
            part = kmeans(pts, 4, seed=seed)
            # exact recovery: each cluster maps to one blob
            mapping = {}
            for c, t in zip(part.assignment, truth):
                mapping.setdefault(c, t)
                assert mapping[c] == t

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(60, 4))
        a = kmeans(pts, 5, seed=11)
        b = kmeans(pts, 5, seed=11)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.objective == b.objective

    def test_degenerate_input_flagged(self):
        pts = np.ones((10, 2))
        part = kmeans(pts, 3, seed=0)
        assert part.degenerate
        assert part.k == 1
        assert part.objective == 0.0

    def test_duplicate_points_are_handled(self):
        pts = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]])
        part = kmeans(pts, 3, seed=1)
        assert part.k == 3
        assert not part.degenerate

    def test_repaired_assignment_settles_when_k_exceeds_distinct_points(self, monkeypatch):
        # With k above the number of distinct points, copies of one point
        # must share out over several clusters, and the repair does the
        # splitting; Lloyd must still reach a fixed point before its cap.
        # _repair_empty runs once per iteration, so its calls count them.
        calls = []
        repair = spectral._repair_empty
        monkeypatch.setattr(spectral, "_repair_empty",
                            lambda *args: calls.append(1) or repair(*args))
        rng = np.random.default_rng(12)
        for _ in range(150):
            n_distinct = int(rng.integers(2, 13))
            distinct = rng.normal(size=(n_distinct, int(rng.integers(2, 5))))
            distinct *= rng.uniform(0.1, 100.0)
            copies = distinct[rng.integers(n_distinct, size=int(rng.integers(1, 8)))]
            pts = rng.permutation(np.concatenate([distinct, copies]))
            k = int(rng.integers(n_distinct + 1, len(pts) + 1))
            calls.clear()
            part = kmeans(pts, k, seed=int(rng.integers(1000)))
            assert part.k == k and not part.degenerate
            assert len(calls) < KMEANS_MAX_ITER, (pts, k)

    def test_permutation_equivariance_via_lloyd(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 3))
        centers = pts[rng.choice(50, size=4, replace=False)]
        base_assign, _, base_obj = lloyd(pts, centers)
        perm = rng.permutation(50)
        perm_assign, _, perm_obj = lloyd(pts[perm], centers)
        assert np.array_equal(perm_assign, base_assign[perm])
        assert perm_obj == pytest.approx(base_obj)


class TestLloydDistancePath:
    """The GEMM distance expansion against the broadcast oracle."""

    @given(
        n_distinct=st.integers(2, 12),
        dim=st.one_of(st.integers(2, 4), st.integers(19, 24)),  # low, or above n
        n_dup=st.integers(0, 6),
        k_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_broadcast_oracle(self, n_distinct, dim, n_dup, k_frac, seed):
        rng = np.random.default_rng(seed)
        distinct = rng.normal(size=(n_distinct, dim)) * rng.uniform(0.1, 100.0)
        pts = np.concatenate([distinct, distinct[rng.integers(n_distinct, size=n_dup)]])
        pts = pts[rng.permutation(len(pts))]
        k = 1 + int(k_frac * (len(pts) - 1))
        centers = pts[rng.choice(len(pts), size=k, replace=False)]

        assign, final, obj = lloyd(pts, centers)
        _, _, oracle_obj = naive_lloyd(pts, centers)

        exact = ((pts[:, None, :] - final[None, :, :]) ** 2).sum(axis=2)
        # The mean of duplicate points is the point only up to rounding, so
        # a zero distance can come back as ~1e-28: allow rounding at the
        # scale of the largest ||x||^2 on top of the relative tolerance.
        np.testing.assert_allclose(exact[np.arange(len(pts)), assign],
                                   exact.min(axis=1), rtol=1e-9,
                                   atol=1e-12 * (pts**2).sum(axis=1).max())
        assert obj == pytest.approx(oracle_obj)

    @pytest.mark.parametrize("fixture, k", [("small_dataset", 8), ("hollenbeck", 31)])
    def test_identical_assignments_on_seeded_datasets(self, fixture, k, request):
        individuals, social, _ = request.getfixturevalue(fixture)
        graph = build_weight_matrix(individuals, social, 0.4,
                                    compute_sigma(individuals, social))
        features = [embed(graph, k).coords]
        if fixture == "small_dataset":
            # The D^-1 W columns as well; at n=748 the oracle's (n, k, n)
            # broadcast would take seconds per iteration.
            features.append(normalize(graph).T.copy())
        for points in features:
            for seed in range(3):
                centers = kmeans_pp_init(points, k, np.random.default_rng(seed))
                assign, _, obj = lloyd(points, centers)
                oracle_assign, _, oracle_obj = naive_lloyd(points, centers)
                assert np.array_equal(assign, oracle_assign)
                assert obj == pytest.approx(oracle_obj)

    def test_peak_memory_is_linear_in_points(self):
        rng = np.random.default_rng(0)
        n, dim, k = 600, 600, 31
        pts = rng.normal(size=(n, dim))
        centers = pts[rng.choice(n, size=k, replace=False)]
        peak = peak_bytes(lloyd, pts, centers)
        # The (n, k, dim) broadcast alone would take 31 * n * dim * 8 bytes;
        # centers[assign] plus a separate difference array take 2 * n * dim * 8.
        assert peak < 1.5 * n * dim * 8

    def test_assigned_distances_bit_identical_to_broadcast(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(70, 5)) * 30.0
        centers = pts[:6] + rng.normal(size=(6, 5))
        assign = rng.integers(6, size=70)
        nearest = centers[assign]
        assert np.array_equal(sq_dist(pts, nearest, out=nearest),
                              ((pts - centers[assign]) ** 2).sum(axis=1))

class TestSpectralCluster:
    def test_two_far_groups_exactly_recovered(self):
        rng = np.random.default_rng(5)
        inds = blob_individuals(rng, [(0, 0), (1e5, 0)], per_blob=10, spread=0.1)
        g = build_weight_matrix(
            inds, SocialMatrix.from_pairs(len(inds), []), 0.0, 50.0
        )
        part = spectral_cluster(g, 2, seed=0)
        truth = np.repeat([0, 1], 10)
        assert np.array_equal(part.assignment, truth) or np.array_equal(
            part.assignment, 1 - truth
        )

    def test_carries_kmeans_objective(self, small_graph):
        part = spectral_cluster(small_graph, 8, seed=0)
        assert part.objective is not None and part.objective > 0.0


class TestPartition:
    def test_requires_contiguous_ids(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2, 2]))

    def test_from_labels_relabels_by_first_occurrence(self):
        part = Partition.from_labels(np.array([7, 3, 7, 9]))
        assert part.assignment.tolist() == [0, 1, 0, 2]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_relabel_first_occurrence_properties(self, raw):
        out = relabel_first_occurrence(np.array(raw))
        # same grouping, ids contiguous from 0 in order of appearance
        assert out[0] == 0
        assert set(out.tolist()) == set(range(out.max() + 1))
        for i in range(len(raw)):
            for j in range(len(raw)):
                assert (raw[i] == raw[j]) == (out[i] == out[j])
