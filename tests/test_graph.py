import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocluster.errors import DataError
from geocluster.graph import (
    Individual,
    SocialMatrix,
    build_weight_matrix,
    compute_sigma,
    contact_distances,
    gaussian_block,
    normalize,
    sq_dist,
)
from geocluster.metrics import intra_contact_count

from conftest import peak_bytes, random_instance, sparse_random_instance
from oracles import (
    blend_weight_matrix,
    naive_degrees,
    naive_intra_count,
    naive_row_normalize,
    naive_sigma,
    naive_social_dense,
    naive_social_pairs,
    naive_weight_matrix,
)


def points_on_line(distances):
    """Individuals at cumulative positions so consecutive pairs have the
    given distances."""
    xs = np.concatenate([[0.0], np.cumsum(distances)])
    return [Individual(f"p{i}", float(x), 0.0) for i, x in enumerate(xs)]


class TestComputeSigma:
    def test_two_pair_arithmetic(self):
        # distances {100, 300}: mean 200, population std 100
        inds = [
            Individual("a", 0.0, 0.0),
            Individual("b", 100.0, 0.0),
            Individual("c", 1000.0, 0.0),
            Individual("d", 1300.0, 0.0),
        ]
        social = SocialMatrix.from_pairs(4, [(0, 1), (2, 3)])
        assert compute_sigma(inds, social) == pytest.approx(300.0)

    def test_identical_distances_collapse_to_constant(self):
        inds = points_on_line([50.0, 50.0, 50.0])
        social = SocialMatrix.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        assert compute_sigma(inds, social) == pytest.approx(50.0)

    def test_no_contacts(self):
        inds = points_on_line([10.0])
        with pytest.raises(DataError,
                           match="^cannot derive a length scale without contact pairs$"):
            compute_sigma(inds, SocialMatrix.from_pairs(2, []))

    def test_all_colocated_contacts(self):
        inds = [Individual("a", 5.0, 5.0), Individual("b", 5.0, 5.0)]
        with pytest.raises(DataError,
                           match="^all contact pairs are co-located; length scale undefined$"):
            compute_sigma(inds, SocialMatrix.from_pairs(2, [(0, 1)]))

    def test_matches_independent_pass_on_synthetic_data(self, hollenbeck):
        individuals, social, _ = hollenbeck
        pts = [(p.x, p.y) for p in individuals]
        expected = naive_sigma(pts, social.pairs)
        assert compute_sigma(individuals, social) == pytest.approx(expected, rel=1e-12)


class TestBuildWeightMatrix:
    def test_alpha_zero_is_pure_kernel(self):
        rng = np.random.default_rng(0)
        inds, social = random_instance(rng, 12)
        g = build_weight_matrix(inds, social, 0.0, 500.0)
        xy = np.array([(p.x, p.y) for p in inds])
        d2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
        kernel = np.exp(-d2 / 500.0**2)
        np.fill_diagonal(kernel, 1.0)
        assert np.array_equal(g.W, kernel)

    def test_alpha_one_zeroes_non_contacts(self):
        rng = np.random.default_rng(1)
        inds, social = random_instance(rng, 10)
        g = build_weight_matrix(inds, social, 1.0, 300.0)
        expected = social.to_dense()
        assert np.array_equal(g.W, expected)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    def test_colocated_contact_pair_weight_is_one(self, alpha):
        inds = [
            Individual("a", 7.0, -3.0),
            Individual("b", 7.0, -3.0),
            Individual("c", 400.0, 0.0),
        ]
        social = SocialMatrix.from_pairs(3, [(0, 1)])
        g = build_weight_matrix(inds, social, alpha, 250.0)
        assert g.W[0, 1] == 1.0

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(2)
        inds, social = random_instance(rng, 10, contact_rate=0.3)
        g = build_weight_matrix(inds, social, 0.4, 700.0)
        pts = [(p.x, p.y) for p in inds]
        expected = naive_weight_matrix(pts, social.pairs, 0.4, 700.0)
        np.testing.assert_allclose(g.W, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.75, 1.0])
    def test_bit_identical_to_vectorized_blend(self, alpha):
        rng = np.random.default_rng(17)
        inds, social = random_instance(rng, 40, contact_rate=0.15)
        got = build_weight_matrix(inds, social, alpha, 650.0).W
        pts = [(p.x, p.y) for p in inds]
        assert np.array_equal(got, blend_weight_matrix(pts, social.to_dense(), alpha, 650.0))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_row_blocks_bit_identical_to_vectorized_blend(self, n):
        # Sizes around the 64-row blocks W is built in.
        rng = np.random.default_rng(n)
        inds, social = sparse_random_instance(rng, n, 2 * n)
        pts = [(p.x, p.y) for p in inds]
        for alpha in (0.0, 0.4, 1.0):
            got = build_weight_matrix(inds, social, alpha, 650.0)
            want = blend_weight_matrix(pts, naive_social_dense(n, social.pairs), alpha, 650.0)
            assert got.W.tobytes() == want.tobytes()

    def test_peak_memory_two_dense_arrays(self):
        n = 1500
        inds, social = sparse_random_instance(np.random.default_rng(3), n, 4 * n)
        peak = peak_bytes(build_weight_matrix, inds, social, 0.4, 800.0)
        # W and 64-row blocks of the kernel, 1.09 n x n arrays when set; a
        # full-size kernel beside W takes 2.
        assert peak < 1.12 * n * n * 8

    def test_invalid_alpha(self):
        inds = points_on_line([10.0])
        social = SocialMatrix.from_pairs(2, [])
        with pytest.raises(DataError, match=r"^alpha must lie in \[0, 1\], got 1\.2$"):
            build_weight_matrix(inds, social, 1.2, 100.0)

    @pytest.mark.parametrize("sigma", [0.0, -5.0, math.inf])
    def test_invalid_sigma(self, sigma):
        inds = points_on_line([10.0])
        social = SocialMatrix.from_pairs(2, [])
        with pytest.raises(DataError,
                           match=f"^sigma must be a positive finite length, got {sigma}$"):
            build_weight_matrix(inds, social, 0.5, sigma)


def w_kernel_pipeline(x, y, rows, sigma):
    """The W build's kernel rows as it spelled them before `gaussian_block`:
    square, add, divide by -(sigma^2), exp."""
    kernel = x[rows, None] - x[None, :]
    kernel *= kernel
    dy2 = y[rows, None] - y[None, :]
    dy2 *= dy2
    kernel += dy2
    kernel /= -(sigma * sigma)
    return np.exp(kernel)


def generator_kernel_pipeline(x, y, rows, cols, length):
    """The generator's contact kernel as it spelled it before
    `gaussian_block`: square, add, negate, divide by 2 length^2, exp."""
    out = x[rows, None] - x[None, cols]
    out *= out
    dy = y[rows, None] - y[None, cols]
    dy *= dy
    out += dy
    np.negative(out, out=out)
    out /= 2.0 * length * length
    return np.exp(out)


class TestKernels:
    """The planar Gaussian kernel and the squared distance every module
    shares keep the bits of the pipelines they replaced."""

    @pytest.mark.parametrize("n_rows, cols", [
        (1, slice(0, 1)), (63, slice(None)), (64, slice(None)), (65, slice(None)),
        (64, slice(37, 151)),
    ], ids=["1x1", "63-rows", "64-rows", "65-rows", "cols-from-37"])
    def test_gaussian_block_bit_identical_to_both_pipelines(self, n_rows, cols):
        rng = np.random.default_rng(n_rows)
        x, y = rng.normal(size=(2, 160)) * 700.0 + 3.0e5
        rows = slice(5, 5 + n_rows)
        shape = (n_rows, len(range(160)[cols]))
        out, scratch = np.empty(shape), np.empty(shape)
        for sigma in (1.0, 523.7, 1234.5678):
            got = gaussian_block(out, scratch, x, y, rows, cols, sigma * sigma)
            assert got is out
            assert got.tobytes() == w_kernel_pipeline(x, y, rows, sigma)[:, cols].tobytes()
        for length in (0.5, 311.3, 977.1):
            got = gaussian_block(out, scratch, x, y, rows, cols, 2.0 * length * length)
            assert got.tobytes() == generator_kernel_pipeline(x, y, rows, cols, length).tobytes()

    def test_sq_dist_bit_identical_to_broadcast_sum(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(70, 31)) * 40.0
        b = rng.normal(size=(70, 31)) * 40.0
        assert sq_dist(a, b[3]).tobytes() == ((a - b[3]) ** 2).sum(axis=-1).tobytes()
        want = ((a - b) ** 2).sum(axis=-1)
        assert sq_dist(a, b, out=b).tobytes() == want.tobytes()
        # The difference was taken into `out` and squared there.
        assert np.array_equal(b.sum(axis=-1), want)
        xy, means = rng.normal(size=(2, 90, 2)) * 900.0
        want = ((xy[:, None, :] - means[None, :12, :]) ** 2).sum(axis=-1)
        assert sq_dist(xy[:, None, :], means[None, :12, :]).tobytes() == want.tobytes()

    def test_sqrt_of_sq_dist_bit_identical_to_norm(self):
        rng = np.random.default_rng(12)
        for dim in (2, 31):
            points, means = rng.normal(size=(2, 80, dim)) * 1.0e3
            diff = points[:, None, :] - means[None, :9, :]
            got = np.sqrt(sq_dist(points[:, None, :], means[None, :9, :]))
            assert got.tobytes() == np.linalg.norm(diff, axis=2).tobytes()


class TestNormalize:
    def test_two_node_example(self):
        g = build_weight_matrix(
            [Individual("a", 0.0, 0.0), Individual("b", 1.0, 0.0)],
            SocialMatrix.from_pairs(2, []),
            0.0,
            1.0 / math.sqrt(math.log(2.0)),  # kernel = exp(-log 2) = 1/2
        )
        t = normalize(g)
        np.testing.assert_allclose(
            t, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], rtol=0, atol=1e-15
        )

    def test_matches_naive_per_row_oracle(self):
        rng = np.random.default_rng(3)
        inds, social = random_instance(rng, 20, contact_rate=0.2)
        g = build_weight_matrix(inds, social, 0.4, 600.0)
        np.testing.assert_allclose(
            normalize(g), naive_row_normalize(g.W), rtol=0, atol=1e-14
        )


coords = st.floats(min_value=-3000.0, max_value=3000.0)
alphas = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def instances(draw, max_n=14):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pts = draw(
        st.lists(st.tuples(coords, coords), min_size=n, max_size=n)
    )
    n_pairs = draw(st.integers(min_value=0, max_value=n))
    pairs = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(n_pairs)
    ]
    pairs = [(i, j) for i, j in pairs if i != j]
    inds = [Individual(f"p{i}", x, y) for i, (x, y) in enumerate(pts)]
    return inds, SocialMatrix.from_pairs(n, pairs)


class TestInvariants:
    @given(instances(), alphas)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, inst, alpha):
        inds, social = inst
        g = build_weight_matrix(inds, social, alpha, 800.0)
        assert np.array_equal(g.W, g.W.T)
        assert np.all(g.W >= 0.0) and np.all(g.W <= 1.0)
        assert np.all(np.diag(g.W) == 1.0)

    @given(instances(), alphas, alphas)
    @settings(max_examples=40, deadline=None)
    def test_alpha_monotonicity(self, inst, a1, a2):
        inds, social = inst
        lo, hi = min(a1, a2), max(a1, a2)
        w_lo = build_weight_matrix(inds, social, lo, 800.0).W
        w_hi = build_weight_matrix(inds, social, hi, 800.0).W
        contact = social.to_dense() > 0
        assert np.all(w_hi[contact] >= w_lo[contact])
        assert np.all(w_hi[~contact] <= w_lo[~contact])

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_row_stochastic(self, inst):
        inds, social = inst
        g = build_weight_matrix(inds, social, 0.4, 800.0)
        rows = normalize(g).sum(axis=1)
        assert np.all(np.abs(rows - 1.0) <= 1e-12)

    def test_scale_consistency_power_of_two_is_exact(self):
        rng = np.random.default_rng(4)
        inds, social = random_instance(rng, 15, contact_rate=0.2)
        scaled = [Individual(p.id, 4.0 * p.x, 4.0 * p.y, p.gang) for p in inds]
        w1 = build_weight_matrix(inds, social, 0.4, 700.0).W
        w2 = build_weight_matrix(scaled, social, 0.4, 4.0 * 700.0).W
        assert np.array_equal(w1, w2)

    def test_scale_consistency_general_constant(self):
        # Extent kept within ~2 sigma so the kernel's exponent stays small
        # enough for a 1e-14 relative comparison.
        rng = np.random.default_rng(5)
        xy = rng.uniform(0.0, 900.0, size=(20, 2))
        inds = [Individual(f"p{i}", float(x), float(y)) for i, (x, y) in enumerate(xy)]
        social = SocialMatrix.from_pairs(20, [(0, 1), (2, 9), (4, 17)])
        c = 1.7350035
        scaled = [Individual(p.id, c * p.x, c * p.y, p.gang) for p in inds]
        w1 = build_weight_matrix(inds, social, 0.4, 700.0).W
        w2 = build_weight_matrix(scaled, social, 0.4, c * 700.0).W
        np.testing.assert_allclose(w2, w1, rtol=1e-14, atol=0)


class TestSocialMatrix:
    def test_duplicate_contacts_collapse(self):
        sm = SocialMatrix.from_pairs(4, [(0, 1), (1, 0), (0, 1)])
        assert sm.n_contacts == 1

    def test_self_contact_rejected(self):
        with pytest.raises(Exception):
            SocialMatrix.from_pairs(3, [(1, 1)])

    def test_degrees_exclude_diagonal(self):
        sm = SocialMatrix.from_pairs(3, [(0, 1)])
        assert sm.degrees().tolist() == [1, 1, 0]

    def test_contact_distances_order(self):
        inds = points_on_line([3.0, 4.0])
        sm = SocialMatrix.from_pairs(3, [(2, 0), (1, 2)])
        np.testing.assert_allclose(contact_distances(inds, sm), [7.0, 4.0])


@st.composite
def pair_lists(draw, valid):
    """n, a pair list with repeats in both orientations, labels, points.

    With valid=False indices range over [-3, n + 2], so self-contacts,
    negative and out-of-range indices all occur."""
    n = draw(st.integers(min_value=0, max_value=30))
    lo, hi = (0, n - 1) if valid else (-3, n + 2)
    pair = st.tuples(st.integers(lo, hi), st.integers(lo, hi))
    base = draw(st.lists(pair.filter(lambda p: p[0] != p[1]) if valid else pair,
                         max_size=40)) if n >= 2 or not valid else []
    repeats = draw(st.lists(st.tuples(st.sampled_from(base), st.booleans()),
                            max_size=10)) if base else []
    pairs = draw(st.permutations(base + [(j, i) if flip else (i, j)
                                         for (i, j), flip in repeats]))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    points = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))
    return n, pairs, labels, points


def pairs_as(form, pairs):
    if form == "zip":
        return zip([i for i, _ in pairs], [j for _, j in pairs])
    if form == "ndarray":
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return list(pairs)


forms = st.sampled_from(["list", "zip", "ndarray"])


class TestSocialMatrixStorage:
    @given(pair_lists(valid=True), forms)
    @settings(max_examples=200, deadline=None)
    def test_matches_frozenset_oracle(self, case, form):
        n, pairs, labels, points = case
        canon = naive_social_pairs(n, pairs)
        sm = SocialMatrix.from_pairs(n, pairs_as(form, pairs))
        assert sm.ij.dtype == np.int64 and sm.ij.shape == (len(canon), 2)
        assert sm.ij.tolist() == [list(p) for p in sorted(canon)]
        assert sm.pairs == canon and sm.n_contacts == len(canon)
        np.testing.assert_array_equal(sm.to_dense(), naive_social_dense(n, canon))
        np.testing.assert_array_equal(sm.degrees(), naive_degrees(n, canon))
        assert intra_contact_count(labels, sm) == naive_intra_count(labels, canon)
        inds = [Individual(f"p{i}", x, y) for i, (x, y) in enumerate(points)]
        expected = [math.dist(points[i], points[j]) for i, j in sorted(canon)]
        np.testing.assert_allclose(contact_distances(inds, sm), expected,
                                   rtol=1e-15, atol=0)
        with pytest.raises(ValueError):
            sm.ij[...] = 0

    @given(pair_lists(valid=False), forms)
    @settings(max_examples=200, deadline=None)
    def test_bad_pairs_raise_the_oracle_message(self, case, form):
        n, pairs, _, _ = case
        try:
            canon = naive_social_pairs(n, pairs)
        except ValueError as exc:
            with pytest.raises(DataError) as info:
                SocialMatrix.from_pairs(n, pairs_as(form, pairs))
            assert str(info.value) == str(exc)
        else:
            assert SocialMatrix.from_pairs(n, pairs_as(form, pairs)).pairs == canon

    def test_negative_size_rejected(self):
        with pytest.raises(DataError, match="^negative matrix size$"):
            SocialMatrix.from_pairs(-1, [])

    def test_pairs_not_shaped_as_pairs_rejected(self):
        with pytest.raises(DataError):
            SocialMatrix.from_pairs(4, [(0, 1, 2), (1, 2, 3)])

    @pytest.mark.parametrize("pairs", [[(0, 1), (1,)], [(0, 1), (1, 2, 0)]])
    def test_ragged_pairs_rejected(self, pairs):
        with pytest.raises(DataError, match=r"^contact pairs must form an \(m, 2\) array, "
                                            r"got a ragged list whose pairs differ in length$"):
            SocialMatrix.from_pairs(4, pairs)

    @pytest.mark.parametrize("pairs, dtype", [
        # An int64 cast would store (0, 1), (0, 2) and (0, 1) without a word.
        ([(0.5, 1.7)], "float64"),
        (np.array([[0.9, 2.2]]), "float64"),
        ([("0", "1")], "<U1"),
    ])
    def test_non_integer_pairs_rejected(self, pairs, dtype):
        with pytest.raises(DataError,
                           match=rf"^contact pairs must be integer indices, got dtype {dtype}$"):
            SocialMatrix.from_pairs(3, pairs)
