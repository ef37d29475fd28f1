import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocluster.errors import DataError
from geocluster.graph import SocialMatrix
from geocluster.metrics import (
    contingency_table,
    diagnostics,
    pair_counts,
    purity,
    z_rand,
)

from oracles import naive_pair_counts, naive_purity, permutation_w_samples


def random_labeled_instance(rng, n, n_labels, n_coms):
    labels = rng.integers(0, n_labels, size=n).astype(str)
    assignment = rng.integers(0, n_coms, size=n)
    return labels, assignment


class TestPurity:
    def test_perfect_match(self):
        labels = np.array(list("aabbcc"))
        assignment = np.array([0, 0, 1, 1, 2, 2])
        assert purity(labels, assignment) == 1.0

    def test_all_in_one_is_largest_label_share(self):
        labels = np.array(["a"] * 6 + ["b"] * 4)
        assert purity(labels, np.zeros(10, dtype=int)) == 0.6

    def test_singletons_score_one(self):
        labels = np.array(list("abcabcab"))
        assert purity(labels, np.arange(8)) == 1.0

    def test_matches_naive_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            labels, assignment = random_labeled_instance(rng, 50, 5, 7)
            assert purity(labels, assignment) == naive_purity(labels, assignment)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="^labels have length 2, partition 1$"):
            purity(np.array(["a", "b"]), np.array([0]))

    def test_empty_labels(self):
        with pytest.raises(DataError, match="^empty label vector$"):
            purity(np.array([]), np.array([]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_index_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        labels, assignment = random_labeled_instance(rng, 30, 4, 5)
        perm = rng.permutation(30)
        assert purity(labels[perm], assignment[perm]) == purity(labels, assignment)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_refinement_never_decreases_purity(self, seed):
        rng = np.random.default_rng(seed)
        labels, assignment = random_labeled_instance(rng, 40, 4, 4)
        base = purity(labels, assignment)
        # split one community in two at random
        c = int(rng.integers(0, assignment.max() + 1))
        members = np.flatnonzero(assignment == c)
        refined = assignment.copy()
        if members.size >= 2:
            half = rng.choice(members, size=members.size // 2, replace=False)
            refined[half] = assignment.max() + 1
        assert purity(labels, refined) >= base

    def test_plurality_tie_breaks_lexicographically(self):
        # A column argmax of the contingency table picks a community's
        # plurality label; a tie goes to the lexicographically smallest.
        for members in (["b", "a", "b", "a"], ["ab", "a", "ab", "a"]):
            names, _, table = contingency_table(np.array(members), np.zeros(4, dtype=int))
            assert names[table.argmax(axis=0)].tolist() == ["a"]


class TestPairCounts:
    def test_identical_partitions(self):
        labels = np.array(list("aabbb"))
        assignment = np.array([0, 0, 1, 1, 1])
        pc = pair_counts(labels, assignment)
        assert pc.w == pc.M1 == pc.M2 == 1 + 3
        assert pc.M == 10

    def test_singletons_have_no_pairs(self):
        labels = np.array(list("aabb"))
        pc = pair_counts(labels, np.arange(4))
        assert pc.M1 == 0 and pc.w == 0
        assert pc.M2 == 2

    def test_matches_all_pairs_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            labels, assignment = random_labeled_instance(rng, 30, 4, 5)
            m, m1, m2, w = naive_pair_counts(labels.tolist(), assignment.tolist())
            pc = pair_counts(labels, assignment)
            assert (pc.M, pc.M1, pc.M2, pc.w) == (m, m1, m2, w)
            assert all(type(v) is int for v in (pc.M, pc.M1, pc.M2, pc.w))


class TestZRand:
    def test_two_equal_groups_closed_form(self):
        labels = np.array(["a"] * 5 + ["b"] * 5)
        assignment = np.array([0] * 5 + [1] * 5)
        z = z_rand(labels, assignment)
        # closed form by hand: M=45, M1=M2=20, w=20
        mean_w = 20 * 20 / 45
        var_w = mean_w * (1 - 20 / 45) * (45 - 20) / 44
        assert z == pytest.approx((20 - mean_w) / np.sqrt(var_w), rel=1e-12)

    def test_monte_carlo_cross_check(self):
        # The hypergeometric variance is an approximation of the permutation
        # null; it is adequate (<= 5% on z) once there are a few dozen points
        # and several groups. Tiny two-group instances can be ~12% off.
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 4, size=60).astype(str)
        assignment = rng.integers(0, 6, size=60)
        z = z_rand(labels, assignment)
        pc = pair_counts(labels, assignment)
        samples = permutation_w_samples(labels, assignment, 100_000, seed=42)
        z_mc = (pc.w - samples.mean()) / samples.std()
        assert z == pytest.approx(z_mc, rel=0.05)

    def test_null_distribution_mean_near_zero(self):
        rng = np.random.default_rng(2)
        zs = []
        for _ in range(200):
            labels, assignment = random_labeled_instance(rng, 100, 5, 6)
            zs.append(z_rand(labels, assignment))
        assert -0.2 <= np.mean(zs) <= 0.2

    def test_true_partition_scores_same_order_as_reference(self, hollenbeck):
        _, _, labels = hollenbeck
        codes = np.unique(labels, return_inverse=True)[1]
        z = z_rand(labels, codes)
        assert 100 <= z <= 2000

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            labels, assignment = random_labeled_instance(rng, 40, 4, 5)
            flipped = z_rand(assignment.astype(str), np.unique(labels, return_inverse=True)[1])
            assert z_rand(labels, assignment) == pytest.approx(flipped, abs=1e-12)

    def test_degenerate_counts(self):
        labels = np.array(list("aabb"))
        with pytest.raises(DataError, match=r"^z-Rand is undefined: all individuals share one "
                                            r"community \(6 of 6 pairs share a community, "
                                            r"2 share a label\)$"):
            z_rand(labels, np.zeros(4, dtype=int))  # M1 = M
        with pytest.raises(DataError, match="^need more than one pair to standardize w$"):
            z_rand(np.array(["a", "a"]), np.array([0, 1]))  # M = 1
        with pytest.raises(DataError, match=r"^z-Rand is undefined: all individuals share one "
                                            r"label \(2 of 6 pairs share a community, "
                                            r"6 share a label\)$"):
            z_rand(np.array(list("aaaa")), np.array([0, 0, 1, 1]))  # M2 = M

    def test_closed_form_mean_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            labels, assignment = random_labeled_instance(rng, 60, 4, 5)
            pc = pair_counts(labels, assignment)
            samples = permutation_w_samples(labels, assignment, 20_000, seed=seed)
            se = samples.std() / np.sqrt(samples.size)
            assert abs(samples.mean() - pc.M1 * pc.M2 / pc.M) <= 3 * se


class TestDiagnostics:
    def test_empty_social_matrix(self):
        sm = SocialMatrix.from_pairs(5, [])
        rep = diagnostics(sm, np.array(list("aabbb")))
        assert rep.degree_mean == 0.0
        assert rep.n_isolates == 5
        assert rep.intra_fraction is None

    def test_label_count_must_match_matrix_size(self):
        with pytest.raises(DataError, match="^labels do not match matrix size$"):
            diagnostics(SocialMatrix.from_pairs(3, []), np.array(list("ab")))

    def test_hand_built_degrees(self):
        # degrees {2, 2, 1, 1, 0}: mean 1.2, max 2, one isolate
        sm = SocialMatrix.from_pairs(5, [(0, 1), (0, 2), (1, 3)])
        rep = diagnostics(sm, np.array(list("aaabb")))
        assert rep.degree_mean == pytest.approx(1.2)
        assert rep.degree_max == 2
        assert rep.n_isolates == 1
        assert rep.n_contacts == 3
        assert rep.intra_fraction == pytest.approx(2 / 3)

    def test_calibrated_dataset_hits_intra_target(self, hollenbeck):
        _, social, labels = hollenbeck
        rep = diagnostics(social, labels)
        assert abs(rep.intra_fraction - 0.887) <= 0.02

    def test_serializable(self, hollenbeck):
        import json

        _, social, labels = hollenbeck
        rep = diagnostics(social, labels)
        parsed = json.loads(json.dumps(rep.as_dict()))
        assert parsed["n"] == social.n
