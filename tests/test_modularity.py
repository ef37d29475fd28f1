import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocluster.errors import DataError
from geocluster.graph import build_weight_matrix, compute_sigma, normalize
from geocluster.modularity import (
    DimensionMismatch,
    EmptyGraph,
    MultisliceAssignment,
    SliceStack,
    louvain,
    modularity_score,
    multislice_louvain,
    multislice_score,
)
from geocluster.spectral import Partition
from geocluster.synth import SynthConfig, generate_dataset

from conftest import random_weighted_graph
from oracles import (
    exhaustive_best_modularity,
    exhaustive_best_multislice,
    explicit_multislice_louvain,
    naive_modularity,
    naive_multislice,
)


def two_cliques(size=4, weight=1.0):
    n = 2 * size
    a = np.zeros((n, n))
    for block in (range(size), range(size, n)):
        for i in block:
            for j in block:
                if i != j:
                    a[i, j] = weight
    return a


class TestModularityScore:
    def test_all_in_one_is_one_minus_gamma(self):
        # with every vertex together the delta sum covers all pairs, so
        # sum_ij d_i d_j = (sum d)^2 and Q collapses to 1 - gamma
        rng = np.random.default_rng(0)
        a = random_weighted_graph(rng, 7)
        part = np.zeros(7, dtype=int)
        assert modularity_score(a, part, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert modularity_score(a, part, 1.7) == pytest.approx(-0.7, abs=1e-12)

    def test_singletons_formula(self):
        rng = np.random.default_rng(1)
        a = random_weighted_graph(rng, 6)
        np.fill_diagonal(a, rng.uniform(0, 1, 6))
        d = a.sum(axis=1)
        gamma = 1.3
        expected = (np.trace(a) - gamma * (d**2).sum() / d.sum()) / d.sum()
        assert modularity_score(a, np.arange(6), gamma) == pytest.approx(
            expected, abs=1e-12
        )

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 50:
            n = int(rng.integers(3, 9))
            a = random_weighted_graph(rng, n)
            labels = rng.integers(0, 3, size=n)
            gamma = float(rng.uniform(0.2, 3.0))
            if a.sum() == 0:
                continue
            assert modularity_score(a, labels, gamma) == pytest.approx(
                naive_modularity(a, labels, gamma), abs=1e-12
            )
            checked += 1

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            modularity_score(np.zeros((4, 4)), np.zeros(4, dtype=int), 1.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        a = random_weighted_graph(rng, n)
        if a.sum() == 0:
            return
        labels = rng.integers(0, 4, size=n)
        shuffled = rng.permutation(labels.max() + 1)[labels]
        assert modularity_score(a, labels, 1.0) == modularity_score(a, shuffled, 1.0)


class TestLouvain:
    def test_two_cliques_found_exactly(self):
        part = louvain(two_cliques(4), 1.0, seed=0)
        expected = np.repeat([0, 1], 4)
        assert np.array_equal(part.assignment, expected)

    def test_complete_graph_single_community(self):
        n = 6
        a = np.ones((n, n)) - np.eye(n)
        part = louvain(a, 1.0, seed=0)
        assert part.k == 1

    def test_beats_trivial_partitions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            a = random_weighted_graph(rng, n)
            if a.sum() == 0:
                continue
            part = louvain(a, 1.0, seed=int(rng.integers(1000)))
            q = part.objective
            q_one = modularity_score(a, np.zeros(n, dtype=int), 1.0)
            q_single = modularity_score(a, np.arange(n), 1.0)
            assert q >= max(q_one, q_single) - 1e-12

    def test_trace_is_nondecreasing(self):
        rng = np.random.default_rng(4)
        a = random_weighted_graph(rng, 30)
        trace = []
        louvain(a, 1.0, seed=5, trace=trace)
        assert len(trace) >= 2
        assert all(b >= a_ - 1e-12 for a_, b in zip(trace, trace[1:]))

    def test_trace_ends_at_objective(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(3, 25))
            a = random_weighted_graph(rng, n)
            if a.sum() == 0:
                continue
            trace = []
            part = louvain(a, float(rng.uniform(0.5, 2.0)), seed=int(rng.integers(1000)),
                           trace=trace)
            assert trace[-1] == part.objective
        slices = [random_weighted_graph(rng, 12) for _ in range(3)]
        stack = SliceStack(list(zip(slices, [0.5, 1.0, 2.0])), omega=0.4)
        trace = []
        res = multislice_louvain(stack, seed=3, trace=trace)
        assert trace[0] == multislice_score(stack, np.arange(36).reshape(3, 12).T)
        assert trace[-1] == res.objective
        assert all(b >= a_ - 1e-12 for a_, b in zip(trace, trace[1:]))

    def test_exhaustive_optimum_sample(self):
        # the full 100-graph sweep lives in the acceptance suite
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(20):
            n = int(rng.integers(4, 7))
            a = random_weighted_graph(rng, n)
            if a.sum() == 0:
                continue
            best = exhaustive_best_modularity(a, 1.0)
            got = louvain(a, 1.0, seed=9).objective
            assert got <= best + 1e-9
            hits += got >= best - 1e-9
        assert hits >= 16

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_objective_is_score_of_asymmetric_input(self, seed):
        # louvain and modularity_score both symmetrize A, so the reported
        # objective is exactly the quality that was optimized, strengths
        # (row sums of (A + A^T) / 2) included.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        a = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random(size=(n, n)) < 0.6)
        if a.sum() == 0:
            return
        gamma = float(rng.uniform(0.3, 2.5))
        part = louvain(a, gamma, seed=seed % 1000)
        assert part.objective == modularity_score(a, part, gamma)

    def test_gamma_monotone_community_count(self):
        config = SynthConfig(n_members=150, n_groups=8, seed=3)
        individuals, social = generate_dataset(config)
        sigma = compute_sigma(individuals, social)
        graph = build_weight_matrix(individuals, social, 0.4, sigma)
        t = normalize(graph)
        sym = 0.5 * (t + t.T)
        means = []
        for gamma in (0.1, 0.5, 1.0, 2.0, 3.5, 5.0):
            counts = [louvain(sym, gamma, seed=s).k for s in range(10)]
            means.append(np.mean(counts))
        inversions = sum(1 for a, b in zip(means, means[1:]) if b < a - 1e-9)
        assert inversions <= 1, means


class TestSliceStack:
    def test_validation(self):
        a = two_cliques(3)
        with pytest.raises(Exception):
            SliceStack([(a, 1.0), (a, 0.5)], omega=1.0)  # not increasing
        with pytest.raises(Exception):
            SliceStack([(a, 1.0)], omega=-0.1)
        with pytest.raises(Exception):
            SliceStack([], omega=1.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejects_bad_gamma(self, gamma):
        a = two_cliques(3)
        with pytest.raises(DataError, match="gamma must be finite and positive"):
            SliceStack([(a, gamma), (a, 2.0)], omega=1.0)
        with pytest.raises(DataError, match="gamma must be finite and positive"):
            louvain(a, gamma, seed=0)
        with pytest.raises(DataError, match="gamma must be finite and positive"):
            modularity_score(a, np.zeros(a.shape[0], dtype=int), gamma)

    @pytest.mark.parametrize("omega", [float("nan"), float("inf"), -0.1])
    def test_rejects_bad_omega(self, omega):
        with pytest.raises(DataError, match="omega must be finite and nonnegative"):
            SliceStack([(two_cliques(3), 1.0)], omega=omega)

    @pytest.mark.parametrize("layout", ["single", "distinct", "shared"])
    def test_asymmetric_slice_reads_as_its_symmetrization(self, layout):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.0, 1.0, size=(7, 7)) * (rng.random(size=(7, 7)) < 0.6)
        b = random_weighted_graph(rng, 7)
        slices = {"single": [a], "distinct": [b, a, b], "shared": [a, a, a]}[layout]
        gammas = [0.5, 1.0, 2.0][:len(slices)]
        stack = SliceStack(list(zip(slices, gammas)), omega=0.5)
        sym = SliceStack([(0.5 * (x + x.T) if x is a else x, g)
                          for x, g in zip(slices, gammas)], omega=0.5)
        assignment = rng.integers(0, 3, size=(7, len(slices)))
        assert multislice_score(stack, assignment) == multislice_score(sym, assignment)
        res, expected = multislice_louvain(stack, seed=3), multislice_louvain(sym, seed=3)
        assert np.array_equal(res.assignment, expected.assignment)
        assert res.objective == expected.objective

    def test_symmetric_slice_kept_bit_for_bit(self, small_graph):
        t = normalize(small_graph)
        sym = 0.5 * (t + t.T)
        assert not np.array_equal(t, t.T)
        stack = SliceStack([(t, 0.5), (t, 1.0)], omega=1.0)
        assert stack.a.shape == (1, *t.shape) and not np.shares_memory(stack.a, t)
        assert stack.a[0].tobytes() == sym.tobytes()
        assert SliceStack([(sym, 1.0)], omega=0.0).a[0].tobytes() == sym.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weight(self, bad):
        a = two_cliques(3)
        a[0, 1] = bad
        with pytest.raises(DataError, match="slice 1 has a non-finite weight"):
            SliceStack([(two_cliques(3), 1.0), (a, 2.0)], omega=1.0)
        with pytest.raises(DataError, match="slice 0 has a non-finite weight"):
            louvain(a, 1.0, seed=0)
        with pytest.raises(DataError, match="slice 0 has a non-finite weight"):
            modularity_score(a, np.zeros(a.shape[0], dtype=int), 1.0)
        a[1, 0] = -bad  # inf - inf is nan, not a warning
        with pytest.raises(DataError, match="slice 0 has a non-finite weight"):
            SliceStack([(a, 1.0)], omega=0.0)

    @pytest.mark.parametrize("bad", [np.float64(1.0), np.ones(3), np.ones((2, 3)),
                                     np.ones((2, 2, 2)), np.ones((3, 3))])
    def test_rejects_slice_not_square_matrix(self, bad):
        match = "all slices must share the same square shape"
        if bad.shape != (3, 3):
            with pytest.raises(DataError, match=match):
                SliceStack([(bad, 1.0)], omega=1.0)
        with pytest.raises(DataError, match=match):
            SliceStack([(np.ones((2, 2)), 1.0), (bad, 2.0)], omega=1.0)

    def test_rejects_zero_strength_slice(self):
        with pytest.raises(EmptyGraph, match="slice 1 has zero total strength"):
            SliceStack([(two_cliques(3), 1.0), (np.zeros((6, 6)), 2.0)], omega=1.0)

    def test_shared_array_converted_once_first_slice_named(self):
        a = two_cliques(3)
        a[0, 1] = np.nan
        # the first slice that holds the non-finite array is named
        with pytest.raises(DataError, match="slice 1 has a non-finite weight"):
            SliceStack([(two_cliques(3), 1.0), (a, 2.0), (a, 3.0)], omega=1.0)
        rows = two_cliques(3).tolist()
        stack = SliceStack([(rows, 1.0), (rows, 2.0), (two_cliques(3), 3.0)], omega=1.0)
        assert stack.slices[0][0] is stack.slices[1][0]
        assert stack.slices[1][0] is not stack.slices[2][0]


class TestMultisliceScore:
    def test_single_slice_equals_plain_modularity(self):
        rng = np.random.default_rng(6)
        a = random_weighted_graph(rng, 6)
        labels = rng.integers(0, 3, size=6)
        stack = SliceStack([(a, 1.0)], omega=5.0)
        assert multislice_score(stack, labels[:, None]) == pytest.approx(
            modularity_score(a, labels, 1.0), abs=1e-12
        )

    def test_omega_zero_is_strength_weighted_combination(self):
        rng = np.random.default_rng(7)
        slices = [random_weighted_graph(rng, 5) + np.eye(5) * 0.1 for _ in range(3)]
        gammas = [0.5, 1.0, 2.0]
        assignment = rng.integers(0, 3, size=(5, 3))
        stack = SliceStack(list(zip(slices, gammas)), omega=0.0)
        per_slice = [
            modularity_score(a, assignment[:, s], g)
            for s, (a, g) in enumerate(zip(slices, gammas))
        ]
        weights = [a.sum() for a in slices]
        expected = sum(q * w for q, w in zip(per_slice, weights)) / sum(weights)
        assert multislice_score(stack, assignment) == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_quadruple_loop(self):
        rng = np.random.default_rng(8)
        for trial in range(31):
            slices = [random_weighted_graph(rng, 4) + np.eye(4) * 0.2 for _ in range(2)]
            gammas = [0.7, 1.4]
            if trial == 30:  # one array shared by the outer slices, a distinct one between
                slices, gammas = [slices[0], slices[1], slices[0]], [0.5, 1.0, 2.0]
            omega = float(rng.uniform(0, 2))
            assignment = rng.integers(0, 3, size=(4, len(slices)))
            stack = SliceStack(list(zip(slices, gammas)), omega=omega)
            assert multislice_score(stack, assignment) == pytest.approx(
                naive_multislice(slices, gammas, omega, assignment), abs=1e-12
            )

    def test_dimension_mismatch(self):
        a = two_cliques(3)
        stack = SliceStack([(a, 1.0)], omega=0.0)
        with pytest.raises(DimensionMismatch):
            multislice_score(stack, np.zeros((5, 1), dtype=int))


class TestMultisliceLouvain:
    def test_huge_omega_forces_slice_constant_assignment(self):
        rng = np.random.default_rng(9)
        slices = [random_weighted_graph(rng, 8) + np.eye(8) * 0.1 for _ in range(3)]
        stack = SliceStack(list(zip(slices, [0.5, 1.0, 1.5])), omega=1e6)
        res = multislice_louvain(stack, seed=0)
        assert np.all(res.assignment == res.assignment[:, :1])

    def test_omega_zero_matches_single_slice_quality(self):
        a = two_cliques(4)
        stack = SliceStack([(a, 0.5), (a, 1.0), (a, 1.5)], omega=0.0)
        res = multislice_louvain(stack, seed=1)
        for s, gamma in enumerate((0.5, 1.0, 1.5)):
            q_slice = modularity_score(a, res.slice_partition(s), gamma)
            q_alone = louvain(a, gamma, seed=1).objective
            assert q_slice == pytest.approx(q_alone, abs=1e-9)

    def test_two_clique_stack_spans_slices(self):
        a = two_cliques(3)
        stack = SliceStack([(a, 0.5), (a, 1.0), (a, 1.5)], omega=1.0)
        res = multislice_louvain(stack, seed=2)
        assert res.n_communities == 2
        assert np.all(res.assignment == res.assignment[:, :1])
        expected = np.repeat([0, 1], 3)
        assert np.array_equal(res.assignment[:, 0], expected)

    def test_exhaustive_on_eight_vertex_supra(self):
        rng = np.random.default_rng(10)
        hits = 0
        total = 0
        for _ in range(8):
            slices = [random_weighted_graph(rng, 4) + np.eye(4) * 0.2 for _ in range(2)]
            gammas = [0.6, 1.3]
            omega = float(rng.uniform(0.1, 1.5))
            stack = SliceStack(list(zip(slices, gammas)), omega=omega)
            res = multislice_louvain(stack, seed=3)
            best = exhaustive_best_multislice(slices, gammas, omega)
            assert res.objective <= best + 1e-9
            hits += res.objective >= best - 1e-9
            total += 1
        assert hits >= total - 1

    def test_beats_singletons(self):
        rng = np.random.default_rng(11)
        slices = [random_weighted_graph(rng, 6) + np.eye(6) * 0.1 for _ in range(2)]
        stack = SliceStack(list(zip(slices, [0.8, 1.2])), omega=0.7)
        res = multislice_louvain(stack, seed=4)
        singles = np.arange(12).reshape(2, 6).T.copy()
        assert res.objective >= multislice_score(stack, singles) - 1e-12

    def test_peak_memory_relative_to_quality_matrix(self):
        n, n_slices = 300, 5
        a = random_weighted_graph(np.random.default_rng(12), n)
        stack = SliceStack([(a, g) for g in np.linspace(0.5, 3.0, n_slices)], omega=1.0)
        tracemalloc.start()
        try:
            multislice_louvain(stack, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # An explicit B would be a CSR of n_slices dense n x n blocks plus
        # 2n(n_slices - 1) couplings, at 8 bytes per value and 4 per int32
        # column index. Louvain reads the one shared slice array instead and
        # peaks near 0.38 b_bytes; building B alone peaked near 3.25.
        b_bytes = (n_slices * n * n + 2 * n * (n_slices - 1)) * 12
        assert peak < 0.5 * b_bytes

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_explicit_supra_matrix_louvain(self, seed):
        # Same assignment and objective as Louvain on the explicit B, with
        # the same visiting order and move rule.
        rng = np.random.default_rng(seed)
        n, n_slices = int(rng.integers(3, 16)), int(rng.integers(1, 6))

        def adjacency():
            a = random_weighted_graph(rng, n)
            if rng.random() < 0.5:
                a += np.diag(rng.uniform(0.0, 1.0, n))
            return a

        shared = rng.random() < 0.5
        slices = [adjacency()] * n_slices if shared else [adjacency() for _ in range(n_slices)]
        if any(a.sum() == 0 for a in slices):
            return
        gammas = np.cumsum(rng.uniform(0.1, 1.0, n_slices)).tolist()
        omega = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 2.0))
        res = multislice_louvain(SliceStack(list(zip(slices, gammas)), omega), seed=seed % 1000)
        assignment, quality = explicit_multislice_louvain(slices, gammas, omega, seed % 1000)
        assert np.array_equal(res.assignment, assignment)
        assert res.objective == pytest.approx(quality, abs=1e-12)


class TestNetworkxCrossCheck:
    def test_modularity_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        # Zero-diagonal graphs only: networkx counts a self-loop twice in a
        # vertex's degree, while the strengths of Q count the diagonal once.
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 15))
            a = random_weighted_graph(rng, n)
            if a.sum() == 0:
                continue
            labels = rng.integers(0, 4, size=n)
            gamma = float(rng.uniform(0.2, 3.0))
            communities = [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]
            expected = nx.community.modularity(
                nx.from_numpy_array(a), communities, weight="weight", resolution=gamma
            )
            assert modularity_score(a, labels, gamma) == pytest.approx(expected, abs=1e-12)
            checked += 1

    def test_louvain_quality_against_networkx_louvain(self):
        nx = pytest.importorskip("networkx")
        # Graph i is drawn from seed i; both optimizers run with seed i and
        # are scored by the same Q. Ours is lower on 56 of these 200 graphs,
        # higher on 62 and equal on 82, by at most 0.014 and +0.0006 on
        # average.
        shortfalls = []
        for i in range(200):
            rng = np.random.default_rng(i)
            n = int(rng.integers(8, 60))
            a = random_weighted_graph(rng, n)
            gamma = (0.5, 1.0, 2.0)[i % 3]
            communities = nx.community.louvain_communities(
                nx.from_numpy_array(a), weight="weight", resolution=gamma, seed=i
            )
            labels = np.empty(n, dtype=int)
            for c, members in enumerate(communities):
                labels[list(members)] = c
            shortfalls.append(modularity_score(a, labels, gamma) - louvain(a, gamma, seed=i).objective)
        shortfalls = np.array(shortfalls)
        assert np.count_nonzero(shortfalls > 0) <= 0.3 * shortfalls.size
        assert shortfalls.max() <= 0.02
        assert shortfalls.mean() <= 0.0


class TestMultisliceAssignment:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            MultisliceAssignment(np.array([[0, 2], [0, 2]]))

    def test_slice_partition_view(self):
        msa = MultisliceAssignment(np.array([[0, 1], [1, 1], [0, 0]]))
        part = msa.slice_partition(1)
        assert isinstance(part, Partition)
        assert part.assignment.tolist() == [0, 0, 1]
