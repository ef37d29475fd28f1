import dataclasses
import hashlib
import math

import numpy as np
import pytest

from geocluster.errors import DataError
from geocluster.io import DatasetFiles, save_dataset
from geocluster.metrics import diagnostics
from geocluster.synth import (
    GtParams,
    InsufficientZeros,
    SynthConfig,
    generate_dataset,
    gt_equivalence_point,
    gt_matrix,
    intra_contact_count,
    total_intra_pairs,
    _round_half_up,
)


def labels_of_sizes(sizes):
    return np.repeat([f"g{i}" for i in range(len(sizes))], sizes)


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected", [(0.0, 0), (0.4999, 0), (0.5, 1), (1.5, 2), (2.4, 2)]
    )
    def test_round_half_up(self, value, expected):
        assert _round_half_up(value) == expected


class TestGtMatrix:
    def test_full_matrix_is_intra_blocks(self):
        labels = labels_of_sizes([3, 2])
        sm = gt_matrix(labels, GtParams(p=1.0, q=0.0, seed=0))
        expected = {(0, 1), (0, 2), (1, 2), (3, 4)}
        assert sm.pairs == frozenset(expected)

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_p_zero_is_diagonal_only(self, q):
        labels = labels_of_sizes([4, 4])
        sm = gt_matrix(labels, GtParams(p=0.0, q=q, seed=1))
        assert sm.n_contacts == 0

    def test_exact_keep_count_and_intra_only_at_q_zero(self):
        labels = labels_of_sizes([6, 5, 4])
        total = total_intra_pairs(labels)
        for seed in range(50):
            for p in (0.2, 0.5, 0.77):
                sm = gt_matrix(labels, GtParams(p=p, q=0.0, seed=seed))
                assert sm.n_contacts == _round_half_up(p * total)
                lab = np.asarray(labels)
                assert all(lab[i] == lab[j] for i, j in sm.pairs)

    def test_nonzero_count_independent_of_q(self):
        labels = labels_of_sizes([8, 7, 6])
        for seed in range(30):
            counts = {
                gt_matrix(labels, GtParams(p=0.6, q=q, seed=seed)).n_contacts
                for q in (0.0, 0.25, 0.5, 1.0)
            }
            assert len(counts) == 1

    def test_flip_moves_expected_mass_off_intra(self):
        labels = labels_of_sizes([10, 10])
        lab = np.asarray(labels)
        sm = gt_matrix(labels, GtParams(p=1.0, q=0.4, seed=3))
        kept = _round_half_up(1.0 * total_intra_pairs(labels))
        flips = _round_half_up(0.4 * kept)
        inter = sum(1 for i, j in sm.pairs if lab[i] != lab[j])
        # flipped-in entries land uniformly on the available zeros, which are
        # mostly inter-group here
        assert 0 < inter <= flips

    def test_insufficient_zeros(self):
        labels = labels_of_sizes([5])  # all pairs intra, p=1 leaves no zeros
        with pytest.raises(InsufficientZeros):
            gt_matrix(labels, GtParams(p=1.0, q=0.5, seed=0))

    def test_params_validated(self):
        with pytest.raises(DataError):
            GtParams(p=1.1, q=0.0)
        with pytest.raises(DataError):
            GtParams(p=0.5, q=-0.2)

    def test_deterministic_per_seed(self):
        labels = labels_of_sizes([6, 6])
        a = gt_matrix(labels, GtParams(p=0.5, q=0.2, seed=9))
        b = gt_matrix(labels, GtParams(p=0.5, q=0.2, seed=9))
        assert a.pairs == b.pairs


class TestEquivalencePoint:
    def test_matches_ratio(self, small_dataset):
        _, social, labels = small_dataset
        expected = intra_contact_count(labels, social) / total_intra_pairs(labels)
        assert gt_equivalence_point(labels, social) == pytest.approx(expected)

    def test_equivalence_means_equal_true_positive_count(self, small_dataset):
        _, social, labels = small_dataset
        p_star = gt_equivalence_point(labels, social)
        sm = gt_matrix(labels, GtParams(p=p_star, q=0.0, seed=4))
        assert sm.n_contacts == pytest.approx(
            intra_contact_count(labels, social), abs=1
        )


class TestEquivalencePointStudy:
    def test_q_noise_matters_less_than_doubling_p(self, small_dataset):
        # paired comparison at alpha=0.8: with p fixed at the equivalence
        # point, sweeping q over {0, 0.15, 0.3} moves mean purity less than
        # doubling p at q=0 does
        import geocluster as gc
        from geocluster.spectral import embed, kmeans

        individuals, social, labels = small_dataset
        sigma = gc.compute_sigma(individuals, social)
        k = np.unique(labels).size
        p_star = gt_equivalence_point(labels, social)

        def mean_purity(p, q, gt_seed):
            gt = gt_matrix(labels, GtParams(p=min(p, 1.0), q=q, seed=gt_seed))
            graph = gc.build_weight_matrix(individuals, gt, 0.8, sigma)
            emb = embed(graph, k)
            runs = [
                gc.purity(labels, kmeans(emb.coords, k, seed=100 + r))
                for r in range(10)
            ]
            return np.mean(runs)

        at_q = [mean_purity(p_star, q, 900 + i) for i, q in enumerate((0.0, 0.15, 0.3))]
        doubled = mean_purity(2 * p_star, 0.0, 950)
        q_span = max(at_q) - min(at_q)
        p_effect = doubled - at_q[0]
        assert q_span < p_effect


class TestGenerateDataset:
    def test_calibrated_defaults_hit_targets(self, hollenbeck):
        _, social, labels = hollenbeck
        rep = diagnostics(social, labels)
        assert abs(rep.degree_mean - 1.2754) <= 0.1
        assert abs(rep.intra_fraction - 0.887) <= 0.02
        assert abs(rep.isolate_fraction - 0.42) <= 0.05
        assert rep.n == 748

    def test_deterministic_per_seed(self):
        config = SynthConfig(n_members=90, n_groups=4, seed=13)
        a_inds, a_sm = generate_dataset(config)
        b_inds, b_sm = generate_dataset(config)
        assert a_inds == b_inds
        assert a_sm.pairs == b_sm.pairs

    def test_group_count_and_sizes(self, hollenbeck):
        individuals, _, labels = hollenbeck
        unique, counts = np.unique(labels, return_counts=True)
        assert unique.size == 31
        assert counts.min() >= 4
        assert counts.sum() == 748

    def test_config_validation(self):
        with pytest.raises(DataError):
            SynthConfig(n_members=0)
        with pytest.raises(DataError):
            SynthConfig(n_members=10, n_groups=5)
        for spread in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DataError, match="spatial_spread"):
                SynthConfig(spatial_spread=spread)

    def test_config_has_only_the_four_settable_fields(self):
        names = [f.name for f in dataclasses.fields(SynthConfig)]
        assert names == ["n_members", "n_groups", "spatial_spread", "seed"]

    # Pinned digests of the CSV pair: a change to any draw of the generator
    # or to the CSV format shows here.
    @pytest.mark.parametrize("kwargs,digests", [
        (dict(seed=18), (
            "6b8ef6625d2e9c72246bab5fe5a759d32bdf4af02339de9fd6b1f888a5bb26ad",
            "bc70402da42c72180e75f2325cd6229cbcf2abafc7e386f4c15b3e5dc90951c0",
        )),
        (dict(n_members=120, n_groups=6, seed=7), (
            "f20cf7c08e13aa1acf5c906798a3e109e2e8bbab5ddca11d7f5d07298296f442",
            "1077955c50025f12691dff86e3b9f9b9d4b3f86710f6561e9175b73e06baa157",
        )),
    ])
    def test_dataset_bytes_are_pinned(self, kwargs, digests, tmp_path):
        files = DatasetFiles.in_dir(tmp_path)
        save_dataset(*generate_dataset(SynthConfig(**kwargs)), files)
        got = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (files.individuals_csv, files.contacts_csv))
        assert got == digests
