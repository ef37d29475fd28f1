"""The generator against closed forms and naive oracles, and the bytes of
12 generated datasets against the manifests of `scripts/digests.py`, the
digests' one home; `tests/test_digests.py` regenerates the benchmark's
other datasets."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geocluster import synth
from geocluster.errors import DataError, NumericalError
from geocluster.graph import SocialMatrix
from geocluster.io import DatasetFiles, save_dataset
from geocluster.metrics import diagnostics
from geocluster.synth import (
    GtParams,
    SynthConfig,
    generate_dataset,
    gt_equivalence_point,
    gt_matrix,
    intra_contact_count,
    total_intra_pairs,
    _round_half_up,
    _sample_contacts,
)

from conftest import peak_bytes, pinned_datasets
from oracles import pairlist_sample_contacts, string_mask_gt_matrix


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
        with pytest.raises(DataError, match="^need 5 zero entries to flip, only 0 available$"):
            gt_matrix(labels, GtParams(p=1.0, q=0.5, seed=0))

    def test_params_validated(self):
        with pytest.raises(DataError):
            GtParams(p=1.1, q=0.0)
        with pytest.raises(DataError):
            GtParams(p=0.5, q=-0.2)
        with pytest.raises(DataError, match="seed must be at least 0, got -3"):
            GtParams(p=0.5, q=0.2, seed=-3)

    def test_deterministic_per_seed(self):
        labels = labels_of_sizes([6, 6])
        a = gt_matrix(labels, GtParams(p=0.5, q=0.2, seed=9))
        b = gt_matrix(labels, GtParams(p=0.5, q=0.2, seed=9))
        assert a.pairs == b.pairs

    @given(labels=st.lists(st.sampled_from(["", "a", "b", "B", "ab", "ba", "é", "g10", "g9"]),
                           max_size=40),
           p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_string_mask_oracle(self, labels, p, q, seed):
        params = GtParams(p=p, q=q, seed=seed)
        try:
            want = string_mask_gt_matrix(labels, params)
        except DataError as exc:
            with pytest.raises(DataError, match=str(exc)):
                gt_matrix(labels, params)
            return
        got = gt_matrix(labels, params)
        assert got.n == want.n
        assert np.array_equal(got.ij, want.ij)


class TestEquivalencePoint:
    def test_matches_ratio(self, small_dataset):
        _, social, labels = small_dataset
        expected = intra_contact_count(labels, social) / total_intra_pairs(labels)
        assert gt_equivalence_point(labels, social) == pytest.approx(expected)

    def test_labels_without_a_shared_pair_rejected(self):
        labels = np.array(list("abc"))
        with pytest.raises(DataError, match="^labels admit no intra-group pairs$"):
            gt_equivalence_point(labels, SocialMatrix.from_pairs(3, [(0, 1)]))

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
        with pytest.raises(DataError, match="seed must be at least 0, got -1"):
            SynthConfig(seed=-1)

    def test_config_has_only_the_three_settable_fields(self):
        names = [f.name for f in dataclasses.fields(SynthConfig)]
        assert names == ["n_members", "n_groups", "seed"]

    # A change to any draw of the generator or to the CSV format shows here,
    # until `python scripts/digests.py --write` rewrites the manifests.
    @pytest.mark.parametrize("kwargs,digests", pinned_datasets())
    def test_dataset_bytes_are_pinned(self, kwargs, digests, tmp_path):
        files = DatasetFiles.in_dir(tmp_path)
        save_dataset(*generate_dataset(SynthConfig(**kwargs)), files)
        got = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (files.individuals_csv, files.contacts_csv))
        assert got == digests

    # A draw holds the two pools' weight arrays and the copies rng.choice
    # makes of them; every other array is one group's block. Seed 18 peaks
    # under tracemalloc at 7.9 MB for n = 748 and 139 MB for n = 3000 / 124
    # groups; pools cut with pool-sized column and row index arrays peaked
    # at 9.8 MB and 173 MB.
    @staticmethod
    def _peak_bytes(config):
        np.random.default_rng(0)  # numpy imports numpy.random on first use
        return peak_bytes(generate_dataset, config)

    def test_default_dataset_peak_memory(self):
        assert self._peak_bytes(SynthConfig(seed=18)) < 8.8e6

    def test_scale_dataset_peak_memory(self):
        assert self._peak_bytes(SynthConfig(n_members=3000, n_groups=124, seed=18)) < 155e6

    def test_member_counts_off_target_fail_before_any_draw(self, monkeypatch):
        # n fixes the contact counts, so for these n every draw would miss
        # the mean degree or the intra fraction; the generator must say so
        # before it draws anything. The others reach the group sizes.
        class PastTheCheck(Exception):
            pass

        def no_draw(*args):
            pytest.fail("a contact draw was made")

        def group_sizes(*args):
            raise PastTheCheck

        monkeypatch.setattr(synth, "_sample_contacts", no_draw)
        monkeypatch.setattr(synth, "_group_sizes", group_sizes)
        failing = []
        for n in range(4, 6001):
            try:
                generate_dataset(SynthConfig(n_members=n, n_groups=1))
            except NumericalError as exc:
                assert "every draw would have mean degree" in str(exc)
                failing.append(n)
            except PastTheCheck:
                pass
        assert failing == [*range(4, 12), *range(17, 25), 34, 35]

    def test_pools_too_small_for_the_edges_fail_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            pytest.fail("a contact draw was made")

        monkeypatch.setattr(synth, "_sample_contacts", no_draw)
        with pytest.raises(NumericalError, match="^even with every member active") as info:
            generate_dataset(SynthConfig(n_groups=1))
        assert str(info.value) == (
            "even with every member active, the 279378 intra-group and 0 "
            "inter-group pairs cannot host 423 intra-group and 54 inter-group edges"
        )

    def test_isolate_miss_names_only_the_isolate_fraction(self, monkeypatch):
        monkeypatch.setattr(synth, "ISOLATE_FRACTION_TOL", -1.0)
        with pytest.raises(NumericalError, match="^isolate fraction target not met") as info:
            generate_dataset(SynthConfig(seed=18))
        message = str(info.value)
        assert "not met within 50 draws" in message
        assert "gave isolate fraction" in message and "(target 0.42 ± -1.0)" in message
        assert "intra fraction" not in message and "mean degree" not in message

    def test_calibration_failure_names_an_unhostable_pool(self, monkeypatch):
        monkeypatch.setattr(synth, "_sample_contacts", lambda *args: None)
        with pytest.raises(NumericalError, match="^isolate fraction target not met") as info:
            generate_dataset(SynthConfig(n_members=40, n_groups=2, seed=0))
        message = str(info.value)
        assert "not met within 50 draws" in message
        assert "at quiet fraction 0.0000, found too few active pairs" in message
        assert "to host 23 intra-group and 3 inter-group edges" in message


@st.composite
def contact_draws(draw):
    """Inputs of one contact draw: members sorted by group, edge counts from
    0 to beyond the pair count, and the seed of the draw's generator."""
    n = draw(st.integers(2, 60))
    n_groups = draw(st.integers(1, 6))
    group_of = np.sort(np.array(draw(st.lists(
        st.integers(0, n_groups - 1), min_size=n, max_size=n))))
    coords = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xy = coords.uniform(0.0, 3000.0, size=(n, 2))
    contested = coords.random(n)
    pairs = n * (n - 1) // 2
    counts = st.one_of(st.just(0), st.integers(0, n), st.integers(0, pairs + 2))
    return (
        group_of, xy, draw(counts), draw(counts),
        draw(st.one_of(st.just(0.0), st.floats(0.0, 0.95))), contested,
        draw(st.floats(50.0, 600.0)), draw(st.floats(50.0, 600.0)),
    ), draw(st.integers(0, 2**32 - 1))


def block_layout(sizes, n_edges_intra, n_edges_inter, seed=5):
    """A contact draw with every member active (quiet fraction 0), so the
    group sizes are the active layout that the pools are cut from."""
    coords = np.random.default_rng(seed)
    n = sum(sizes)
    return (np.repeat(np.arange(len(sizes)), sizes), coords.uniform(0.0, 3000.0, size=(n, 2)),
            n_edges_intra, n_edges_inter, 0.0, coords.random(n), 400.0, 300.0), seed


class TestSampleContacts:
    @staticmethod
    def _outcome(sampler, args, seed):
        rng = np.random.default_rng(seed)
        try:
            result = sampler(*args, rng)
        except (ValueError, RuntimeWarning) as exc:
            # every weight underflowed (0 / 0), or fewer are non-zero than
            # there are picks to make
            result = repr(exc)
        return result, rng.bit_generator.state

    @given(contact_draws())
    @settings(max_examples=300, deadline=None)
    # Layouts with empty or thin blocks: one group (no cross-group pool),
    # one-member groups (no same-group pairs) first, in the middle and last,
    # two members in all, and a large last group (its cross block is empty).
    @example(block_layout([9], 6, 0))
    @example(block_layout([9], 6, 1))
    @example(block_layout([1, 5, 4], 4, 5))
    @example(block_layout([4, 1, 5], 4, 5))
    @example(block_layout([5, 4, 1], 4, 5))
    @example(block_layout([1, 1, 1], 0, 3))
    @example(block_layout([2], 1, 0))
    @example(block_layout([1, 1], 0, 1))
    @example(block_layout([2, 3, 2], 3, 6))
    @example(block_layout([2, 3, 40], 30, 20))
    def test_matches_pair_list_oracle(self, case):
        args, seed = case
        got, got_state = self._outcome(_sample_contacts, args, seed)
        want, want_state = self._outcome(pairlist_sample_contacts, args, seed)
        assert got_state == want_state
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.shape == want.shape
            assert np.array_equal(got, want)
        else:
            assert got == want
