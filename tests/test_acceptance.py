"""Acceptance suite.

Part 1 (criteria 1-7) checks every numerical operation against an
independent oracle: naive loops, exhaustive enumeration, or permutation
Monte Carlo. Part 2 (criteria 8-12) reproduces the study's qualitative
trends on the calibrated 748-member / 31-group synthetic dataset through
the real CLI: it runs the command lines of `geocluster.study` and judges
their reports with `study.judge`. Criterion 13 runs each line twice and
compares the files. One PASS line is printed per criterion.
"""

import copy

import numpy as np
import pytest

from geocluster import study
from geocluster.baselines import fit_gmm
from geocluster.cli import main
from geocluster.graph import build_weight_matrix, normalize
from geocluster.io import load_results
from geocluster.metrics import pair_counts, z_rand
from geocluster.modularity import SliceStack, louvain, modularity_score, multislice_score
from geocluster.spectral import embed
from geocluster.synth import GtParams, gt_matrix, total_intra_pairs, _round_half_up

from conftest import ACCEPTANCE_LINES, random_instance, random_weighted_graph
from oracles import (
    exhaustive_best_modularity,
    naive_modularity,
    naive_multislice,
    naive_weight_matrix,
    permutation_w_samples,
)


def report_line(num, description, passed, detail):
    line = f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'} - {description} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {num}: {description} ({detail})"


# --------------------------------------------------------------------------
# Oracle / property suite


def test_criterion_1_weight_matrix_oracle():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        individuals, social = random_instance(rng, n, contact_rate=0.15)
        alpha = float(rng.uniform(0.0, 1.0))
        sigma = float(rng.uniform(200.0, 1500.0))
        got = build_weight_matrix(individuals, social, alpha, sigma).W
        pts = [(p.x, p.y) for p in individuals]
        expected = naive_weight_matrix(pts, social.pairs, alpha, sigma)
        worst = max(worst, float(np.abs(got - expected).max()))
    report_line(1, "weight matrix matches naive double loop to 1e-14",
                worst <= 1e-14, f"max abs err {worst:.2e}")


def test_criterion_2_eigensolver_oracle():
    rng = np.random.default_rng(1002)
    worst_resid = 0.0
    worst_val = 0.0
    worst_align = 0.0
    for n in (40, 100):
        individuals, social = random_instance(rng, n, contact_rate=0.1)
        for alpha in (0.0, 0.4, 0.8):
            graph = build_weight_matrix(individuals, social, alpha, 800.0)
            t = normalize(graph)
            emb = embed(graph, n)
            resid = np.abs(t @ emb.coords - emb.coords * emb.eigenvalues[None, :]).max()
            worst_resid = max(worst_resid, float(resid))
            vals, vecs = np.linalg.eig(t)
            assert np.abs(vals.imag).max() < 1e-10
            order = np.argsort(vals.real)[::-1]
            vals = vals.real[order]
            vecs = vecs.real[:, order]
            worst_val = max(worst_val, float(np.abs(vals - emb.eigenvalues).max()))
            gaps = np.diff(emb.eigenvalues)
            for i in range(n):
                isolated = (i == 0 or -gaps[i - 1] > 1e-6) and (
                    i == n - 1 or -gaps[i] > 1e-6
                )
                if not isolated:
                    continue
                mine = emb.coords[:, i] / np.linalg.norm(emb.coords[:, i])
                ref = vecs[:, i] / np.linalg.norm(vecs[:, i])
                worst_align = max(worst_align, float(1.0 - abs(mine @ ref)))
    ok = worst_resid <= 1e-8 and worst_val <= 1e-8 and worst_align <= 1e-8
    report_line(2, "eigenpairs: residual and dense-reference agreement at 1e-8",
                ok, f"resid {worst_resid:.2e}, vals {worst_val:.2e}, align {worst_align:.2e}")


def test_criterion_3_quality_score_oracles():
    rng = np.random.default_rng(1003)
    worst = 0.0
    checked = 0
    while checked < 140:
        n = int(rng.integers(3, 11))
        a = random_weighted_graph(rng, n)
        if a.sum() == 0:
            continue
        labels = rng.integers(0, 4, size=n)
        gamma = float(rng.uniform(0.2, 3.0))
        diff = abs(modularity_score(a, labels, gamma) - naive_modularity(a, labels, gamma))
        worst = max(worst, diff)
        checked += 1
    # Multislice instances: one adjacency read at 1-3 resolutions. The last
    # 40 draw an asymmetric adjacency, which the stack reads as (A + A^T) / 2,
    # and score it against the naive loop on that symmetrization.
    while checked < 260:
        asymmetric = checked >= 220
        n = int(rng.integers(3, 6))
        n_slices = int(rng.integers(1, 4))
        if asymmetric:
            a = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random(size=(n, n)) < 0.6)
            if np.array_equal(a, a.T):
                continue
            naive_a = np.array([[(a[i, j] + a[j, i]) / 2 for j in range(n)]
                                for i in range(n)])
        else:
            a = random_weighted_graph(rng, n) + np.eye(n) * 0.2
            naive_a = a
        gammas = sorted(float(g) for g in rng.uniform(0.2, 3.0, size=n_slices))
        if len(set(gammas)) < n_slices:
            continue
        omega = float(rng.uniform(0.0, 2.0))
        assignment = rng.integers(0, 3, size=(n, n_slices))
        stack = SliceStack(a, gammas, omega=omega)
        diff = abs(
            multislice_score(stack, assignment)
            - naive_multislice([naive_a] * n_slices, gammas, omega, assignment)
        )
        worst = max(worst, diff)
        checked += 1
    report_line(3, "modularity and multislice scores match naive loops to 1e-12",
                worst <= 1e-12, f"{checked} instances (140 single-slice, 80 multislice, "
                f"40 asymmetric multislice), max abs err {worst:.2e}")


def test_criterion_4_louvain_vs_exhaustive():
    rng = np.random.default_rng(1004)
    hits = 0
    total = 0
    never_above = True
    while total < 100:
        n = int(rng.integers(4, 9))
        a = random_weighted_graph(rng, n)
        if a.sum() == 0:
            continue
        best = exhaustive_best_modularity(a, 1.0)
        got = louvain(a, 1.0, seed=int(rng.integers(10_000))).objective
        never_above &= got <= best + 1e-9
        hits += got >= best - 1e-9
        total += 1
    report_line(4, "Louvain attains the exhaustive optimum on >= 90% and never exceeds it",
                never_above and hits >= 90, f"{hits}/{total} optimal")


def test_criterion_5_zrand_monte_carlo():
    # Instances are noisy copies of the labels, so the observed z sits well
    # off zero and the relative comparison is meaningful.
    rng = np.random.default_rng(1005)
    worst_rel = 0.0
    worst_se = 0.0
    for case in range(20):
        n = int(rng.integers(60, 151))
        n_groups = int(rng.integers(4, 9))
        labels = rng.integers(0, n_groups, size=n).astype(str)
        assignment = np.unique(labels, return_inverse=True)[1].copy()
        noise = rng.random(n) < rng.uniform(0.2, 0.4)
        assignment[noise] = rng.integers(0, int(rng.integers(4, 11)), size=int(noise.sum()))
        pc = pair_counts(labels, assignment)
        z = z_rand(labels, assignment)
        samples = permutation_w_samples(labels, assignment, 100_000, seed=2000 + case)
        se = samples.std() / np.sqrt(samples.size)
        worst_se = max(worst_se, abs(samples.mean() - pc.M1 * pc.M2 / pc.M) / se)
        z_mc = (pc.w - samples.mean()) / samples.std()
        worst_rel = max(worst_rel, abs(z - z_mc) / abs(z_mc))
    report_line(5, "z-Rand closed form agrees with permutation Monte Carlo",
                worst_se <= 3.0 and worst_rel <= 0.05,
                f"mean within {worst_se:.2f} SE, z within {100 * worst_rel:.2f}%")


def test_criterion_6_gt_structural_invariants():
    rng = np.random.default_rng(1006)
    sizes = rng.integers(4, 14, size=31)  # as many groups as the calibrated dataset
    labels = np.repeat([f"g{i}" for i in range(sizes.size)], sizes)
    lab = np.asarray(labels)
    total = total_intra_pairs(labels)
    n = lab.size
    ok = True
    for draw in range(800):
        p = float(rng.uniform(0, 1))
        q = float(rng.uniform(0, 0.8))
        sm = gt_matrix(labels, GtParams(p=p, q=q, seed=draw))
        # the q-flip removes and adds equal counts, so the nonzero count
        # depends on p alone
        ok &= sm.n_contacts == _round_half_up(p * total)
    # seed-paired q-invariance of the nonzero count, plus dense symmetry
    for seed in range(100):
        p = 0.35
        counts = set()
        for q in (0.0, 0.3, 0.7):
            sm = gt_matrix(labels, GtParams(p=p, q=q, seed=seed))
            counts.add(sm.n_contacts)
            if seed < 10:
                dense = sm.to_dense()
                ok &= np.array_equal(dense, dense.T)
                ok &= np.all(np.diag(dense) == 1.0)
        ok &= len(counts) == 1
    # q = 0 draws keep every kept pair intra
    for seed in range(100):
        sm = gt_matrix(labels, GtParams(p=0.5, q=0.0, seed=seed))
        ok &= all(lab[i] == lab[j] for i, j in sm.pairs)
        ok &= sm.n_contacts == _round_half_up(0.5 * total)
    report_line(6, "GT(p,q) structural invariants hold on 1000 seeded draws",
                bool(ok), f"n={n}, {total} intra pairs")


def test_criterion_7_em_loglik_monotone():
    rng = np.random.default_rng(1007)
    worst = np.inf
    for trial in range(50):
        n = int(rng.integers(40, 150))
        centers = rng.uniform(-10, 10, size=(int(rng.integers(1, 5)), 2))
        pts = np.concatenate(
            [c + rng.normal(0, rng.uniform(0.5, 2.0), size=(n // len(centers) + 1, 2))
             for c in centers]
        )[:n]
        k = int(rng.integers(1, 7))
        fit = fit_gmm(pts, k, seed=trial)
        diffs = np.diff(fit.log_likelihoods)
        if diffs.size:
            worst = min(worst, float(diffs.min()))
    report_line(7, "EM log-likelihood nondecreasing on 50 random fits",
                worst >= -1e-10, f"worst step {worst:.2e}")


# --------------------------------------------------------------------------
# Trend-reproduction suite on the calibrated dataset


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    """`generate` and every study command, each run twice: the study's
    {command: report} and, for criterion 13, {step: whether the rerun left
    every file byte-identical}."""
    out_dir = tmp_path_factory.mktemp("acceptance")
    dataset = out_dir / "dataset"
    commands = study.commands(dataset, out_dir)
    reruns = {}
    for step, argv in {"generate": study.generate(study.DATASET_SEED, dataset),
                       **commands}.items():
        runs = []
        for _ in range(2):
            assert main(argv) == 0, f"command failed: {argv}"
            runs.append({path: path.read_bytes() for path in sorted(out_dir.rglob("*"))
                         if path.is_file()})
        reruns[step] = runs[0] == runs[1]
    return {command: load_results(argv[-1]) for command, argv in commands.items()}, reruns


@pytest.fixture(scope="module")
def reports(study_run):
    return study_run[0]


def test_criterion_8_alpha_sweep_purity(reports):
    report_line(8, *study.judge(reports)[8])


def test_criterion_9_zrand_collapse_at_alpha_one(reports):
    report_line(9, *study.judge(reports)[9])


def test_criterion_10_gmm_comparison(reports):
    report_line(10, *study.judge(reports)[10])


def test_gmm_fits_stop_before_em_cap(reports):
    report = reports["baselines"]
    runs = report["gmm"]["runs"]
    assert [r["cap_hit"] for r in runs] == [False] * report["config"]["runs"], \
        [r["em_iters"] for r in runs]


def test_criterion_11_gt_sweep_rises_with_p(reports):
    report_line(11, *study.judge(reports)[11])


def test_criterion_12_multislice_plateau(reports):
    report_line(12, *study.judge(reports)[12])


@pytest.mark.parametrize("criterion", range(8, 13))
def test_trend_judge_can_fail(reports, criterion):
    r = copy.deepcopy(reports)
    a = study.by_alpha(r["sweep-alpha"]["results"])
    {8: lambda: a[1.0].update(purity_mean=a[0.4]["purity_mean"]),  # loses one trend each
     9: lambda: a[1.0].update(zrand_mean=a[0.4]["zrand_mean"]),
     10: lambda: r["baselines"]["gmm"].update(zrand_mean=float("inf")),
     11: lambda: [rec.update(p=1 - rec["p"]) for rec in r["gt-sweep"]["results"]],
     12: lambda: r["multislice"].update(plateaus=[])}[criterion]()
    assert [v[1] for v in study.judge(r).values()] == [n != criterion for n in range(8, 13)]


def test_criterion_13_reproducibility(study_run):
    _, reruns = study_run
    differ = [step for step, same in reruns.items() if not same]
    report_line(13, "repeated runs with the same seed are byte-identical", not differ,
                f"differ: {', '.join(differ)}" if differ else f"verified for {', '.join(reruns)}")
