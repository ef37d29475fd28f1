"""Acceptance suite.

Part 1 (criteria 1-7) checks every numerical operation against an
independent oracle: naive loops, exhaustive enumeration, or permutation
Monte Carlo. Part 2 (criteria 8-12) reproduces the study's qualitative
trends on the calibrated 748-member / 31-group synthetic dataset through
the real CLI, and criterion 13 asserts byte-identical reports by running
every command twice. One PASS line is printed per criterion.
"""

import numpy as np
import pytest

from geocluster.baselines import fit_gmm
from geocluster.cli import main
from geocluster.graph import build_weight_matrix, normalize
from geocluster.io import load_results
from geocluster.metrics import pair_counts, z_rand
from geocluster.modularity import SliceStack, louvain, modularity_score, multislice_score
from geocluster.spectral import embed
from geocluster.synth import GtParams, gt_matrix, total_intra_pairs, _round_half_up

from conftest import ACCEPTANCE_LINES, HOLLENBECK_SEED, random_instance, random_weighted_graph
from oracles import (
    exhaustive_best_modularity,
    naive_modularity,
    naive_multislice,
    naive_weight_matrix,
    permutation_w_samples,
)

K_GROUPS = 31
RUNS = 10
BASE_SEED = 100


def report_line(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num:2d} {status} - {description}" + (f" ({detail})" if detail else "")
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {num}: {description} ({detail})"


def pooled_std(s1, s2):
    return np.sqrt((s1**2 + s2**2) / 2.0)


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
    while checked < 220:
        n = int(rng.integers(3, 6))
        n_slices = int(rng.integers(1, 4))
        slices = [random_weighted_graph(rng, n) + np.eye(n) * 0.2 for _ in range(n_slices)]
        gammas = sorted(float(g) for g in rng.uniform(0.2, 3.0, size=n_slices))
        if len(set(gammas)) < n_slices:
            continue
        omega = float(rng.uniform(0.0, 2.0))
        assignment = rng.integers(0, 3, size=(n, n_slices))
        stack = SliceStack(list(zip(slices, gammas)), omega=omega)
        diff = abs(
            multislice_score(stack, assignment)
            - naive_multislice(slices, gammas, omega, assignment)
        )
        worst = max(worst, diff)
        checked += 1
    report_line(3, "modularity and multislice scores match naive loops to 1e-12",
                worst <= 1e-12, f"{checked} instances, max abs err {worst:.2e}")


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
    sizes = rng.integers(4, 14, size=K_GROUPS)
    labels = np.repeat([f"g{i}" for i in range(K_GROUPS)], sizes)
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
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def run_cli_twice(args, out):
    """Run a CLI command twice; byte-identical output feeds criterion 13."""
    code = main(args)
    assert code == 0, f"command failed: {args}"
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first, f"non-deterministic output: {args}"
    return load_results(out)


@pytest.fixture(scope="module")
def dataset_dir(workdir):
    out = workdir / "hollenbeck"
    args = ["generate", "--preset", "hollenbeck",
            "--seed", str(HOLLENBECK_SEED), "--out", str(out)]
    assert main(args) == 0
    snapshot = {
        name: (out / name).read_bytes() for name in ("individuals.csv", "contacts.csv")
    }
    assert main(args) == 0
    for name, blob in snapshot.items():
        assert (out / name).read_bytes() == blob
    return out


@pytest.fixture(scope="module")
def alpha_sweep(workdir, dataset_dir):
    out = workdir / "sweep.json"
    return run_cli_twice([
        "sweep-alpha", "--dataset", str(dataset_dir),
        "--alphas", "0,0.2,0.4,0.6,0.8,1.0", "--k", str(K_GROUPS),
        "--runs", str(RUNS), "--seed", str(BASE_SEED), "--out", str(out),
    ], out)


@pytest.fixture(scope="module")
def baselines_report(workdir, dataset_dir):
    out = workdir / "baselines.json"
    return run_cli_twice([
        "baselines", "--dataset", str(dataset_dir), "--alphas", "0.4",
        "--k", str(K_GROUPS), "--runs", str(RUNS),
        "--seed", str(BASE_SEED), "--out", str(out),
    ], out)


@pytest.fixture(scope="module")
def gt_sweep(workdir, dataset_dir):
    out = workdir / "gt.json"
    return run_cli_twice([
        "gt-sweep", "--dataset", str(dataset_dir), "--alphas", "0.8",
        "--p-grid", "0,0.25,0.5,0.75,1.0", "--q-list", "0",
        "--k", str(K_GROUPS), "--runs", str(RUNS),
        "--seed", str(BASE_SEED), "--out", str(out),
    ], out)


@pytest.fixture(scope="module")
def multislice_report(workdir, dataset_dir):
    out = workdir / "multislice.json"
    return run_cli_twice([
        "multislice", "--dataset", str(dataset_dir), "--alpha", "0.4",
        "--gamma-grid", "0.5:3.0:0.25", "--omega", "1.0",
        "--seed", "77", "--out", str(out),
    ], out)


def by_alpha(report):
    return {rec["alpha"]: rec for rec in report["results"]}


def test_criterion_8_alpha_sweep_purity(alpha_sweep):
    recs = by_alpha(alpha_sweep)
    low = [recs[a] for a in (0.0, 0.2, 0.4, 0.6, 0.8)]
    indep = all(
        abs(a["purity_mean"] - b["purity_mean"])
        <= 2 * pooled_std(a["purity_std"], b["purity_std"])
        for i, a in enumerate(low)
        for b in low[i + 1:]
    )
    p04, p10 = recs[0.4], recs[1.0]
    drop = p04["purity_mean"] - p10["purity_mean"]
    sig = drop > 2 * pooled_std(p04["purity_std"], p10["purity_std"])
    in_band = 0.4 <= p04["purity_mean"] <= 0.75
    report_line(8, "purity alpha-independent below 0.8 and collapses at alpha=1",
                indep and sig and in_band and drop >= 0.1,
                f"p(0.4)={p04['purity_mean']:.3f}, p(1.0)={p10['purity_mean']:.3f}")


def test_criterion_9_zrand_collapse_at_alpha_one(alpha_sweep):
    recs = by_alpha(alpha_sweep)
    z1, z4 = recs[1.0]["zrand_mean"], recs[0.4]["zrand_mean"]
    report_line(9, "z-Rand at alpha=1 below a tenth of the alpha=0.4 level",
                z1 < 0.1 * z4, f"z(1.0)={z1:.1f}, z(0.4)={z4:.1f}")


def test_criterion_10_gmm_comparison(baselines_report):
    gmm = baselines_report["gmm"]
    spectral = by_alpha({"results": baselines_report["spectral"]})[0.4]
    z_ok = gmm["zrand_mean"] < spectral["zrand_mean"]
    band = 2 * pooled_std(gmm["purity_std"], spectral["purity_std"])
    pur_ok = abs(gmm["purity_mean"] - spectral["purity_mean"]) <= band
    report_line(10, "GMM z-Rand below spectral while purity is comparable",
                z_ok and pur_ok,
                f"z {gmm['zrand_mean']:.1f} vs {spectral['zrand_mean']:.1f}, "
                f"purity gap {abs(gmm['purity_mean'] - spectral['purity_mean']):.3f} vs band {band:.3f}")


def test_gmm_fits_stop_before_em_cap(baselines_report):
    runs = baselines_report["gmm"]["runs"]
    assert [r["cap_hit"] for r in runs] == [False] * RUNS, [r["em_iters"] for r in runs]


def test_criterion_11_gt_sweep_rises_with_p(gt_sweep):
    recs = sorted(gt_sweep["results"], key=lambda r: r["p"])
    means = [r["purity_mean"] for r in recs]
    inversions = sum(1 for a, b in zip(means, means[1:]) if b < a - 1e-12)
    gain = means[-1] - means[0]
    report_line(11, "GT sweep purity rises by >= 0.2 from p=0 to p=1, near-monotone",
                gain >= 0.2 and inversions <= 1,
                f"gain {gain:.3f}, inversions {inversions}, means "
                + ",".join(f"{m:.3f}" for m in means))


def test_criterion_12_multislice_plateau(multislice_report):
    plateaus = [p for p in multislice_report["plateaus"] if p["length"] >= 3]
    maxima = multislice_report["zrand_local_maxima"]
    hit = any(
        p["start"] - 1 <= m <= p["end"] + 1 for p in plateaus for m in maxima
    )
    report_line(12, "community-count plateau co-located with a z-Rand local maximum",
                bool(plateaus) and hit,
                f"plateaus {[(p['start'], p['end'], p['n_communities']) for p in plateaus]}, "
                f"maxima {maxima}")


def test_criterion_13_reproducibility(alpha_sweep, baselines_report, gt_sweep,
                                       multislice_report):
    # Byte-identity is asserted inside run_cli_twice for every command above;
    # reaching this point means every acceptance run was repeated and matched.
    report_line(13, "repeated runs with the same seed are byte-identical", True,
                "verified for generate, sweep-alpha, baselines, gt-sweep, multislice")
