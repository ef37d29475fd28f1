"""The study: the CLI command lines that reproduce the paper's findings on
the calibrated dataset, and `judge`, what their reports must show
(acceptance criteria 8-12). The acceptance gate (`tests/test_acceptance.py`)
and `scripts/run_full_study.py` both use them; the tests and
`scripts/digests.py` also share its CLI test dataset and `spectral` line.
Neither the CLI nor the package's public API imports this module.
"""

from __future__ import annotations

import math
from pathlib import Path

# The calibrated dataset the findings are judged on.
DATASET_SEED = 18
# The `generate` flags of the CLI tests' 120-member dataset.
TEST_DATASET = ("--n-members", "120", "--n-groups", "6", "--seed", "7")
# k, run count and seed of every study line that runs k-means.
RUNS = ("--k", "31", "--runs", "10", "--seed", "100")


def generate(seed: int, out: str | Path) -> list[str]:
    """The `generate` command line of the calibrated dataset `seed`."""
    return ["generate", "--preset", "hollenbeck", "--seed", str(seed), "--out", str(out)]


def spectral(dataset: str | Path, out: str | Path) -> list[str]:
    """The `spectral` line the checks run beside the study, at alpha 0.4."""
    return ["spectral", "--dataset", str(dataset), "--alpha", "0.4", *RUNS, "--out", str(out)]


def commands(dataset: str | Path, out_dir: str | Path) -> dict[str, list[str]]:
    """{command: argv} of the study on `dataset`, in run order; each writes
    its report to `<out_dir>/<command>.json`."""
    flags = {
        "sweep-alpha": ["--alphas", "0,0.2,0.4,0.6,0.8,1.0", *RUNS],
        "baselines": ["--alphas", "0.4", *RUNS],
        "multislice": ["--alpha", "0.4", "--gamma-grid", "0.5:3.0:0.25", "--omega", "1.0",
                       "--seed", "77"],
        "gt-sweep": ["--alphas", "0.8", "--p-grid", "0,0.25,0.5,0.75,1.0", "--q-list", "0", *RUNS],
    }
    return {command: [command, "--dataset", str(dataset), *argv,
                      "--out", str(Path(out_dir) / f"{command}.json")]
            for command, argv in flags.items()}


def pooled_std(s1: float, s2: float) -> float:
    return math.sqrt((s1**2 + s2**2) / 2.0)


def by_alpha(records: list[dict]) -> dict[float, dict]:
    return {rec["alpha"]: rec for rec in records}


def judge(reports: dict[str, dict]) -> dict[int, tuple[str, bool, str]]:
    """Criteria 8-12 on the study's {command: report}, as {criterion:
    (description, passed, detail)}; the detail holds the figures judged."""
    sweep = by_alpha(reports["sweep-alpha"]["results"])
    low = [sweep[a] for a in (0.0, 0.2, 0.4, 0.6, 0.8)]
    indep = all(abs(a["purity_mean"] - b["purity_mean"])
                <= 2 * pooled_std(a["purity_std"], b["purity_std"])
                for i, a in enumerate(low) for b in low[i + 1:])
    p04, p10 = sweep[0.4], sweep[1.0]
    drop = p04["purity_mean"] - p10["purity_mean"]
    collapse = (drop > 2 * pooled_std(p04["purity_std"], p10["purity_std"]) and drop >= 0.1
                and 0.4 <= p04["purity_mean"] <= 0.75)
    z1, z4 = p10["zrand_mean"], p04["zrand_mean"]
    gmm, spectral = reports["baselines"]["gmm"], by_alpha(reports["baselines"]["spectral"])[0.4]
    band = 2 * pooled_std(gmm["purity_std"], spectral["purity_std"])
    gap = abs(gmm["purity_mean"] - spectral["purity_mean"])
    z_gmm, z_spectral = gmm["zrand_mean"], spectral["zrand_mean"]
    means = [r["purity_mean"] for r in sorted(reports["gt-sweep"]["results"], key=lambda r: r["p"])]
    inversions = sum(b < a - 1e-12 for a, b in zip(means, means[1:]))
    gain = means[-1] - means[0]
    plateaus = [p for p in reports["multislice"]["plateaus"] if p["length"] >= 3]
    maxima = reports["multislice"]["zrand_local_maxima"]
    hit = any(p["start"] - 1 <= m <= p["end"] + 1 for p in plateaus for m in maxima)
    spans = [(p["start"], p["end"], p["n_communities"]) for p in plateaus]
    return {
        8: ("purity alpha-independent below 0.8 and collapses at alpha=1", indep and collapse,
            f"p(0.4)={p04['purity_mean']:.3f}, p(1.0)={p10['purity_mean']:.3f}"),
        9: ("z-Rand at alpha=1 below a tenth of the alpha=0.4 level", z1 < 0.1 * z4,
            f"z(1.0)={z1:.1f}, z(0.4)={z4:.1f}"),
        10: ("GMM z-Rand below spectral while purity is comparable",
             z_gmm < z_spectral and gap <= band,
             f"z {z_gmm:.1f} vs {z_spectral:.1f}, purity gap {gap:.3f} vs band {band:.3f}"),
        11: ("GT sweep purity rises by >= 0.2 from p=0 to p=1, near-monotone",
             gain >= 0.2 and inversions <= 1, f"gain {gain:.3f}, inversions {inversions}, "
             f"means {','.join(f'{m:.3f}' for m in means)}"),
        12: ("community-count plateau co-located with a z-Rand local maximum",
             bool(plateaus) and hit, f"plateaus {spans}, maxima {maxima}"),
    }
