"""Workload definitions: the datasets each workload generates during setup,
the CLI command list one run executes on each of them, and the wrappers a
traced run of the workload must see fire.

A run uses `datasets` datasets, generated with `--seed <seed> + 1000 * i`
for i < datasets; dataset 0 of seed 18 is the acceptance dataset. Work
varies from one dataset to the next (k-means and EM iterations, Louvain
moves) by about as much as the machine's run-to-run noise, so a run
averages over several datasets rather than timing one.

Command lists use `{dataset}` and `{out}` placeholders; run.py fills them
with paths relative to the checkout root, so report bytes do not depend on
where the checkout lives.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 18  # the acceptance dataset seed
DATASET_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    # `generate` flags other than --seed and --out.
    generate: tuple[str, ...]
    # Datasets per run, at least 2.
    datasets: int
    # One run executes these CLI invocations in order.
    commands: tuple[tuple[str, ...], ...]
    # Wrapped functions (`<module>.<function>`) every traced run must call.
    expected: frozenset[str]

    def dataset_seeds(self, seed: int) -> list[int]:
        return [seed + DATASET_SEED_STRIDE * i for i in range(self.datasets)]

    def dataset_name(self, dataset_seed: int) -> str:
        flags = "-".join(tok.lstrip("-") for tok in self.generate)
        return f"{flags}-seed{dataset_seed}"


HOLLENBECK = ("--preset", "hollenbeck")
# About 24 members per group, as in the preset (748 members, 31 groups).
# With the preset's 31 groups at 3000 members, calibration does not reach
# the isolate-fraction target and `generate` exits 4; see README.md.
HOLLENBECK_3000 = ("--preset", "hollenbeck", "--n-members", "3000", "--n-groups", "124")

# Layers every scoring command crosses.
COMMON = frozenset({
    "io.load_dataset", "io.save_results", "graph.compute_sigma",
    "graph.build_weight_matrix", "graph.SocialMatrix.to_dense",
    "metrics.purity", "metrics.z_rand", "metrics.diagnostics",
    "cli.community_summaries",
})
SPECTRAL = frozenset({"spectral.embed", "spectral.kmeans", "spectral.lloyd", "graph.normalize"})

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sweep",
            generate=HOLLENBECK,
            datasets=3,
            commands=(
                ("sweep-alpha", "--dataset", "{dataset}", "--alphas", "0,0.2,0.4,0.6,0.8,1.0",
                 "--k", "31", "--runs", "10", "--seed", "100", "--out", "{out}"),
                ("gt-sweep", "--dataset", "{dataset}", "--alphas", "0.8",
                 "--p-grid", "0,0.25,0.5,0.75,1.0", "--q-list", "0",
                 "--k", "31", "--runs", "10", "--seed", "100", "--out", "{out}"),
            ),
            expected=COMMON | SPECTRAL | {"io.save_plot_csv", "synth.gt_matrix"},
        ),
        Workload(
            name="baselines",
            generate=HOLLENBECK,
            # Ten fits of each method per run, as with `--runs 10` on one
            # dataset, but spread over five datasets.
            datasets=5,
            commands=(
                ("baselines", "--dataset", "{dataset}", "--alphas", "0.4",
                 "--k", "31", "--runs", "2", "--seed", "100", "--out", "{out}"),
            ),
            expected=COMMON | SPECTRAL | {
                "io.save_plot_csv", "baselines.fit_gmm", "baselines.gmm_cluster",
                "baselines.kmeans_columns",
            },
        ),
        Workload(
            name="multislice",
            generate=HOLLENBECK,
            datasets=6,
            commands=(
                ("multislice", "--dataset", "{dataset}", "--alpha", "0.4",
                 "--gamma-grid", "0.5:3.0:0.25", "--omega", "1.0", "--seed", "77",
                 "--out", "{out}"),
            ),
            expected=COMMON | {
                "io.save_plot_csv", "graph.normalize", "modularity.multislice_louvain",
                "modularity.multislice_score",
            },
        ),
        Workload(
            name="scale",
            generate=HOLLENBECK_3000,
            datasets=2,
            commands=(
                ("spectral", "--dataset", "{dataset}", "--alpha", "0.4",
                 "--k", "31", "--runs", "10", "--seed", "100", "--out", "{out}"),
            ),
            expected=COMMON | SPECTRAL,
        ),
    )
}

# Commands that write a plot CSV next to the report JSON.
WRITES_CSV = frozenset({"sweep-alpha", "gt-sweep", "multislice", "baselines"})
