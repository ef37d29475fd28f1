"""Metamorphic relations: re-encodings of the same data that must leave the
results unchanged, with every transform fixed before its assertion."""

import json
import shutil

import numpy as np
import pytest

from geocluster import study
from geocluster.cli import main
from geocluster.graph import (Individual, SocialMatrix, build_weight_matrix, compute_sigma,
                              normalize)
from geocluster.io import DatasetFiles, load_dataset, load_results, save_dataset
from geocluster.metrics import diagnostics
from geocluster.modularity import louvain, modularity_score
from geocluster.spectral import embed

# A small grid of each command the relations cover; every run writes its
# report under the same dataset path, so `config.dataset` matches too.
COMMANDS = {
    "spectral": ["--alpha", "0.4", "--k", "6", "--runs", "3", "--seed", "2"],
    "multislice": ["--alpha", "0.4", "--gamma-grid", "0.5,1,2", "--omega", "1", "--seed", "2"],
    "gt-sweep": ["--alphas", "0.4,0.8", "--p-grid", "0,0.5", "--q-list", "0,0.3",
                 "--k", "6", "--runs", "2", "--seed", "2"],
}


def run_all(dataset, out_dir, commands) -> dict:
    """{file name: bytes} of the report and plot CSV of each command of
    `commands`, a {command: flags} map."""
    out_dir.mkdir()
    for command, flags in commands.items():
        assert main([command, "--dataset", str(dataset), *flags,
                     "--out", str(out_dir / f"{command}.json")]) == 0
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_contact_order_orientation_and_repeats_change_no_byte(dataset_dir, tmp_path):
    dataset = tmp_path / "ds"
    shutil.copytree(dataset_dir, dataset)
    want = run_all(dataset, tmp_path / "want", COMMANDS)
    assert len(want) == 6  # a report and a plot CSV per command

    # The transform: permute the contact rows with default_rng(11), swap
    # the two ids of every second row of the result (rows 1, 3, 5, ...),
    # then append its first 10 rows again.
    contacts = DatasetFiles.in_dir(dataset).contacts_csv
    header, *rows = contacts.read_text().splitlines()
    rows = [rows[i] for i in np.random.default_rng(11).permutation(len(rows))]
    rows[1::2] = [",".join(reversed(row.split(","))) for row in rows[1::2]]
    rows += rows[:10]
    contacts.write_text("\n".join([header, *rows]) + "\n")

    assert run_all(dataset, tmp_path / "got", COMMANDS) == want


class TestLengthScale:
    """Multiplying every coordinate by 4 (a power of two, so every
    coordinate, difference and distance scales exactly) multiplies sigma by
    exactly 4 and leaves everything else the same: the generator needs no
    length setting."""

    SCALE = 4.0

    def scaled(self, individuals):
        return [Individual(p.id, p.x * self.SCALE, p.y * self.SCALE, p.gang)
                for p in individuals]

    def test_sigma_scales_and_w_is_bit_identical(self, small_dataset):
        individuals, social, _ = small_dataset
        sigma = compute_sigma(individuals, social)
        scaled = self.scaled(individuals)
        assert compute_sigma(scaled, social) == self.SCALE * sigma
        for alpha in (0.0, 0.4, 1.0):
            want = build_weight_matrix(individuals, social, alpha, sigma).W
            got = build_weight_matrix(scaled, social, alpha, self.SCALE * sigma).W
            assert np.array_equal(got, want)

    def test_reports_agree_in_the_unit_of_the_original(self, dataset_dir, tmp_path):
        dataset = tmp_path / "ds"
        shutil.copytree(dataset_dir, dataset)
        commands = {name: COMMANDS[name] for name in ("spectral", "multislice")}
        want = run_all(dataset, tmp_path / "want", commands)
        files = DatasetFiles.in_dir(dataset)
        individuals, social = load_dataset(files)
        save_dataset(self.scaled(individuals), social, files)
        got = run_all(dataset, tmp_path / "got", commands)

        def unscaled(report: dict) -> dict:
            report["config"]["sigma"] /= self.SCALE
            for record in report["results"]:
                for community in record["communities"]:
                    community["centroid"] = [c / self.SCALE for c in community["centroid"]]
            return report

        assert want.keys() == got.keys() == {"spectral.json", "spectral.csv",
                                             "multislice.json", "multislice.csv"}
        for name in ("spectral", "multislice"):
            assert json.loads(got[f"{name}.json"]) != json.loads(want[f"{name}.json"])
            assert unscaled(json.loads(got[f"{name}.json"])) == json.loads(want[f"{name}.json"])
            assert got[f"{name}.csv"] == want[f"{name}.csv"]


def _metric_values(node, path=()):
    """(path, value) of every purity and z-Rand entry of a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("purity", "z_rand") or key.startswith(("purity_", "zrand_")):
                yield path + (key,), value
            else:
                yield from _metric_values(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _metric_values(value, path + (i,))


class TestShuffledLabels:
    """Negative control: the seed-18 dataset with its `gang` column permuted
    once by np.random.default_rng(11), then the study's `sweep-alpha`,
    `baselines` and `multislice` command lines run on it (`gt-sweep` builds
    its contacts from the labels, so it has no shuffled counterpart). The
    partitions carry no information about the shuffled labels, and z-Rand
    is a z-score under the hypergeometric null, so every mean z-Rand lies
    within +-3 (they range from -1.7 to 0.55)."""

    BOUND = 3.0

    def test_every_mean_z_rand_is_near_zero(self, hollenbeck, tmp_path):
        individuals, social, labels = hollenbeck
        shuffled = labels[np.random.default_rng(11).permutation(labels.size)]
        (tmp_path / "ds").mkdir()
        save_dataset([Individual(p.id, p.x, p.y, str(gang))
                      for p, gang in zip(individuals, shuffled)],
                     social, DatasetFiles.in_dir(tmp_path / "ds"))
        commands = study.commands(tmp_path / "ds", tmp_path)
        reports = {}
        for name in ("sweep-alpha", "baselines", "multislice"):
            assert main(commands[name]) == 0
            reports[name] = load_results(commands[name][-1])
        means = {
            **{f"alpha {r['alpha']}": r["zrand_mean"] for r in reports["sweep-alpha"]["results"]},
            "gmm": reports["baselines"]["gmm"]["zrand_mean"],
            **{f"{method} alpha {r['alpha']}": r["zrand_mean"]
               for method in ("kmeans_columns", "spectral")
               for r in reports["baselines"][method]},
            **{f"gamma {r['gamma']}": r["z_rand"] for r in reports["multislice"]["results"]},
        }
        assert len(means) == 6 + 1 + 2 + 11
        assert all(abs(z) <= self.BOUND for z in means.values()), means


def test_order_preserving_label_renaming_keeps_every_score(dataset_dir, tmp_path):
    # The transform: prefix every label with "g-", which keeps their sort
    # order, so GT(p, q) draws the same pairs too.
    commands = {**COMMANDS, "baselines": ["--alphas", "0.4", "--k", "6", "--runs", "2",
                                          "--seed", "2"]}
    dataset = tmp_path / "ds"
    shutil.copytree(dataset_dir, dataset)
    want = run_all(dataset, tmp_path / "want", commands)
    files = DatasetFiles.in_dir(dataset)
    individuals, social = load_dataset(files)
    save_dataset([Individual(p.id, p.x, p.y, "g-" + p.gang) for p in individuals], social, files)
    got = run_all(dataset, tmp_path / "got", commands)
    assert want.keys() == got.keys()
    for name in want:
        if name.endswith(".csv"):
            assert got[name] == want[name]
            continue
        assert json.loads(got[name]) != json.loads(want[name])  # the labels did change
        values = list(_metric_values(json.loads(want[name])))
        assert values and list(_metric_values(json.loads(got[name]))) == values


def test_permuted_individuals(small_dataset):
    # The transform: reorder the 160 individuals by
    # np.random.default_rng(11).permutation(160), carrying the contacts along.
    individuals, social, labels = small_dataset
    n = len(individuals)
    perm = np.random.default_rng(11).permutation(n)  # new position i holds old perm[i]
    moved = [individuals[i] for i in perm]
    moved_social = SocialMatrix.from_pairs(n, np.argsort(perm)[social.ij])
    sigma = compute_sigma(individuals, social)
    assert compute_sigma(moved, moved_social) == pytest.approx(sigma, rel=1e-12, abs=0.0)
    assert diagnostics(moved_social, labels[perm]) == diagnostics(social, labels)
    for alpha in (0.0, 0.4, 1.0):
        graph = build_weight_matrix(individuals, social, alpha, sigma)
        moved_graph = build_weight_matrix(moved, moved_social, alpha, sigma)
        assert np.array_equal(moved_graph.W, graph.W[np.ix_(perm, perm)])
        assert np.allclose(embed(moved_graph, 8).eigenvalues, embed(graph, 8).eigenvalues,
                           rtol=0.0, atol=1e-12)
        transition = normalize(graph)
        part = louvain(transition, 1.0, seed=0)
        assert modularity_score(normalize(moved_graph), part.assignment[perm], 1.0) == \
            pytest.approx(part.objective, rel=0.0, abs=1e-12)
